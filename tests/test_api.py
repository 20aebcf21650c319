"""The public surface stays small: every name in solgeom.__all__ has a use
inside the package, so a function that no command reaches is deleted
rather than exported."""

import io
import pathlib
import tokenize

import solgeom

# public names with no caller in the package, each kept for a reason
KEPT = {
    "finite_order_class": "acceptance criterion 2 checks the class it "
                          "gives every finite-order matrix",
    "default_catalog": "acceptance criterion 9 enumerates the catalog "
                       "through it",
}


def _used_names(text):
    """The names a module's code refers to, leaving out the name that each
    def or class statement defines; strings and comments do not count."""
    used = set()
    previous = None
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NAME and previous not in ("def", "class"):
            used.add(tok.string)
        if tok.type == tokenize.NAME:
            previous = tok.string
    return used


def test_every_public_name_has_a_use():
    package = pathlib.Path(solgeom.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            used |= _used_names(path.read_text())
    unused = []
    for public in solgeom.__all__:
        obj = getattr(solgeom, public)
        # an alias such as invariants_isomorphic is used by its own name
        own = getattr(obj, "__module__", "").startswith("solgeom.")
        name = obj.__name__ if own else public
        if name not in used and public not in KEPT:
            unused.append(public)
    assert unused == []
    assert all(name in solgeom.__all__ for name in KEPT)
