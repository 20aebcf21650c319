"""Frozen particular solutions of singular integer systems.

When M x = b has many integer solutions, solve_integer returns one of them,
and which one is visible from outside: it is the torsion witness in
`group torsion` and in the InvariantError of from_extension, and it gives
the lattice parts of the center generators.  Any change to the Smith form
behind solve_integer may move it.  The table in pinned_solutions.json was
captured once from the inputs built below (fixed seeds); every entry must
stay as it is.

The table holds:
- "random": solve_integer on seeded singular rectangular systems;
- "torsion": every system the library solves while from_extension rejects
  the 52 classify-style torsion copies (one per invariant with entries
  <= 20, in a seeded basis), with the rejection message;
- "center": every system the library solves while computing the center of
  each catalog group, with the center generator words;
- "cli": the `group torsion` and `group center` documents of the catalog
  ids and two pillowcase specs.
"""

import contextlib
import io
import json
import os
import random

import pytest

from solgeom import catalog, classifier, cli, extensions
from solgeom.intmat import IntMatrix, solve_integer

TABLE = os.path.join(os.path.dirname(__file__), "pinned_solutions.json")
SPECS = sorted(catalog.default_catalog()) + ["pillowcase(5,4,6)",
                                             "pillowcase(7,6,8)"]


def _singular_systems(seed=20261018, count=300):
    """Seeded rank-deficient systems M x = b with b in the image."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nr, nc = rng.randint(2, 5), rng.randint(2, 6)
        k = rng.randint(1, min(nr, nc) - 1)
        left = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(nr)]
        right = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(k)]
        rows = [[sum(left[i][t] * right[t][j] for t in range(k))
                 for j in range(nc)] for i in range(nr)]
        x0 = [rng.randint(-5, 5) for _ in range(nc)]
        b = [sum(r[j] * x0[j] for j in range(nc)) for r in rows]
        out.append((rows, b))
    return out


def _random_basis(rng, steps=6):
    b = IntMatrix.identity(3)
    for _ in range(steps):
        i, j = rng.sample(range(3), 2)
        e = [[int(r == c) for c in range(3)] for r in range(3)]
        e[i][j] = rng.choice((-1, 1))
        b = IntMatrix(e) * b
    return b


def _torsion_copies(seed=81):
    """One torsion-carrying copy of each invariant with entries <= 20:
    s_u = -(I + U) w makes (w, u) an involution."""
    rng = random.Random(seed)
    ident = IntMatrix.identity(3)
    out = []
    for inv in classifier.enumerate_invariants(20):
        g = classifier.group_from_invariant(inv)
        b = _random_basis(rng)
        bi = b.inverse()
        u = b * g.action["u"] * bi
        v = b * g.action["v"] * bi
        w = tuple(rng.randint(-2, 2) for _ in range(3))
        s_u = tuple(-x for x in (ident + u).apply(w))
        s_v = b.apply(g.square_cocycle["v"])
        s_v = tuple(a + c for a, c in zip(
            s_v, (ident + v).apply(tuple(rng.randint(-2, 2)
                                         for _ in range(3)))))
        out.append((u, v, s_u, s_v))
    return out


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue())


def capture(monkeypatch):
    """Everything the table pins, computed by the library as it is now."""
    seen = []
    real = extensions.solve_integer

    def recording(m, b):
        rows = [list(r) for r in (m.rows if isinstance(m, IntMatrix) else m)]
        sol = real(m, b)
        seen.append([rows, list(b), None if sol is None else list(sol)])
        return sol

    monkeypatch.setattr(extensions, "solve_integer", recording)

    table = {"random": [], "torsion": [], "center": [], "cli": []}
    for rows, b in _singular_systems():
        sol = solve_integer(rows, b)
        table["random"].append([rows, b, None if sol is None else list(sol)])

    for u, v, s_u, s_v in _torsion_copies():
        seen.clear()
        with pytest.raises(classifier.InvariantError) as err:
            classifier.from_extension(u, v, s_u, s_v)
        table["torsion"].append({"message": str(err.value),
                                 "systems": list(seen)})

    for name, group in sorted(catalog.default_catalog().items()):
        seen.clear()
        c = group.center()
        table["center"].append({
            "group": name,
            "generators": [group.element_to_word(e) for e in c.generators],
            "systems": list(seen)})

    for spec in SPECS:
        for command in ("torsion", "center"):
            code, doc = _run_cli(["group", command, spec])
            table["cli"].append({"argv": ["group", command, spec],
                                 "code": code, "doc": doc})
    return table


@pytest.fixture(scope="module")
def pinned():
    with open(TABLE) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def captured():
    with pytest.MonkeyPatch.context() as mp:
        return json.loads(json.dumps(capture(mp)))


@pytest.mark.parametrize("section", ["random", "torsion", "center", "cli"])
def test_particular_solutions_are_pinned(section, pinned, captured):
    assert len(captured[section]) == len(pinned[section])
    for mine, frozen in zip(captured[section], pinned[section]):
        assert mine == frozen


def test_pinned_table_is_not_trivial(pinned):
    # the random systems are singular, so their solutions are not forced
    assert sum(1 for _, _, sol in pinned["random"] if sol is not None) == 300
    assert len(pinned["torsion"]) == 52
    assert all("witness" in entry["message"] for entry in pinned["torsion"])
    assert any(entry["generators"] for entry in pinned["center"])
