"""Named extension groups used throughout the toolkit.

Two registries: SOL4_NAMES lists the catalog's four-dimensional solvable
geometry groups, OTHER_NAMES the comparison groups (flat, three-dimensional,
or bare quotient).  Parameterized entries default to the matrix
[[3,2],[4,3]] family; a pillowcase(p,q,r) entry is the group that
classifier.group_from_invariant attaches to the invariant (p, q, r).
"""

from __future__ import annotations

import json

from .classifier import PillowcaseInvariant, group_from_invariant
from .extensions import ExtensionGroup, from_description
from .intmat import IntMatrix

SOL4_NAMES = ("pillowcase", "kb-monodromy", "bordered", "B1-sd-theta")
OTHER_NAMES = ("Dinf", "G2", "B1", "sigma")

DEFAULT_PSI = ((3, 2), (4, 3))
DEFAULT_XI = (1, 0)


def dinf_group() -> ExtensionGroup:
    """The infinite dihedral group itself, as a rank-0 extension."""
    return ExtensionGroup("Dinf", 0, generators=("u", "v"),
                          action={"u": None, "v": None}, name="Dinf")


def g2_group(axis_sign: int = 1) -> ExtensionGroup:
    """Z^2 sdprod Z with the point-reflection action."""
    return ExtensionGroup(
        "Zq", 2,
        lattice_names=("s", "t"),
        generators=("u",),
        action={"u": [[-1, 0], [0, -1]]},
        axis_signs={"u": axis_sign},
        name="G2",
    )


def b1_group() -> ExtensionGroup:
    """<t, x, y | tx=xt, ty=yt, xyx^-1=y^-1> over the lattice <t, y>."""
    return ExtensionGroup(
        "Zq", 2,
        lattice_names=("t", "y"),
        generators=("x",),
        action={"x": [[1, 0], [0, -1]]},
        axis_signs={"x": 1},
        name="B1",
    )


def b1_sd_theta_group() -> ExtensionGroup:
    """Mapping torus of the endomorphism t -> t^3 x^2, x -> t^4 x^3, y -> y
    of B1, remodeled over the finite-index lattice <t, x^2, y>.

    The quotient is Z x C2: the torus generator w and the residual x.  The
    commutator cocycle records [w-hat, x-hat] = t^4 x^2.
    """
    return ExtensionGroup(
        "ZxC2", 3,
        lattice_names=("t", "x2", "y"),
        generators=("w", "x"),
        action={
            "w": [[3, 8, 0], [1, 3, 0], [0, 0, 1]],
            "x": [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
        },
        cocycles={"x": (0, 1, 0), "w": (4, 1, 0)},
        axis_signs={"w": 1, "x": 1},
        name="B1-sd-theta",
    )


def sigma_group() -> ExtensionGroup:
    """The torsion-free dihedral extension of Z^2 with u^2 = x and
    v^2 = x^3 y^-2 (the relation u y u^-1 = y^-1 is used; see the
    verification report for the printed-variant discrepancy)."""
    return ExtensionGroup(
        "Dinf", 2,
        lattice_names=("x", "y"),
        generators=("u", "v"),
        action={
            "u": [[1, 0], [0, -1]],
            "v": [[17, 24], [-12, -17]],
        },
        cocycles={"u": (1, 0), "v": (3, -2)},
        axis_signs={"u": -1, "v": -1},
        name="sigma",
    )


def kb_monodromy_group(psi=DEFAULT_PSI) -> ExtensionGroup:
    """Z^2 sdprod pi1(Kb), x acting by diag(1,-1) and y by psi."""
    psi = psi if isinstance(psi, IntMatrix) else IntMatrix(psi)
    return ExtensionGroup(
        "Klein", 2,
        lattice_names=("s", "t"),
        generators=("x", "y"),
        action={"x": [[1, 0], [0, -1]], "y": psi},
        axis_signs={"x": -1, "y": 1},
        name=f"kb-monodromy({psi.literal()})",
    )


def bordered_group(xi=DEFAULT_XI, psi=DEFAULT_PSI) -> ExtensionGroup:
    """Z^3 sdprod Z with the bordered action [[1,0],[xi,psi]]."""
    psi = psi if isinstance(psi, IntMatrix) else IntMatrix(psi)
    xi = tuple(xi)
    if len(xi) != 2:
        raise ValueError("xi must be a 2-vector")
    theta = IntMatrix([
        [1, 0, 0],
        [xi[0], psi.rows[0][0], psi.rows[0][1]],
        [xi[1], psi.rows[1][0], psi.rows[1][1]],
    ])
    return ExtensionGroup(
        "Zq", 3,
        lattice_names=("x", "y", "z"),
        generators=("w",),
        action={"w": theta},
        axis_signs={"w": 1},
        name=f"bordered(({xi[0]},{xi[1]}),({psi.literal()}))",
    )


# the builder of each catalog name's representative, default parameters
_BUILDERS = {
    "pillowcase": lambda: group_from_invariant(PillowcaseInvariant(3, 2, 4)),
    "kb-monodromy": kb_monodromy_group,
    "bordered": bordered_group,
    "B1-sd-theta": b1_sd_theta_group,
    "Dinf": dinf_group,
    "G2": g2_group,
    "B1": b1_group,
    "sigma": sigma_group,
}


def default_catalog() -> dict[str, ExtensionGroup]:
    """One representative group per catalog name, default parameters."""
    return {name: build() for name, build in _BUILDERS.items()}


def _split_args(text: str) -> list[str]:
    """Split a parenthesized argument list on top-level commas."""
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
            current.append(ch)
        elif ch == ")":
            depth -= 1
            current.append(ch)
        elif ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [p.strip() for p in parts]


def parse_group_spec(text: str) -> ExtensionGroup:
    """Resolve a catalog identifier, optionally parameterized.

    Accepted forms: bare names (G2, B1, B1-sd-theta, sigma, Dinf,
    pillowcase, kb-monodromy, bordered), pillowcase(p,q,r),
    kb-monodromy(a,b;c,d), bordered((x1,x2),(a,b;c,d)).
    """
    text = text.strip()
    if "(" not in text:
        if text in _BUILDERS:
            return _BUILDERS[text]()
        raise ValueError(f"unknown catalog group {text!r}")
    head, _, rest = text.partition("(")
    head = head.strip()
    if not rest.endswith(")"):
        raise ValueError(f"unbalanced parentheses in {text!r}")
    body = rest[:-1]
    if head == "pillowcase":
        parts = _split_args(body)
        if len(parts) != 3:
            raise ValueError("pillowcase takes a (p,q,r) triple")
        p, q, r = (int(x) for x in parts)
        # the invariant type enforces the triple's rules
        return group_from_invariant(PillowcaseInvariant(p, q, r))
    if head == "kb-monodromy":
        return kb_monodromy_group(IntMatrix.parse(body))
    if head == "bordered":
        parts = _split_args(body)
        if len(parts) != 2 or not all(
                p.startswith("(") and p.endswith(")") for p in parts):
            raise ValueError("bordered takes ((x1,x2),(a,b;c,d))")
        xi = tuple(int(x) for x in _split_args(parts[0][1:-1]))
        psi = IntMatrix.parse(parts[1][1:-1])
        return bordered_group(xi, psi)
    raise ValueError(f"unknown catalog group {head!r}")


def load_group(path: str) -> ExtensionGroup:
    """Read a group description JSON file."""
    with open(path) as f:
        return from_description(json.load(f))


def resolve_group(spec: str) -> ExtensionGroup:
    """A catalog identifier, or a path to a description file if it ends in
    .json."""
    if spec.endswith(".json"):
        return load_group(spec)
    return parse_group_spec(spec)
