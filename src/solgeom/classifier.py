"""Classification pipeline for the pillowcase-fibred groups.

The complete invariant is a matrix [[p,q],[r,p]] with p odd, |p| > 1, q and
r even positive, and p^2 - qr = 1, taken up to inversion; normalize picks
the representative with q > 0.  from_extension recovers the invariant from
raw involution data (U, V, s_u, s_v) by restricting to canonical sublattices
and is basis-change invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import catalog
from .extensions import ExtensionGroup, FpPresentation
from .intmat import (
    IntMatrix,
    IntVector,
    kernel_basis,
    saturation,
    smith_rows,
)


class InvariantError(ValueError):
    """The given matrix or triple violates an invariant constraint."""


@dataclass(frozen=True)
class PillowcaseInvariant:
    """The (p, q, r) encoding of Psi = [[p,q],[r,p]], always in the
    normalized q > 0 form."""

    p: int
    q: int
    r: int

    def __post_init__(self):
        p, q, r = self.p, self.q, self.r
        if p % 2 == 0:
            raise InvariantError("p is even; it must be odd")
        if abs(p) <= 1:
            raise InvariantError("|p| <= 1; the matrix must be hyperbolic")
        if q % 2 or r % 2:
            raise InvariantError("off-diagonal entries must be even")
        if q <= 0:
            raise InvariantError("q <= 0; the normalized form has q > 0")
        if p * p - q * r != 1:
            raise InvariantError("determinant p^2 - qr is not 1")

    def matrix(self) -> IntMatrix:
        return IntMatrix([[self.p, self.q], [self.r, self.p]])

    def inverse_matrix(self) -> IntMatrix:
        return IntMatrix([[self.p, -self.q], [-self.r, self.p]])

    def to_record(self) -> dict:
        return {"p": self.p, "q": self.q, "r": self.r}

    @classmethod
    def from_record(cls, d: dict) -> "PillowcaseInvariant":
        return cls(d["p"], d["q"], d["r"])


def validate(m: IntMatrix) -> PillowcaseInvariant:
    """Check every constraint on a candidate matrix, reporting the first
    violation specifically."""
    if m.n != 2:
        raise InvariantError("expected a 2x2 matrix")
    p, q = m.rows[0]
    r, p2 = m.rows[1]
    if p != p2:
        raise InvariantError("diagonal entries differ; the invariant matrix "
                             "has equal diagonal")
    if p % 2 == 0:
        raise InvariantError("p is even; it must be odd")
    if abs(p) <= 1:
        raise InvariantError("|p| <= 1; the matrix must be hyperbolic")
    if q % 2 or r % 2:
        raise InvariantError("off-diagonal entries must be even")
    if m.det() != 1:
        raise InvariantError("determinant is not 1")
    if q <= 0:
        raise InvariantError("q <= 0; pass the inverse or use normalize")
    return PillowcaseInvariant(p, q, r)


def normalize(m: IntMatrix) -> PillowcaseInvariant:
    """The unique q > 0 representative of {M, M^-1}."""
    try:
        return validate(m)
    except InvariantError as first:
        try:
            return validate(m.inverse())
        except (InvariantError, ValueError):
            raise InvariantError(f"neither the matrix nor its inverse is a "
                                 f"valid invariant: {first}") from None


def isomorphic(a: PillowcaseInvariant, b: PillowcaseInvariant) -> bool:
    """Invariants are stored normalized, so isomorphism is equality."""
    return a == b


def enumerate_invariants(max_entry: int) -> list[PillowcaseInvariant]:
    """All invariants with max(|p|, q, r) <= max_entry, sorted by
    (|p|, sign, q) with positive p first."""
    if max_entry < 3:
        return []
    out = []
    for ap in range(3, max_entry + 1, 2):
        for p in (ap, -ap):
            target = p * p - 1
            for q in range(2, max_entry + 1, 2):
                if target % q:
                    continue
                r = target // q
                if r % 2 == 0 and 0 < r <= max_entry:
                    out.append(PillowcaseInvariant(p, q, r))
    out.sort(key=lambda v: (abs(v.p), 0 if v.p > 0 else 1, v.q))
    return out


def group_from_invariant(inv: PillowcaseInvariant) -> ExtensionGroup:
    """The extension group attached to an invariant, after the exact
    torsion gate."""
    group = catalog.pillowcase_group(inv.p, inv.q, inv.r)
    witness = group.find_torsion()
    if witness is not None:
        raise InvariantError(f"invariant produced a torsion element: "
                             f"witness (t={witness.t}, word={witness.q})")
    return group


def presentation_from_invariant(
        inv: PillowcaseInvariant) -> tuple[FpPresentation, ExtensionGroup]:
    """The explicit presentation and extension group attached to an
    invariant; runs the torsion gate before returning."""
    group = group_from_invariant(inv)
    return group.presentation(), group


def from_extension(u: IntMatrix, v: IntMatrix, s_u: IntVector,
                   s_v: IntVector) -> PillowcaseInvariant:
    """Recover the invariant from raw extension data.

    The words u, v must act by involutions; the composite W = U V must be
    hyperbolic on a rank-2 invariant sublattice N with a rank-1 fixed
    complement C, and the extension with the given square cocycles must be
    torsion-free.  The result does not depend on the ambient basis.
    """
    if u.n != 3 or v.n != 3:
        raise InvariantError("expected 3x3 actions")
    ident = IntMatrix.identity(3)
    if u * u != ident or v * v != ident:
        raise InvariantError("u and v must act by involutions")

    group = ExtensionGroup(
        "Dinf", 3, generators=("u", "v"),
        action={"u": u, "v": v},
        cocycles={"u": tuple(s_u), "v": tuple(s_v)},
    )
    witness = group.find_torsion()
    if witness is not None:
        raise InvariantError(f"extension has torsion: witness "
                             f"(t={witness.t}, word={witness.q})")

    w = u * v
    fixed = kernel_basis(w - ident)
    if len(fixed) != 1:
        raise InvariantError("the composite action is not hyperbolic: its "
                             "fixed lattice has rank "
                             f"{len(fixed)}, not 1")
    c = fixed[0]
    n_basis = saturation((w - ident).columns())
    if len(n_basis) != 2:
        raise InvariantError("the moved sublattice does not have rank 2")
    if IntMatrix.from_columns([n_basis[0], n_basis[1], c]).det() == 0:
        raise InvariantError("moved sublattice and fixed line do not span")

    a_res, d_res = _restrict((u, v), n_basis)
    # diagonalize the v-restriction over Z: need eigenbasis of determinant 1
    plus = kernel_basis(d_res - IntMatrix.identity(2))
    minus = kernel_basis(d_res + IntMatrix.identity(2))
    if len(plus) != 1 or len(minus) != 1:
        raise InvariantError("v does not restrict to a reflection on the "
                             "moved sublattice")
    basis = IntMatrix.from_columns([plus[0], minus[0]])
    if not basis.is_unimodular():
        raise InvariantError("v restricts to the non-diagonalizable "
                             "involution class on the moved sublattice")
    a_diag = basis.inverse() * a_res * basis
    psi = IntMatrix.diagonal((1, -1)) * a_diag
    if abs(psi.trace()) <= 2:
        raise InvariantError("the composite action is not hyperbolic on "
                             "the moved sublattice")
    return normalize(psi)


def _restrict(mats, basis: list[IntVector]) -> list[IntMatrix]:
    """Matrices of the given actions on the sublattice spanned by basis
    (which each must preserve), from one Smith form P B Q = S of the basis
    matrix B: B is independent, so B x = b has at most one solution,
    x = Q (P b / diag S)."""
    w = smith_rows([[vec[i] for vec in basis] for i in range(3)])
    d0, d1 = w.s[0][0], w.s[1][1]
    out = []
    for m in mats:
        cols = []
        for vec in basis:
            b = m.apply(vec)
            c0, c1, c2 = (sum(x * y for x, y in zip(row, b)) for row in w.p)
            if c2 or c0 % d0 or c1 % d1:
                raise InvariantError("action does not preserve the sublattice")
            cols.append(tuple(c0 // d0 * x + c1 // d1 * y
                              for x, y in zip(w.qt[0], w.qt[1])))
        out.append(IntMatrix.from_columns(cols))
    return out


def homology_report(inv: PillowcaseInvariant) -> dict:
    """H1 structure, generator image orders, and the w1 verdict."""
    group = group_from_invariant(inv)
    rank, torsion = group.abelianization()
    if rank != 0:
        raise InvariantError(f"first Betti number is {rank}, not 0")
    orders = group.h1_generator_orders()
    return {
        "invariant": inv.to_record(),
        "h1": {"rank": rank, "torsion": list(torsion)},
        "orders": orders,
        "w1_factors_through_z4": group.w1_factors_through_z4(),
    }
