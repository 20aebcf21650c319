"""Classification pipeline for the pillowcase-fibred groups.

The complete invariant is a matrix [[p,q],[r,p]] with p odd, |p| > 1, q and
r even positive, and p^2 - qr = 1, taken up to inversion; normalize picks
the representative with q > 0.  from_extension recovers the invariant from
raw involution data (U, V, s_u, s_v) with closed-form rank-3 lattice
algebra (kernels of rank 1 are primitive cross products, a saturated plane
is the orthogonal complement of its primitive normal) and is basis-change
invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .extensions import ExtensionGroup
from .intmat import IntMatrix, IntVector, primitive_vector


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
        if p * p - q * r != 1:
            raise InvariantError("determinant is not 1")
        if q <= 0:
            raise InvariantError("q <= 0; pass the inverse or use normalize")

    def matrix(self) -> IntMatrix:
        return IntMatrix([[self.p, self.q], [self.r, self.p]])

    def to_record(self) -> dict:
        return {"p": self.p, "q": self.q, "r": self.r}


def validate(m: IntMatrix) -> PillowcaseInvariant:
    """Check every constraint on a candidate matrix, reporting the first
    violation specifically; PillowcaseInvariant holds the triple's rules."""
    if m.n != 2:
        raise InvariantError("expected a 2x2 matrix")
    p, q = m.rows[0]
    r, p2 = m.rows[1]
    if p != p2:
        raise InvariantError("diagonal entries differ; the invariant matrix "
                             "has equal diagonal")
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
    (|p|, sign, q) with positive p first, the order the loops visit."""
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
    return out


def group_from_invariant(inv: PillowcaseInvariant) -> ExtensionGroup:
    """The dihedral extension of Z^3 attached to an invariant; it is
    torsion-free.

    u acts by blockdiag(A, -1) with A = [[p,q],[-r,-p]], v by
    diag(1,-1,-1); u-hat^2 spans the +1-eigenlattice of the u-action and
    v-hat^2 = x.  A has trace 0 and det -1, so A - I has rank 1, and as
    q > 0 its first row (p - 1, q) is nonzero: the fixed line is spanned
    by (q, 1 - p).

    A torsion element exists exactly when -s_g is in Im(I + A_g) for g = u
    or v (ExtensionGroup.find_torsion).  As p is odd and q, r are even,
    I + A_u is 0 mod 2, while s_u is primitive, so not 0 mod 2; and
    Im(I + A_v) = 2Z x 0 x 0 misses -s_v = (-1, 0, 0).
    """
    p, q, r = inv.p, inv.q, inv.r
    e, f = primitive_vector((q, 1 - p))
    return ExtensionGroup(
        "Dinf", 3,
        lattice_names=("x", "y", "z"),
        generators=("u", "v"),
        action={
            "u": [[p, q, 0], [-r, -p, 0], [0, 0, -1]],
            "v": [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
        },
        cocycles={"u": (e, f, 0), "v": (1, 0, 0)},
        axis_signs={"u": -1, "v": -1},
        name=f"pillowcase({p},{q},{r})",
    )


def from_extension(u: IntMatrix, v: IntMatrix, s_u: IntVector,
                   s_v: IntVector) -> PillowcaseInvariant:
    """Recover the invariant from raw extension data.

    Checked in this order: the group is well formed, so U and V are 3x3
    involutions that fix their cocycles (ExtensionGroup's checks, raised
    here as InvariantError); the extension is torsion-free; tr U = tr V =
    -1; W = U V fixes a line C; Z^3 = C + N for N the saturation of
    im(W - I); W is hyperbolic on N.  The result does not depend on the
    ambient basis.

    After the torsion gate everything is exact 3x3 arithmetic.  C is
    spanned by the primitive cross product c of two rows of M = W - I, N is
    the plane n.x = 0 for n that of two columns, and [Z^3 : C + N] = |n.c|.
    v restricts to N (U W U = W^-1); its eigenlines e+- are the rank-1
    kernels of n stacked on V -+ I.  The invariant is V U on N in the basis
    (e+, e-), up to the sign of each e+-, which normalize absorbs.

    The checks suffice: in the other trace -1 class, swap + (-1), each
    fixed s_g is in Im(I + A_g), so a torsion-free U and V are conjugate to
    diag(1,-1,-1).  Then W is in SL(3,Z) and conjugate to W^-1, so it has
    eigenvalue 1.  U and V act alike on C; by +1 they would be -I on N and
    W = I.  So at index 1 V = (-1) + V|N, and Reiner's additive invariants
    of Z[C2]-lattices make V|N trivial + sign: e+- span N, cross = +-n.
    """
    try:
        group = ExtensionGroup(
            "Dinf", 3, generators=("u", "v"),
            action={"u": u, "v": v},
            cocycles={"u": tuple(s_u), "v": tuple(s_v)},
        )
    except ValueError as exc:
        raise InvariantError(str(exc)) from None
    witness = group.find_torsion()
    if witness is not None:
        raise InvariantError(f"extension has torsion: witness "
                             f"(t={witness.t}, word={witness.q})")
    if u.trace() != -1 or v.trace() != -1:
        raise InvariantError(f"u and v must have trace -1: tr U = "
                             f"{u.trace()}, tr V = {v.trace()}")

    ident = IntMatrix.identity(3)
    m = u * v - ident
    c = _line_kernel(m.rows)
    if c is None:
        # M is singular (W has eigenvalue 1), so its kernel has rank 2 or 3
        rank = 2 if any(map(any, m.rows)) else 3
        raise InvariantError("the composite action is not hyperbolic: its "
                             f"fixed lattice has rank {rank}, not 1")
    # W - I has rank 2, so its image saturates to the plane n.x = 0
    n = _line_kernel(tuple(zip(*m.rows)))
    index = abs(_dot(n, c))
    if index != 1:
        raise InvariantError("the fixed line C and the moved sublattice N do "
                             f"not span Z^3: [Z^3 : C + N] = |n.c| = {index}")

    # eigenlines of v in that plane; their cross product is +-n
    e_plus = _line_kernel((n, *(v - ident).rows))
    e_minus = _line_kernel((n, *(v + ident).rows))
    d = _cross(e_plus, e_minus)
    # psi is V U on the plane in the eigenbasis, by Cramer's rule on the
    # coordinates other than k: y = a e+ + b e- gives a = (y x e-)_k / d_k
    k = next(i for i, x in enumerate(n) if x)
    vu = v * u
    cols = [vu.apply(e) for e in (e_plus, e_minus)]
    psi = IntMatrix([[_cross(y, e_minus)[k] // d[k] for y in cols],
                     [_cross(e_plus, y)[k] // d[k] for y in cols]])
    if abs(psi.trace()) <= 2:
        raise InvariantError("the composite action is not hyperbolic on "
                             "the moved sublattice")
    return normalize(psi)


def _dot(a: IntVector, b: IntVector) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a: IntVector, b: IntVector) -> IntVector:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _line_kernel(rows) -> IntVector | None:
    """The primitive generator, first nonzero entry positive, of
    {x in Z^3 : r.x = 0 for every row r} when that lattice has rank 1,
    else None.  The first nonzero cross product of two rows spans it
    exactly when every row is orthogonal to that cross product."""
    for i, a in enumerate(rows):
        for b in rows[i + 1:]:
            x = _cross(a, b)
            if any(x):
                if any(_dot(r, x) for r in rows):
                    return None
                return primitive_vector(x)
    return None


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
