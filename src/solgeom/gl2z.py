"""Finite-order structure and two-ended subgroups of GL(2,Z).

Finite orders in GL(2,Z) are exactly 1, 2, 3, 4, 6.  By Cayley-Hamilton,
M^2 = (tr M) M - (det M) I, so the order of M is read off its determinant
and trace, plus one check for +-I (Newman, Integral Matrices, 1972).  Every
finite-order element other than +-I is conjugate to exactly one of five
canonical representatives; the only pair sharing an order profile (the two
det = -1 involution classes) is separated by reduction mod 2.

Conjugacy and centralizer searches share one box scan, exhaustive over the
lattice of solutions of C m = n C at cost O((2B+1)^rank) for box bound B;
a conjugacy search that finds nothing certifies only that no conjugator
lies in the box.  The scan is a non-recursive, lazy walk over plain
integer 4-tuples that wraps only its hits as matrices, without the
constructor's checks.  Two-ended subgroup typing is exact.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .intmat import IntMatrix, _mul_rows, _trusted, kernel_basis


class FiniteOrderClass(enum.Enum):
    """Conjugacy classes of finite-order elements of GL(2,Z)."""

    IDENTITY = "Identity"
    MINUS_IDENTITY = "MinusIdentity"
    REFLECTION = "Reflection"
    SWAP = "Swap"
    ORDER3 = "Order3"
    ORDER4 = "Order4"
    ORDER6 = "Order6"

    @property
    def representative(self) -> IntMatrix:
        return _REPRESENTATIVES[self]


_REPRESENTATIVES = {
    FiniteOrderClass.IDENTITY: IntMatrix([[1, 0], [0, 1]]),
    FiniteOrderClass.MINUS_IDENTITY: IntMatrix([[-1, 0], [0, -1]]),
    FiniteOrderClass.REFLECTION: IntMatrix([[1, 0], [0, -1]]),
    FiniteOrderClass.SWAP: IntMatrix([[0, 1], [1, 0]]),
    FiniteOrderClass.ORDER3: IntMatrix([[0, 1], [-1, -1]]),
    FiniteOrderClass.ORDER4: IntMatrix([[0, 1], [-1, 0]]),
    FiniteOrderClass.ORDER6: IntMatrix([[0, 1], [-1, 1]]),
}

# The five non-central classes, in the order their representatives are
# usually listed.
NONCENTRAL_CLASSES = (
    FiniteOrderClass.REFLECTION,
    FiniteOrderClass.SWAP,
    FiniteOrderClass.ORDER3,
    FiniteOrderClass.ORDER4,
    FiniteOrderClass.ORDER6,
)

_ID = IntMatrix.identity(2)
_MINUS_ID = -_ID


def _require_gl2(m: IntMatrix) -> int:
    """The determinant of m, after checking that m is in GL(2,Z)."""
    if m.n != 2:
        raise ValueError("expected a 2x2 matrix")
    d = m.det()
    if d not in (1, -1):
        raise ValueError(f"matrix with det {d} is not in GL(2,Z)")
    return d


# order of a det-1 element by its trace, for |trace| < 2: the characteristic
# polynomial x^2 - t x + 1 is then cyclotomic of order 6, 4 or 3
_ELLIPTIC_ORDERS = {1: 6, 0: 4, -1: 3}


def element_order(m: IntMatrix) -> int | None:
    """Order of m in GL(2,Z); None for infinite order.

    Exact from det and trace.  det -1: M^2 = (tr M) M + I, which is I for
    trace 0; otherwise x^2 - t x - 1 has the irrational roots
    (t +- sqrt(t^2 + 4))/2, so M has infinite order.  det 1 with
    |trace| > 2 is hyperbolic and with |trace| = 2 parabolic unless M = +-I,
    both of infinite order; |trace| < 2 gives order 6, 4 or 3.
    """
    return _order(_require_gl2(m), m.rows)


def _order(d: int, rows) -> int | None:
    """element_order of the GL(2,Z) matrix with these rows and det d."""
    (a, b), (c, e) = rows
    t = a + e
    if d == -1:
        return 2 if t == 0 else None
    if t in (2, -2):
        if b == 0 and c == 0:  # then a = e = t/2, so M = +-I
            return 1 if t == 2 else 2
        return None
    return _ELLIPTIC_ORDERS.get(t)


def finite_order_class(m: IntMatrix) -> FiniteOrderClass:
    """Conjugacy class of a finite-order element.

    Within order 2 and det -1 the class is decided by reduction mod 2:
    M = I mod 2 exactly for the diag(1,-1) class, since [[0,1],[1,0]] stays
    off-diagonal mod 2 and reduction is a conjugacy invariant.
    """
    order = element_order(m)
    if order is None:
        raise ValueError("matrix has infinite order")
    if order == 1:
        return FiniteOrderClass.IDENTITY
    if order == 2:
        if m == _MINUS_ID:
            return FiniteOrderClass.MINUS_IDENTITY
        # any other involution has det -1: with det 1, only -I has order 2
        if m.mod(2) == _ID.mod(2):
            return FiniteOrderClass.REFLECTION
        return FiniteOrderClass.SWAP
    if order == 3:
        return FiniteOrderClass.ORDER3
    if order == 4:
        return FiniteOrderClass.ORDER4
    return FiniteOrderClass.ORDER6  # the last finite order left


def _box_scan(m: IntMatrix, n: IntMatrix, bound: int):
    """Yield every C = [[a, b], [c, d]] in GL(2,Z) with entries within
    bound and C m = n C, in lexicographic order of (a, b, c, d).

    The solutions of C m = n C form a lattice (rank 4 only for m = n = +-I,
    else at most 2).  Its Hermite basis has positive pivots in increasing
    columns, so each coefficient's range follows from the bound on its
    pivot coordinate; walking the ranges upwards visits the lattice points
    of the box in lexicographic order, at cost O((2 bound + 1)^rank).

    The walk is a chain of generators, one per basis vector, over plain
    4-tuples, so it is lazy: a caller that stops at the first hit never
    lists the box.  Each hit's entries are ints the walk made, so it is
    wrapped without the constructor's checks.
    """
    (ma, mb), (mc, md) = m.rows
    (na, nb), (nc, nd) = n.rows
    points = iter(((0, 0, 0, 0),))
    for v in kernel_basis([[ma - na, mc, -nb, 0], [mb, md - na, 0, -nb],
                           [-nc, 0, ma - nd, mc], [0, -nc, mb, md - nd]]):
        points = _extend(points, v, bound)
    return (_trusted(((a, b), (c, d)), 2) for a, b, c, d in points
            if -bound <= a <= bound and -bound <= b <= bound
            and -bound <= c <= bound and -bound <= d <= bound
            and a * d - b * c in (1, -1))


def _extend(points, v, bound: int):
    """Each point p, in turn, extended to p + k v for every k with
    |p[j] + k v[j]| <= bound, k upwards, where v[j] > 0 is v's pivot."""
    j = next(j for j, x in enumerate(v) if x)
    w, x, y, z = v
    pivot = v[j]
    for p in points:
        a, b, c, d = p
        for k in range(-((bound + p[j]) // pivot),
                       (bound - p[j]) // pivot + 1):
            yield (a + k * w, b + k * x, c + k * y, d + k * z)


def conjugate_in_gl2z(m: IntMatrix, n: IntMatrix,
                      bound: int = 10) -> IntMatrix | None:
    """Search for C in GL(2,Z) with C m C^-1 = n and entries within bound.

    Exhaustive over the box (see _box_scan) and returns its
    lexicographically first conjugator; a None only certifies that no
    conjugator lies in the box, not that m and n are not conjugate.
    """
    _require_gl2(m)
    _require_gl2(n)
    return next(_box_scan(m, n, bound), None)


def centralizer_sample(m: IntMatrix, bound: int) -> list[IntMatrix]:
    """All C in GL(2,Z) with entries within bound commuting with m, in
    lexicographic order; exhaustive over the box (see _box_scan)."""
    _require_gl2(m)
    return list(_box_scan(m, m, bound))


class NotTwoEndedError(ValueError):
    """The given generators do not produce a two-ended subgroup."""


class TwoEndedType(NamedTuple):
    """Type of a two-ended subgroup of GL(2,Z).

    case 1: <A>, A of infinite order
    case 2: <A> with -I adjoined
    case 3: <A, B>, A^2 = B^2 = I, -I not in the group
    case 4: <A, B, -I>, A^2 = B^2 = I
    case 5: <A, B>, A^2 = -I, B^2 = I
    case 6: <A, B>, A^2 = B^2 = -I

    has_minus_i is decided exactly in every case.  In case 3, AB has
    infinite order, so <A, B> is infinite dihedral; its centre is trivial,
    and -I, being central, is not in it.
    """

    case: int
    witnesses: tuple[IntMatrix, ...]
    has_minus_i: bool


def two_ended_type(generators: list[IntMatrix]) -> TwoEndedType:
    """Classify a two-ended subgroup given 1 or 2 generators, optionally
    with -I adjoined to the list.

    Each generator is checked once for GL(2,Z); +-I are found by their
    rows, and the order of AB is read off the product of the two row
    tuples, so no matrix is built on the way.
    """
    gens = []  # (matrix, det): each det is taken once
    adjoined_minus = False
    for g in generators:
        rows = g.rows
        if rows == _ID.rows:
            continue
        if rows == _MINUS_ID.rows:
            adjoined_minus = True
            continue
        # _require_gl2, inlined: the two-ended suite types every box pair
        if g.n != 2:
            raise ValueError("expected a 2x2 matrix")
        (w, x), (y, z) = rows
        d = w * z - x * y
        if d not in (1, -1):
            raise ValueError(f"matrix with det {d} is not in GL(2,Z)")
        gens.append((g, d))

    if len(gens) == 1:
        (a, d), = gens
        if _order(d, a.rows) is not None:
            raise NotTwoEndedError("single generator has finite order")
        if adjoined_minus:
            return TwoEndedType(2, (a,), True)
        # a^k = -I would force finite order, so -I is provably absent
        return TwoEndedType(1, (a,), False)

    if len(gens) != 2:
        raise NotTwoEndedError(f"expected 1 or 2 generators besides +-I, "
                               f"got {len(gens)}")
    (a, da), (b, db) = gens
    order_a, order_b = _order(da, a.rows), _order(db, b.rows)
    if order_a not in (2, 4) or order_b not in (2, 4):
        raise NotTwoEndedError("two-generator input needs generator orders "
                               "2 or 4")
    if _order(da * db, _mul_rows(a.rows, b.rows, 2)) is not None:
        raise NotTwoEndedError("product AB has finite order")

    # put an order-4 generator first, for the case 5 witness convention
    if order_b == 4 and order_a == 2:
        a, b = b, a
        order_a, order_b = order_b, order_a

    # order 4 forces det 1 and trace 0, so A^2 = -I by Cayley-Hamilton
    if order_a == 4 and order_b == 4:
        return TwoEndedType(6, (a, b), True)
    if order_a == 4:
        return TwoEndedType(5, (a, b), True)

    # both involutions: (AB)^k = -I would give (AB)^2k = I, against the
    # infinite order of AB, so -I is in the group only if adjoined
    if adjoined_minus:
        return TwoEndedType(4, (a, b), True)
    return TwoEndedType(3, (a, b), False)

