"""Exact integer linear algebra on small matrices.

Everything here is done with Python's arbitrary-precision ints; no floats
anywhere.  IntMatrix is square (dimension 0..8, working sizes 2 and 3) and
immutable; the constructor takes sizes 1..8, and identity(0) is the 0x0
matrix, the action on a rank-0 lattice.  There are two reductions: Smith
normal form with its two unimodular transforms P and Q gives solving, the
Smith diagonal that H1 is read from and the inverses of sizes other than 2
and 3, and the Hermite normal form gives spans and kernels.  Both take
an IntMatrix or any rectangular list of integer rows.

Vectors are plain tuples of ints.
"""

from __future__ import annotations

import operator
from math import gcd
from typing import NamedTuple

MAX_DIM = 8

IntVector = tuple[int, ...]


# ---------------------------------------------------------------------------
# vector helpers

def vec_add(u: IntVector, v: IntVector) -> IntVector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: IntVector, v: IntVector) -> IntVector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_neg(u: IntVector) -> IntVector:
    return tuple(-a for a in u)


def is_zero_vector(u: IntVector) -> bool:
    return all(a == 0 for a in u)


def primitive_vector(u: IntVector) -> IntVector:
    """Divide out the content and make the first nonzero coordinate positive.

    This is the canonical representative used for kernel generators and
    eigenvector directions, so equality tests on one-dimensional sublattices
    are just tuple comparisons.
    """
    g = 0
    for a in u:
        g = gcd(g, a)
    if g == 0:
        return u
    w = tuple(a // g for a in u)
    for a in w:
        if a != 0:
            return w if a > 0 else vec_neg(w)
    return w


class IntMatrix:
    """Immutable square integer matrix.

    Stored as a tuple of row tuples.  Supports *, +, -, ** with exact
    arithmetic; hashable so matrices can live in sets during orbit searches.
    The constructor checks outside input; results of IntMatrix arithmetic,
    built from entries that are already ints, go through _trusted instead.
    """

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(map(operator.index, row)) for row in rows)
        n = len(rows)
        if n < 1 or n > MAX_DIM:
            raise ValueError(f"dimension {n} outside supported range 1..{MAX_DIM}")
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix is not square")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    # construction ----------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        try:
            return _IDENTITIES[operator.index(n)]
        except KeyError:
            raise ValueError(f"dimension {n} outside supported range "
                             f"0..{MAX_DIM}") from None

    @classmethod
    def diagonal(cls, entries) -> "IntMatrix":
        entries = list(entries)
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns) -> "IntMatrix":
        columns = [tuple(c) for c in columns]
        n = len(columns)
        return cls([[columns[j][i] for j in range(n)] for i in range(n)])

    @classmethod
    def parse(cls, text: str) -> "IntMatrix":
        """Parse a literal like "3,2;4,3" (rows split by ';')."""
        body = text.strip()
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1]
        rows = []
        for chunk in body.split(";"):
            parts = [p.strip() for p in chunk.split(",")]
            try:
                rows.append([int(p) for p in parts])
            except ValueError:
                raise ValueError(f"bad matrix literal: {text!r}") from None
        return cls(rows)

    # arithmetic ------------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        n = self.n
        if other.n != n:
            raise ValueError("dimension mismatch")
        return _trusted(_mul_rows(self.rows, other.rows, n), n)

    def __add__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        return _trusted(tuple(tuple(x + y for x, y in zip(r, s))
                              for r, s in zip(self.rows, other.rows)), self.n)

    def __sub__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        return _trusted(tuple(tuple(x - y for x, y in zip(r, s))
                              for r, s in zip(self.rows, other.rows)), self.n)

    def __neg__(self):
        return _trusted(tuple(tuple(-x for x in row) for row in self.rows),
                        self.n)

    def __pow__(self, k: int) -> "IntMatrix":
        """M^k by squaring left to right over the bits of k, on row tuples.

        M^12 takes 4 products and wraps one matrix.  k = 0 gives the shared
        identity, and a negative k inverts first, so it needs det = +-1.
        """
        if k < 0:
            if not self.is_unimodular():
                raise ValueError("negative power of a non-unimodular matrix")
            return self.inverse() ** (-k)
        n = self.n
        if k == 0:
            return IntMatrix.identity(n)
        rows = result = self.rows
        for bit in bin(k)[3:]:
            result = _mul_rows(result, result, n)
            if bit == "1":
                result = _mul_rows(result, rows, n)
        return _trusted(result, n)

    def apply(self, v: IntVector) -> IntVector:
        n = self.n
        if len(v) != n:
            raise ValueError("dimension mismatch")
        if n == 2:
            (a, b), (c, d) = self.rows
            x, y = v
            return (a * x + b * y, c * x + d * y)
        if n == 3:
            (a, b, c), (d, e, f), (g, h, i) = self.rows
            x, y, z = v
            return (a * x + b * y + c * z, d * x + e * y + f * z,
                    g * x + h * y + i * z)
        return tuple(sum(x * y for x, y in zip(row, v)) for row in self.rows)

    # queries ---------------------------------------------------------------

    def det(self) -> int:
        n = self.n
        if n == 2:
            (a, b), (c, d) = self.rows
            return a * d - b * c
        if n == 3:
            (a, b, c), (d, e, f), (g, h, i) = self.rows
            return (a * (e * i - f * h) - b * (d * i - f * g)
                    + c * (d * h - e * g))
        return _det_rows([list(r) for r in self.rows])

    def is_unimodular(self) -> bool:
        return self.det() in (1, -1)

    def is_identity(self) -> bool:
        return self == IntMatrix.identity(self.n)

    def inverse(self) -> "IntMatrix":
        """Exact inverse; defined only when det = +-1."""
        d = self.det()
        if d not in (1, -1):
            raise ValueError(f"matrix with det {d} has no integer inverse")
        # 1/d = d, so at sizes 2 and 3 the inverse is d times the adjugate
        if self.n == 2:
            (a, b), (c, e) = self.rows
            return _trusted(((d * e, -d * b), (-d * c, d * a)), 2)
        if self.n == 3:
            (a, b, c), (e, f, g), (h, i, j) = self.rows
            return _trusted(((d * (f * j - g * i), d * (c * i - b * j),
                              d * (b * g - c * f)),
                             (d * (g * h - e * j), d * (a * j - c * h),
                              d * (c * e - a * g)),
                             (d * (e * i - f * h), d * (b * h - a * i),
                              d * (a * f - b * e))), 3)
        # otherwise P M Q = S = I, so M^-1 = Q P
        w = smith_rows(self.rows)
        return _trusted(tuple(tuple(sum(x * y for x, y in zip(qrow, pcol))
                                    for pcol in zip(*w.p))
                              for qrow in zip(*w.qt)), self.n)

    def column(self, j: int) -> IntVector:
        return tuple(self.rows[i][j] for i in range(self.n))

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.n))

    def mod(self, m: int) -> tuple:
        return tuple(tuple(x % m for x in row) for row in self.rows)

    def literal(self) -> str:
        return ";".join(",".join(str(x) for x in row) for row in self.rows)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.rows]

    # plumbing --------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"IntMatrix({self.literal()!r})"


def _trusted(rows: tuple, n: int) -> IntMatrix:
    """An IntMatrix from n row tuples of n ints each, taken as they are.

    Only for rows of ints the caller made, such as results of IntMatrix
    arithmetic (sums and products of stored entries), so none of the
    constructor's checks can fail.
    """
    m = object.__new__(IntMatrix)
    object.__setattr__(m, "n", n)
    object.__setattr__(m, "rows", rows)
    return m


def _mul_rows(x: tuple, y: tuple, n: int) -> tuple:
    """The product of two n x n matrices given as row tuples, as row
    tuples; closed form at sizes 2 and 3."""
    if n == 2:
        (a, b), (c, d) = x
        (e, f), (g, h) = y
        return ((a * e + b * g, a * f + b * h),
                (c * e + d * g, c * f + d * h))
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = x
        (j, k, l), (m, o, p), (q, r, s) = y
        return ((a * j + b * m + c * q, a * k + b * o + c * r,
                 a * l + b * p + c * s),
                (d * j + e * m + f * q, d * k + e * o + f * r,
                 d * l + e * p + f * s),
                (g * j + h * m + i * q, g * k + h * o + i * r,
                 g * l + h * p + i * s))
    cols = tuple(zip(*y))
    return tuple(tuple(sum(u * v for u, v in zip(row, col)) for col in cols)
                 for row in x)


_IDENTITIES = {n: _trusted(tuple(tuple(int(i == j) for j in range(n))
                                 for i in range(n)), n)
               for n in range(MAX_DIM + 1)}


def _det_rows(rows: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination (Bareiss); exact for any size here."""
    n = len(rows)
    if n == 0:
        return 1  # the empty product
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Smith normal form
#
# The reduction works on rectangular lists of rows, so stacked systems and
# relator matrices use it directly.  Row operations are mirrored into P and
# column operations into Q, so P*M*Q = S holds exactly.  Q is kept
# transposed, so a column operation is a row operation on it.  Kernels
# need no Smith form; they are read off the Hermite form (lattice_basis).

def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a,b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        qq = old_r // r
        old_r, r = r, old_r - qq * r
        old_s, s = s, old_s - qq * s
        old_t, t = t, old_t - qq * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _identity_rows(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def _mix(r, s, x, y, u, v):
    """The rows x r + y s and u r + v s."""
    return ([x * a + y * b for a, b in zip(r, s)],
            [u * a + v * b for a, b in zip(r, s)])


class SmithRows(NamedTuple):
    """P * M * Q = S for a rectangular nr x nc M: d is the diagonal of S,
    one entry per row of M with 0 past the last column; p is P and qt is
    Q transposed (row j of qt is column j of Q), as lists of rows."""

    d: list[int]
    p: list[list[int]]
    qt: list[list[int]]


def smith_rows(rows) -> SmithRows:
    """Reduce a rectangular integer matrix, given as rows, to Smith form.

    S comes out diagonal, nonnegative, each diagonal entry dividing the
    next, and P*M*Q = S with P, Q unimodular.  The pivot rule and the order
    of operations fix S, P and Q, and through them the particular solutions
    that solve_integer returns.
    """
    s = [list(r) for r in rows]
    nr = len(s)
    nc = len(s[0]) if nr else 0
    p = _identity_rows(nr)
    qt = _identity_rows(nc)
    for t in range(min(nr, nc)):
        # pick the nonzero entry of smallest magnitude as pivot
        best = 0
        for i in range(t, nr):
            for j in range(t, nc):
                a = abs(s[i][j])
                if a and (not best or a < best):
                    best, pi, pj = a, i, j
        if not best:
            break
        # rows and columns before t are cleared, so column operations need
        # to touch rows t.. only
        s[t], s[pi] = s[pi], s[t]
        p[t], p[pi] = p[pi], p[t]
        for row in s[t:]:
            row[t], row[pj] = row[pj], row[t]
        qt[t], qt[pj] = qt[pj], qt[t]
        while True:
            # clear column t
            for i in range(t + 1, nr):
                a, b = s[t][t], s[i][t]
                if b == 0:
                    continue
                if b % a == 0:
                    k = -(b // a)
                    s[i] = [x + k * y for x, y in zip(s[i], s[t])]
                    p[i] = [x + k * y for x, y in zip(p[i], p[t])]
                else:
                    g, x, y = _xgcd(a, b)
                    u, v = -(b // g), a // g
                    s[t], s[i] = _mix(s[t], s[i], x, y, u, v)
                    p[t], p[i] = _mix(p[t], p[i], x, y, u, v)
            # clear row t
            dirty = False
            for j in range(t + 1, nc):
                a, b = s[t][t], s[t][j]
                if b == 0:
                    continue
                if b % a == 0:
                    k = -(b // a)
                    for row in s[t:]:
                        row[j] += k * row[t]
                    qt[j] = [x + k * y for x, y in zip(qt[j], qt[t])]
                else:
                    g, x, y = _xgcd(a, b)
                    u, v = -(b // g), a // g
                    for row in s[t:]:
                        row[t], row[j] = (x * row[t] + y * row[j],
                                          u * row[t] + v * row[j])
                    qt[t], qt[j] = _mix(qt[t], qt[j], x, y, u, v)
                    dirty = True
            if dirty or any(s[i][t] for i in range(t + 1, nr)):
                continue  # column ops may have refilled column t
            # enforce divisibility of the remaining block by the pivot
            d = s[t][t]
            bad = next((i for i in range(t + 1, nr)
                        if any(x % d for x in s[i][t + 1:])), None)
            if bad is None:
                break
            s[t] = [x + y for x, y in zip(s[t], s[bad])]
            p[t] = [x + y for x, y in zip(p[t], p[bad])]
    d = [s[i][i] if i < nc else 0 for i in range(nr)]
    for i in range(min(nr, nc)):
        if d[i] < 0:
            d[i] = -d[i]
            p[i] = [-x for x in p[i]]
    return SmithRows(d, p, qt)


def lattice_basis(vectors: list[IntVector]) -> list[IntVector]:
    """Canonical (Hermite form) basis of the integer span of the given vectors.

    Rows come out in echelon order with positive pivots and the entries above
    each pivot reduced into [0, pivot).  The span is preserved exactly; this
    does not saturate.
    """
    vectors = [list(v) for v in vectors]
    if not vectors:
        return []
    n = len(vectors[0])
    rows: dict[int, list[int]] = {}  # pivot column -> the row with it
    for v in vectors:
        j = 0
        while True:
            while j < n and v[j] == 0:
                j += 1
            if j == n:
                break
            b = rows.get(j)
            if b is None:
                rows[j] = v
                break
            bj, vj = b[j], v[j]
            if vj % bj == 0:
                c = vj // bj
                v = [q - c * p for p, q in zip(b, v)]
            else:
                g, x, y = _xgcd(bj, vj)
                rows[j] = [x * p + y * q for p, q in zip(b, v)]
                v = [(bj // g) * q - (vj // g) * p for p, q in zip(b, v)]
    # normalize: positive pivots, entries above a pivot reduced mod the pivot
    pivots = sorted(rows)
    basis = [rows[j] if rows[j][j] > 0 else [-x for x in rows[j]]
             for j in pivots]
    for i in range(1, len(basis)):
        j = pivots[i]
        d = basis[i][j]
        for k in range(i):
            q = basis[k][j] // d
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[i])]
    return [tuple(row) for row in basis]


def _rows(m):
    return m.rows if isinstance(m, IntMatrix) else m


def solve_integer(m, b: IntVector) -> IntVector | None:
    """One integer solution of M x = b, or None if none exists.  M is an
    IntMatrix or a rectangular list of integer rows."""
    rows = _rows(m)
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if len(b) != nr:
        raise ValueError("dimension mismatch")
    w = smith_rows(rows)
    y = [0] * nc
    for i, (row, d) in enumerate(zip(w.p, w.d)):
        c = sum(x * z for x, z in zip(row, b))
        if d == 0:
            if c != 0:
                return None
        else:
            if c % d != 0:
                return None
            y[i] = c // d
    return tuple(sum(x * z for x, z in zip(col, y)) for col in zip(*w.qt))


def kernel_basis(m) -> list[IntVector]:
    """Basis of the integer kernel of M (an IntMatrix or rectangular rows).

    The basis vectors are primitive, jointly completable to a lattice basis
    (they are columns of a unimodular matrix), and sign-normalized so the
    first nonzero coordinate is positive.
    """
    rows = _rows(m)
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if nc == 0:
        return []
    # The graph {(M x, x)} of M meets 0 x Z^nc in {(0, x) : M x = 0}.  In
    # the Hermite form of the graph the rows with M-part zero span that
    # meet and are in Hermite form themselves, so by uniqueness they are
    # the Hermite form of the kernel.
    graph = [list(col) + e for col, e in zip(zip(*rows), _identity_rows(nc))]
    return [row[nr:] for row in lattice_basis(graph) if not any(row[:nr])]

