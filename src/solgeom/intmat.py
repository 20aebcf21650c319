"""Exact integer linear algebra on small matrices.

Everything here is done with Python's arbitrary-precision ints; no floats
anywhere.  IntMatrix is square (dimension 1..8, working sizes 2 and 3) and
immutable.  The workhorse is Smith normal form with explicit unimodular
transforms, from which solving, kernels, saturations and cokernels all fall
out; those take an IntMatrix or any rectangular list of integer rows.

Vectors are plain tuples of ints.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd

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


def parse_vector(text: str) -> IntVector:
    """Parse a literal like "1,0" or "(1,0)"."""
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    parts = [p.strip() for p in body.split(",")]
    if not parts or any(p == "" for p in parts):
        raise ValueError(f"bad vector literal: {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"bad vector literal: {text!r}") from None


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
                             f"1..{MAX_DIM}") from None

    @classmethod
    def zero(cls, n: int) -> "IntMatrix":
        return cls([[0] * n for _ in range(n)])

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
        if n == 2:
            (a, b), (c, d) = self.rows
            (e, f), (g, h) = other.rows
            return _trusted(((a * e + b * g, a * f + b * h),
                             (c * e + d * g, c * f + d * h)), 2)
        if n == 3:
            (a, b, c), (d, e, f), (g, h, i) = self.rows
            (j, k, l), (m, o, p), (q, r, s) = other.rows
            return _trusted(((a * j + b * m + c * q, a * k + b * o + c * r,
                              a * l + b * p + c * s),
                             (d * j + e * m + f * q, d * k + e * o + f * r,
                              d * l + e * p + f * s),
                             (g * j + h * m + i * q, g * k + h * o + i * r,
                              g * l + h * p + i * s)), 3)
        cols = tuple(zip(*other.rows))
        return _trusted(tuple(tuple(sum(x * y for x, y in zip(row, col))
                                    for col in cols)
                              for row in self.rows), n)

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
        if k < 0:
            if not self.is_unimodular():
                raise ValueError("negative power of a non-unimodular matrix")
            return self.inverse() ** (-k)
        result = IntMatrix.identity(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def apply(self, v: IntVector) -> IntVector:
        if len(v) != self.n:
            raise ValueError("dimension mismatch")
        return tuple(sum(row[j] * v[j] for j in range(self.n)) for row in self.rows)

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

    def transpose(self) -> "IntMatrix":
        return _trusted(tuple(zip(*self.rows)), self.n)

    def inverse(self) -> "IntMatrix":
        """Exact inverse; defined only when det = +-1."""
        d = self.det()
        if d not in (1, -1):
            raise ValueError(f"matrix with det {d} has no integer inverse")
        # 1/d = d, so the inverse is d times the adjugate
        if self.n == 2:
            (a, b), (c, e) = self.rows
            return _trusted(((d * e, -d * b), (-d * c, d * a)), 2)
        adj = _adjugate_rows([list(r) for r in self.rows])
        return _trusted(tuple(tuple(d * x for x in row) for row in adj),
                        self.n)

    def column(self, j: int) -> IntVector:
        return tuple(self.rows[i][j] for i in range(self.n))

    def columns(self) -> list[IntVector]:
        return [self.column(j) for j in range(self.n)]

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

    Only for results of IntMatrix arithmetic: their entries are sums and
    products of stored entries, which are already ints, so none of the
    constructor's checks can fail.
    """
    m = object.__new__(IntMatrix)
    object.__setattr__(m, "n", n)
    object.__setattr__(m, "rows", rows)
    return m


_IDENTITIES = {n: _trusted(tuple(tuple(int(i == j) for j in range(n))
                                 for i in range(n)), n)
               for n in range(1, MAX_DIM + 1)}


def _det_rows(rows: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination (Bareiss); exact for any size here."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
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


def _adjugate_rows(rows: list[list[int]]) -> list[list[int]]:
    n = len(rows)
    if n == 1:
        return [[1]]
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != j]
                for r in range(n) if r != i
            ]
            adj[j][i] = (-1) ** (i + j) * _det_rows(minor)
    return adj


# ---------------------------------------------------------------------------
# Smith normal form
#
# The reduction works on rectangular lists of rows, so stacked systems and
# relator matrices use it directly.  Row operations are mirrored into P and
# P_inv, column operations into Q and Q_inv, so P*M*Q = S holds exactly and
# the inverses come for free.

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


class SmithRows:
    """Smith form of a rectangular matrix as lists of rows: S plus the four
    transform matrices P, P_inv, Q, Q_inv."""

    def __init__(self, rows):
        self.s = [list(r) for r in rows]
        self.nr = len(self.s)
        self.nc = len(self.s[0]) if self.nr else 0
        self.p = [[int(i == j) for j in range(self.nr)] for i in range(self.nr)]
        self.p_inv = [[int(i == j) for j in range(self.nr)] for i in range(self.nr)]
        self.q = [[int(i == j) for j in range(self.nc)] for i in range(self.nc)]
        self.q_inv = [[int(i == j) for j in range(self.nc)] for i in range(self.nc)]

    # Row ops act on S and P on the left; P_inv absorbs the inverse op on its
    # columns so P * P_inv stays the identity.  Column ops are the mirror
    # image with Q on the right.

    def swap_rows(self, i, j):
        if i == j:
            return
        self.s[i], self.s[j] = self.s[j], self.s[i]
        self.p[i], self.p[j] = self.p[j], self.p[i]
        for row in self.p_inv:
            row[i], row[j] = row[j], row[i]

    def swap_cols(self, i, j):
        if i == j:
            return
        for row in self.s:
            row[i], row[j] = row[j], row[i]
        for row in self.q:
            row[i], row[j] = row[j], row[i]
        self.q_inv[i], self.q_inv[j] = self.q_inv[j], self.q_inv[i]

    def add_row(self, src, dst, k):
        # row[dst] += k * row[src]
        if k == 0:
            return
        self.s[dst] = [a + k * b for a, b in zip(self.s[dst], self.s[src])]
        self.p[dst] = [a + k * b for a, b in zip(self.p[dst], self.p[src])]
        for row in self.p_inv:
            row[src] -= k * row[dst]

    def add_col(self, src, dst, k):
        if k == 0:
            return
        for row in self.s:
            row[dst] += k * row[src]
        for row in self.q:
            row[dst] += k * row[src]
        self.q_inv[src] = [a - k * b for a, b in
                           zip(self.q_inv[src], self.q_inv[dst])]

    def combine_rows(self, i, j, x, y, u, v):
        # [row_i; row_j] <- [[x, y], [u, v]] * [row_i; row_j]; every caller
        # passes (x, y, -b/g, a/g) with x a + y b = g, so x v - y u = 1
        ri, rj = self.s[i], self.s[j]
        self.s[i] = [x * a + y * b for a, b in zip(ri, rj)]
        self.s[j] = [u * a + v * b for a, b in zip(ri, rj)]
        pi, pj = self.p[i], self.p[j]
        self.p[i] = [x * a + y * b for a, b in zip(pi, pj)]
        self.p[j] = [u * a + v * b for a, b in zip(pi, pj)]
        # inverse of [[x,y],[u,v]] is [[v,-y],[-u,x]]
        for row in self.p_inv:
            a, b = row[i], row[j]
            row[i] = v * a - u * b
            row[j] = -y * a + x * b

    def combine_cols(self, i, j, x, y, u, v):
        # [col_i, col_j] <- [col_i, col_j] * [[x, u], [y, v]], x v - y u = 1
        for row in self.s:
            a, b = row[i], row[j]
            row[i] = x * a + y * b
            row[j] = u * a + v * b
        for row in self.q:
            a, b = row[i], row[j]
            row[i] = x * a + y * b
            row[j] = u * a + v * b
        qi, qj = self.q_inv[i], self.q_inv[j]
        self.q_inv[i] = [v * a - u * b for a, b in zip(qi, qj)]
        self.q_inv[j] = [-y * a + x * b for a, b in zip(qi, qj)]

    def negate_row(self, i):
        self.s[i] = [-a for a in self.s[i]]
        self.p[i] = [-a for a in self.p[i]]
        for row in self.p_inv:
            row[i] = -row[i]


def smith_rows(rows) -> SmithRows:
    """Reduce a rectangular integer matrix, given as rows, to Smith form.

    S comes out diagonal, nonnegative, each diagonal entry dividing the
    next, and P*M*Q = S with P, Q unimodular.
    """
    w = SmithRows(rows)
    s = w.s
    t = 0
    limit = min(w.nr, w.nc)
    while t < limit:
        # pick the nonzero entry of smallest magnitude as pivot
        pivot = None
        best = None
        for i in range(t, w.nr):
            for j in range(t, w.nc):
                a = s[i][j]
                if a != 0 and (best is None or abs(a) < best):
                    best = abs(a)
                    pivot = (i, j)
        if pivot is None:
            break
        w.swap_rows(t, pivot[0])
        w.swap_cols(t, pivot[1])
        while True:
            # clear column t
            for i in range(t + 1, w.nr):
                a, b = s[t][t], s[i][t]
                if b == 0:
                    continue
                if b % a == 0:
                    w.add_row(t, i, -(b // a))
                else:
                    g, x, y = _xgcd(a, b)
                    w.combine_rows(t, i, x, y, -(b // g), a // g)
            # clear row t
            dirty = False
            for j in range(t + 1, w.nc):
                a, b = s[t][t], s[t][j]
                if b == 0:
                    continue
                if b % a == 0:
                    w.add_col(t, j, -(b // a))
                else:
                    g, x, y = _xgcd(a, b)
                    w.combine_cols(t, j, x, y, -(b // g), a // g)
                    dirty = True
            if dirty:
                continue  # column ops may have refilled column t
            if any(s[i][t] != 0 for i in range(t + 1, w.nr)):
                continue
            # enforce divisibility of the remaining block by the pivot
            d = s[t][t]
            offender = None
            for i in range(t + 1, w.nr):
                for j in range(t + 1, w.nc):
                    if s[i][j] % d != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            w.add_row(offender, t, 1)
        t += 1
    for i in range(limit):
        if s[i][i] < 0:
            w.negate_row(i)
    return w


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
    basis: list[list[int]] = []  # kept sorted by pivot column
    pivots: list[int] = []
    for v in vectors:
        v = v[:]
        j = 0
        while True:
            while j < n and v[j] == 0:
                j += 1
            if j == n:
                break
            if j in pivots:
                k = pivots.index(j)
                b = basis[k]
                g, x, y = _xgcd(b[j], v[j])
                bj, vj = b[j], v[j]
                basis[k] = [x * p + y * q for p, q in zip(b, v)]
                v = [-(vj // g) * p + (bj // g) * q for p, q in zip(b, v)]
            else:
                pos = sum(1 for p in pivots if p < j)
                basis.insert(pos, v)
                pivots.insert(pos, j)
                break
    # normalize: positive pivots, entries above a pivot reduced mod the pivot
    for i, j in enumerate(pivots):
        if basis[i][j] < 0:
            basis[i] = [-x for x in basis[i]]
    for i in range(1, len(basis)):
        j = pivots[i]
        d = basis[i][j]
        for k in range(i):
            q = basis[k][j] // d
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[i])]
    return [tuple(row) for row in basis]


@dataclass(frozen=True)
class SmithDecomposition:
    """P * M * Q = S with P, Q unimodular and S in Smith form."""

    s: IntMatrix
    p: IntMatrix
    q: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.s.rows[i][i] for i in range(self.s.n))

    def rank(self) -> int:
        return sum(1 for d in self.diagonal() if d != 0)


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transforms.

    Postconditions (RuntimeError if broken): P*M*Q = S, diagonal entries
    nonnegative with d1 | d2 | ... and zeros trailing, |det P| = |det Q| = 1.
    """
    w = smith_rows(m.rows)
    s = IntMatrix(w.s)
    p = IntMatrix(w.p)
    q = IntMatrix(w.q)
    diag = [s.rows[i][i] for i in range(m.n)]
    if (p * m * q != s or not (p.is_unimodular() and q.is_unimodular())
            or any(d < 0 for d in diag)
            or any(diag[i + 1] % diag[i] if diag[i] else diag[i + 1]
                   for i in range(m.n - 1))):
        raise RuntimeError(f"Smith form of {m!r} breaks its postconditions")
    return SmithDecomposition(s=s, p=p, q=q)


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
    if nc == 0:
        return () if all(x == 0 for x in b) else None
    w = smith_rows(rows)
    c = [sum(w.p[i][k] * b[k] for k in range(nr)) for i in range(nr)]
    y = [0] * nc
    for i in range(nr):
        d = w.s[i][i] if i < nc else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
    return tuple(sum(w.q[i][k] * y[k] for k in range(nc)) for i in range(nc))


def in_image(m, b: IntVector) -> bool:
    return solve_integer(m, b) is not None


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
    w = smith_rows(rows)
    out = []
    for j in range(nc):
        d = w.s[j][j] if j < nr else 0
        if d == 0:
            out.append(tuple(w.q[i][j] for i in range(nc)))
    return lattice_basis(out)


def saturation(vectors: list[IntVector]) -> list[IntVector]:
    """Basis of the smallest direct summand of Z^n containing the span.

    Accepts any number of spanning vectors (possibly dependent).  Returns
    sign-normalized primitive basis vectors; [] for the zero span.
    """
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        return []
    n = len(vectors[0])
    for v in vectors:
        if len(v) != n:
            raise ValueError("mixed dimensions")
    rows = [[v[i] for v in vectors] for i in range(n)]  # columns = vectors
    w = smith_rows(rows)
    rank = sum(1 for i in range(min(n, len(vectors))) if w.s[i][i] != 0)
    out = [tuple(w.p_inv[r][i] for r in range(n)) for i in range(rank)]
    return lattice_basis(out)


def cokernel_invariants(m) -> tuple[int, tuple[int, ...]]:
    """Free rank and torsion coefficients of Z^r / im(M), for M an IntMatrix
    or a rectangular list of r integer rows.

    Torsion coefficients are the diagonal entries > 1, listed in divisibility
    order.
    """
    rows = _rows(m)
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if nc == 0:
        return nr, ()
    w = smith_rows(rows)
    diag = [w.s[i][i] if i < nc else 0 for i in range(nr)]
    free = sum(1 for d in diag if d == 0)
    torsion = tuple(d for d in diag if d > 1)
    return free, torsion
