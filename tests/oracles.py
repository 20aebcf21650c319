"""Independent brute-force oracles used by the test suite.

Everything in here deliberately avoids the library's own algorithms: searches
are exhaustive scans over boxes, invariant factors come from gcds of minors,
and matrix arithmetic is done on raw tuples (or int64 numpy arrays, which are
exact at these sizes).  If an oracle and the library disagree, the test fails;
the oracle is never built on top of the code path it checks.  Two oracles
use the library.  from_extension_by_kernels does so through routines the
checked path never calls.  The reference kernel and saturation keep the
echelon reduction that intmat used before it read kernels off the Hermite
form, and share only that final Hermite form with it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

import numpy as np

from solgeom.classifier import InvariantError, PillowcaseInvariant, normalize
from solgeom.extensions import ExtensionGroup
from solgeom.intmat import (
    IntMatrix,
    IntVector,
    _identity_rows,
    _mix,
    _xgcd,
    kernel_basis,
    lattice_basis,
    smith_rows,
)


# ---------------------------------------------------------------------------
# raw 2x2 arithmetic on tuples (a, b, c, d) = [[a, b], [c, d]]

def mul2(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def det2(m):
    a, b, c, d = m
    return a * d - b * c

def inv2(m):
    a, b, c, d = m
    dd = det2(m)
    assert dd in (1, -1)
    return (d * dd, -b * dd, -c * dd, a * dd)


ID2 = (1, 0, 0, 1)


def order2_brute(m, cap=24):
    """Order of m by repeated multiplication, None if it exceeds cap."""
    acc = m
    for k in range(1, cap + 1):
        if acc == ID2:
            return k
        acc = mul2(acc, m)
    return None


def unimodular_box(bound):
    """All 2x2 integer matrices with entries in [-bound, bound] and det = +-1."""
    rng = range(-bound, bound + 1)
    out = []
    for a, b, c, d in itertools.product(rng, rng, rng, rng):
        if a * d - b * c in (1, -1):
            out.append((a, b, c, d))
    return out


def conjugacy_orbit_map(representatives, conj_bound, entry_bound):
    """For each representative R, the set of C R C^-1 with C in the det +-1
    box of size conj_bound, keeping only results with entries <= entry_bound.

    Vectorized over int64; values stay far below overflow.
    """
    rng = np.arange(-conj_bound, conj_bound + 1, dtype=np.int64)
    a, b, c, d = np.meshgrid(rng, rng, rng, rng, indexing="ij")
    a, b, c, d = (x.ravel() for x in (a, b, c, d))
    det = a * d - b * c
    keep = np.abs(det) == 1
    a, b, c, d, det = (x[keep] for x in (a, b, c, d, det))
    # C^-1 = det * [[d, -b], [-c, a]] since det = +-1
    orbits = {}
    for name, (ra, rb, rc, rd) in representatives.items():
        # M = C R
        ma = a * ra + b * rc
        mb = a * rb + b * rd
        mc = c * ra + d * rc
        md = c * rb + d * rd
        # N = M C^-1
        na = (ma * d - mb * c) * det
        nb = (-ma * b + mb * a) * det
        nc = (mc * d - md * c) * det
        nd = (-mc * b + md * a) * det
        small = (np.abs(na) <= entry_bound) & (np.abs(nb) <= entry_bound) \
            & (np.abs(nc) <= entry_bound) & (np.abs(nd) <= entry_bound)
        orbits[name] = set(zip(na[small].tolist(), nb[small].tolist(),
                               nc[small].tolist(), nd[small].tolist()))
    return orbits


def intertwiner_box_scan(m, n, bound):
    """Every C = (a, b, c, d) in the det +-1 box of size bound with C m = n C,
    in lexicographic order, by visiting all (2 bound + 1)^4 quadruples."""
    return [t for t in unimodular_box(bound) if mul2(t, m) == mul2(n, t)]


# ---------------------------------------------------------------------------
# integer linear algebra oracles

def solve_box_search(rows, b, box):
    """Exhaustive search for an integer solution of M x = b with entries of x
    in [-box, box].  Only sensible for 2 or 3 unknowns."""
    n = len(rows[0])
    rng = range(-box, box + 1)
    for x in itertools.product(*([rng] * n)):
        if all(sum(r[j] * x[j] for j in range(n)) == b[i]
               for i, r in enumerate(rows)):
            return x
    return None


def solve_box_search_vec(rows, b, box):
    """Vectorized version of the box search for 3 unknowns (int64 exact)."""
    rows = np.array(rows, dtype=np.int64)
    b = np.array(b, dtype=np.int64)
    n = rows.shape[1]
    rng = np.arange(-box, box + 1, dtype=np.int64)
    grids = np.meshgrid(*([rng] * n), indexing="ij")
    xs = np.stack([g.ravel() for g in grids])  # n x N
    prod = rows @ xs
    hits = np.all(prod == b[:, None], axis=0)
    idx = np.nonzero(hits)[0]
    if idx.size == 0:
        return None
    return tuple(int(v) for v in xs[:, idx[0]])


def in_span(basis, v):
    """Is v an integer combination of the basis vectors?  Assumes the basis
    is in echelon (Hermite) form: each vector's first nonzero entry sits in a
    column where every later vector is zero.  Plain back-substitution."""
    v = list(v)
    for b in basis:
        j = next((i for i, x in enumerate(b) if x != 0), None)
        if j is None:
            continue
        if v[j] % b[j] != 0:
            return False
        c = v[j] // b[j]
        v = [a - c * x for a, x in zip(v, b)]
    return all(x == 0 for x in v)


def invariant_factors_by_minors(rows):
    """Invariant factors via determinantal divisors: d_k = gcd of all k x k
    minors, invariant factor k = d_k / d_{k-1}.  Independent of any
    elimination strategy."""
    rows = [list(r) for r in rows]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    out = []
    prev = 1
    for k in range(1, min(nr, nc) + 1):
        g = minor_gcd(rows, k)
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def minor_gcd(rows, k):
    """Determinantal divisor d_k: the gcd of all k x k minors."""
    g = 0
    for ri in itertools.combinations(range(len(rows)), k):
        for ci in itertools.combinations(range(len(rows[0])), k):
            g = gcd(g, abs(bareiss_det([[rows[i][j] for j in ci]
                                        for i in ri])))
            if g == 1:
                return 1  # no further minor can lower it
    return g


def bareiss_det(rows):
    """Determinant of a nonempty square matrix by fraction-free (Bareiss)
    elimination: each step's division by the previous pivot is exact, so
    the arithmetic stays in the integers, at O(n^3) cost."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _det(rows):
    """Determinant by cofactor expansion along the first row; the
    cross-check on bareiss_det."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def det_exact(rows):
    """Determinant of a square matrix by elimination over the rationals."""
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return int(det)


def mat_mul(a, b):
    """Product of two matrices given as lists of rows."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols]
            for row in a]


def cokernel_by_minors(rows):
    """(free rank, torsion tuple) of Z^nr / column span, via minor gcds."""
    nr = len(rows)
    factors = invariant_factors_by_minors(rows)
    free = nr - len(factors)
    torsion = tuple(f for f in factors if f > 1)
    return free, torsion


def rank_by_minors(rows):
    """Rank: the largest k with a nonzero k x k minor."""
    k = 0
    while k < min(len(rows), len(rows[0]) if rows else 0) \
            and minor_gcd(rows, k + 1):
        k += 1
    return k


def solvable_by_minors(rows, b):
    """Whether M x = b has an integer solution: M and [M | b] must have
    the same rank r and the same gcd of r x r minors."""
    aug = [list(r) + [c] for r, c in zip(rows, b)]
    r = rank_by_minors(rows)
    if rank_by_minors(aug) != r:
        return False
    return r == 0 or minor_gcd(rows, r) == minor_gcd(aug, r)


# ---------------------------------------------------------------------------
# torsion in a Dinf extension, by searching the words

def _mat_vec(m, v):
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def _word_matrix(action, word, n):
    """Action of a quotient word: the product of its letters' matrices."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for letter in word:
        a = action[letter]
        m = [[sum(m[i][k] * a[k][j] for k in range(n)) for j in range(n)]
             for i in range(n)]
    return m


def dinf_square(action, cocycles, word, n):
    """Lattice part of (0, w)^2 for an alternating word w over u and v:
    append w's letters to (0, w) one at a time, where appending the
    letter g to a word ending in g drops that g and adds A(rest) s_g."""
    t, q = [0] * n, list(word)
    for letter in word:
        if q and q[-1] == letter:
            q.pop()
            shift = _mat_vec(_word_matrix(action, q, n), cocycles[letter])
            t = [a + b for a, b in zip(t, shift)]
        else:
            q.append(letter)
    assert not q, "an odd alternating word squares into the lattice"
    return t


def dinf_involution_word(action, cocycles, n, max_len=9):
    """The first odd alternating word w over u and v, by length and then
    u before v, whose coset holds an involution (t, w); None if no word of
    length <= max_len does.  (t, w)^2 = t + A(w) t + s(w), so the coset
    holds one iff (I + A(w)) t = -s(w) is solvable over the integers.
    action and cocycles map "u" and "v" to plain lists."""
    for length in range(1, max_len + 1, 2):
        for first, second in (("u", "v"), ("v", "u")):
            word = [first if i % 2 == 0 else second for i in range(length)]
            if n == 0:
                return word
            s = dinf_square(action, cocycles, word, n)
            m = _word_matrix(action, word, n)
            rows = [[m[i][j] + (i == j) for j in range(n)] for i in range(n)]
            if solvable_by_minors(rows, [-x for x in s]):
                return word
    return None


def dinf_is_involution(action, cocycles, t, letter, n):
    """Whether (t, letter) squares to 1: t + A t + s = 0."""
    image = _mat_vec(action[letter], t)
    return all(a + b + c == 0
               for a, b, c in zip(t, image, cocycles[letter]))


# ---------------------------------------------------------------------------
# pillowcase abelianization, read off the presentation by hand

PILLOWCASE_GENERATORS = ("x", "y", "z", "u", "v")


def pillowcase_relation_rows(p, q, r):
    """Abelianized relator matrix of the pillowcase group of (p, q, r): rows
    are the generators x, y, z, u, v, columns the relators.

    The presentation: u acts on the lattice <x, y, z> by
    blockdiag([[p, q], [-r, -p]], -1) and v by diag(1, -1, -1); u^2 is the
    primitive vector (e, f, 0) fixed by the u-action, (e, f) = (q, 1 - p) /
    gcd(p - 1, q), and v^2 = x.  A conjugation relator g a g^-1 = g(a)
    abelianizes to a - g(a); the lattice commutators abelianize to zero.
    Zero and repeated columns are dropped, which leaves the span unchanged.
    """
    k = gcd(p - 1, q)
    e, f = q // k, (1 - p) // k
    images = (
        ((p, -r, 0), (q, -p, 0), (0, 0, -1)),  # u(x), u(y), u(z)
        ((1, 0, 0), (0, -1, 0), (0, 0, -1)),   # v(x), v(y), v(z)
    )
    cols = []
    for action in images:
        for i, image in enumerate(action):
            col = [-c for c in image] + [0, 0]
            col[i] += 1
            cols.append(tuple(col))
    cols.append((-e, -f, 0, 2, 0))  # u^2 = e x + f y
    cols.append((-1, 0, 0, 0, 2))   # v^2 = x
    cols = dict.fromkeys(c for c in cols if any(c))
    return [list(row) for row in zip(*cols)]


def pillowcase_h1(p, q, r):
    """(free rank, torsion tuple) of the abelianization, via minor gcds."""
    return cokernel_by_minors(pillowcase_relation_rows(p, q, r))


def pillowcase_h1_orders(p, q, r):
    """Order of each generator's image in the (finite) abelianization H.

    Adjoining the unit column of a generator g presents H / <g>, so
    ord(g) = |H| / |H / <g>|, both read off as top-minor gcds.
    """
    rows = pillowcase_relation_rows(p, q, r)
    n = len(rows)
    order = minor_gcd(rows, n)
    assert order > 0, "abelianization is infinite"
    return {g: order // minor_gcd([row + [int(i == j)]
                                   for j, row in enumerate(rows)], n)
            for i, g in enumerate(PILLOWCASE_GENERATORS)}


# ---------------------------------------------------------------------------
# pillowcase invariant box scan

def pillowcase_box_scan(max_entry):
    """Every (p, q, r) with the defining constraints, found by scanning the
    whole box rather than by divisor enumeration."""
    found = []
    for p in range(-max_entry, max_entry + 1):
        if p % 2 == 0 or abs(p) <= 1:
            continue
        target = p * p - 1
        for q in range(-max_entry, max_entry + 1):
            if q <= 0 or q % 2 != 0:
                continue
            for r in range(-max_entry, max_entry + 1):
                if r % 2 != 0:
                    continue
                if q * r == target:
                    found.append((p, q, r))
    return found


# ---------------------------------------------------------------------------
# orientation character lifts, by searching the homomorphisms

def w1_lifts_to_z4(rows, chars):
    """Whether a character Z^n -> Z/2 (chars[i] on generator i) that kills
    the columns of the relator matrix rows lifts to a homomorphism
    phi: Z^n -> Z/4 that also kills them: tries every phi with
    phi(g_i) = chars[i] mod 2."""
    n = len(rows)
    cols = list(zip(*rows)) if n else []
    for high in itertools.product((0, 2), repeat=n):
        phi = [c % 2 + h for c, h in zip(chars, high)]
        if all(sum(a * b for a, b in zip(col, phi)) % 4 == 0
               for col in cols):
            return True
    return False


# ---------------------------------------------------------------------------
# pillowcase invariant recovery through generic kernels and saturations
#
# The one oracle here built on the library: classifier.from_extension as it
# was before its closed-form rewrite.  It reaches the invariant through
# intmat's Hermite-form kernels (a saturation is the kernel of a kernel)
# and a Smith-form restriction, neither of which the closed form calls, so
# the two agree only if the closed form is right.


def from_extension_by_kernels(u: IntMatrix, v: IntMatrix, s_u: IntVector,
                              s_v: IntVector) -> PillowcaseInvariant:
    """Recover the invariant from raw extension data, by kernels.

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
    # the saturation of the image of W - I, of rank 2: the kernel of the
    # kernel of its columns
    n_basis = kernel_basis(kernel_basis(list(zip(*(w - ident).rows))))
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
    x = Q (P b / d) for the diagonal d of S."""
    w = smith_rows([[vec[i] for vec in basis] for i in range(3)])
    d0, d1 = w.d[0], w.d[1]
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


# ---------------------------------------------------------------------------
# kernels and saturations by one echelon reduction with a single transform
#
# The path intmat's kernel_basis and saturation took before they read the
# kernel off the Hermite form of the graph of M, kept as it was.  Both paths
# end in the Hermite form of the same lattice, so they must agree exactly,
# vector for vector.

def _kernel_rows(rows, nc: int) -> list[list[int]]:
    """A basis of {x in Z^nc : M x = 0} for M given as rows of length nc.

    One echelon reduction of M^T with its transform U: row operations bring
    U M^T to echelon form, and the rows of U beside the zero rows of U M^T
    are a basis of the kernel, U being unimodular.
    """
    mt = [list(c) for c in zip(*rows)]
    u = _identity_rows(nc)
    piv = 0
    for r in range(len(rows)):
        if piv == nc:
            break
        for i in range(piv + 1, nc):
            a, b = mt[piv][r], mt[i][r]
            if b == 0:
                continue
            if a == 0:
                mt[piv], mt[i] = mt[i], mt[piv]
                u[piv], u[i] = u[i], u[piv]
            elif b % a == 0:
                k = b // a
                mt[i] = [y - k * x for x, y in zip(mt[piv], mt[i])]
                u[i] = [y - k * x for x, y in zip(u[piv], u[i])]
            else:
                g, x, y = _xgcd(a, b)
                mt[piv], mt[i] = _mix(mt[piv], mt[i], x, y, -b // g, a // g)
                u[piv], u[i] = _mix(u[piv], u[i], x, y, -b // g, a // g)
        if mt[piv][r] != 0:
            piv += 1
    return u[piv:]


def kernel_basis_by_echelon(rows) -> list[IntVector]:
    nc = len(rows[0]) if rows else 0
    if nc == 0:
        return []
    return lattice_basis(_kernel_rows(rows, nc))


def saturation_by_echelon(vectors) -> list[IntVector]:
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        return []
    n = len(vectors[0])
    perp = _kernel_rows(vectors, n)
    if not perp:
        return [tuple(r) for r in _identity_rows(n)]
    return lattice_basis(_kernel_rows(perp, n))
