"""Exact linear algebra tests.

Frozen expected values come either from hand calculation or from the
brute-force oracles in oracles.py; property sweeps use a seeded RNG so runs
are reproducible.
"""

import itertools
import random

import numpy as np
import pytest

import oracles
from solgeom import gl2z
from solgeom.intmat import (
    MAX_DIM,
    IntMatrix,
    kernel_basis,
    lattice_basis,
    primitive_vector,
    smith_rows,
    solve_integer,
)

PSI = IntMatrix([[3, 2], [4, 3]])
I2 = IntMatrix.identity(2)


def random_matrix(rng, n, bound):
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(n)]
                      for _ in range(n)])


# ---------------------------------------------------------------------------
# arithmetic

def test_parse_literal():
    assert IntMatrix.parse("3,2;4,3") == PSI
    assert IntMatrix.parse(" 3 , -2 ; -4 , 3 ") == IntMatrix([[3, -2], [-4, 3]])
    with pytest.raises(ValueError):
        IntMatrix.parse("3,2;4")
    with pytest.raises(ValueError):
        IntMatrix.parse("3,x;4,3")


def test_involution_squares_to_identity():
    m = IntMatrix([[17, 24], [-12, -17]])
    assert m * m == I2


def test_psi_times_inverse():
    assert PSI * IntMatrix([[3, -2], [-4, 3]]) == I2
    assert PSI.inverse() == IntMatrix([[3, -2], [-4, 3]])


def test_order_six_power():
    m = IntMatrix([[0, 1], [-1, 1]])
    assert m ** 6 == I2
    assert all(m ** k != I2 for k in range(1, 6))


def test_pow_edge_cases():
    assert PSI ** 0 == I2
    assert PSI ** -1 == PSI.inverse()
    assert PSI ** 3 == PSI * PSI * PSI
    with pytest.raises(ValueError):
        IntMatrix([[2, 0], [0, 1]]) ** -1


def test_pow_matches_repeated_multiplication():
    # seeded unimodular matrices (products of elementary row operations and
    # a sign), so that negative powers exist too; k up to 40 covers every
    # bit pattern of length 6 and the k = 0 and k = 1 edges
    rng = random.Random(40)
    for n in range(1, MAX_DIM + 1):
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        rows = [r[:] for r in ident]
        rows[0][0] = rng.choice((-1, 1))
        for _ in range(3 * (n - 1)):
            i, j = rng.sample(range(n), 2)
            s = rng.choice((-1, 1))
            rows[i] = [x + s * y for x, y in zip(rows[i], rows[j])]
        m = IntMatrix(rows)
        acc = ident
        for k in range(41):
            assert (m ** k).to_lists() == acc
            assert oracles.mat_mul((m ** -k).to_lists(), acc) == ident
            acc = oracles.mat_mul(acc, rows)


def test_det_and_trace():
    assert PSI.det() == 1
    assert IntMatrix([[2, 2], [4, 2]]).det() == -4
    assert PSI.trace() == 6
    rng = random.Random(11)
    for _ in range(50):
        m = random_matrix(rng, rng.choice([2, 3, 4]), 9)
        # cofactor expansion as the independent route
        assert m.det() == oracles._det(m.to_lists())


def test_oracle_determinants_agree():
    # the minor-gcd oracles take their minors by Bareiss elimination; it
    # agrees with cofactor expansion and with elimination over Q
    rng = random.Random(61)
    for n in range(1, 6):
        for _ in range(3000):
            rows = [[rng.randint(-9, 9) if rng.random() < 0.7 else 0
                     for _ in range(n)] for _ in range(n)]
            det = oracles.bareiss_det(rows)
            assert det == oracles._det(rows) == oracles.det_exact(rows), rows


def test_dimension_guard():
    with pytest.raises(ValueError):
        IntMatrix([[1] * 9] * 9)
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]])


def test_entries_must_be_integers():
    # a float entry is refused, not truncated
    with pytest.raises(TypeError):
        IntMatrix([[1.5]])
    with pytest.raises(TypeError):
        IntMatrix([[1, 0], [0, 1.0]])
    # numpy integers and bools pass and are stored as plain ints
    m = IntMatrix(np.array([[2, 1], [1, 1]], dtype=np.int64))
    assert m == IntMatrix([[2, 1], [1, 1]])
    assert all(type(x) is int for row in m.rows for x in row)
    b = IntMatrix([[True, False], [False, True]])
    assert b == I2 and b.literal() == "1,0;0,1"


# ---------------------------------------------------------------------------
# arithmetic results at every supported size, against plain-list formulas

def _plain_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _plain_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _random_unimodular_rows(rng, n):
    """A product of random row additions and sign flips, on plain lists."""
    rows = _plain_identity(n)
    for _ in range(3 * n):
        if n > 1:
            i, j = rng.sample(range(n), 2)
            k = rng.randint(-3, 3)
            rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
        if rng.random() < 0.3:
            i = rng.randrange(n)
            rows[i] = [-x for x in rows[i]]
    return rows


def _assert_built_from(m, rows):
    # a result of arithmetic is indistinguishable from IntMatrix(rows)
    fresh = IntMatrix(rows)
    assert m == fresh and hash(m) == hash(fresh)
    assert m.n == len(rows) and m.rows == fresh.rows
    assert type(m.rows) is tuple
    assert all(type(row) is tuple for row in m.rows)
    assert all(type(x) is int for row in m.rows for x in row)
    with pytest.raises(AttributeError):
        m.rows = fresh.rows
    with pytest.raises(AttributeError):
        m.n = 1


@pytest.mark.parametrize("n", range(1, 9))
def test_arithmetic_matches_plain_lists(n):
    rng = random.Random(900 + n)
    for bound in (9, 9, 10 ** 20):
        a_rows = [[rng.randint(-bound, bound) for _ in range(n)]
                  for _ in range(n)]
        b_rows = [[rng.randint(-bound, bound) for _ in range(n)]
                  for _ in range(n)]
        a, b = IntMatrix(a_rows), IntMatrix(b_rows)
        _assert_built_from(a * b, _plain_mul(a_rows, b_rows))
        _assert_built_from(a + b, [[x + y for x, y in zip(r, s)]
                                   for r, s in zip(a_rows, b_rows)])
        _assert_built_from(a - b, [[x - y for x, y in zip(r, s)]
                                   for r, s in zip(a_rows, b_rows)])
        _assert_built_from(-a, [[-x for x in r] for r in a_rows])
        assert a.det() == oracles._det(a_rows)
        assert (a * b).det() == a.det() * b.det()
    for _ in range(4):
        u_rows = _random_unimodular_rows(rng, n)
        u = IntMatrix(u_rows)
        assert u.det() == oracles._det(u_rows) in (1, -1)
        inv = u.inverse()
        _assert_built_from(inv, inv.to_lists())
        assert _plain_mul(u_rows, inv.to_lists()) == _plain_identity(n)
        assert _plain_mul(inv.to_lists(), u_rows) == _plain_identity(n)
    ident = IntMatrix.identity(n)
    _assert_built_from(ident, _plain_identity(n))
    assert IntMatrix.identity(n) is ident  # prebuilt, shared
    assert ident * a == a * ident == a
    with pytest.raises(ValueError):
        a * IntMatrix.identity(n % 8 + 1)
    with pytest.raises(ValueError):
        a + IntMatrix.identity(n % 8 + 1)
    with pytest.raises(ValueError):
        a - IntMatrix.identity(n % 8 + 1)


def test_pow_is_left_to_right_product():
    # every 2x2 matrix with entries in [-2, 2] and 50 seeded 3x3 unimodular
    # ones; M^k is I * M * ... * M, built like IntMatrix(rows)
    mats = [[[a, b], [c, d]]
            for a, b, c, d in itertools.product(range(-2, 3), repeat=4)]
    rng = random.Random(2323)
    mats += [_random_unimodular_rows(rng, 3) for _ in range(50)]
    for rows in mats:
        m = IntMatrix(rows)
        acc = _plain_identity(len(rows))
        for k in range(14):
            _assert_built_from(m ** k, acc)
            acc = _plain_mul(acc, rows)
        if m.is_unimodular():
            inv = m.inverse()
            for k in range(1, 14):
                assert m ** -k == inv ** k
        else:
            with pytest.raises(ValueError):
                m ** -1


def test_identity_dimension_guard():
    # identity(0) is the 0x0 matrix, the action on a rank-0 lattice
    i0 = IntMatrix.identity(0)
    assert i0.n == 0 and i0.rows == ()
    assert i0.det() == 1 and i0.apply(()) == ()
    assert i0 * i0 == i0 and i0.inverse() == i0 and i0.is_identity()
    for n in (-1, MAX_DIM + 1):
        with pytest.raises(ValueError):
            IntMatrix.identity(n)
    with pytest.raises(ValueError):
        IntMatrix([])  # the constructor still takes sizes 1..8 only
    with pytest.raises(TypeError):
        IntMatrix.identity(2.0)


# ---------------------------------------------------------------------------
# Smith normal form

def smith_diagonal(rows):
    """The Smith diagonal of M, given as rows, after checking what
    smith_rows promises: P*M*Q = diag(d) padded to the shape of M, with P
    and Q unimodular, one entry of d per row of M and 0 past the last
    column, d nonnegative, each entry dividing the next."""
    rows = [list(r) for r in rows]
    nr, nc = len(rows), len(rows[0])
    w = smith_rows(rows)
    q = [list(col) for col in zip(*w.qt)]
    s = [[w.d[i] if i == j else 0 for j in range(nc)] for i in range(nr)]
    assert oracles.mat_mul(oracles.mat_mul(w.p, rows), q) == s
    assert oracles.det_exact(w.p) in (1, -1)
    assert oracles.det_exact(q) in (1, -1)
    assert len(w.d) == nr and not any(w.d[nc:])
    diag = w.d[:nc]
    for i, d in enumerate(diag):
        assert d >= 0
        if i + 1 < len(diag):
            nxt = diag[i + 1]
            assert nxt == 0 if d == 0 else nxt % d == 0
    return diag


def test_snf_diag_2_2():
    assert smith_diagonal([[2, 2], [4, 2]]) == [2, 2]


def test_snf_of_i_minus_psi():
    m = I2 - PSI
    assert smith_diagonal(m.rows) == [2, 2]
    # |det(I - Psi)| = 2(a - 1) at a = 3
    assert abs(m.det()) == 4


def test_snf_identity_and_zero():
    assert smith_diagonal(I2.rows) == [1, 1]
    assert smith_diagonal([[0] * 3 for _ in range(3)]) == [0, 0, 0]


def test_snf_properties_random():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.choice([1, 2, 2, 3, 3])
        m = random_matrix(rng, n, 20)
        diag = smith_diagonal(m.rows)
        prod = 1
        for x in diag:
            prod *= x
        assert prod == abs(m.det())
        # cross-check against determinantal divisors
        expected = oracles.invariant_factors_by_minors(m.to_lists())
        assert [x for x in diag if x != 0] == expected


# ---------------------------------------------------------------------------
# solving

def test_solve_parity_obstruction():
    m = I2 - PSI
    assert solve_integer(m, (1, 0)) is None
    # oracle: nothing in the box either
    assert oracles.solve_box_search(m.to_lists(), (1, 0), 50) is None


def test_solve_even_vector():
    m = I2 - PSI
    assert m.apply((1, 0)) == (-2, -4)
    assert solve_integer(m, (-2, -4)) == (1, 0)  # unique since det != 0


def test_solve_none_matches_box_search_3d():
    m = IntMatrix([[2, 4, 2], [4, 2, 0], [0, 2, 2]])  # det 0, image index 2
    b = (1, 1, 1)
    assert solve_integer(m, b) is None
    assert oracles.solve_box_search_vec(m.to_lists(), b, 50) is None


def test_solve_random_consistency():
    rng = random.Random(23)
    for _ in range(150):
        n = rng.choice([2, 3])
        m = random_matrix(rng, n, 6)
        x = tuple(rng.randint(-5, 5) for _ in range(n))
        b = m.apply(x)
        got = solve_integer(m, b)
        assert got is not None
        assert m.apply(got) == b
    # and random right-hand sides agree with a small box oracle
    for _ in range(40):
        m = random_matrix(rng, 2, 4)
        b = (rng.randint(-6, 6), rng.randint(-6, 6))
        got = solve_integer(m, b)
        brute = oracles.solve_box_search(m.to_lists(), b, 40)
        if got is None:
            assert brute is None
        else:
            assert m.apply(got) == b


# ---------------------------------------------------------------------------
# kernels, saturations as kernels of kernels, cokernels

def test_kernel_of_involution_minus_identity():
    a = IntMatrix([[3, 2], [-4, -3]])
    assert kernel_basis(a - I2) == [(1, -1)]


def test_kernel_nonsingular_empty():
    assert kernel_basis(PSI) == []


def test_kernel_zero_matrix():
    ker = kernel_basis(IntMatrix([[0, 0], [0, 0]]))
    assert len(ker) == 2
    # a kernel basis must be completable to a lattice basis
    assert oracles.invariant_factors_by_minors(
        [[v[i] for v in ker] for i in range(2)]) == [1, 1]


def test_kernel_properties_random():
    rng = random.Random(31)
    for _ in range(120):
        n = rng.choice([2, 3])
        m = random_matrix(rng, n, 5)
        ker = kernel_basis(m)
        for v in ker:
            assert m.apply(v) == (0,) * n
            assert primitive_vector(v) == v
            first = next((x for x in v if x != 0), 0)
            assert first > 0
        if ker:
            cols = [[v[i] for v in ker] for i in range(n)]
            assert all(f == 1 for f in
                       oracles.invariant_factors_by_minors(cols))


def test_lattice_basis_canonical():
    # Hermite form: same span regardless of generator order, index preserved
    assert lattice_basis([(2, 0), (0, 3)]) == [(2, 0), (0, 3)]
    assert lattice_basis([(2, 4)]) == [(2, 4)]
    assert lattice_basis([(1, 1), (0, 2), (1, 3)]) == [(1, 1), (0, 2)]
    rng = random.Random(71)
    for _ in range(80):
        n = rng.choice([2, 3])
        vecs = [tuple(rng.randint(-5, 5) for _ in range(n))
                for _ in range(rng.randint(1, 4))]
        basis = lattice_basis(vecs)
        shuffled = vecs[:]
        rng.shuffle(shuffled)
        assert lattice_basis(shuffled) == basis
        for v in vecs:
            assert oracles.in_span(basis, v)
        for b in basis:
            # every basis vector is a combination of the original generators:
            # check via minors that adjoining it leaves the span's invariant
            # factors unchanged
            cols = [[v[i] for v in vecs] for i in range(n)]
            cols_plus = [[v[i] for v in vecs + [b]] for i in range(n)]
            assert (oracles.invariant_factors_by_minors(cols)
                    == oracles.invariant_factors_by_minors(cols_plus))


def test_cokernel_examples():
    # Z^r / im(M) is the sum of the Z/d for the Smith diagonal d
    assert smith_rows((PSI - I2).rows).d == [2, 2]
    assert smith_rows([[0]]).d == [0]
    assert smith_rows(IntMatrix.identity(3).rows).d == [1, 1, 1]


def test_rectangular_rows():
    # lists of rows give the same answers as the square IntMatrix ...
    m = PSI - I2
    rows = m.to_lists()
    assert solve_integer(rows, (2, 4)) == solve_integer(m, (2, 4))
    assert kernel_basis(rows) == kernel_basis(m)
    assert smith_rows(rows).d == smith_rows(m.rows).d
    # ... and need not be square
    wide = [[2, 0, 4], [0, 3, 0]]
    x = solve_integer(wide, (6, 3))
    assert [sum(a * b for a, b in zip(r, x)) for r in wide] == [6, 3]
    assert solve_integer(wide, (1, 0)) is None
    assert kernel_basis(wide) == [(2, 0, -1)]
    assert smith_rows(wide).d == [1, 6]
    tall = [[1], [2]]
    assert solve_integer(tall, (1, 3)) is None
    assert kernel_basis(tall) == []
    assert smith_rows(tall).d == [1, 0]
    # ... or have no columns at all
    empty = [[], []]
    assert smith_rows(empty).d == [0, 0]
    assert solve_integer(empty, (0, 0)) == ()
    assert solve_integer(empty, (1, 0)) is None


def test_cokernel_matches_minor_oracle():
    rng = random.Random(59)
    for _ in range(120):
        n = rng.choice([2, 3])
        m = random_matrix(rng, n, 8)
        factors = oracles.invariant_factors_by_minors(m.to_lists())
        assert smith_rows(m.rows).d == factors + [0] * (n - len(factors))


# ---------------------------------------------------------------------------
# rectangular property sweeps: sparse, with zero rows and columns, and
# entries up to 10^20

def random_rows(rng):
    nr, nc = rng.randint(1, 6), rng.randint(1, 8)
    bound = 10 ** rng.choice((1, 2, 20))
    density = rng.choice((0.25, 0.5, 1.0))
    rows = [[rng.randint(-bound, bound) if rng.random() < density else 0
             for _ in range(nc)] for _ in range(nr)]
    if rng.random() < 0.3:
        rows[rng.randrange(nr)] = [0] * nc
    if rng.random() < 0.3:
        j = rng.randrange(nc)
        for row in rows:
            row[j] = 0
    return rows


def test_smith_rows_properties_rectangular():
    rng = random.Random(2027)
    for _ in range(300):
        smith_diagonal(random_rows(rng))


def test_kernel_and_saturation_against_minors_rectangular():
    rng = random.Random(2029)
    for _ in range(300):
        m = random_rows(rng)
        nr, nc = len(m), len(m[0])
        rank = oracles.rank_by_minors(m)
        ker = kernel_basis(m)
        # the kernel has rank nc - rank and is saturated, so it is all of
        # the integer kernel
        assert len(ker) == nc - rank
        for v in ker:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m)
        if ker:
            assert oracles.minor_gcd([list(c) for c in zip(*ker)],
                                     len(ker)) == 1
        assert lattice_basis(ker) == ker
        if not ker:
            continue
        # the kernel of the kernel is the saturation of the rows: the same
        # rank, saturated, and containing every row
        sat = kernel_basis(ker)
        assert len(sat) == rank
        if sat:
            assert oracles.minor_gcd([list(c) for c in zip(*sat)],
                                     len(sat)) == 1
        for row in m:
            assert oracles.in_span(sat, row)
        assert lattice_basis(sat) == sat


def test_kernel_and_saturation_match_echelon_reference():
    # the Hermite form of a lattice is unique, so reading the kernel off the
    # Hermite form of the graph of M must give the echelon path's vectors
    # exactly: same order, same signs
    rng = random.Random(2031)
    for _ in range(1000):
        m = random_rows(rng)
        ker = kernel_basis(m)
        assert ker == oracles.kernel_basis_by_echelon(m), m
        if ker:
            assert kernel_basis(ker) == oracles.saturation_by_echelon(m), m
    # the 4x4 systems C m = n C that gl2z's box scan walks, whose kernel
    # order fixes the order of the scan
    mats = list(gl2z._REPRESENTATIVES.values()) + [PSI]
    for m in mats:
        (ma, mb), (mc, md) = m.rows
        for n in mats:
            (na, nb), (nc, nd) = n.rows
            rows = [[ma - na, mc, -nb, 0], [mb, md - na, 0, -nb],
                    [-nc, 0, ma - nd, mc], [0, -nc, mb, md - nd]]
            ker = kernel_basis(rows)
            assert ker == oracles.kernel_basis_by_echelon(rows)
            if ker:
                assert kernel_basis(ker) == \
                    oracles.saturation_by_echelon(rows)
