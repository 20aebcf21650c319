"""Tests for finite-order structure and two-ended typing in GL(2,Z)."""

import ast
import importlib
import inspect
import pkgutil
import random
import tracemalloc

import pytest

import oracles
import solgeom
from solgeom.intmat import IntMatrix
from solgeom import verify
from solgeom.gl2z import (
    FiniteOrderClass,
    NotTwoEndedError,
    NONCENTRAL_CLASSES,
    TwoEndedType,
    centralizer_sample,
    conjugate_in_gl2z,
    element_order,
    finite_order_class,
    two_ended_type,
)

I2 = IntMatrix.identity(2)
MINUS_I2 = -I2
REFL = IntMatrix([[1, 0], [0, -1]])
SWAP = IntMatrix([[0, 1], [1, 0]])
HYP = IntMatrix([[3, 2], [4, 3]])


def _mat(t):
    a, b, c, d = t
    return IntMatrix([[a, b], [c, d]])


# ---------------------------------------------------------------------------
# element_order


def test_element_order_frozen():
    assert element_order(I2) == 1
    assert element_order(MINUS_I2) == 2
    assert element_order(REFL) == 2
    assert element_order(SWAP) == 2
    assert element_order(IntMatrix([[0, 1], [-1, -1]])) == 3
    assert element_order(IntMatrix([[0, 1], [-1, 0]])) == 4
    assert element_order(IntMatrix([[0, 1], [-1, 1]])) == 6
    assert element_order(HYP) is None
    assert element_order(IntMatrix([[17, 24], [-12, -17]])) == 2


def test_element_order_rejects_non_unit_det():
    with pytest.raises(ValueError):
        element_order(IntMatrix([[2, 0], [0, 1]]))


def test_order_law_box_three():
    # finite order <=> M^12 = I, and finite orders lie in {1,2,3,4,6};
    # cross-checked against plain repeated multiplication
    for t in oracles.unimodular_box(3):
        m = _mat(t)
        order = element_order(m)
        twelfth = m ** 12 == I2
        assert (order is not None) == twelfth
        assert order == oracles.order2_brute(t)
        if order is not None:
            assert order in (1, 2, 3, 4, 6)


def _with_negatives(tuples):
    for t in tuples:
        yield t
        yield tuple(-x for x in t)


def test_element_order_parabolics_beyond_box():
    # det 1, trace +-2: order 1 or 2 at +-I, infinite otherwise
    parabolics = list(_with_negatives(
        t for k in range(-100, 101) for t in ((1, k, 0, 1), (1, 0, k, 1))))
    for t in parabolics:
        assert element_order(_mat(t)) == oracles.order2_brute(t)
    assert [element_order(_mat(t)) for t in parabolics].count(None) \
        == len(parabolics) - 4


def test_element_order_det_minus_one():
    # det -1: order 2 exactly at trace 0, infinite otherwise
    for t in range(-100, 101):
        for m in ((t, 1, 1, 0), (0, 1, 1, t), (t, t * t + 1, 1, t),
                  (1, t, 0, -1), (t, 1 - t * t, 1, -t)):
            assert oracles.det2(m) == -1
            order = element_order(_mat(m))
            assert order == oracles.order2_brute(m)
            assert order == (2 if m[0] + m[3] == 0 else None)


def test_element_order_large_hyperbolics():
    hyperbolics = [(k, 1, -1, 0) for k in range(-100, 101) if abs(k) > 2]
    hyperbolics += [(1 + k * k, k, k, 1) for k in range(1, 60)]
    hyperbolics += [(HYP ** k).rows[0] + (HYP ** k).rows[1]
                    for k in range(1, 12)]
    for t in _with_negatives(hyperbolics):
        assert oracles.det2(t) == 1 and abs(t[0] + t[3]) > 2
        assert element_order(_mat(t)) is None
        assert oracles.order2_brute(t) is None


@pytest.mark.parametrize("module", [
    importlib.import_module(f"solgeom.{info.name}")
    for info in pkgutil.iter_modules(solgeom.__path__)] + [solgeom])
def test_no_assert_statements(module):
    # gates must be real exceptions, so they still run under python -O
    tree = ast.parse(inspect.getsource(module))
    asserts = [node.lineno for node in ast.walk(tree)
               if isinstance(node, ast.Assert)]
    assert asserts == []


# ---------------------------------------------------------------------------
# finite_order_class


def test_class_of_each_representative():
    for cls, order in zip(FiniteOrderClass, (1, 2, 2, 2, 3, 4, 6)):
        assert finite_order_class(cls.representative) is cls
        assert element_order(cls.representative) == order


def test_class_frozen_examples():
    assert finite_order_class(_mat((1, 1, 0, -1))) is FiniteOrderClass.SWAP
    assert finite_order_class(_mat((-1, 0, -1, 1))) is FiniteOrderClass.SWAP
    assert finite_order_class(_mat((3, 2, -4, -3))) \
        is FiniteOrderClass.REFLECTION
    assert finite_order_class(_mat((17, 24, -12, -17))) \
        is FiniteOrderClass.REFLECTION
    assert finite_order_class(_mat((-1, -1, 1, 0))) is FiniteOrderClass.ORDER3


def test_class_rejects_infinite_order():
    with pytest.raises(ValueError):
        finite_order_class(HYP)


def test_mod2_discriminator_against_orbit_search():
    # the Reflection/Swap split by reduction mod 2 must agree with honest
    # bounded conjugation orbits of the two representatives
    orbits = oracles.conjugacy_orbit_map(
        {"refl": (1, 0, 0, -1), "swap": (0, 1, 1, 0)},
        conj_bound=10, entry_bound=3)
    for t in oracles.unimodular_box(3):
        m = _mat(t)
        if element_order(m) != 2 or m == MINUS_I2:
            continue
        cls = finite_order_class(m)
        assert (t in orbits["refl"]) == (cls is FiniteOrderClass.REFLECTION)
        assert (t in orbits["swap"]) == (cls is FiniteOrderClass.SWAP)
        assert (t in orbits["refl"]) != (t in orbits["swap"])


# ---------------------------------------------------------------------------
# conjugate_in_gl2z / centralizer_sample


def test_conjugate_self():
    c = conjugate_in_gl2z(HYP, HYP, bound=2)
    assert c is not None
    assert c * HYP * c.inverse() == HYP


def test_conjugate_obstructed_pair():
    # Reflection vs Swap class: no conjugator at any bound
    assert conjugate_in_gl2z(REFL, _mat((1, 1, 0, -1)), bound=10) is None


def test_conjugate_found_pair():
    n = _mat((1, 1, 0, -1))
    c = conjugate_in_gl2z(SWAP, n, bound=10)
    assert c is not None
    assert c * SWAP * c.inverse() == n


def test_centralizer_of_identity_box_one():
    got = {m.rows for m in centralizer_sample(I2, 1)}
    want = {(((a, b), (c, d))) for a, b, c, d in oracles.unimodular_box(1)}
    assert got == want
    assert len(got) == 40


def test_centralizer_of_order3_is_finite():
    for c in centralizer_sample(IntMatrix([[0, 1], [-1, -1]]), 5):
        assert element_order(c) is not None


def test_centralizer_defining_property():
    sample = centralizer_sample(HYP, 3)
    assert I2 in sample and MINUS_I2 in sample
    for c in sample:
        assert c * HYP == HYP * c


def test_centralizer_of_noncentral_reps_is_finite():
    for cls in NONCENTRAL_CLASSES:
        rep = cls.representative
        for c in centralizer_sample(rep, 6):
            assert element_order(c) is not None


def _intertwiner_lattice_rank(m, n):
    """Rank of the lattice of integer C with C m = n C: 4 minus the rank of
    the linear map C -> C m - n C, whose columns are the images of the
    four unit matrices."""
    units = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    cols = [[x - y for x, y in zip(oracles.mul2(e, m), oracles.mul2(n, e))]
            for e in units]
    return 4 - oracles.rank_by_minors([list(r) for r in zip(*cols)])


def test_scans_match_quartic_oracle():
    # list and order both, at every bound from -1 to 5
    rng = random.Random(8)
    box = oracles.unimodular_box(2)
    pairs = [(oracles.ID2, oracles.ID2),          # lattice rank 4
             (oracles.ID2, (-1, 0, 0, -1)),       # rank 0
             ((1, 1, 0, 1), (1, 0, 0, -1))]       # rank 1: shared eigenvalue
    for _ in range(30):
        m, c = rng.choice(box), rng.choice(box)
        pairs.append((m, oracles.mul2(oracles.mul2(c, m), oracles.inv2(c))))
        pairs.append((m, rng.choice(box)))
    assert {_intertwiner_lattice_rank(m, n) for m, n in pairs} \
        == {0, 1, 2, 4}
    for bound in range(-1, 6):
        for m, n in pairs:
            want = oracles.intertwiner_box_scan(m, n, bound)
            first = conjugate_in_gl2z(_mat(m), _mat(n), bound)
            assert first == (_mat(want[0]) if want else None)
            want = oracles.intertwiner_box_scan(m, m, bound)
            assert centralizer_sample(_mat(m), bound) == [_mat(t) for t in want]


def test_noncentral_centralizers_match_quartic_oracle():
    # the finite-subgroups suite runs at box 6
    for cls in NONCENTRAL_CLASSES:
        rep = cls.representative
        t = rep.rows[0] + rep.rows[1]
        for bound in range(7):
            want = oracles.intertwiner_box_scan(t, t, bound)
            assert centralizer_sample(rep, bound) == [_mat(w) for w in want]


def test_finite_subgroups_instances_match_quartic_oracle(monkeypatch):
    # every instance fails under an order rule that reports all infinite,
    # so the failure keys list the instances; the rule's calls give their
    # order
    seen = []

    def infinite(m):
        seen.append(m.rows[0] + m.rows[1])

    monkeypatch.setattr(verify, "element_order", infinite)
    rep = verify.run_suite("finite-subgroups", box=6)
    want = []
    for cls in NONCENTRAL_CLASSES:
        t = cls.representative.rows[0] + cls.representative.rows[1]
        want += [(cls.name, w) for w in oracles.intertwiner_box_scan(t, t, 6)]
    assert seen == [w for _, w in want]
    assert rep.instances == len(want)
    assert [f["input"] for f in rep.failures] == sorted(want, key=str)


def test_conjugate_search_stops_at_first_hit():
    # the rank-4 lattice of the identity's box 12 has 25^4 points; listing
    # them first would take tens of MB, the lazy walk a few KB
    tracemalloc.start()
    try:
        c = conjugate_in_gl2z(I2, I2, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c == IntMatrix([[-12, -11], [-11, -10]])
    assert peak < 64 * 1024


# ---------------------------------------------------------------------------
# two_ended_type


def test_two_ended_case1():
    t = two_ended_type([HYP])
    assert t.case == 1
    assert t.witnesses == (HYP,)
    assert not t.has_minus_i


def test_two_ended_case2():
    t = two_ended_type([HYP, MINUS_I2])
    assert t.case == 2
    assert t.has_minus_i


def test_two_ended_case3():
    b = IntMatrix([[17, 24], [-12, -17]])
    t = two_ended_type([REFL, b])
    assert t.case == 3
    assert t.witnesses == (REFL, b)
    a2, b2 = t.witnesses
    assert a2 * b2 == IntMatrix([[17, 24], [12, 17]])
    assert element_order(a2 * b2) is None
    assert not t.has_minus_i  # D-infinity has trivial centre, so no -I
    # swapping generators: still case 3, product inverts
    s = two_ended_type([b, REFL])
    assert s.case == 3
    assert s.witnesses[0] * s.witnesses[1] == (a2 * b2).inverse()


def test_two_ended_case3_conjugation_invariant():
    b = IntMatrix([[17, 24], [-12, -17]])
    c = IntMatrix([[1, 1], [0, 1]])
    ci = c.inverse()
    t = two_ended_type([c * REFL * ci, c * b * ci])
    assert t.case == 3


def test_two_ended_case4():
    b = IntMatrix([[17, 24], [-12, -17]])
    t = two_ended_type([REFL, b, MINUS_I2])
    assert t.case == 4
    assert t.has_minus_i


def test_two_ended_case5():
    a = IntMatrix([[0, 1], [-1, 0]])
    b = IntMatrix([[1, -2], [0, -1]])
    for gens in ([a, b], [b, a]):
        t = two_ended_type(gens)
        assert t.case == 5
        assert t.witnesses == (a, b)  # order-4 witness first
        assert t.has_minus_i


def test_two_ended_case6():
    a = IntMatrix([[0, 1], [-1, 0]])
    b = IntMatrix([[1, 2], [-1, -1]])
    t = two_ended_type([a, b])
    assert t.case == 6
    assert a * a == MINUS_I2 and b * b == MINUS_I2
    assert t.has_minus_i


def test_two_ended_rejections():
    with pytest.raises(NotTwoEndedError):
        two_ended_type([SWAP])  # single finite-order generator
    with pytest.raises(NotTwoEndedError):
        two_ended_type([REFL, SWAP])  # product has order 4
    with pytest.raises(NotTwoEndedError):
        two_ended_type([IntMatrix([[0, 1], [-1, -1]]), REFL])  # order 3
    with pytest.raises(NotTwoEndedError):
        two_ended_type([REFL, HYP, SWAP])  # three generators besides +-I


def test_two_ended_error_texts():
    with pytest.raises(ValueError, match="expected a 2x2 matrix") as err:
        two_ended_type([IntMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])])
    assert type(err.value) is ValueError
    with pytest.raises(ValueError, match=r"^matrix with det 2 is not in "
                       r"GL\(2,Z\)$") as err:
        two_ended_type([HYP, IntMatrix([[2, 0], [0, 1]])])
    assert type(err.value) is ValueError
    with pytest.raises(NotTwoEndedError, match="got 0"):
        two_ended_type([I2, MINUS_I2])
    with pytest.raises(NotTwoEndedError,
                       match="single generator has finite order"):
        two_ended_type([SWAP, MINUS_I2])


def test_two_ended_synthetic_pairs_and_record():
    # the verify suite's six synthetic cases, and TwoEndedType's fields,
    # repr and has_minus_i in each case
    has_minus_i = {1: False, 2: True, 3: False, 4: True, 5: True, 6: True}
    for gens, case in verify._SYNTHETIC_PAIRS:
        typed = two_ended_type([_mat(t) for t in gens])
        assert typed.case == case
        assert typed.has_minus_i is has_minus_i[case]
    assert TwoEndedType._fields == ("case", "witnesses", "has_minus_i")
    assert repr(two_ended_type([HYP, MINUS_I2])) == (
        "TwoEndedType(case=2, witnesses=(IntMatrix('3,2;4,3'),), "
        "has_minus_i=True)")
