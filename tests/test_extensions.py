"""Extension group arithmetic, invariants, and homomorphism checks."""

import itertools
import random
from math import gcd, lcm

import numpy as np
import pytest

import oracles
from solgeom import catalog, extensions
from solgeom.classifier import (
    PillowcaseInvariant,
    enumerate_invariants,
    group_from_invariant,
)
from solgeom.extensions import (
    ExtensionGroup,
    GroupElement,
    QuotientKind,
    from_description,
    induced_lattice_matrix,
    is_block_diagonalizable,
    parse_word,
    render_word,
    verify_homomorphism,
)
from solgeom.intmat import IntMatrix


def sample_groups():
    return [
        catalog.dinf_group(),
        catalog.g2_group(),
        catalog.b1_group(),
        catalog.kb_monodromy_group(),
        catalog.b1_sd_theta_group(),
        group_from_invariant(PillowcaseInvariant(3, 2, 4)),
        catalog.sigma_group(),
        ExtensionGroup("C2", 2, generators=("g",),
                       action={"g": [[0, 1], [1, 0]]}, cocycles={"g": (1, 1)},
                       axis_signs={"g": -1}, name="C2-swap"),
        ExtensionGroup("Trivial", 2, name="Z2"),
    ]


def random_element(g, rng):
    names = list(g.generators) + list(g.lattice_names)
    word = []
    for _ in range(rng.randrange(0, 6)):
        word.append((rng.choice(names), rng.choice((-2, -1, 1, 2))))
    return g.evaluate_word(tuple(word))


def test_word_parse_render_round_trip():
    w = parse_word("u v^-1 x^3 y")
    assert w == (("u", 1), ("v", -1), ("x", 3), ("y", 1))
    assert render_word(w) == "u v^-1 x^3 y"
    assert parse_word("") == ()


def test_group_law_associative_and_inverses():
    rng = random.Random(2024)
    for g in sample_groups():
        ident = g.identity()
        for _ in range(40):
            a = random_element(g, rng)
            b = random_element(g, rng)
            c = random_element(g, rng)
            assert g.element_mul(g.element_mul(a, b), c) == \
                g.element_mul(a, g.element_mul(b, c))
            assert g.element_mul(a, g.element_inv(a)) == ident
            assert g.element_mul(g.element_inv(a), a) == ident
            assert g.conjugate(a, b) == g.element_mul(
                g.element_mul(a, b), g.element_inv(a))


def test_element_pow_matches_repeated_mul():
    rng = random.Random(7)
    for g in sample_groups():
        for _ in range(10):
            a = random_element(g, rng)
            acc = g.identity()
            for k in range(5):
                assert g.element_pow(a, k) == acc
                acc = g.element_mul(acc, a)
            assert g.element_pow(a, -3) == g.element_inv(g.element_pow(a, 3))


def test_element_to_word_round_trip():
    rng = random.Random(5)
    for g in sample_groups():
        for _ in range(25):
            a = random_element(g, rng)
            assert g.evaluate_word(g.element_to_word(a)) == a


def test_pillowcase_normal_forms():
    g = group_from_invariant(PillowcaseInvariant(3, 2, 4))
    # squares of the involution lifts land in the lattice
    assert g.evaluate_word("u u") == g.element((1, -1, 0))
    assert g.evaluate_word("v v") == g.element((1, 0, 0))
    u = g.generator_element("u")
    x, y, z = g.lattice_basis_elements()
    # u x u^-1 follows the hyperbolic action, u z u^-1 = z^-1
    assert g.conjugate(u, x) == g.element((3, -4, 0))
    assert g.conjugate(u, z) == g.element_inv(z)


def test_dinf_rank_zero():
    g = catalog.dinf_group()
    u = g.generator_element("u")
    v = g.generator_element("v")
    assert g.element_mul(u, u) == g.identity()
    assert g.element_mul(v, v) == g.identity()
    w = g.element_mul(u, v)
    assert not g.is_torsion(w)
    assert g.is_torsion(u)
    wit = g.find_torsion()
    assert wit is not None and g.is_torsion(wit)


# kind: (abelianization, h1_generator_orders, center, generator_characters,
# w1_factors_through_z4) of the rank-0 group with axis signs -1 on the first
# generator and +1 on the second
RANK_ZERO_EXPECT = {
    "Trivial": ((0, ()), {}, (0, ()), {}, True),
    "C2": ((0, (2,)), {"g": 2}, (0, (1,)), {"g": 1}, False),
    "Zq": ((1, ()), {"g": None}, (1, (1,)), {"g": 1}, True),
    "ZxC2": ((1, (2,)), {"g": None, "h": 2}, (1, ((1, 0), (0, 1))),
             {"g": 1, "h": 0}, True),
    "Dinf": ((0, (2, 2)), {"g": 2, "h": 2}, (0, ()), {"g": 1, "h": 0},
             False),
    "Klein": ((1, (2,)), {"g": None, "h": 2}, (1, ((2, 0),)),
              {"g": 1, "h": 0}, True),
}


def test_rank_zero_groups_of_every_kind():
    # a rank-0 group acts by the 0x0 identity, which descriptions write as
    # null
    for kind, expect in RANK_ZERO_EXPECT.items():
        gens = ("g", "h")[:extensions._KINDS[QuotientKind(kind)].arity]
        signs = dict(zip(gens, (-1, 1)))
        g = ExtensionGroup(kind, 0, generators=gens,
                           action={x: None for x in gens}, axis_signs=signs)
        assert g.action == {x: IntMatrix.identity(0) for x in gens}
        center = g.center()
        assert (g.abelianization(), g.h1_generator_orders(),
                (center.rank, tuple(z.q for z in center.generators)),
                g.generator_characters(), g.w1_factors_through_z4()) \
            == expect, kind
        assert all(z.t == () for z in center.generators)
        d = {"kind": kind, "rank": 0, "lattice": [], "generators": list(gens),
             "action": {x: None for x in gens}, "axisSigns": signs}
        assert g.to_description() == d
        assert from_description(d).to_description() == d
        if kind == "Dinf":
            assert g.find_torsion() == GroupElement((), ("g",))
    with pytest.raises(ValueError, match="no action matrices"):
        ExtensionGroup("C2", 0, generators=("g",),
                       action={"g": IntMatrix.identity(0)})


def test_group_element_repr():
    assert repr(GroupElement((1, -2), ("u", "v"))) == \
        "GroupElement(t=(1, -2), q=('u', 'v'))"
    assert repr(GroupElement((), 0)) == "GroupElement(t=(), q=0)"


def test_is_torsion_matches_brute_force():
    # a has finite order iff a^k = 1 for some 1 <= k <= 12, on random
    # elements and on elements of the generator cosets, of every kind
    zeroed = group_from_invariant(PillowcaseInvariant(3, 2, 4))
    zeroed = ExtensionGroup("Dinf", 3, generators=("u", "v"),
                            action=dict(zeroed.action),
                            cocycles={"u": (1, -1, 0)})
    groups = sample_groups() + [zeroed] + [
        ExtensionGroup("ZxC2", 1, generators=("s", "g"),
                       action={"s": [[1]], "g": [[-1]]}, cocycles={"s": (2,)}),
        ExtensionGroup("ZxC2", 0, generators=("s", "g"),
                       action={"s": None, "g": None}),
        ExtensionGroup("Klein", 1, generators=("x", "y"),
                       action={"x": [[-1]], "y": [[1]]}),
    ]
    assert {g.kind for g in groups} == set(extensions.QuotientKind)
    rng = random.Random(12)
    seen = set()
    for g in groups:
        elements = [g.identity()] + [random_element(g, rng)
                                     for _ in range(30)]
        for x in g.generators:
            for _ in range(10):
                t = tuple(rng.randint(-2, 2) for _ in range(g.rank))
                elements.append(g.element_mul(g.element(t),
                                              g.generator_element(x)))
        for a in elements:
            want = any(g.element_pow(a, k) == g.identity()
                       for k in range(1, 13))
            assert g.is_torsion(a) is want, (g, a)
            seen.add((g.kind.value, want and a != g.identity()))
    # nontrivial torsion occurs exactly in the kinds with involutions
    assert seen == {(k, b) for k in ("C2", "ZxC2", "Dinf")
                    for b in (False, True)} \
        | {("Zq", False), ("Klein", False), ("Trivial", False)}


def test_torsion_search_agrees_with_direct_check():
    g = group_from_invariant(PillowcaseInvariant(3, 2, 4))
    assert g.find_torsion() is None
    # no torsion among short odd coset words with small lattice offsets
    words = [("u",), ("v",), ("u", "v", "u"), ("v", "u", "v"),
             ("u", "v", "u", "v", "u"), ("v", "u", "v", "u", "v")]
    box = range(-2, 3)
    for q in words:
        for t in itertools.product(box, repeat=3):
            assert not g.is_torsion(g.element(t, q))


def test_zeroed_cocycle_introduces_torsion():
    base = group_from_invariant(PillowcaseInvariant(3, 2, 4))
    for name in ("u", "v"):
        cocycles = dict(base.square_cocycle)
        cocycles[name] = (0, 0, 0)
        g = ExtensionGroup(
            "Dinf", 3, lattice_names=base.lattice_names,
            generators=base.generators,
            action=dict(base.action),
            cocycles=cocycles,
            axis_signs=dict(base.axis_signs),
        )
        wit = g.find_torsion()
        assert wit is not None
        assert g.is_torsion(wit)


def test_abelianization_frozen_values():
    assert catalog.g2_group().abelianization() == (1, (2, 2))
    assert catalog.dinf_group().abelianization() == (0, (2, 2))
    assert catalog.b1_group().abelianization() == (2, (2,))
    assert group_from_invariant(PillowcaseInvariant(3, 2, 4)) \
        .abelianization() == (0, (2, 4, 4))


def test_abelianization_against_minor_gcd_oracle():
    # the SNF-based result must match determinantal-divisor arithmetic
    for g in sample_groups():
        _, rows = g._relator_matrix_rows()
        assert g.abelianization() == oracles.cokernel_by_minors(rows)


def test_pillowcase_generator_orders_in_h1():
    g = group_from_invariant(PillowcaseInvariant(3, 2, 4))
    assert g.h1_generator_orders() == {
        "x": 2, "y": 2, "z": 2, "u": 4, "v": 4}


def test_orientation_character_is_homomorphism():
    rng = random.Random(99)
    for g in [group_from_invariant(PillowcaseInvariant(3, 2, 4)),
              catalog.kb_monodromy_group(),
              catalog.sigma_group(), catalog.b1_group()]:
        for _ in range(20):
            a = random_element(g, rng)
            b = random_element(g, rng)
            wa = g.orientation_character(a)
            wb = g.orientation_character(b)
            assert g.orientation_character(g.element_mul(a, b)) == \
                (wa + wb) % 2


def test_pillowcase_orientation_values():
    g = group_from_invariant(PillowcaseInvariant(3, 2, 4))
    chars = g.generator_characters()
    assert chars == {"x": 0, "y": 0, "z": 0, "u": 1, "v": 1}
    assert g.w1_factors_through_z4() is True


def test_generator_characters_match_generator_elements():
    groups = list(catalog.default_catalog().values()) + [
        group_from_invariant(PillowcaseInvariant(-3, 2, 4)),
        catalog.g2_group(-1),
        ExtensionGroup("C2", 0, generators=("g",), action={"g": None},
                       axis_signs={"g": -1}),
        ExtensionGroup("Trivial", 2)]
    for g in groups:
        if g.axis_signs is None and g.generators:
            with pytest.raises(ValueError, match="no axis signs"):
                g.generator_characters()
            continue
        want = {e: 0 for e in g.lattice_names}
        want.update((x, g.orientation_character(g.generator_element(x)))
                    for x in g.generators)
        assert g.generator_characters() == want


def test_w1_lift_obstruction():
    # reflection on Z with trivial square cocycle: the character sends the
    # reflection to 1 but its H1 image has order 2, so no lift to Z/4
    g = ExtensionGroup(
        "C2", 1, lattice_names=("e",), generators=("u",),
        action={"u": [[-1]]}, cocycles={"u": (0,)},
        axis_signs={"u": 1},
    )
    assert g.abelianization() == (0, (2, 2))
    assert g.generator_characters() == {"e": 0, "u": 1}
    assert g.w1_factors_through_z4() is False


def test_w1_lift_false_on_rank0_c2():
    # the first False case: H1 = Z/2 and w(g) = 1, so a lift would send g
    # to an odd element of Z/4 of order dividing 2
    g = ExtensionGroup("C2", 0, generators=("g",), action={"g": None},
                       axis_signs={"g": -1})
    assert g.abelianization() == (0, (2,))
    assert g.generator_characters() == {"g": 1}
    assert g.w1_factors_through_z4() is False
    flipped = ExtensionGroup("C2", 0, generators=("g",), action={"g": None},
                             axis_signs={"g": 1})
    assert flipped.w1_factors_through_z4() is True


def _w1_by_search(g):
    gens, rows = g._relator_matrix_rows()
    chars = g.generator_characters()
    return oracles.w1_lifts_to_z4(rows, [chars[name] for name in gens])


def test_w1_matches_lift_search_on_pillowcase_and_catalog():
    invs = enumerate_invariants(60)
    assert len(invs) == 236
    for inv in invs:
        g = group_from_invariant(inv)
        assert g.w1_factors_through_z4() is _w1_by_search(g)
    signed = 0
    for name, g in catalog.default_catalog().items():
        if g.axis_signs is None:
            # no orientation character to lift
            with pytest.raises(ValueError):
                g.w1_factors_through_z4()
            continue
        signed += 1
        assert g.w1_factors_through_z4() is _w1_by_search(g), name
    assert signed == 7


def test_w1_matches_lift_search_on_random_groups():
    # small C2, Zq and Dinf extensions with random involutive actions,
    # cocycles and axis signs; both answers occur
    rng = random.Random(4)
    involutions = [[[1]], [[-1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]],
                   [[-1, 0], [0, -1]], [[1, 0], [0, 1]], [[3, 2], [-4, -3]]]
    seen = set()
    tried = 0
    while tried < 300:
        kind = rng.choice(("C2", "Dinf", "Zq"))
        rank = rng.choice((0, 1, 2))
        gens = ("u",) if kind != "Dinf" else ("u", "v")
        mats = [m for m in involutions if len(m) == rank]
        action = {h: (rng.choice(mats) if rank else None) for h in gens}
        cocycles = ({} if kind == "Zq" else
                    {h: tuple(rng.randint(-2, 2) for _ in range(rank))
                     for h in gens})
        signs = {h: rng.choice((1, -1)) for h in gens}
        try:
            g = ExtensionGroup(kind, rank, generators=gens, action=action,
                               cocycles=cocycles, axis_signs=signs)
        except ValueError:
            continue
        tried += 1
        got = g.w1_factors_through_z4()
        assert got is _w1_by_search(g), g
        seen.add(got)
    assert seen == {True, False}


CENTER_EXPECT = {
    "pillowcase": (0, []),
    "Dinf": (0, []),
    "B1-sd-theta": (0, []),
    "sigma": (0, []),
    "G2": (1, ["u^2"]),
    "kb-monodromy": (1, ["x^2"]),
    "bordered": (1, ["x^2 y z^-2"]),
    "B1": (2, ["x^2", "t"]),
}


def test_center_frozen_descriptions():
    for name, g in catalog.default_catalog().items():
        rank, words = CENTER_EXPECT[name]
        c = g.center()
        assert c.rank == rank, name
        assert [g.element_to_word(e) for e in c.generators] == words, name


def enumerate_small(g, quotient_words, box=2):
    for q in quotient_words:
        for t in itertools.product(range(-box, box + 1), repeat=g.rank):
            yield g.element(t, q)


def central_span_sample(g, bound=8):
    gens = [e for c in [g.center()] for e in c.generators]
    elems = {g.identity()}
    for e in gens:
        elems = {g.element_mul(a, g.element_pow(e, k))
                 for a in elems for k in range(-bound, bound + 1)}
    return elems


def is_central(g, a):
    tests = g.generator_elements() + g.lattice_basis_elements()
    return all(g.commute(a, h) for h in tests)


def test_center_of_rank_six_zq():
    # blockdiag(C(Phi6), C(Phi5)) has order 30: s^30 is central, and no
    # search bounded by an order below 30 can find it
    c6 = [[0, -1], [1, 1]]
    c5 = [[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]]
    action = [r + [0] * 4 for r in c6] + [[0] * 2 + r for r in c5]
    g = ExtensionGroup("Zq", 6, generators=("s",), action={"s": action})
    c = g.center()
    assert c.rank == 1
    assert c.generators == (g.element((0,) * 6, 30),)


def test_order_exponent_table():
    # L(n) is the lcm of every m with phi(m) <= n: the companion matrix of
    # the m-th cyclotomic polynomial has order m in dimension phi(m)
    def phi(m):
        return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)

    for n, expected in enumerate(extensions._ORDER_EXPONENT):
        assert expected == lcm(*[m for m in range(1, 200) if phi(m) <= n])


def test_center_complete_on_small_elements():
    cases = [
        (group_from_invariant(PillowcaseInvariant(3, 2, 4)),
         [(), ("u",), ("v",), ("u", "v"), ("v", "u"), ("u", "v", "u")]),
        (catalog.g2_group(), range(-3, 4)),
        (catalog.kb_monodromy_group(),
         [(a, b) for a in range(-2, 3) for b in range(-2, 3)]),
    ]
    for g, qwords in cases:
        span = central_span_sample(g)
        for a in enumerate_small(g, qwords):
            if is_central(g, a):
                assert a in span, (g.name, a)


def test_block_diagonalizable():
    def theta(xi):
        return IntMatrix([[1, 0, 0], [xi[0], 3, 2], [xi[1], 4, 3]])

    assert is_block_diagonalizable(theta((0, 0))) is True
    assert is_block_diagonalizable(theta((1, 0))) is False
    assert is_block_diagonalizable(theta((-2, -4))) is True
    with pytest.raises(ValueError):
        is_block_diagonalizable(IntMatrix([[1, 0, 0], [0, 0, 1], [0, -1, 0]]))
    with pytest.raises(ValueError):
        is_block_diagonalizable(IntMatrix([[1, 1, 0], [0, 3, 2], [0, 4, 3]]))


def test_verify_homomorphism_identity_and_broken():
    g = group_from_invariant(PillowcaseInvariant(3, 2, 4))
    pres = g.presentation()
    images = {n: g.evaluate_word(n) for n in pres.generators}
    assert verify_homomorphism(pres, images, g) is True
    broken = dict(images)
    broken["u"] = g.element_mul(images["u"], g.element((1, 0, 0)))
    assert verify_homomorphism(pres, broken, g) is False
    with pytest.raises(ValueError):
        verify_homomorphism(pres, {"u": images["u"]}, g)


def test_involution_of_dihedral_example():
    g = catalog.sigma_group()
    pres = g.presentation()
    images = {
        "u": g.evaluate_word("v"),
        "v": g.evaluate_word("u"),
        "x": g.evaluate_word("x^3 y^-2"),
        "y": g.evaluate_word("x^4 y^-3"),
    }
    assert verify_homomorphism(pres, images, g) is True
    # the lattice part of the map is an involution of determinant -1
    m = induced_lattice_matrix(("x", "y"), images, g)
    assert m == IntMatrix([[3, 4], [-2, -3]])
    assert m * m == IntMatrix.identity(2)
    assert m.det() == -1
    # flipping one exponent sign breaks a relator
    bad = dict(images)
    bad["y"] = g.evaluate_word("x^4 y^3")
    assert verify_homomorphism(pres, bad, g) is False


def test_self_map_of_flat_group():
    g = catalog.b1_group()
    pres = g.presentation()
    images = {
        "t": g.evaluate_word("t^3 x^2"),
        "x": g.evaluate_word("t^4 x^3"),
        "y": g.evaluate_word("y"),
    }
    assert verify_homomorphism(pres, images, g) is True
    # theta(t) is not a lattice element, so no induced lattice matrix there
    with pytest.raises(ValueError):
        induced_lattice_matrix(("t", "y"), images, g)
    # on the abelian direct factor <t, x> the map acts by a unimodular matrix
    cols = []
    for name in ("t", "x"):
        img = images[name]
        cols.append((img.t[0], img.q))
    m = IntMatrix.from_columns(cols)
    assert m == IntMatrix([[3, 4], [2, 3]])
    assert m.is_unimodular()


def test_presentation_relators_hold():
    for g in sample_groups():
        for rel in g.presentation().relators:
            assert g.evaluate_word(rel) == g.identity(), \
                (g.name, render_word(rel))


def test_description_round_trip():
    for g in sample_groups():
        d = g.to_description()
        h = from_description(d)
        assert h.kind == g.kind
        assert h.rank == g.rank
        assert h.generators == g.generators
        assert h.action == g.action
        assert h.square_cocycle == g.square_cocycle
        assert h.abelianization() == g.abelianization()


def test_cocycles_must_be_integers():
    # a float cocycle is refused, not truncated
    with pytest.raises(TypeError):
        ExtensionGroup("C2", 1, generators=("u",), action={"u": [[1]]},
                       cocycles={"u": (0.5,)})
    with pytest.raises(TypeError):
        ExtensionGroup("ZxC2", 1, generators=("s", "g"),
                       action={"s": [[1]], "g": [[-1]]},
                       cocycles={"s": (0.5,)})
    # numpy integers pass and are stored as plain ints
    g = ExtensionGroup("C2", 1, generators=("u",), action={"u": [[1]]},
                       cocycles={"u": np.array([2], dtype=np.int64)})
    assert g.square_cocycle["u"] == (2,)
    assert type(g.square_cocycle["u"][0]) is int


def test_validation_rejections():
    with pytest.raises(ValueError):
        ExtensionGroup("Dinf", 2, generators=("u",), action={"u": None})
    with pytest.raises(ValueError):
        ExtensionGroup("C2", 1, generators=("u",), action={"u": [[2]]})
    with pytest.raises(ValueError):
        # action must square to the identity
        ExtensionGroup("C2", 2, generators=("u",),
                       action={"u": [[1, 1], [0, 1]]})
    with pytest.raises(ValueError):
        # square cocycle must be fixed by the action
        ExtensionGroup("C2", 2, generators=("u",),
                       action={"u": [[1, 0], [0, -1]]},
                       cocycles={"u": (0, 1)})
    # a rank past MAX_DIM is refused before anything of that size is built
    with pytest.raises(ValueError, match="dimension 1000000000 outside"):
        from_description({"kind": "Trivial", "rank": 10 ** 9})
    # null stands for the 0x0 matrix only
    with pytest.raises(ValueError, match="'u' is null, but the rank is 1"):
        ExtensionGroup("C2", 1, generators=("u",), action={"u": None})
    for field in ("kind", "rank"):
        d = {"kind": "Zq", "rank": 1, "generators": ["s"],
             "action": {"s": [[1]]}}
        del d[field]
        with pytest.raises(ValueError,
                           match=f"description missing field '{field}'"):
            from_description(d)


def _columns_by_counting(g):
    """The nonzero exponent-sum columns of g.presentation()'s relators."""
    pres = g.presentation()
    index = {name: i for i, name in enumerate(pres.generators)}
    cols = []
    for rel in pres.relators:
        col = [0] * len(pres.generators)
        for name, exp in rel:
            col[index[name]] += exp
        if any(col):
            cols.append(col)
    return pres.generators, [[c[i] for c in cols]
                             for i in range(len(pres.generators))]


def test_relator_columns_match_presentation_exponent_sums():
    groups = list(catalog.default_catalog().values())
    groups += [group_from_invariant(PillowcaseInvariant(p, q, r))
               for p, q, r in ((3, 2, 4), (5, 4, 6), (7, 6, 8))]
    # rank 0, every kind
    for kind, gens in (("Trivial", ()), ("C2", ("g",)), ("Zq", ("g",)),
                       ("ZxC2", ("g", "h")), ("Dinf", ("g", "h")),
                       ("Klein", ("g", "h"))):
        groups.append(ExtensionGroup(kind, 0, generators=gens,
                                     action={g: None for g in gens}))
    groups += [
        ExtensionGroup("Trivial", 2),
        ExtensionGroup("Zq", 2, generators=("s",),
                       action={"s": [[2, 1], [1, 1]]}),
        ExtensionGroup("ZxC2", 1, generators=("s", "g"),
                       action={"s": [[1]], "g": [[-1]]},
                       cocycles={"s": (3,)}),
        ExtensionGroup("ZxC2", 2, generators=("s", "g"),
                       action={"s": [[2, 1], [1, 1]], "g": [[-1, 0], [0, -1]]},
                       cocycles={"s": (1, -2)}),
        ExtensionGroup("Klein", 1, generators=("x", "y"),
                       action={"x": [[1]], "y": [[-1]]}),
        ExtensionGroup("C2", 2, generators=("u",),
                       action={"u": [[0, 1], [1, 0]]}, cocycles={"u": (1, 1)}),
    ]
    assert {g.kind for g in groups} == set(extensions.QuotientKind)
    for g in groups:
        assert g._relator_matrix_rows() == _columns_by_counting(g)
