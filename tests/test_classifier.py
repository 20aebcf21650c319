"""Invariant validation, normalization, enumeration, and recovery."""

import os
import random
import subprocess
import sys
import textwrap

import pytest

import oracles
from solgeom.classifier import (
    InvariantError,
    PillowcaseInvariant,
    enumerate_invariants,
    from_extension,
    homology_report,
    isomorphic,
    normalize,
    presentation_from_invariant,
    validate,
)
from solgeom.extensions import render_word
from solgeom.intmat import IntMatrix

U0 = IntMatrix([[3, 2, 0], [-4, -3, 0], [0, 0, -1]])
V0 = IntMatrix.diagonal((1, -1, -1))
SU0 = (1, -1, 0)
SV0 = (1, 0, 0)


def test_validate_reports_each_violation():
    cases = [
        ("3,2;4,5", "diagonal"),
        ("2,1;3,2", "even"),
        ("1,2;0,1", "<= 1"),
        ("3,1;8,3", "off-diagonal"),
        ("3,2;2,3", "determinant"),
        ("3,-2;-4,3", "q <= 0"),
    ]
    for text, fragment in cases:
        with pytest.raises(InvariantError, match=fragment):
            validate(IntMatrix.parse(text))
    assert validate(IntMatrix.parse("3,2;4,3")) == PillowcaseInvariant(3, 2, 4)


def test_invariant_constructor_rejects():
    for bad in [(2, 2, 4), (1, 2, 0), (3, 1, 8), (3, -2, -4), (3, 2, 2)]:
        with pytest.raises(InvariantError):
            PillowcaseInvariant(*bad)
    rec = PillowcaseInvariant(3, 2, 4).to_record()
    assert rec == {"p": 3, "q": 2, "r": 4}
    assert PillowcaseInvariant.from_record(rec) == PillowcaseInvariant(3, 2, 4)


def test_normalize_picks_positive_q():
    assert normalize(IntMatrix.parse("3,-2;-4,3")) == \
        PillowcaseInvariant(3, 2, 4)
    assert normalize(IntMatrix.parse("5,4;6,5")) == \
        PillowcaseInvariant(5, 4, 6)
    with pytest.raises(InvariantError):
        normalize(IntMatrix.parse("2,1;3,2"))


def test_normalize_idempotent_and_inversion_invariant():
    for inv in enumerate_invariants(12):
        m = inv.matrix()
        assert normalize(m) == inv
        assert normalize(m.inverse()) == inv
        assert normalize(normalize(m).matrix()) == inv


def test_isomorphic_is_equality_of_normal_forms():
    a = normalize(IntMatrix.parse("3,2;4,3"))
    b = normalize(IntMatrix.parse("3,-2;-4,3"))
    assert isomorphic(a, b)
    assert not isomorphic(a, PillowcaseInvariant(3, 4, 2))
    assert not isomorphic(a, PillowcaseInvariant(-3, 2, 4))


def test_enumerate_small_boxes():
    assert [(v.p, v.q, v.r) for v in enumerate_invariants(4)] == [
        (3, 2, 4), (3, 4, 2), (-3, 2, 4), (-3, 4, 2)]
    assert enumerate_invariants(2) == []
    assert enumerate_invariants(3) == []


def test_enumerate_matches_box_scan_oracle():
    for bound in (4, 9, 20, 33):
        mine = {(v.p, v.q, v.r) for v in enumerate_invariants(bound)}
        assert mine == set(oracles.pillowcase_box_scan(bound))


def test_enumerate_count_and_profile_at_twenty():
    invs = enumerate_invariants(20)
    assert len(invs) == 52
    profile = {}
    for v in invs:
        if v.p > 0:
            profile[v.p] = profile.get(v.p, 0) + 1
    assert profile == {3: 2, 5: 4, 7: 4, 9: 4, 11: 4, 13: 2, 15: 2,
                       17: 2, 19: 2}
    # sorted by |p| with the positive sign first, then by q
    keys = [(abs(v.p), 0 if v.p > 0 else 1, v.q) for v in invs]
    assert keys == sorted(keys)


def test_from_extension_worked_example():
    assert from_extension(U0, V0, SU0, SV0) == PillowcaseInvariant(3, 2, 4)


def rand_unimodular(rng, n=3):
    m = IntMatrix.identity(n)
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        rows = [list(r) for r in m.rows]
        c = rng.choice((-1, 1))
        for k in range(n):
            rows[i][k] += c * rows[j][k]
        m = IntMatrix(rows)
    return m


def test_from_extension_basis_change_invariant():
    rng = random.Random(31)
    for _ in range(25):
        b = rand_unimodular(rng)
        binv = b.inverse()
        inv = from_extension(b * U0 * binv, b * V0 * binv,
                             b.apply(SU0), b.apply(SV0))
        assert inv == PillowcaseInvariant(3, 2, 4)


def test_from_extension_rejections():
    ident3 = IntMatrix.identity(3)
    with pytest.raises(InvariantError, match="involution"):
        from_extension(IntMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]), V0,
                       (0, 0, 0), SV0)
    with pytest.raises(InvariantError, match="fixed lattice has rank 3"):
        from_extension(V0, V0, SV0, SV0)
    with pytest.raises(InvariantError, match="not hyperbolic on"):
        # diagonal involutions: the composite has finite order
        from_extension(IntMatrix.diagonal((1, -1, 1)),
                       IntMatrix.diagonal((1, 1, -1)),
                       (1, 0, 0), (1, 0, 0))
    with pytest.raises(InvariantError, match="torsion"):
        from_extension(U0, V0, (0, 0, 0), SV0)
    with pytest.raises(InvariantError, match="non-diagonalizable"):
        # v acts by the swap class on the moved sublattice
        from_extension(IntMatrix([[3, 8, 0], [-1, -3, 0], [0, 0, 1]]),
                       IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
                       (-4, 1, 1), (0, 0, 1))
    with pytest.raises(InvariantError, match="3x3"):
        from_extension(IntMatrix.identity(2), IntMatrix.identity(2),
                       (0, 0), (0, 0))


def test_presentation_from_invariant():
    pres, group = presentation_from_invariant(PillowcaseInvariant(3, 2, 4))
    assert pres.generators == ("x", "y", "z", "u", "v")
    assert [render_word(r) for r in pres.relators] == [
        "x y x^-1 y^-1", "x z x^-1 z^-1", "y z y^-1 z^-1",
        "u x u^-1 y^4 x^-3", "u y u^-1 y^3 x^-2", "u z u^-1 z",
        "v x v^-1 x^-1", "v y v^-1 y", "v z v^-1 z",
        "u u y x^-1", "v v x^-1"]
    assert group.square_cocycle["u"] == (1, -1, 0)
    _, g2 = presentation_from_invariant(PillowcaseInvariant(5, 4, 6))
    assert g2.square_cocycle["u"] == (1, -1, 0)
    for rel in pres.relators:
        assert group.evaluate_word(rel) == group.identity()


def test_homology_report_values():
    rep = homology_report(PillowcaseInvariant(3, 2, 4))
    assert rep["h1"] == {"rank": 0, "torsion": [2, 4, 4]}
    assert rep["orders"] == {"x": 2, "y": 2, "z": 2, "u": 4, "v": 4}
    assert rep["w1_factors_through_z4"] is True
    neg = homology_report(PillowcaseInvariant(-3, 2, 4))
    assert neg["h1"]["rank"] == 0
    assert neg["orders"]["u"] == 4 and neg["orders"]["x"] == 2


def test_homology_against_minor_gcd_oracle():
    for inv in enumerate_invariants(8):
        _, group = presentation_from_invariant(inv)
        _, rows = group._relator_matrix_rows()
        assert group.abelianization() == oracles.cokernel_by_minors(rows)


# The gate sees a pillowcase group whose v-cocycle is zeroed, so the group
# has torsion; it must refuse it with InvariantError even under python -O.
# Two more library gates must raise RuntimeError there too: the Smith form
# postconditions, seen through a faulty matrix product, and the check that
# every center generator commutes, fed a generator of D-infinity.
_GATE_SCRIPT = textwrap.dedent("""
    import sys
    from solgeom import catalog, classifier
    from solgeom.extensions import ExtensionGroup, from_description
    from solgeom.intmat import IntMatrix, smith_normal_form

    build = catalog.pillowcase_group

    def with_torsion(p, q, r):
        d = build(p, q, r).to_description()
        d["cocycles"]["v"] = [0, 0, 0]
        return from_description(d)

    catalog.pillowcase_group = with_torsion
    inv = classifier.PillowcaseInvariant(3, 2, 4)
    for call in (classifier.presentation_from_invariant,
                 classifier.homology_report):
        try:
            call(inv)
        except classifier.InvariantError as exc:
            print(exc)
        else:
            sys.exit(1)

    mul = IntMatrix.__mul__
    IntMatrix.__mul__ = lambda a, b: mul(a, b) + IntMatrix.identity(a.n)
    try:
        smith_normal_form(IntMatrix([[2, 0], [0, 4]]))
    except RuntimeError as exc:
        print(exc)
    else:
        sys.exit(1)
    IntMatrix.__mul__ = mul

    ExtensionGroup._central_quotient_generators = \
        lambda self: [self.generator_element("u")]
    try:
        catalog.dinf_group().center()
    except RuntimeError as exc:
        print(exc)
    else:
        sys.exit(1)
    sys.exit(0 if sys.flags.optimize else 3)
""")


def test_torsion_gate_raises_under_optimize():
    src = os.path.dirname(os.path.dirname(
        os.path.abspath(sys.modules["solgeom"].__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", _GATE_SCRIPT],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 4
    assert all("torsion element" in line and "word=('v',)" in line
               for line in lines[:2])
    assert "breaks its postconditions" in lines[2]
    assert "does not commute" in lines[3]
