"""Invariant validation, normalization, enumeration, and recovery."""

import collections
import os
import random
import subprocess
import sys
import textwrap

import pytest

import oracles
from solgeom import intmat
from solgeom.classifier import (
    InvariantError,
    PillowcaseInvariant,
    enumerate_invariants,
    from_extension,
    group_from_invariant,
    homology_report,
    isomorphic,
    normalize,
    validate,
)
from solgeom.extensions import (
    ExtensionGroup,
    render_word,
    verify_homomorphism,
)
from solgeom.intmat import IntMatrix, vec_neg, vec_sub

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
        m = IntMatrix.parse(text)
        with pytest.raises(InvariantError, match=fragment) as raised:
            validate(m)
        (p, q), (r, p2) = m.rows
        if p == p2:
            # the triple's rules are stated once, in the invariant type
            with pytest.raises(InvariantError) as direct:
                PillowcaseInvariant(p, q, r)
            assert str(direct.value) == str(raised.value)
    assert validate(IntMatrix.parse("3,2;4,3")) == PillowcaseInvariant(3, 2, 4)


def test_invariant_constructor_rejects():
    for bad in [(2, 2, 4), (1, 2, 0), (3, 1, 8), (3, -2, -4), (3, 2, 2)]:
        with pytest.raises(InvariantError):
            PillowcaseInvariant(*bad)
    rec = PillowcaseInvariant(3, 2, 4).to_record()
    assert rec == {"p": 3, "q": 2, "r": 4}


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


def test_enumerate_order_by_construction():
    # the loops emit (|p|, sign, q) order, positive p first, unsorted
    invs = enumerate_invariants(60)
    assert invs == sorted(invs, key=lambda v: (abs(v.p), v.p < 0, v.q))


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
    with pytest.raises(InvariantError, match="^action of involutive "
                       "generator 'u' does not square to I$"):
        from_extension(IntMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]), V0,
                       (0, 0, 0), SV0)
    with pytest.raises(InvariantError,
                       match=r"^action of 'u' is not in GL\(3,Z\)$"):
        from_extension(IntMatrix.diagonal((2, 1, 1)), V0, (0, 0, 0), SV0)
    with pytest.raises(InvariantError, match="^square cocycle of 'u' is "
                       "not fixed by its action$"):
        from_extension(U0, V0, (0, 0, 1), SV0)
    with pytest.raises(InvariantError, match="fixed lattice has rank 3"):
        from_extension(V0, V0, SV0, SV0)
    with pytest.raises(InvariantError, match="fixed lattice has rank 2"):
        from_extension(V0, IntMatrix([[1, 0, 0], [0, -1, 0], [2, 0, -1]]),
                       (1, 0, 0), (1, 0, 1))
    with pytest.raises(InvariantError, match="not hyperbolic on"):
        # W has order 2 on the moved sublattice
        from_extension(IntMatrix([[-1, 0, 2], [0, -1, 0], [0, 0, 1]]),
                       IntMatrix([[1, 0, 0], [2, -1, 0], [0, 0, -1]]),
                       (-1, 0, -1), (-1, -1, 0))
    with pytest.raises(InvariantError, match=r"tr U = 1, tr V = 1$"):
        # diagonal involutions, each with a fixed plane
        from_extension(IntMatrix.diagonal((1, -1, 1)),
                       IntMatrix.diagonal((1, 1, -1)),
                       (1, 0, 0), (1, 0, 0))
    with pytest.raises(InvariantError, match="torsion"):
        from_extension(U0, V0, (0, 0, 0), SV0)
    with pytest.raises(InvariantError, match=r"tr U = 1, tr V = 1$"):
        # v is the swap class, of trace 1
        from_extension(IntMatrix([[3, 8, 0], [-1, -3, 0], [0, 0, 1]]),
                       IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
                       (-4, 1, 1), (0, 0, 1))
    with pytest.raises(InvariantError, match="^action of 'u' has wrong "
                       "size$"):
        from_extension(IntMatrix.identity(2), IntMatrix.identity(2),
                       (0, 0), (0, 0))
    with pytest.raises(InvariantError, match=r"\|n\.c\| = 0$"):
        # the fixed line lies in the moved plane
        from_extension(IntMatrix([[1, 2, 0], [0, -1, 0], [-2, -2, -1]]), V0,
                       (1, 0, -1), (-1, 0, 0))
    with pytest.raises(InvariantError, match=r"tr U = 3, tr V = -1$"):
        # u acts trivially
        from_extension(ident3, IntMatrix.diagonal((1, -1, -1)),
                       (-1, -1, 0), (1, 0, 0))


def _input_group(u, v, su, sv):
    return ExtensionGroup("Dinf", 3, generators=("u", "v"),
                          action={"u": u, "v": v},
                          cocycles={"u": su, "v": sv})


def test_from_extension_rejects_groups_outside_the_family():
    # the two smallest torsion-free inputs that the earlier recovery (kept
    # as the kernel oracle) named an invariant for, although their H1 is
    # not that invariant's group's: one of trace 1, one of index 2
    cases = [
        ((IntMatrix([[1, 0, -2], [0, 1, -2], [0, 0, -1]]),
          IntMatrix([[1, 0, 0], [0, 1, 0], [0, -2, -1]]),
          (1, 3, 0), (-1, 3, -3)),
         r"tr U = 1, tr V = 1$", (3, 2, 4), (1, (4, 4))),
        ((IntMatrix([[1, -2, 0], [0, -1, 0], [-2, 2, -1]]),
          IntMatrix([[-1, 0, 0], [-4, -1, 2], [-4, 0, 1]]),
          (-1, 0, 1), (0, 1, 1)),
         r"\|n\.c\| = 2$", (5, 12, 2), (0, (2, 4, 4))),
    ]
    for args, message, named, h1 in cases:
        with pytest.raises(InvariantError, match=message):
            from_extension(*args)
        old = oracles.from_extension_by_kernels(*args)
        assert old == PillowcaseInvariant(*named)
        group = _input_group(*args)
        assert group.find_torsion() is None
        assert group.abelianization() == h1
        assert group_from_invariant(old).abelianization() != h1


# involution classes of GL(3,Z), each with a basis of its fixed lattice:
# the sign diagonals and the swap block beside +-1
_INVOLUTION_CLASSES = [
    (IntMatrix.diagonal((1, 1, 1)), ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    (IntMatrix.diagonal((1, 1, -1)), ((1, 0, 0), (0, 1, 0))),
    (IntMatrix.diagonal((1, -1, -1)), ((1, 0, 0),)),
    (IntMatrix.diagonal((-1, -1, -1)), ()),
    (IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]), ((1, 1, 0), (0, 0, 1))),
    (IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, -1]]), ((1, 1, 0),)),
]


def _random_involution(rng):
    """A conjugate B D B^-1 of a class representative D, with a cocycle
    B s for s a random point of D's fixed lattice."""
    d, fixed = rng.choice(_INVOLUTION_CLASSES)
    b = [[int(i == j) for j in range(3)] for i in range(3)]
    binv = [row[:] for row in b]
    # each row operation on B is undone by a column operation on B^-1
    for _ in range(rng.randrange(2, 6)):
        i, j = rng.sample(range(3), 2)
        c = rng.choice((-2, -1, 1, 2))
        b[i] = [x + c * y for x, y in zip(b[i], b[j])]
        for row in binv:
            row[j] -= c * row[i]
    if rng.random() < 0.5:
        b[0] = [-x for x in b[0]]
        for row in binv:
            row[0] = -row[0]
    b = IntMatrix(b)
    s = [0, 0, 0]
    for f in fixed:
        k = rng.randrange(-3, 4)
        s = [x + k * y for x, y in zip(s, f)]
    return b * d * IntMatrix(binv), b.apply(tuple(s))


def _recovery(f, args):
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


# every message from_extension can raise, up to the data that some of them
# name: the torsion witness, the two traces, the index
_REACHABLE_REJECTIONS = {
    "action of 'u' has wrong size",
    "action of involutive generator 'u' does not square to I",
    "square cocycle of 'u' is not fixed by its action",
    "extension has torsion: witness",
    "u and v must have trace -1",
    *(f"the composite action is not hyperbolic: its fixed lattice has "
      f"rank {k}, not 1" for k in (2, 3)),
    "the fixed line C and the moved sublattice N do not span Z^3",
    "the composite action is not hyperbolic on the moved sublattice",
}
# the membership checks, which the kernel oracle does not make
_MEMBERSHIP_REJECTIONS = {
    "u and v must have trace -1",
    "the fixed line C and the moved sublattice N do not span Z^3",
}


def test_from_extension_matches_kernel_oracle():
    # the closed form against the echelon-kernel and Smith-form recovery:
    # the same invariant or the same exception and message on every input
    # that passes the membership checks.  An accepted input's group has
    # its invariant's H1, by the library and by determinantal divisors; an
    # input that fails them, and that the oracle names an invariant for,
    # has another H1
    rng = random.Random(20261018)
    inputs = [(IntMatrix.identity(2), IntMatrix.identity(2), (0, 0), (0, 0)),
              (IntMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]), V0, SU0, SV0),
              (U0, V0, (1, 0, 0), SV0)]
    wanted = {}
    for inv in enumerate_invariants(20):
        g = group_from_invariant(inv)
        u, v = g.action["u"], g.action["v"]
        su, sv = g.square_cocycle["u"], g.square_cocycle["v"]
        for _ in range(4):
            b = rand_unimodular(rng)
            binv = b.inverse()
            inputs.append((b * u * binv, b * v * binv,
                           b.apply(su), b.apply(sv)))
            wanted[len(inputs) - 1] = inv
    for _ in range(20000):
        (u, su), (v, sv) = _random_involution(rng), _random_involution(rng)
        inputs.append((u, v, su, sv))
    seen = set()
    accepted = misnamed = 0
    for i, args in enumerate(inputs):
        got = _recovery(from_extension, args)
        old = _recovery(oracles.from_extension_by_kernels, args)
        if isinstance(got, PillowcaseInvariant):
            accepted += 1
            assert wanted.get(i, got) == got
            group = _input_group(*args)
            h1 = group.abelianization()
            assert h1 == group_from_invariant(got).abelianization(), args
            assert h1 == oracles.cokernel_by_minors(
                group._relator_matrix_rows()[1]), args
        else:
            reason, = (r for r in _REACHABLE_REJECTIONS
                       if got[1].startswith(r))
            seen.add(reason)
            assert i not in wanted
            if reason in _MEMBERSHIP_REJECTIONS:
                if reason.endswith("trace -1"):
                    u, v = args[:2]
                    assert got[1].endswith(
                        f": tr U = {u.trace()}, tr V = {v.trace()}")
                if isinstance(old, PillowcaseInvariant):
                    misnamed += 1
                    assert _input_group(*args).abelianization() != \
                        group_from_invariant(old).abelianization(), args
                continue
        assert got == old, args
    assert seen == _REACHABLE_REJECTIONS
    assert accepted >= 52 * 4 + 50
    assert misnamed >= 450


def test_from_extension_certificate():
    # with Z^3 = C + N, the basis (e+, +-e-, c) and translations t_u, t_v
    # solving (I + A_g) t_g = P s'_g - s_g map the invariant's group onto
    # the input group: an isomorphism on Z^3 and on D-infinity, checked on
    # every relator by verify_homomorphism
    rng = random.Random(16)
    ident = IntMatrix.identity(3)
    for inv in enumerate_invariants(20):
        h = group_from_invariant(inv)
        pres = h.presentation()
        hu, hv = h.action["u"], h.action["v"]
        for _ in range(4):
            b = rand_unimodular(rng)
            binv = b.inverse()
            u, v = b * hu * binv, b * hv * binv
            su, sv = b.apply(h.square_cocycle["u"]), \
                b.apply(h.square_cocycle["v"])
            assert from_extension(u, v, su, sv) == inv
            (c,) = intmat.kernel_basis(u * v - ident)
            (n,) = intmat.kernel_basis(list(zip(*(u * v - ident).rows)))
            (e_plus,) = intmat.kernel_basis(v - ident)
            (e_minus,) = intmat.kernel_basis([n, *(v + ident).rows])
            bases = [IntMatrix.from_columns([e_plus, e_minus, c]),
                     IntMatrix.from_columns([e_plus, vec_neg(e_minus), c])]
            p, = [m for m in bases
                  if m * hu == u * m and m * hv == v * m]
            g = _input_group(u, v, su, sv)
            images = {name: g.element(col)
                      for name, col in zip("xyz", zip(*p.rows))}
            for name, a, s in (("u", u, su), ("v", v, sv)):
                t = intmat.solve_integer(
                    ident + a, vec_sub(p.apply(h.square_cocycle[name]), s))
                images[name] = g.element_mul(g.element(t),
                                             g.generator_element(name))
            assert verify_homomorphism(pres, images, g), (inv, b)


def test_torsion_free_recovery_takes_no_smith_form_or_kernel(monkeypatch):
    # count every reference to the Smith form and the Hermite form that
    # any solgeom module holds; kernel_basis reduces through lattice_basis
    rng = random.Random(5)
    data = []
    for inv in enumerate_invariants(8):
        g = group_from_invariant(inv)
        b = rand_unimodular(rng)
        binv = b.inverse()
        data.append((b * g.action["u"] * binv, b * g.action["v"] * binv,
                     b.apply(g.square_cocycle["u"]),
                     b.apply(g.square_cocycle["v"]), inv))
    calls = collections.Counter()

    def counted(f):
        def wrapper(*args, **kwargs):
            calls[f.__name__] += 1
            return f(*args, **kwargs)
        return wrapper

    targets = (intmat.smith_rows, intmat.lattice_basis, intmat.kernel_basis)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "solgeom":
            for f in targets:
                if getattr(module, f.__name__, None) is f:
                    monkeypatch.setattr(module, f.__name__, counted(f))
    for u, v, su, sv, inv in data:
        assert from_extension(u, v, su, sv) == inv
    assert calls == {}
    # the counters see the generic recovery
    oracles.from_extension_by_kernels(*data[0][:4])
    assert calls["lattice_basis"] > 0


def test_presentation_from_invariant():
    group = group_from_invariant(PillowcaseInvariant(3, 2, 4))
    pres = group.presentation()
    assert pres.generators == ("x", "y", "z", "u", "v")
    assert [render_word(r) for r in pres.relators] == [
        "x y x^-1 y^-1", "x z x^-1 z^-1", "y z y^-1 z^-1",
        "u x u^-1 y^4 x^-3", "u y u^-1 y^3 x^-2", "u z u^-1 z",
        "v x v^-1 x^-1", "v y v^-1 y", "v z v^-1 z",
        "u u y x^-1", "v v x^-1"]
    assert group.square_cocycle["u"] == (1, -1, 0)
    g2 = group_from_invariant(PillowcaseInvariant(5, 4, 6))
    assert g2.square_cocycle["u"] == (1, -1, 0)
    for rel in pres.relators:
        assert group.evaluate_word(rel) == group.identity()


def test_invariant_groups_are_torsion_free():
    # group_from_invariant refuses nothing: I + A_u is 0 mod 2 while s_u is
    # primitive, and -s_v = (-1, 0, 0) is not in Im(I + A_v) = 2Z x 0 x 0
    invariants = enumerate_invariants(300)
    assert len(invariants) == 1708
    for inv in invariants:
        assert group_from_invariant(inv).find_torsion() is None, inv


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
        group = group_from_invariant(inv)
        _, rows = group._relator_matrix_rows()
        assert group.abelianization() == oracles.cokernel_by_minors(rows)


# A library gate must raise RuntimeError even under python -O: the check
# that every center generator commutes, fed a generator of D-infinity.
_GATE_SCRIPT = textwrap.dedent("""
    import sys
    from solgeom import catalog
    from solgeom.extensions import ExtensionGroup

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


def test_center_gate_raises_under_optimize():
    src = os.path.dirname(os.path.dirname(
        os.path.abspath(sys.modules["solgeom"].__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", _GATE_SCRIPT],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and "does not commute" in lines[0]
