"""The exact Dinf torsion decision against a word search.

find_torsion decides torsion from the cosets of u and v alone.  The oracle
searches every odd alternating word up to length 9 for a coset holding an
involution, on plain lists; the two must agree, and every witness must
square to 1 by the oracle's arithmetic.  The mod-2 test that screens each
coset before its integer solve is checked against solve_integer.
"""

import itertools
import json
import os
import random
from collections import Counter
from math import gcd

import pytest

import oracles
from solgeom import catalog, cli, extensions
from solgeom.classifier import (
    PillowcaseInvariant,
    enumerate_invariants,
    group_from_invariant,
)
from solgeom.extensions import ExtensionGroup, from_description
from solgeom.intmat import solve_integer


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _mat_vec(m, v):
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def _random_basis(rng, n=3, steps=6):
    """A random unimodular matrix and its inverse, from elementary row
    operations."""
    b = [[int(i == j) for j in range(n)] for i in range(n)]
    bi = [row[:] for row in b]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        e = [[int(r == c) for c in range(n)] for r in range(n)]
        ei = [row[:] for row in e]
        e[i][j], ei[i][j] = s, -s
        b, bi = _mat_mul(e, b), _mat_mul(bi, ei)
    return b, bi


def _coboundary(m, w):
    """(I + M) w."""
    return [a + b for a, b in zip(w, _mat_vec(m, w))]


def _pillowcase_data(p, q, r):
    k = gcd(p - 1, q)
    action = {"u": [[p, q, 0], [-r, -p, 0], [0, 0, -1]],
              "v": [[1, 0, 0], [0, -1, 0], [0, 0, -1]]}
    return action, {"u": [q // k, (1 - p) // k, 0], "v": [1, 0, 0]}


def _pillowcase_variants(rng):
    """Each invariant with entries <= 20 in a random basis with coboundary
    shifts; its torsion copy s_u = -(I+U)w; and both zeroed cocycles."""
    out = []
    for inv in enumerate_invariants(20):
        action, cocycles = _pillowcase_data(inv.p, inv.q, inv.r)
        b, bi = _random_basis(rng)
        act = {g: _mat_mul(_mat_mul(b, m), bi) for g, m in action.items()}
        shifted = {}
        for g in ("u", "v"):
            w = [rng.randint(-2, 2) for _ in range(3)]
            shifted[g] = [a + c for a, c in zip(_mat_vec(b, cocycles[g]),
                                                _coboundary(act[g], w))]
        out.append((act, shifted))
        w = [rng.randint(-2, 2) for _ in range(3)]
        out.append((act, dict(shifted, u=[-x for x in
                                          _coboundary(act["u"], w)])))
        for g in ("u", "v"):
            out.append((act, dict(shifted, **{g: [0, 0, 0]})))
    return out


def _involutions_2x2():
    box = range(-1, 2)
    ident = [[1, 0], [0, 1]]
    return [m for m in ([[a, b], [c, d]]
                        for a, b, c, d in itertools.product(box, repeat=4))
            if _mat_mul(m, m) == ident]


def _rank2_variants():
    """Every pair of 2x2 involutions with entries in [-1, 1], with every
    pair of cocycles in that box fixed by their actions."""
    out = []
    invs = _involutions_2x2()
    fixed = [[list(v) for v in itertools.product(range(-1, 2), repeat=2)
              if _mat_vec(m, v) == list(v)] for m in invs]
    for i, j in itertools.product(range(len(invs)), repeat=2):
        for su, sv in itertools.product(fixed[i], fixed[j]):
            out.append(({"u": invs[i], "v": invs[j]}, {"u": su, "v": sv}))
    return out


def _group(action, cocycles):
    n = len(action["u"])
    return ExtensionGroup("Dinf", n, generators=("u", "v"), action=action,
                          cocycles={g: tuple(v) for g, v in cocycles.items()})


def _check_agrees(g, action, cocycles):
    """The witness's letter, or None; checked against the oracle."""
    n = g.rank
    expect = oracles.dinf_involution_word(action, cocycles, n)
    wit = g.find_torsion()
    assert (wit is None) == (expect is None), (action, cocycles, wit)
    if wit is not None:
        # the reflections u and v carry every conjugacy class of them
        assert list(wit.q) == expect and len(expect) == 1
        assert oracles.dinf_is_involution(action, cocycles, list(wit.t),
                                          wit.q[0], n)
    return None if wit is None else wit.q[0]


def test_find_torsion_agrees_with_word_search_on_pillowcase_data():
    rng = random.Random(20260418)
    found = [_check_agrees(_group(a, c), a, c)
             for a, c in _pillowcase_variants(rng)]
    # per invariant: torsion-free, torsion copy, zeroed s_u, zeroed s_v
    assert found == [None, "u", "u", "v"] * 52


def test_find_torsion_agrees_with_word_search_in_rank_two():
    cases = _rank2_variants()
    found = [_check_agrees(_group(a, c), a, c) for a, c in cases]
    assert len({str(a) for a, _ in cases}) == 14 * 14
    # both answers, and witnesses in both cosets
    assert Counter(found) == {"u": 988, "v": 312, None: 144}


def test_find_torsion_on_description_groups():
    torsion = {"kind": "Dinf", "rank": 2, "lattice": ["a", "b"],
               "generators": ["u", "v"],
               "action": {"u": [[1, 0], [0, -1]], "v": [[-1, 0], [0, 1]]},
               "cocycles": {"u": [1, 0]}}
    sigma = catalog.sigma_group().to_description()
    for d in (torsion, sigma):
        action = d["action"]
        cocycles = {g: d["cocycles"].get(g, [0, 0]) for g in ("u", "v")}
        _check_agrees(from_description(d), action, cocycles)
    wit = from_description(torsion).find_torsion()
    assert wit.q == ("v",) and wit.t == (0, 0)
    assert from_description(sigma).find_torsion() is None
    # rank 0: every reflection is torsion; the witness is u
    bare = from_description({"kind": "Dinf", "rank": 0,
                             "generators": ["u", "v"],
                             "action": {"u": None, "v": None}})
    assert oracles.dinf_involution_word({}, {}, 0) == ["u"]
    assert bare.find_torsion() == bare.element((), ("u",))
    # rank 1: Z by Dinf with both squares the generator is torsion-free
    one = {"u": [[1]], "v": [[1]]}
    assert oracles.dinf_involution_word(one, {"u": [1], "v": [1]}, 1) \
        is None
    assert _group(one, {"u": [1], "v": [1]}).find_torsion() is None
    assert _check_agrees(_group(one, {"u": [1], "v": [2]}), one,
                         {"u": [1], "v": [2]}) == "v"


def _torsion_copy(p, q, r, w):
    """The pillowcase data with s_u = -(I + U) w, so that (w, u) is an
    involution and the coset of u passes the mod-2 test."""
    action, cocycles = _pillowcase_data(p, q, r)
    return _group(action, dict(cocycles, u=[-x for x in
                                            _coboundary(action["u"], w)]))


def test_witness_that_is_not_an_involution_raises(monkeypatch):
    # a wrong solve must not pass as a witness, also under python -O
    monkeypatch.setattr(extensions, "solve_integer",
                        lambda m, b: (1,) * len(b))
    with pytest.raises(RuntimeError, match="does not square"):
        _torsion_copy(3, 2, 4, [0, 1, -1]).find_torsion()


def test_torsion_decided_once_per_group(monkeypatch, capsys):
    # `group torsion pillowcase(p,q,r)` decides each coset once, mod 2,
    # and a torsion-free group takes no integer solve; a second question
    # to the same group is answered from the first
    real_test, real_solve = (extensions._gf2_solve,
                             extensions.solve_integer)
    tests, solves = [], []

    def counting_test(eqs, n):
        tests.append(n)
        return real_test(eqs, n)

    def counting_solve(m, b):
        solves.append(b)
        return real_solve(m, b)

    monkeypatch.setattr(extensions, "_gf2_solve", counting_test)
    monkeypatch.setattr(extensions, "solve_integer", counting_solve)
    assert cli.main(["group", "torsion", "pillowcase(3,2,4)"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["torsion_found"] is False
    assert len(tests) == 2 and not solves  # the cosets of u and of v
    g = group_from_invariant(PillowcaseInvariant(3, 2, 4))
    assert g.find_torsion() is None and len(tests) == 4
    assert g.find_torsion() is None and len(tests) == 4
    assert not solves
    # the coset of u of a torsion copy passes, and its solve gives the witness
    t = _torsion_copy(3, 2, 4, [0, 1, -1])
    assert t.find_torsion().q == ("u",) and len(tests) == 5
    assert len(solves) == 1
    with pytest.raises(ValueError):
        catalog.g2_group().find_torsion()


def _parity_rows(rows, b):
    """M x = b mod 2 as the bit rows extensions._gf2_solve reads."""
    n = len(rows[0])
    return [sum((x & 1) << j for j, x in enumerate(row)) | (c & 1) << n
            for row, c in zip(rows, b)], n


def test_mod2_test_never_refuses_a_solvable_system():
    with open(os.path.join(os.path.dirname(__file__),
                           "pinned_solutions.json")) as f:
        systems = [(rows, b) for rows, b, _ in json.load(f)["random"]]
    rng = random.Random(20261019)
    for _ in range(600):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        systems.append(([[rng.randint(-4, 4) for _ in range(nc)]
                         for _ in range(nr)],
                        [rng.randint(-6, 6) for _ in range(nr)]))
    solvable = refused = 0
    for rows, b in systems:
        eqs, n = _parity_rows(rows, b)
        sol = extensions._gf2_solve(eqs, n)
        if sol is not None:  # the bits returned solve every equation
            assert all(bin(e & sol).count("1") % 2 == e >> n & 1
                       for e in eqs), (rows, b)
        consistent = sol is not None
        if solve_integer(rows, b) is not None:
            solvable += 1
            assert consistent, (rows, b)
        refused += not consistent
    assert solvable > 300 and refused > 50


def _involution(rng, n):
    """A random involution of Z^n, B D B^-1 with D a block sum of trivial
    (1), sign (-1) and regular ([[0,1],[1,0]]) Z[C2]-lattices, and a random
    vector it fixes, B f with f fixed by D."""
    d = [[0] * n for _ in range(n)]
    f = [0] * n
    i = 0
    while i < n:
        kind = rng.choice(("trivial", "sign", "regular") if i + 1 < n
                          else ("trivial", "sign"))
        if kind == "regular":
            d[i][i + 1] = d[i + 1][i] = 1
            f[i] = f[i + 1] = rng.randint(-3, 3)
            i += 2
            continue
        d[i][i] = 1 if kind == "trivial" else -1
        f[i] = rng.randint(-3, 3) if kind == "trivial" else 0
        i += 1
    b, bi = _random_basis(rng, n, 2 * n) if n > 1 else ([[1]], [[1]])
    return _mat_mul(_mat_mul(b, d), bi), _mat_vec(b, f)


def test_mod2_test_decides_the_coset_exactly(monkeypatch):
    # for an involution A and an A-fixed s, -s is in Im(I + A) over Z
    # exactly when it is mod 2 (Reiner's trivial/sign/regular summands)
    real = extensions._gf2_solve
    verdicts = []

    def recording(eqs, n):
        sol = real(eqs, n)
        verdicts.append(sol is not None)
        return sol

    monkeypatch.setattr(extensions, "_gf2_solve", recording)
    rng = random.Random(20261020)
    counts = Counter()
    for n in range(1, 7):
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(200):
            a, s = _involution(rng, n)
            verdicts.clear()
            torsion = _group({"u": a, "v": a},
                             {"u": s, "v": s}).find_torsion()
            iplus = [[x + y for x, y in zip(r, e)] for r, e in zip(a, ident)]
            solvable = solve_integer(iplus, [-x for x in s]) is not None
            assert verdicts[0] == solvable, (a, s)
            assert (torsion is not None) == solvable
            counts[solvable] += 1
    assert counts[True] > 200 and counts[False] > 200
