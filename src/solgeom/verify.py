"""Brute-force property sweeps behind the `verify` command.

Each suite runs one check over its instances in turn, collects the
failure records and sorts them by instance key.  A report with no
failures maps to exit code 0.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass
from math import gcd

from . import catalog
from .classifier import (
    enumerate_invariants,
    from_extension,
    group_from_invariant,
    homology_report,
)
from .extensions import (
    induced_lattice_matrix,
    is_block_diagonalizable,
    verify_homomorphism,
)
from .gl2z import (
    NONCENTRAL_CLASSES,
    NotTwoEndedError,
    _order,
    centralizer_sample,
    element_order,
    two_ended_type,
)
from .intmat import IntMatrix, _mul_rows, _trusted, solve_integer


@dataclass
class VerificationReport:
    suite: str
    instances: int
    failures: list
    elapsed: float
    parameters: dict

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "schema": "solgeom/verify-report-v1",
            "suite": self.suite,
            "ok": self.ok,
            "instances": self.instances,
            "failures": self.failures,
            "elapsed_seconds": round(self.elapsed, 3),
            "parameters": self.parameters,
        }


def _run(suite: str, instances, check,
         parameters: dict) -> VerificationReport:
    start = time.perf_counter()
    instances = list(instances)
    failures = [r for r in map(check, instances) if r is not None]
    failures.sort(key=lambda f: str(f.get("input")))
    elapsed = time.perf_counter() - start
    return VerificationReport(suite, len(instances), failures, elapsed,
                              parameters)


def _fail(key, expected, actual) -> dict:
    return {"input": key, "expected": expected, "actual": actual}


def _mat(t):
    """The 2x2 matrix of the entry tuple t = (a, b, c, d).

    Only for tuples this module made, from _unimodular_tuples and
    _SYNTHETIC_PAIRS: their entries are already ints, so the checking
    constructor is skipped.
    """
    return _trusted(((t[0], t[1]), (t[2], t[3])), 2)


# ---------------------------------------------------------------------------
# order-twelve: the closed-form element order against twelfth powers

def _unimodular_tuples(box: int):
    """Every (a, b, c, d) with entries in [-box, box] and ad - bc = +-1, in
    lexicographic order.

    ad - bc = e is solved for d over each first row (a, b) with gcd 1 and
    each c: with a != 0, d = (bc + e)/a for e = -1 and e = 1, taken in
    increasing order of d; with a = 0, b and c are +-1 and every d in the
    box works.
    """
    rng = range(-box, box + 1)
    for a in rng:
        signs = (-1, 1) if a > 0 else (1, -1)
        for b in rng:
            if gcd(a, b) != 1:
                continue
            if a == 0:  # then b = +-1, and c must be +-1 too
                for c in (-1, 1):
                    for d in rng:
                        yield (0, b, c, d)
                continue
            for c in rng:
                for e in signs:
                    d, r = divmod(b * c + e, a)
                    if not r and -box <= d <= box:
                        yield (a, b, c, d)


def _check_order_twelve(t):
    a, b, c, d = t
    m = ((a, b), (c, d))
    order = _order(m)
    # M^12 by the four products M ** 12 takes: M^2, M^3, M^6, M^12
    m3 = _mul_rows(_mul_rows(m, m, 2), m, 2)
    m6 = _mul_rows(m3, m3, 2)
    twelfth_is_identity = _mul_rows(m6, m6, 2) == ((1, 0), (0, 1))
    if twelfth_is_identity != (order is not None):
        return _fail(t, "M^12 = I exactly for the finite-order matrices",
                     f"order={order}, M^12=I is {twelfth_is_identity}")
    if order is not None and order not in (1, 2, 3, 4, 6):
        return _fail(t, "finite order in {1, 2, 3, 4, 6}", f"order={order}")
    return None


def run_order_twelve(box: int = 3) -> VerificationReport:
    return _run("order-twelve", _unimodular_tuples(box), _check_order_twelve,
                {"box": box})


# ---------------------------------------------------------------------------
# finite-subgroups: centralizers of noncentral finite elements are finite

def run_finite_subgroups(box: int = 6) -> VerificationReport:
    # (instance key, its matrix): the key is (class name, (a, b, c, d))
    instances = [((cls.name, m.rows[0] + m.rows[1]), m)
                 for cls in NONCENTRAL_CLASSES
                 for m in centralizer_sample(cls.representative, box)]

    def check(instance):
        inst, m = instance
        if element_order(m) is None:
            return _fail(inst, "every sampled centralizer element has "
                         "finite order", "infinite order")
        return None

    return _run("finite-subgroups", instances, check, {"box": box})


# ---------------------------------------------------------------------------
# two-ended: six-case typing is stable under swap and conjugation

# (C, C^-1) pairs
_CONJUGATORS = tuple((c, c.inverse()) for c in (
    IntMatrix([[1, 1], [0, 1]]),
    IntMatrix([[1, 0], [-1, 1]]),
    IntMatrix([[2, 1], [1, 1]]),
))

_SYNTHETIC_PAIRS = (
    # (generators, expected case)
    (((3, 2, 4, 3),), 1),
    (((3, 2, 4, 3), (-1, 0, 0, -1)), 2),
    (((1, 0, 0, -1), (1, -2, 0, -1)), 3),
    (((1, 0, 0, -1), (1, -2, 0, -1), (-1, 0, 0, -1)), 4),
    (((0, 1, -1, 0), (1, -2, 0, -1)), 5),
    (((0, 1, -1, 0), (1, 2, -1, -1)), 6),
)


def _check_two_ended(mats, inst):
    if isinstance(inst[1], int):
        # one of the _SYNTHETIC_PAIRS: (generators, expected case)
        gens, expected = inst
        typed = two_ended_type([_mat(t) for t in gens])
        if typed.case != expected:
            return _fail(gens, f"case {expected}", f"case {typed.case}")
        return None
    (a, conj_a), (b, conj_b) = mats[inst[0]], mats[inst[1]]
    try:
        typed = two_ended_type([a, b])
    except NotTwoEndedError:
        return None
    if typed.case == 3:
        swapped = two_ended_type([b, a])
        if swapped.case != 3:
            return _fail(inst, "case 3 is symmetric in the generators",
                         f"swapped case {swapped.case}")
        if b * a != (a * b).inverse():
            return _fail(inst, "with both generators of order 2 the swapped "
                         "product is the inverse product",
                         "matrix identity failed")
    for ca, cb in zip(conj_a, conj_b):
        conj = two_ended_type([ca, cb])
        if conj.case != typed.case:
            return _fail(inst, f"case {typed.case} under conjugation",
                         f"case {conj.case}")
    return None


def run_two_ended(box: int = 3) -> VerificationReport:
    # box tuple -> its matrix and that matrix's conjugates, built once and
    # shared by every pair the tuple is in
    mats = {}
    for t in _unimodular_tuples(box):
        m = _mat(t)
        if element_order(m) is not None:
            mats[t] = (m, [c * m * ci for c, ci in _CONJUGATORS])
    pairs = [(ta, tb) for ta in mats for tb in mats]
    return _run("two-ended", pairs + list(_SYNTHETIC_PAIRS),
                functools.partial(_check_two_ended, mats), {"box": box})


# ---------------------------------------------------------------------------
# roundtrip: invariant -> extension data -> recovered invariant

def _conjugated_data(group, b):
    bi = b.inverse()
    u = b * group.action["u"] * bi
    v = b * group.action["v"] * bi
    su = b.apply(group.square_cocycle["u"])
    sv = b.apply(group.square_cocycle["v"])
    return u, v, su, sv


def _check_roundtrip(inv):
    group = group_from_invariant(inv)
    rng = random.Random(inv.p * 1000003 + inv.q * 1009 + inv.r)
    bases = [IntMatrix.identity(3)]
    for _ in range(3):
        m = IntMatrix.identity(3)
        for _ in range(5):
            i, j = rng.sample(range(3), 2)
            rows = [list(r) for r in m.rows]
            s = rng.choice((-1, 1))
            for k in range(3):
                rows[i][k] += s * rows[j][k]
            m = IntMatrix(rows)
        bases.append(m)
    for b in bases:
        got = from_extension(*_conjugated_data(group, b))
        if got != inv:
            return _fail(inv.to_record(),
                         "recovery returns the invariant it was built from",
                         got.to_record())
    return None


def run_roundtrip(max_entry: int = 20) -> VerificationReport:
    return _run("roundtrip", enumerate_invariants(max_entry),
                _check_roundtrip, {"maxEntry": max_entry})


# ---------------------------------------------------------------------------
# homology: rank 0, lattice generators y,z of order 2, ord(x) = gcd(p-1, q),
# the order doubling law ord(u) = ord(v) = 2 ord(x), and w1 through Z/4
#
# The classical profile (2,2,2,4,4) holds only on part of the family: for
# (5,4,6) the abelianization is Z/2 + Z/4 + Z/8, with x of order 4 and u
# of order 8 (confirmed by determinant-divisor arithmetic and by counting
# homomorphisms to Z/8).  The laws below hold for every invariant.

_CLASSICAL_ORDERS = {"x": 2, "y": 2, "z": 2, "u": 4, "v": 4}


def _check_homology(inv, rep):
    key = (inv.p, inv.q, inv.r)
    o = rep["orders"]
    if rep["h1"]["rank"] != 0:
        return _fail(key, "first Betti number 0", rep["h1"])
    if o["y"] != 2 or o["z"] != 2:
        return _fail(key, "images of y and z have order 2", o)
    if o["x"] != gcd(inv.p - 1, inv.q):
        return _fail(key, f"ord(x) = gcd(p-1, q) = {gcd(inv.p - 1, inv.q)}",
                     o)
    if o["u"] != 2 * o["x"] or o["v"] != o["u"]:
        return _fail(key, "ord(u) = ord(v) = 2 ord(x)", o)
    if rep["w1_factors_through_z4"] is not True:
        return _fail(key, "orientation character lifts to Z/4", "no lift")
    return None


def run_homology(max_entry: int = 20) -> VerificationReport:
    classical = []

    def check(inv):
        rep = homology_report(inv)
        if rep["orders"] == _CLASSICAL_ORDERS:
            classical.append(inv)
        return _check_homology(inv, rep)

    report = _run("homology", enumerate_invariants(max_entry), check,
                  {"maxEntry": max_entry})
    report.parameters["notes"] = [
        f"the classical profile (x,y,z of order 2, u,v of order 4) holds "
        f"on {len(classical)} of {report.instances} instances; the sweep "
        f"asserts the laws that hold on all of them"]
    return report


# ---------------------------------------------------------------------------
# bordered-family: the determinant law det(I - Psi) = -2(a-1) over all
# factorizations a^2 - 1 = bc, plus membership and center checks

def _family_instances(a_max: int):
    for a in range(2, a_max + 1):
        target = a * a - 1
        for b in range(1, target + 1):
            if target % b == 0:
                yield (a, b, target // b)


def _check_family(inst):
    a, b, c = inst
    psi = IntMatrix([[a, b], [c, a]])
    ident = IntMatrix.identity(2)
    d = (ident - psi).det()
    if abs(d) != 2 * (a - 1) or (a > 1 and abs(d) <= 1):
        return _fail(inst, f"|det(I - Psi)| = 2(a-1) = {2 * (a - 1)} > 1",
                     f"det = {d}")
    # membership of (1,0) in Im(I - Psi) two independent ways: integer
    # solving against adjugate divisibility
    m = ident - psi
    sol = solve_integer(m, (1, 0))
    adj = IntMatrix([[m.rows[1][1], -m.rows[0][1]],
                     [-m.rows[1][0], m.rows[0][0]]])
    av = adj.apply((1, 0))
    divisible = av[0] % d == 0 and av[1] % d == 0
    if (sol is not None) != divisible:
        return _fail(inst, "integer solver and adjugate divisibility agree "
                     "on membership", f"solver={sol}, divisible={divisible}")
    theta = IntMatrix([[1, 0, 0], [1, a, b], [0, c, a]])
    if is_block_diagonalizable(theta) != (sol is not None):
        return _fail(inst, "block diagonalizability matches membership of "
                     "(1,0) in Im(I - Psi)", "mismatch")
    group = catalog.bordered_group((1, 0), psi)
    center = group.center()
    if center.rank != 1:
        return _fail(inst, "center of the bordered group has rank 1",
                     f"rank {center.rank}")
    return None


def run_bordered_family(a_max: int = 12) -> VerificationReport:
    return _run("bordered-family", _family_instances(a_max), _check_family,
                {"aMax": a_max})


# ---------------------------------------------------------------------------
# catalog-examples: the named groups behave as documented

def _example_kb_center():
    g = catalog.kb_monodromy_group()
    c = g.center()
    words = [g.element_to_word(e) for e in c.generators]
    if c.rank != 1 or words != ["x^2"]:
        return _fail("kb-center", "rank 1 generated by x^2",
                     f"rank {c.rank}, generators {words}")
    return None


def _sigma_swap(y_image):
    """sigma, its presentation and the images of u <-> v, x -> x^3 y^-2."""
    g = catalog.sigma_group()
    images = {
        "u": g.evaluate_word("v"),
        "v": g.evaluate_word("u"),
        "x": g.evaluate_word("x^3 y^-2"),
        "y": g.evaluate_word(y_image),
    }
    return g, g.presentation(), images


def _example_involution():
    g, pres, images = _sigma_swap("x^4 y^-3")
    if not verify_homomorphism(pres, images, g):
        return _fail("involution", "the corrected involution kills every "
                     "relator", "a relator survives")
    p = induced_lattice_matrix(("x", "y"), images, g)
    if p != IntMatrix([[3, 4], [-2, -3]]) or p * p != IntMatrix.identity(2):
        return _fail("involution", "induced lattice matrix [[3,4],[-2,-3]] "
                     "squaring to I", p.literal())
    # the map swaps the two reflection generators, inverting the
    # translation direction of the dihedral quotient: epsilon = -1, and
    # epsilon * det P = +1 certifies orientation preservation
    eps = -1
    if eps * p.det() != 1:
        return _fail("involution", "epsilon * det P = +1", eps * p.det())
    chars = g.generator_characters()
    for src, dst in (("u", "v"), ("v", "u")):
        if chars[src] != chars[dst]:
            return _fail("involution", "the swap preserves the orientation "
                         "character", chars)
    return None


def _example_rejected_variant():
    g, pres, images = _sigma_swap("x^4 y^3")
    if verify_homomorphism(pres, images, g):
        return _fail("involution-variant", "the sign-flipped y image breaks "
                     "a relator", "all relators hold")
    return None


def _example_flat_endomorphism():
    g = catalog.b1_group()
    pres = g.presentation()
    images = {
        "t": g.evaluate_word("t^3 x^2"),
        "x": g.evaluate_word("t^4 x^3"),
        "y": g.evaluate_word("y"),
    }
    if not verify_homomorphism(pres, images, g):
        return _fail("flat-endomorphism", "the endomorphism kills every "
                     "relator", "a relator survives")
    cols = [(images[n].t[0], images[n].q) for n in ("t", "x")]
    m = IntMatrix.from_columns(cols)
    if m != IntMatrix([[3, 4], [2, 3]]) or not m.is_unimodular():
        return _fail("flat-endomorphism", "induced matrix [[3,4],[2,3]] "
                     "unimodular", m.literal())
    return None


_EXAMPLE_CHECKS = (
    _example_kb_center,
    _example_involution,
    _example_rejected_variant,
    _example_flat_endomorphism,
)


def run_catalog_examples() -> VerificationReport:
    return _run(
        "catalog-examples", _EXAMPLE_CHECKS, lambda check: check(),
        {"notes": ["one commonly printed variant of the dihedral involution "
                   "(y mapped with a positive y exponent) fails the relator "
                   "check; the suite asserts its rejection"]})


# ---------------------------------------------------------------------------

# suite name -> (bound kind, runner); the runner holds the default bound
SUITES = {
    "order-twelve": ("box", run_order_twelve),
    "finite-subgroups": ("box", run_finite_subgroups),
    "two-ended": ("box", run_two_ended),
    "roundtrip": ("max_entry", run_roundtrip),
    "homology": ("max_entry", run_homology),
    "bordered-family": ("a_max", run_bordered_family),
    "catalog-examples": (None, run_catalog_examples),
}


def run_suite(name: str, *, box: int | None = None,
              max_entry: int | None = None,
              a_max: int | None = None) -> VerificationReport:
    """Run one named suite; bound arguments left as None take the
    suite's own default, and a negative bound raises ValueError."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(sorted(SUITES))}")
    kind, fn = SUITES[name]
    given = {"box": box, "max_entry": max_entry, "a_max": a_max}
    for key, value in given.items():
        if value is not None and value < 0:
            raise ValueError(f"{key} must be at least 0, not {value}")
    value = given.get(kind)
    return fn() if value is None else fn(**{kind: value})
