"""The benchmark's three workloads: inputs, the op each input drives, and
the check each output must pass.

A workload is a class with
  make_round(seed)  the round of ops, in a fixed seeded order; every run
                    repeats this round whole until its time is up
  warmup_ops(ops)   ops run once before timing (a fixed share of the round)
  run(op)           the op itself: calls into solgeom and returns its output
  check(op, out)    None if the output is right, else what is wrong

Checks never compare against solgeom: they use oracle.py, hand-derived
facts, and the group definitions written out below.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
DESCRIPTIONS = os.path.join(HERE, "descriptions")


@dataclass
class Op:
    kind: str
    args: tuple
    ctx: dict = field(default_factory=dict)
    # a known program fault makes this op fail until the fault is mended
    known_fault: bool = False


# ---------------------------------------------------------------------------
# classify: raw extension data -> invariant -> homology report

CLASSIFY_MAX_ENTRY = 20
CLASSIFY_COPIES = 4      # seeded bases per invariant in a round
CLASSIFY_SAMPLE = 12     # invariants whose full torsion tuple is recomputed


def _random_basis(rng, n=3, steps=6):
    """A random unimodular matrix and its inverse, as products of
    elementary row operations."""
    b, bi = oracle.identity(n), oracle.identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        e, ei = oracle.identity(n), oracle.identity(n)
        e[i][j], ei[i][j] = s, -s
        b, bi = oracle.mat_mul(e, b), oracle.mat_mul(bi, ei)
    return b, bi


def _shift(rng, n=3):
    return [rng.randint(-2, 2) for _ in range(n)]


class Classify:
    name = "classify"
    warmup = 8

    def __init__(self, solgeom):
        self.sg = solgeom

    def make_round(self, seed):
        from solgeom.intmat import IntMatrix

        rng = random.Random(f"classify/{seed}")
        invs = oracle.invariants(CLASSIFY_MAX_ENTRY)
        sample = set(rng.sample(invs, CLASSIFY_SAMPLE))
        ops = []
        for k, (p, q, r) in enumerate(invs * CLASSIFY_COPIES):
            d = oracle.pillowcase_description(p, q, r)
            b, bi = _random_basis(rng)
            u = oracle.mat_mul(oracle.mat_mul(b, d["action"]["u"]), bi)
            v = oracle.mat_mul(oracle.mat_mul(b, d["action"]["v"]), bi)
            su = oracle.mat_vec(b, d["cocycles"]["u"])
            sv = oracle.mat_vec(b, d["cocycles"]["v"])
            # one copy in four of each invariant carries torsion:
            # s_u = -(I+U) w makes (w, u) an involution
            torsion = (k + k // len(invs)) % CLASSIFY_COPIES == 3
            w = _shift(rng)
            iu = oracle.mat_add(oracle.identity(3), u)
            if torsion:
                su = [-x for x in oracle.mat_vec(iu, w)]
            else:
                su = [a + c for a, c in zip(su, oracle.mat_vec(iu, w))]
            iv = oracle.mat_add(oracle.identity(3), v)
            sv = [a + c for a, c in zip(sv, oracle.mat_vec(iv, _shift(rng)))]
            ctx = {"inv": (p, q, r), "torsion": torsion,
                   "sample": (p, q, r) in sample,
                   "data": {"rank": 3, "generators": ["u", "v"],
                            "action": {"u": u, "v": v},
                            "cocycles": {"u": su, "v": sv}}}
            ops.append(Op("classify",
                          (IntMatrix(u), IntMatrix(v), tuple(su), tuple(sv)),
                          ctx))
        order = list(ops)
        rng.shuffle(order)
        return order

    def warmup_ops(self, ops):
        return sorted(ops, key=lambda o: o.ctx["inv"])[:self.warmup]

    def run(self, op):
        clf = self.sg.classifier
        try:
            inv = clf.from_extension(*op.args)
        except clf.InvariantError as exc:
            return ("rejected", str(exc))
        return ("accepted", (inv.p, inv.q, inv.r), clf.homology_report(inv))

    def check(self, op, out):
        p, q, r = op.ctx["inv"]
        if out[0] == "rejected":
            if not op.ctx["torsion"]:
                return f"torsion-free data rejected: {out[1]}"
            return _check_witness(op.ctx["data"], out[1])
        if op.ctx["torsion"]:
            return "data with torsion accepted"
        if out[1] != (p, q, r):
            return f"recovered {out[1]}, built from {(p, q, r)}"
        rep = out[2]
        g = gcd(p - 1, q)
        if rep["invariant"] != {"p": p, "q": q, "r": r}:
            return f"report names {rep['invariant']}"
        if rep["h1"]["rank"] != 0:
            return f"rank {rep['h1']['rank']}"
        want = {"x": g, "y": 2, "z": 2, "u": 2 * g, "v": 2 * g}
        if rep["orders"] != want:
            return f"orders {rep['orders']}, expected {want}"
        if max(rep["h1"]["torsion"], default=1) != 2 * g:
            return f"largest torsion coefficient of {rep['h1']['torsion']}"
        if rep["w1_factors_through_z4"] is not True:
            return "w1 does not factor through Z/4"
        if op.ctx["sample"]:
            want = _pillowcase_h1(p, q, r)
            if tuple(rep["h1"]["torsion"]) != want:
                return f"torsion {rep['h1']['torsion']}, minors give {want}"
        return None


@lru_cache(maxsize=None)
def _pillowcase_h1(p, q, r):
    free, torsion = oracle.h1(oracle.pillowcase_description(p, q, r))
    assert free == 0
    return torsion


_WITNESS = re.compile(r"witness \(t=\(([^)]*)\), word=\(([^)]*)\)\)")


def _check_witness(data, message):
    """The rejection names a witness (t, word); it must be an involution
    by the benchmark's own arithmetic."""
    m = _WITNESS.search(message)
    if not m:
        return f"rejection carries no witness: {message}"
    try:
        t = [int(x) for x in m.group(1).split(",") if x.strip()]
    except ValueError:
        return f"witness lattice part is not a vector: {m.group(1)}"
    word = re.findall(r"'(\w+)'", m.group(2))
    if len(word) != 1:
        return f"witness word {word} is not a single reflection"
    if not oracle.is_involution_witness(data, t, word[0]):
        return f"witness ({t}, {word}) does not square to 1"
    return None


# ---------------------------------------------------------------------------
# sweep: one verify suite per op, cycling through all seven

SWEEP_SUITES = (
    ("two-ended", {"box": 1}),
    ("order-twelve", {"box": 4}),
    ("finite-subgroups", {"box": 6}),
    ("roundtrip", {"max_entry": 4}),
    ("homology", {"max_entry": 4}),
    ("bordered-family", {"a_max": 4}),
    ("catalog-examples", {}),
)

# warm-up touches every suite at its smallest bound
SWEEP_WARMUP = (
    ("two-ended", {"box": 0}),
    ("order-twelve", {"box": 1}),
    ("finite-subgroups", {"box": 1}),
    ("roundtrip", {"max_entry": 3}),
    ("homology", {"max_entry": 3}),
    ("bordered-family", {"a_max": 2}),
    ("catalog-examples", {}),
)


@lru_cache(maxsize=None)
def suite_size(suite, bound):
    """Instance count of a suite, by plain enumeration."""
    if suite == "order-twelve":
        return len(oracle.unimodular_box(bound))
    if suite == "finite-subgroups":
        return sum(oracle.centralizer_count(rep, bound)
                   for rep in oracle.NONCENTRAL_REPRESENTATIVES)
    if suite == "two-ended":
        finite = [t for t in oracle.unimodular_box(bound)
                  if oracle.finite_order([[t[0], t[1]], [t[2], t[3]]])]
        # every ordered pair, plus one synthetic pair per case 1..6
        return len(finite) ** 2 + 6
    if suite in ("roundtrip", "homology"):
        return len(oracle.invariants(bound))
    if suite == "bordered-family":
        return oracle.bordered_family_size(bound)
    if suite == "catalog-examples":
        # mapping-torus center, the dihedral involution, the rejected
        # printed variant of it, the flat endomorphism
        return 4
    raise ValueError(suite)


class Sweep:
    name = "sweep"

    def __init__(self, solgeom):
        self.sg = solgeom

    def make_round(self, seed):
        rng = random.Random(f"sweep/{seed}")
        ops = [Op("suite", (name, bounds)) for name, bounds in SWEEP_SUITES]
        rng.shuffle(ops)
        return ops

    def warmup_ops(self, ops):
        return [Op("suite", (name, bounds)) for name, bounds in SWEEP_WARMUP]

    def run(self, op):
        name, bounds = op.args
        return self.sg.verify.run_suite(name, **bounds)

    def check(self, op, rep):
        name, bounds = op.args
        if rep.suite != name:
            return f"report of suite {rep.suite}"
        if not rep.ok:
            return f"{len(rep.failures)} failures: {rep.failures[:2]}"
        bound = next(iter(bounds.values()), None)
        want = suite_size(name, bound)
        if rep.instances != want:
            return f"{rep.instances} instances, enumeration gives {want}"
        return None


# ---------------------------------------------------------------------------
# reports: one in-process `solgeom` command per op, stdout captured

def _zq(n, names, s, a, sign=1, name=None):
    return {"kind": "Zq", "rank": n, "lattice": names, "generators": [s],
            "action": {s: a}, "axisSigns": {s: sign}, "name": name}


def _psi_family(max_a):
    """(a, b, c) with a >= 2 and bc = a^2 - 1: Psi = [[a,b],[c,a]]."""
    return [(a, b, (a * a - 1) // b) for a in range(2, max_a + 1)
            for b in range(1, a * a) if (a * a - 1) % b == 0]


def kb_description(a, b, c):
    """Z^2 sdprod pi1(Kb): x acts by diag(1,-1), y by Psi."""
    return {"kind": "Klein", "rank": 2, "lattice": ["s", "t"],
            "generators": ["x", "y"],
            "action": {"x": [[1, 0], [0, -1]], "y": [[a, b], [c, a]]},
            "axisSigns": {"x": -1, "y": 1},
            "name": f"kb-monodromy({a},{b};{c},{a})"}


def bordered_description(xi, a, b, c):
    """Z^3 sdprod Z acting by the bordered matrix [[1,0],[xi,Psi]]."""
    theta = [[1, 0, 0], [xi[0], a, b], [xi[1], c, a]]
    d = _zq(3, ["x", "y", "z"], "w", theta)
    d["name"] = f"bordered(({xi[0]},{xi[1]}),({a},{b};{c},{a}))"
    return d


def pillowcase_spec(p, q, r):
    d = oracle.pillowcase_description(p, q, r)
    d["name"] = f"pillowcase({p},{q},{r})"
    return d


# The catalog's named groups, written from their definitions.
CATALOG = {
    "pillowcase": pillowcase_spec(3, 2, 4),
    "kb-monodromy": kb_description(3, 2, 4),
    "bordered": bordered_description((1, 0), 3, 2, 4),
    "B1-sd-theta": {
        "kind": "ZxC2", "rank": 3, "lattice": ["t", "x2", "y"],
        "generators": ["w", "x"],
        "action": {"w": [[3, 8, 0], [1, 3, 0], [0, 0, 1]],
                   "x": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]},
        "cocycles": {"x": [0, 1, 0], "w": [4, 1, 0]},
        "axisSigns": {"w": 1, "x": 1}, "name": "B1-sd-theta"},
    "Dinf": {"kind": "Dinf", "rank": 0, "generators": ["u", "v"],
             "action": {"u": None, "v": None}, "name": "Dinf"},
    "G2": _zq(2, ["s", "t"], "u", [[-1, 0], [0, -1]], name="G2"),
    "B1": _zq(2, ["t", "y"], "x", [[1, 0], [0, -1]], name="B1"),
    "sigma": {"kind": "Dinf", "rank": 2, "lattice": ["x", "y"],
              "generators": ["u", "v"],
              "action": {"u": [[1, 0], [0, -1]],
                         "v": [[17, 24], [-12, -17]]},
              "cocycles": {"u": [1, 0], "v": [3, -2]},
              "axisSigns": {"u": -1, "v": -1}, "name": "sigma"},
}

# Facts derived by hand for catalog groups; the checks use them where
# present and the oracle elsewhere, and the self-test confirms that the
# oracle agrees with every one of them.
HAND_H1 = {
    "G2": (1, (2, 2)),            # Z + (Z/2)^2: u free, s = -s, t = -t
    "B1": (2, (2,)),              # t and x free, 2y = 0
    "Dinf": (0, (2, 2)),          # u^2 = v^2 = 1
    "bordered": (2, (2,)),        # w and x free, y killed, 2z = 0
    "kb-monodromy": (1, (2, 2, 2)),
}
HAND_CENTER = {"G2": 1, "B1": 2, "Dinf": 0, "bordered": 1,
               "kb-monodromy": 1, "B1-sd-theta": 0, "sigma": 0,
               "pillowcase": 0}

VALID_FILES = ("trivial.json", "c2.json", "zq.json", "zxc2.json",
               "klein.json", "dinf3.json", "dinf-torsion.json", "dinf0.json")
# (file, command, known fault): the first two fail until cli.main handles
# TypeError
MALFORMED_FILES = (
    ("list-top-level.json", "h1", True),
    ("rank-string.json", "center", True),
    ("not-json.json", "h1", False),
    ("no-kind.json", "w1", False),
    ("bad-kind.json", "center", False),
    ("singular.json", "h1", False),
    ("klein-bad.json", "center", False),
    ("absent.json", "h1", False),
)
MALFORMED_ARGV = (
    ["invariant", "enumerate", "--max", "many"],
    ["group", "h1"],
    ["frobnicate"],
    ["invariant", "validate", "1,2;3"],
    ["group", "h1", "nosuch"],
    ["group", "center", "pillowcase(3,2)"],
    ["group", "w1", "pillowcase(2,1,3)"],
    ["group", "torsion", "G2"],
)


def _literal(m):
    return ";".join(",".join(str(x) for x in row) for row in m)


def _load(path):
    with open(path) as f:
        return json.load(f)


class Reports:
    name = "reports"
    warmup = 16

    def __init__(self, solgeom):
        self.sg = solgeom

    def make_round(self, seed):
        rng = random.Random(f"reports/{seed}")
        ops = []
        invs = oracle.invariants(40)

        def mat(p, q, r, inverse=False):
            return [[p, -q], [-r, p]] if inverse else [[p, q], [r, p]]

        # invariant algebra: valid, broken and inverse-form matrices
        for p, q, r in rng.sample(invs, 3):
            ops.append(self._inv("validate", mat(p, q, r)))
        p, q, r = rng.choice(invs)
        for bad in (mat(p + 1, q, r), mat(p, q + 2, r),
                    [[p, q], [r, p + 2]], mat(p, q, r, inverse=True)):
            ops.append(self._inv("validate", bad))
        for p, q, r in rng.sample(invs, 2):
            ops.append(self._inv("normalize", mat(p, q, r)))
            ops.append(self._inv("normalize", mat(p, q, r, inverse=True)))
        ops.append(self._inv("normalize", mat(p, q + 2, r)))
        (p, q, r), (p2, q2, r2) = rng.sample(invs, 2)
        for left, right in ((mat(p, q, r), mat(p, q, r, inverse=True)),
                            (mat(p, q, r, inverse=True), mat(p, q, r)),
                            (mat(p, q, r), mat(p2, q2, r2))):
            ops.append(Op("isom", (["invariant", "isom", "--",
                                    _literal(left), _literal(right)],),
                          {"pair": (left, right)}))
        for k in rng.sample((4, 8, 12, 16, 20, 24), 2):
            ops.append(Op("enumerate",
                          (["invariant", "enumerate", "--max", str(k)],),
                          {"max": k}))

        # group reports: every catalog id, parameterized specs, files
        for spec, d in CATALOG.items():
            ops.extend(self._group_ops(spec, d))
        # four specs, so that the slowest tenth of the round (these specs
        # pass the torsion gate in catalog) is one cluster, not its edge
        for p, q, r in rng.sample(oracle.invariants(16), 4):
            ops.extend(self._group_ops(f"pillowcase({p},{q},{r})",
                                       pillowcase_spec(p, q, r)))
        family = _psi_family(7)
        for a, b, c in rng.sample(family, 2):
            ops.extend(self._group_ops(f"kb-monodromy({a},{b};{c},{a})",
                                       kb_description(a, b, c)))
        for a, b, c in rng.sample(family, 2):
            xi = (rng.randint(-2, 2), rng.randint(-2, 2))
            ops.extend(self._group_ops(
                f"bordered(({xi[0]},{xi[1]}),({a},{b};{c},{a}))",
                bordered_description(xi, a, b, c)))
        for fname in VALID_FILES:
            path = os.path.join(DESCRIPTIONS, fname)
            ops.extend(self._group_ops(path, _load(path)))

        # malformed input: exit 1 and exactly one error document
        for fname, cmd, fault in MALFORMED_FILES:
            path = os.path.join(DESCRIPTIONS, fname)
            ops.append(Op("malformed", (["group", cmd, path],),
                          known_fault=fault))
        for argv in MALFORMED_ARGV:
            ops.append(Op("malformed", (list(argv),)))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _inv(cmd, m):
        # "--" keeps argparse from reading a leading minus as an option
        return Op(cmd, (["invariant", cmd, "--", _literal(m)],),
                  {"matrix": m})

    @staticmethod
    def _group_ops(spec, d):
        cmds = ["h1", "center", "w1"]
        if d["kind"] == "Dinf":
            cmds.append("torsion")
        return [Op("group-" + c, (["group", c, spec],),
                   {"desc": d, "spec": spec}) for c in cmds]

    def warmup_ops(self, ops):
        return sorted(ops, key=lambda o: o.args)[:self.warmup]

    def run(self, op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = self.sg.cli.main(op.args[0])
            except SystemExit as exc:
                code = exc.code
        return code, buf.getvalue()

    def check(self, op, out):
        code, text = out
        try:
            doc = json.loads(text)
        except ValueError:
            return f"stdout is not exactly one JSON document: {text[:80]!r}"
        if not isinstance(doc, dict):
            return "document is not an object"
        expect_error = self._expects_error(op)
        if expect_error:
            if code != 1 or doc.get("schema") != "solgeom/error-v1" \
                    or not doc.get("error"):
                return f"expected exit 1 and an error document, got " \
                       f"{code} {text[:80]!r}"
            return None
        if code != 0:
            return f"exit {code}: {text[:80]!r}"
        return getattr(self, "_check_" + op.kind.replace("-", "_"))(op, doc)

    @staticmethod
    def _expects_error(op):
        if op.kind == "malformed":
            return True
        if op.kind == "validate":
            return not oracle.is_invariant(op.ctx["matrix"])
        if op.kind == "normalize":
            return oracle.normal_form(op.ctx["matrix"]) is None
        d = op.ctx.get("desc")
        if op.kind == "group-w1":
            return bool(d.get("generators")) and "axisSigns" not in d
        return False

    @staticmethod
    def _check_validate(op, doc):
        (p, q), (r, _) = op.ctx["matrix"]
        return _check_invariant_doc(doc, (p, q, r))

    @staticmethod
    def _check_normalize(op, doc):
        return _check_invariant_doc(doc, oracle.normal_form(op.ctx["matrix"]))

    @staticmethod
    def _check_isom(op, doc):
        left, right = (oracle.normal_form(m) for m in op.ctx["pair"])
        if doc.get("schema") != "solgeom/isom-v1":
            return f"schema {doc.get('schema')}"
        rec = (lambda t: {"p": t[0], "q": t[1], "r": t[2]})
        if doc["isomorphic"] != (left == right) or doc["left"] != rec(left) \
                or doc["right"] != rec(right):
            return f"isom {doc}, expected {left} vs {right}"
        return None

    @staticmethod
    def _check_enumerate(op, doc):
        want = [{"p": p, "q": q, "r": r}
                for p, q, r in oracle.invariants(op.ctx["max"])]
        if doc.get("schema") != "solgeom/enumeration-v1" \
                or doc["maxEntry"] != op.ctx["max"] \
                or doc["count"] != len(want) or doc["invariants"] != want:
            return f"enumeration to {op.ctx['max']} differs: " \
                   f"count {doc.get('count')}, expected {len(want)}"
        return None

    @staticmethod
    def _check_group_h1(op, doc):
        d = op.ctx["desc"]
        spec = op.ctx["spec"]
        free, torsion = HAND_H1.get(spec) or _fact(oracle.h1, spec, d)
        if doc.get("schema") != "solgeom/h1-v1" or doc["group"] != d["name"]:
            return f"h1 document {doc}"
        if doc["rank"] != free or tuple(doc["torsion"]) != torsion:
            return f"H1 rank {doc['rank']} torsion {doc['torsion']}, " \
                   f"expected {free} {torsion}"
        return None

    @staticmethod
    def _check_group_center(op, doc):
        d = op.ctx["desc"]
        rank = HAND_CENTER.get(op.ctx["spec"])
        if rank is None:
            rank = _fact(oracle.center_rank, op.ctx["spec"], d)
        if doc.get("schema") != "solgeom/center-v1" \
                or doc["group"] != d["name"]:
            return f"center document {doc}"
        words = doc["generators"]
        if doc["rank"] != rank or len(words) != rank:
            return f"center rank {doc['rank']} with {words}, expected {rank}"
        if (len(words) == 1) != ("generator" in doc) or \
                (len(words) == 1 and doc["generator"] != words[0]):
            return "the generator key does not match a cyclic center"
        for w in words:
            problem = _check_central_word(d, w)
            if problem:
                return problem
        return None

    @staticmethod
    def _check_group_w1(op, doc):
        d = op.ctx["desc"]
        if doc.get("schema") != "solgeom/w1-v1" or doc["group"] != d["name"]:
            return f"w1 document {doc}"
        want = oracle.characters(d)
        if doc["characters"] != want:
            return f"characters {doc['characters']}, expected {want}"
        if doc["factors_through_z4"] != _fact(oracle.w1_lifts_to_z4,
                                              op.ctx["spec"], d):
            return f"factors_through_z4 {doc['factors_through_z4']}"
        return None

    @staticmethod
    def _check_group_torsion(op, doc):
        d = op.ctx["desc"]
        if doc.get("schema") != "solgeom/torsion-v1" \
                or doc["group"] != d["name"] or doc["maxWordLength"] != 7:
            return f"torsion document {doc}"
        if doc["torsion_found"] != oracle.has_torsion(d):
            return f"torsion_found {doc['torsion_found']}"
        if doc["torsion_found"]:
            wit = doc.get("witness", {})
            if wit.get("order") != 2:
                return f"witness {wit}"
            letters = oracle.parse_word(wit["element"], _names(d))
            lattice = d.get("lattice", [])
            t = [0] * d["rank"]
            quot = []
            for name, exp in letters:
                if name in lattice:
                    t[lattice.index(name)] = exp
                else:
                    quot.append((name, exp))
            if len(quot) != 1 or quot[0][1] != 1 or \
                    not oracle.is_involution_witness(d, t, quot[0][0]):
                return f"witness {wit['element']} is not an involution"
        return None


def _names(d):
    return list(d.get("lattice", [])) + list(d.get("generators", []))


# a spec names one group, so each oracle result is computed once per spec
_FACTS = {}


def _fact(fn, spec, d):
    key = (fn.__name__, spec)
    if key not in _FACTS:
        _FACTS[key] = fn(d)
    return _FACTS[key]


def _check_invariant_doc(doc, want):
    p, q, r = want
    if doc.get("schema") != "solgeom/invariant-v1":
        return f"schema {doc.get('schema')}"
    got = (doc["p"], doc["q"], doc["r"])
    if got != want or doc["matrix"] != f"{p},{q};{r},{p}":
        return f"invariant {got} {doc['matrix']}, expected {want}"
    return None


def _check_central_word(d, word):
    """A central generator is either a lattice vector fixed by every
    action, or a positive power g^k of the first quotient generator with
    A_g^k = I."""
    letters = oracle.parse_word(word, _names(d))
    lattice = d.get("lattice", [])
    t = [0] * d["rank"]
    quot = [(n, e) for n, e in letters if n not in lattice]
    for n, e in letters:
        if n in lattice:
            t[lattice.index(n)] = e
    if not quot:
        for g in d.get("generators", []):
            if oracle.mat_vec(d["action"][g], t) != t:
                return f"central word {word} is moved by {g}"
        return None
    (g, k), = quot if len(quot) == 1 else (("?", 0),)
    if g != d["generators"][0] or k <= 0:
        return f"central word {word} has quotient part {quot}"
    if d["rank"] and oracle.matrix_power(d["action"][g], k) != \
            oracle.identity(d["rank"]):
        return f"central word {word}: action of {g}^{k} is not I"
    return None


WORKLOADS = {w.name: w for w in (Classify, Sweep, Reports)}
