"""Suite runner checks: every shipped suite is green at its default
bounds, reports serialize to the documented shape, and failures are sorted
by instance key."""

import pytest

import oracles
from solgeom import verify
from solgeom.extensions import ExtensionGroup
from solgeom.gl2z import NONCENTRAL_CLASSES, NotTwoEndedError, element_order
from solgeom.intmat import IntMatrix
from solgeom.verify import VerificationReport, run_suite


# each suite's default bound, as its report records it
_DEFAULT_BOUNDS = {
    "order-twelve": {"box": 3},
    "finite-subgroups": {"box": 6},
    "two-ended": {"box": 3},
    "roundtrip": {"maxEntry": 20},
    "homology": {"maxEntry": 20},
    "bordered-family": {"aMax": 12},
    "catalog-examples": {},
}


@pytest.mark.parametrize("name", sorted(verify.SUITES))
def test_suite_green_at_defaults(name):
    rep = run_suite(name)
    assert rep.suite == name
    bounds = {k: v for k, v in rep.parameters.items() if k != "notes"}
    assert bounds == _DEFAULT_BOUNDS[name]
    assert rep.ok, rep.failures[:3]
    assert rep.failures == []
    assert rep.instances > 0
    assert rep.elapsed >= 0.0


def test_report_json_shape():
    rep = run_suite("order-twelve", box=2)
    d = rep.to_json_dict()
    assert d["schema"] == "solgeom/verify-report-v1"
    assert set(d) == {"schema", "suite", "ok", "instances", "failures",
                      "elapsed_seconds", "parameters"}
    assert d["suite"] == "order-twelve"
    assert d["ok"] is True
    assert d["parameters"] == {"box": 2}
    assert isinstance(d["elapsed_seconds"], float)


def test_ok_reflects_failures():
    good = VerificationReport("s", 1, [], 0.0, {})
    bad = VerificationReport("s", 1, [{"input": 0}], 0.0, {})
    assert good.ok and not bad.ok
    assert bad.to_json_dict()["ok"] is False


def test_failures_sorted_by_input():
    # a check that fails on everything, fed deliberately unsorted keys
    def check(k):
        return verify._fail(k, "x", "y")

    rep = verify._run("fake", ["b", "a", "c"], check, {})
    assert [f["input"] for f in rep.failures] == ["a", "b", "c"]
    assert rep.instances == 3 and not rep.ok


def test_order_twelve_instance_count_matches_oracle():
    rep = run_suite("order-twelve", box=2)
    assert rep.instances == len(oracles.unimodular_box(2))


@pytest.mark.parametrize("box", range(7))
def test_unimodular_tuples_match_quadruple_scan(box):
    # the same tuples in the same (lexicographic) order as the full scan
    assert list(verify._unimodular_tuples(box)) == oracles.unimodular_box(box)


def test_instance_counts_at_benchmark_bounds():
    # perfbench's sweep runs two-ended at box 1 and order-twelve at box 4
    finite = [t for t in oracles.unimodular_box(1)
              if oracles.order2_brute(t) is not None]
    assert len(finite) ** 2 + len(verify._SYNTHETIC_PAIRS) == 582
    assert run_suite("two-ended", box=1).instances == 582
    assert len(oracles.unimodular_box(4)) == 360
    assert run_suite("order-twelve", box=4).instances == 360


def _order_six_reads_infinite(order):
    """The order rule `order`, but reporting order 6 as infinite."""
    def wrong(*args):
        o = order(*args)
        return None if o == 6 else o
    return wrong


def test_order_twelve_catches_wrong_order_rule(monkeypatch):
    monkeypatch.setattr(verify, "_order", _order_six_reads_infinite(
        verify._order))
    rep = run_suite("order-twelve", box=3)
    want = [t for t in oracles.unimodular_box(3)
            if oracles.order2_brute(t) == 6]
    assert want and not rep.ok
    assert [f["input"] for f in rep.failures] == sorted(want, key=str)
    assert {(f["expected"], f["actual"]) for f in rep.failures} == {
        ("M^12 = I exactly for the finite-order matrices",
         "order=None, M^12=I is True")}


def _tuple(m):
    return m.rows[0] + m.rows[1]


def test_finite_subgroups_catches_wrong_order_rule(monkeypatch):
    monkeypatch.setattr(verify, "element_order", _order_six_reads_infinite(
        verify.element_order))
    rep = run_suite("finite-subgroups", box=6)
    want = [(cls.name, t) for cls in NONCENTRAL_CLASSES
            for t in oracles.intertwiner_box_scan(
                _tuple(cls.representative), _tuple(cls.representative), 6)
            if oracles.order2_brute(t) == 6]
    assert want and not rep.ok
    assert [f["input"] for f in rep.failures] == sorted(want, key=str)
    assert {(f["expected"], f["actual"]) for f in rep.failures} == {
        ("every sampled centralizer element has finite order",
         "infinite order")}


def test_two_ended_counts_pairs_plus_synthetics():
    finite = [t for t in oracles.unimodular_box(2)
              if element_order(IntMatrix([t[:2], t[2:]])) is not None]
    rep = run_suite("two-ended", box=2)
    assert rep.instances == len(finite) ** 2 + len(verify._SYNTHETIC_PAIRS)
    assert rep.ok


def test_two_ended_types_each_pair_and_its_conjugates(monkeypatch):
    # the suite types every box pair (a, b); a two-ended one also as
    # (C a C^-1, C b C^-1) for each conjugator C, and in case 3 as (b, a)
    original = verify.two_ended_type
    calls = set()

    def recording(gens):
        calls.add(tuple(m.rows[0] + m.rows[1] for m in gens))
        return original(gens)

    monkeypatch.setattr(verify, "two_ended_type", recording)
    assert run_suite("two-ended", box=1).ok
    finite = [t for t in oracles.unimodular_box(1)
              if oracles.order2_brute(t) is not None]
    want = {gens for gens, _ in verify._SYNTHETIC_PAIRS}
    for a in finite:
        for b in finite:
            want.add((a, b))
            try:
                typed = original([IntMatrix([a[:2], a[2:]]),
                                  IntMatrix([b[:2], b[2:]])])
            except NotTwoEndedError:
                continue
            if typed.case == 3:
                want.add((b, a))
            for c in ((1, 1, 0, 1), (1, 0, -1, 1), (2, 1, 1, 1)):
                want.add(tuple(oracles.mul2(oracles.mul2(c, m),
                                            oracles.inv2(c)) for m in (a, b)))
    assert calls == want


def test_bound_routing():
    rep = run_suite("roundtrip", max_entry=8)
    assert rep.parameters["maxEntry"] == 8
    assert rep.ok
    # bounds that do not apply to a suite are ignored, not errors
    rep = run_suite("catalog-examples", box=5, max_entry=9)
    assert rep.ok


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("no-such-suite")


def test_homology_note_records_split():
    rep = run_suite("homology")
    notes = rep.parameters["notes"]
    assert len(notes) == 1 and "24 of 52" in notes[0]


def test_homology_catches_wrong_order_of_x(monkeypatch):
    # doubling x, u and v keeps ord(u) = ord(v) = 2 ord(x); only the law
    # ord(x) = gcd(p-1, q) sees the fault
    orders = ExtensionGroup.h1_generator_orders

    def wrong(self):
        o = orders(self)
        return dict(o, x=2 * o["x"], u=2 * o["u"], v=2 * o["v"])

    monkeypatch.setattr(ExtensionGroup, "h1_generator_orders", wrong)
    rep = run_suite("homology", max_entry=8)
    assert not rep.ok
    assert len(rep.failures) == rep.instances
    assert all("gcd(p-1, q)" in f["expected"] for f in rep.failures)


def test_homology_reports_each_invariant_once(monkeypatch):
    seen = []
    report = verify.homology_report

    def counting(inv):
        seen.append(inv)
        return report(inv)

    monkeypatch.setattr(verify, "homology_report", counting)
    rep = run_suite("homology", max_entry=8)
    assert rep.ok
    assert sorted(seen, key=repr) == sorted(set(seen), key=repr)
    assert len(seen) == rep.instances
