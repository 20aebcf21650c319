"""End-to-end command checks: the documented invocations, their frozen
outputs, and the exit code contract (0 ok, 1 input error, 2 suite
failure)."""

import argparse
import json
import subprocess
import sys

import pytest

from solgeom import cli, verify
from solgeom.catalog import default_catalog, g2_group
from solgeom.verify import VerificationReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def test_isom_example(capsys):
    code, out = run(capsys, "invariant", "isom", "3,2;4,3", "3,-2;-4,3")
    assert code == 0
    assert out["schema"] == "solgeom/isom-v1"
    assert out["isomorphic"] is True
    assert out["left"] == out["right"] == {"p": 3, "q": 2, "r": 4}


def test_isom_distinct(capsys):
    code, out = run(capsys, "invariant", "isom", "3,2;4,3", "3,4;2,3")
    assert code == 0 and out["isomorphic"] is False


def test_isom_reports_the_library_decision(capsys, monkeypatch):
    # the command prints whatever classifier.isomorphic decides, on the
    # normalized pair, whichever way equality of normal forms goes
    calls = []
    for verdict, left, right in ((True, "3,2;4,3", "3,4;2,3"),
                                 (False, "3,2;4,3", "3,-2;-4,3")):
        monkeypatch.setattr(cli, "isomorphic",
                            lambda a, b, v=verdict: calls.append((a, b)) or v)
        code, out = run(capsys, "invariant", "isom", left, right)
        assert code == 0 and out["isomorphic"] is verdict
        a, b = calls.pop()
        assert (a.to_record(), b.to_record()) == (out["left"], out["right"])


def test_validate_ok(capsys):
    code, out = run(capsys, "invariant", "validate", "3,2;4,3")
    assert code == 0
    assert out == {"schema": "solgeom/invariant-v1", "p": 3, "q": 2, "r": 4,
                   "matrix": "3,2;4,3"}


def test_validate_parity_error(capsys):
    code, out = run(capsys, "invariant", "validate", "2,1;3,2")
    assert code == 1
    assert out == {"schema": "solgeom/error-v1",
                   "error": "p is even; it must be odd"}


def test_validate_rejects_inverse_form(capsys):
    code, out = run(capsys, "invariant", "validate", "3,-2;-4,3")
    assert code == 1 and "q <= 0" in out["error"]


def test_normalize_accepts_inverse_form(capsys):
    code, out = run(capsys, "invariant", "normalize", "3,-2;-4,3")
    assert code == 0
    assert (out["p"], out["q"], out["r"]) == (3, 2, 4)


def test_normalize_hopeless_input(capsys):
    code, out = run(capsys, "invariant", "normalize", "1,0;0,1")
    assert code == 1 and "neither the matrix nor its inverse" in out["error"]


def test_enumerate_max_four(capsys):
    code, out = run(capsys, "invariant", "enumerate", "--max", "4")
    assert code == 0
    assert out["schema"] == "solgeom/enumeration-v1"
    assert out["maxEntry"] == 4 and out["count"] == 4
    assert out["invariants"] == [
        {"p": 3, "q": 2, "r": 4}, {"p": 3, "q": 4, "r": 2},
        {"p": -3, "q": 2, "r": 4}, {"p": -3, "q": 4, "r": 2}]


def test_enumerate_default_bound(capsys):
    code, out = run(capsys, "invariant", "enumerate")
    assert code == 0 and out["maxEntry"] == 20 and out["count"] == 52


def test_h1_example(capsys):
    code, out = run(capsys, "group", "h1", "G2")
    assert code == 0
    assert out == {"schema": "solgeom/h1-v1", "group": "G2", "rank": 1,
                   "torsion": [2, 2]}


def test_center_example(capsys):
    code, out = run(capsys, "group", "center", "kb-monodromy(3,2;4,3)")
    assert code == 0
    assert out["schema"] == "solgeom/center-v1"
    assert out["rank"] == 1
    assert out["generator"] == "x^2"
    assert out["generators"] == ["x^2"]


def test_center_trivial_has_no_singular_key(capsys):
    code, out = run(capsys, "group", "center", "pillowcase(3,2,4)")
    assert code == 0 and out["rank"] == 0
    assert out["generators"] == [] and "generator" not in out


def test_torsion_example(capsys):
    code, out = run(capsys, "group", "torsion", "pillowcase(3,2,4)",
                    "--max-word", "7")
    assert code == 0
    assert out["schema"] == "solgeom/torsion-v1"
    assert out["maxWordLength"] == 7
    assert out["torsion_found"] is False
    assert "witness" not in out


def test_torsion_witness(capsys):
    code, out = run(capsys, "group", "torsion", "Dinf")
    assert code == 0
    assert out["torsion_found"] is True
    assert out["witness"] == {"element": "u", "order": 2}


def test_torsion_needs_dihedral_quotient(capsys):
    code, out = run(capsys, "group", "torsion", "G2")
    assert code == 1 and "Dinf" in out["error"]


def test_w1_report(capsys):
    code, out = run(capsys, "group", "w1", "pillowcase(3,2,4)")
    assert code == 0
    assert out["schema"] == "solgeom/w1-v1"
    assert out["characters"] == {"x": 0, "y": 0, "z": 0, "u": 1, "v": 1}
    assert out["factors_through_z4"] is True


def test_group_from_description_file(capsys, tmp_path):
    path = tmp_path / "g2.json"
    path.write_text(json.dumps(g2_group().to_description()))
    code, out = run(capsys, "group", "h1", str(path))
    assert code == 0 and out["rank"] == 1 and out["torsion"] == [2, 2]


def test_description_missing_field(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"kind": "Zq"}))
    code, out = run(capsys, "group", "h1", str(path))
    assert code == 1 and "missing field" in out["error"]


def test_unknown_group(capsys):
    code, out = run(capsys, "group", "h1", "G3")
    assert code == 1 and "G3" in out["error"]


def test_unknown_suite(capsys):
    code, out = run(capsys, "verify", "no-such-suite")
    assert code == 1 and "unknown suite" in out["error"]


def test_verify_success(capsys):
    code, out = run(capsys, "verify", "catalog-examples")
    assert code == 0
    assert out["schema"] == "solgeom/verify-report-v1"
    assert out["ok"] is True and out["failures"] == []


def test_verify_passes_bounds(capsys):
    code, out = run(capsys, "verify", "order-twelve", "--box", "2")
    assert code == 0 and out["parameters"] == {"box": 2}
    code, out = run(capsys, "verify", "bordered-family", "--a-max", "4")
    assert code == 0 and out["parameters"] == {"aMax": 4}
    code, out = run(capsys, "verify", "roundtrip", "--max", "8")
    assert code == 0 and out["parameters"] == {"maxEntry": 8}


def test_verify_failure_exits_two(capsys, monkeypatch):
    canned = VerificationReport(
        "order-twelve", 3,
        [{"input": (1, 0, 0, 1), "expected": "x", "actual": "y"}],
        0.01, {"box": 1})

    def fake(name, **kwargs):
        return canned

    monkeypatch.setattr(verify, "run_suite", fake)
    code, out = run(capsys, "verify", "order-twelve")
    assert code == 2
    assert out["ok"] is False and len(out["failures"]) == 1


def test_pretty_flag(capsys):
    code, out = run(capsys, "group", "h1", "G2", "--pretty")
    assert code == 0 and out["rank"] == 1
    cli.main(["group", "h1", "G2", "--pretty"])
    text = capsys.readouterr().out
    assert text.count("\n") > 3


def test_usage_error_is_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["schema"] == "solgeom/error-v1"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "solgeom.cli", "invariant", "isom",
         "3,2;4,3", "3,-2;-4,3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["isomorphic"] is True


def test_validate_leading_minus_without_separator(capsys):
    code, out = run(capsys, "invariant", "validate", "-3,2;4,-3")
    assert code == 0
    assert out == {"schema": "solgeom/invariant-v1", "p": -3, "q": 2,
                   "r": 4, "matrix": "-3,2;4,-3"}


def test_isom_leading_minus_without_separator(capsys):
    code, out = run(capsys, "invariant", "isom", "-3,2;4,-3", "-3,-2;-4,-3")
    assert code == 0 and out["isomorphic"] is True


def test_unknown_option_is_still_an_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["invariant", "validate", "-x"])
    assert exc.value.code == 1
    out = json.loads(capsys.readouterr().out)
    assert out["schema"] == "solgeom/error-v1"


def _command_paths(parser, path=()):
    """The top level and every subcommand, as argv prefixes."""
    yield path
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _command_paths(sub, path + (name,))


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_help_is_one_document(capsys, flag):
    paths = list(_command_paths(cli._parser()))
    assert len(paths) == 12
    for path in paths:
        with pytest.raises(SystemExit) as exc:
            cli.main([*path, flag])
        assert exc.value.code == 0, path
        text = capsys.readouterr().out
        out = json.loads(text)  # exactly one document
        assert text.count("\n") == 1, path
        assert out["schema"] == "solgeom/help-v1"
        assert out["usage"].startswith(
            " ".join(("usage: solgeom",) + path)), path


def test_parser_is_built_once():
    assert cli._parser() is cli._parser()


def test_torsion_is_complete(capsys):
    code, out = run(capsys, "group", "torsion", "sigma")
    assert code == 0
    assert out == {"schema": "solgeom/torsion-v1", "group": "sigma",
                   "maxWordLength": 7, "complete": True,
                   "torsion_found": False}
    code, out = run(capsys, "group", "torsion", "Dinf", "--max-word", "1")
    assert code == 0 and out["complete"] is True
    assert out["maxWordLength"] == 1
    assert out["witness"] == {"element": "u", "order": 2}


@pytest.mark.parametrize("bound", ["0", "-1", "-7"])
def test_torsion_rejects_bound_below_one(capsys, bound):
    code = cli.main(["group", "torsion", "Dinf", "--max-word", bound])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    out = json.loads(lines[0])
    assert out["schema"] == "solgeom/error-v1"
    assert "--max-word must be at least 1" in out["error"]


@pytest.mark.parametrize("command, payload, message", [
    ("h1", [{"kind": "Zq", "rank": 1, "generators": ["s"],
             "action": {"s": [[-1]]}}], "must be a JSON object"),
    ("center", {"kind": "Zq", "rank": "3", "generators": ["s"],
                "action": {"s": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}},
     "rank must be an integer"),
    ("h1", {"kind": "Zq", "rank": 1, "generators": ["s"],
            "action": {"s": [1]}}, "array of rows of integers"),
    ("w1", {"kind": "C2", "rank": 1, "generators": ["u"],
            "action": {"u": [[1]]}, "cocycles": {"u": [1.5]}},
     "array of integers"),
    ("center", {"kind": "Zq", "rank": 1, "lattice": [["a"]],
                "generators": ["s"], "action": {"s": [[1]]}},
     "array of names"),
    ("h1", {"kind": "Zq", "rank": 1, "generators": ["s"],
            "action": {"s": [[-1]]}, "name": [1]}, "'name' must be a string"),
    ("h1", {"kind": "Trivial", "rank": 10 ** 9},
     "dimension 1000000000 outside supported range 0..8"),
    ("w1", {"kind": "Zq", "rank": 2, "generators": ["s"],
            "action": {"s": None}}, "action of 's' is null, but the rank is 2"),
    ("torsion", {"kind": "Dinf", "rank": 0, "generators": ["u", "v"],
                 "action": {"u": [[1]], "v": None}},
     "rank-0 group takes no action matrices"),
])
def test_malformed_description_is_one_error_document(capsys, tmp_path,
                                                     command, payload,
                                                     message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code = cli.main(["group", command, str(path)])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    out = json.loads(lines[0])
    assert out["schema"] == "solgeom/error-v1" and message in out["error"]


@pytest.mark.parametrize("suite, flag, key", [
    ("two-ended", "--box", "box"),
    ("roundtrip", "--max", "max_entry"),
    ("bordered-family", "--a-max", "a_max"),
])
def test_verify_rejects_negative_bound(capsys, suite, flag, key):
    code = cli.main(["verify", suite, flag, "-1"])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    out = json.loads(lines[0])
    assert out["schema"] == "solgeom/error-v1"
    assert out["error"] == f"{key} must be at least 0, not -1"


def test_verify_accepts_zero_box(capsys):
    code, out = run(capsys, "verify", "two-ended", "--box", "0")
    assert code == 0 and out["parameters"] == {"box": 0}


# every value a fuzzed description field takes: each JSON type, and the
# shapes of names, vectors and matrices with wrong entries
_FUZZ_VALUES = (None, 0, 1, -1, 9, "x", [], [[1]], [[1, 0], [0, 1]], {},
                True, 1.5, [1, 2], [None], [[None]])
_DESCRIPTION_FIELDS = ("kind", "rank", "lattice", "generators", "action",
                       "cocycles", "axisSigns", "name")


def _fuzzed_descriptions():
    """Each catalog group's description with one field, or one entry of
    its action or cocycles, set to each fuzz value."""
    for g in default_catalog().values():
        d = g.to_description()
        for value in _FUZZ_VALUES:
            for key in _DESCRIPTION_FIELDS:
                yield {**d, key: value}
            for key in ("action", "cocycles"):
                for name in d.get(key, {}):
                    yield {**d, key: {**d[key], name: value}}


def test_description_fuzz_is_one_document(capsys, tmp_path):
    path = tmp_path / "fuzz.json"
    runs = 0
    for d in _fuzzed_descriptions():
        path.write_text(json.dumps(d))
        for command in ("h1", "center", "torsion", "w1"):
            code = cli.main(["group", command, str(path)])
            out = json.loads(capsys.readouterr().out)  # exactly one document
            assert code in (0, 1) and "schema" in out, (command, d)
            runs += 1
    assert runs == 4980
