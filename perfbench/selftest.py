"""Quick self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

1. Every checker accepts a real output and rejects a deliberately wrong
   one, and the hand-derived facts agree with the oracle.
2. Each workload runs briefly through run.py, untraced and traced, and
   prints a well-formed result; two traced runs of one seed give the
   same counts.
3. In a directory holding only the benchmark's files, run.py exits with
   an error and prints no result.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def first(ops, pred):
    return next(op for op in ops if pred(op))


def expect_rejected(wl, op, out, what):
    if wl.check(op, out) is None:
        fail(f"{wl.name}: the checker accepted {what}")


def check_checkers():
    import solgeom
    import solgeom.cli  # noqa: F401

    for name, (free, torsion) in workloads.HAND_H1.items():
        if oracle.h1(workloads.CATALOG[name]) != (free, torsion):
            fail(f"oracle H1 of {name} disagrees with the hand derivation")
    for name, rank in workloads.HAND_CENTER.items():
        if oracle.center_rank(workloads.CATALOG[name]) != rank:
            fail(f"oracle center rank of {name} disagrees with the hand "
                 f"derivation")

    wl = workloads.Classify(solgeom)
    ops = wl.make_round(7)
    acc = first(ops, lambda o: not o.ctx["torsion"] and o.ctx["sample"])
    rej = first(ops, lambda o: o.ctx["torsion"])
    out_acc, out_rej = wl.run(acc), wl.run(rej)
    for op, out in ((acc, out_acc), (rej, out_rej)):
        if wl.check(op, out) is not None:
            fail(f"classify: real output rejected: {wl.check(op, out)}")
    bad = copy.deepcopy(out_acc)
    bad[2]["orders"]["u"] += 2
    expect_rejected(wl, acc, bad, "a wrong generator order")
    bad = copy.deepcopy(out_acc)
    bad[2]["h1"]["torsion"] = [2] + bad[2]["h1"]["torsion"]
    expect_rejected(wl, acc, bad, "a wrong torsion tuple")
    expect_rejected(wl, acc, ("accepted", (3, 2, 4), out_acc[2])
                    if acc.ctx["inv"] != (3, 2, 4) else
                    ("accepted", (5, 4, 6), out_acc[2]),
                    "a wrong recovered invariant")
    shifted = re.sub(r"t=\((-?\d+)",
                     lambda m: f"t=({int(m.group(1)) + 1}", out_rej[1])
    expect_rejected(wl, rej, ("rejected", shifted),
                    "a witness that is not an involution")

    wl = workloads.Sweep(solgeom)
    op = first(wl.make_round(7), lambda o: o.args[0] == "bordered-family")
    rep = wl.run(op)
    if wl.check(op, rep) is not None:
        fail(f"sweep: real report rejected: {wl.check(op, rep)}")
    bad = copy.copy(rep)
    bad.instances += 1
    expect_rejected(wl, op, bad, "a wrong instance count")
    bad = copy.copy(rep)
    bad.failures = [{"input": 1}]
    expect_rejected(wl, op, bad, "a failing report")

    wl = workloads.Reports(solgeom)
    ops = wl.make_round(7)
    tampers = {
        "validate": lambda d: d.update(q=d["q"] + 2),
        "normalize": lambda d: d.update(p=-d["p"]),
        "isom": lambda d: d.update(isomorphic=not d["isomorphic"]),
        "enumerate": lambda d: d["invariants"].pop(),
        "group-h1": lambda d: d.update(torsion=d["torsion"] + [2]),
        "group-center": lambda d: d.update(rank=d["rank"] + 1),
        "group-w1": lambda d: d.update(
            factors_through_z4=not d["factors_through_z4"]),
        "group-torsion": lambda d: d.update(
            torsion_found=not d["torsion_found"]),
    }
    for kind, tamper in tampers.items():
        op = first(ops, lambda o: o.kind == kind
                   and not wl._expects_error(o))
        code, text = wl.run(op)
        if wl.check(op, (code, text)) is not None:
            fail(f"reports {kind}: real output rejected: "
                 f"{wl.check(op, (code, text))}")
        doc = json.loads(text)
        tamper(doc)
        expect_rejected(wl, op, (code, json.dumps(doc)), f"a wrong {kind}")
    op = first(ops, lambda o: o.kind == "malformed" and not o.known_fault)
    code, text = wl.run(op)
    if wl.check(op, (code, text)) is not None:
        fail(f"reports malformed: real output rejected: "
             f"{wl.check(op, (code, text))}")
    expect_rejected(wl, op, (0, text), "exit 0 on malformed input")
    expect_rejected(wl, op, (code, text + text), "two documents")
    # a wrong answer from the program is counted as a failed op
    import run

    class Tampered(workloads.Classify):
        def run(self, op):
            out = super().run(op)
            if op is ops[0] and out[0] == "accepted":
                out[2]["h1"]["rank"] = 1
            elif op is ops[0]:
                out = ("accepted", op.ctx["inv"], {})
            return out

    ops = workloads.Classify(solgeom).make_round(7)
    _, failed, unexpected = run.measure(Tampered(solgeom), ops, 1e-9)
    if failed != 1 or len(unexpected) != 1:
        fail(f"a wrong answer counted as {failed} failed ops")
    print("selftest: checkers accept real outputs and reject wrong ones")


def run_bench(cwd, workload, seed, trace, seconds=0.2):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def check_runs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"] for m in bench["end_to_end"]}
    names = {m["name"] for m in bench["per_layer"]}
    for workload in workloads.WORKLOADS:
        proc = run_bench(ROOT, workload, 3, 0)
        if proc.returncode != 0:
            fail(f"{workload}: exit {proc.returncode}: {proc.stderr[-500:]}")
        res = json.loads(proc.stdout.splitlines()[-1])
        if set(res) != {"correct", "attempted", "failed", "metrics"} or \
                set(res["metrics"]) != e2e or not res["correct"]:
            fail(f"{workload}: bad result {res}")
        per_round = 2 if workload == "reports" else 0
        rounds = res["attempted"] // len(
            workloads.WORKLOADS[workload](None).make_round(3))
        if res["failed"] != per_round * rounds:
            fail(f"{workload}: {res['failed']} failed ops")
        traced = []
        for _ in range(2):
            proc = run_bench(ROOT, workload, 3, 1)
            if proc.returncode != 0:
                fail(f"{workload} traced: {proc.stderr[-500:]}")
            res = json.loads(proc.stdout.splitlines()[-1])
            if set(res["metrics"]) != names:
                fail(f"{workload} traced: metrics "
                     f"{set(res['metrics']) ^ names}")
            traced.append({k: v["value"] for k, v in res["metrics"].items()
                           if k.endswith((".calls", ".per_report",
                                          ".per_lookup"))})
        if traced[0] != traced[1]:
            fail(f"{workload}: traced counts differ between two runs")
        print(f"selftest: {workload} runs, untraced and traced")


def check_bare_directory():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(bare, "classify", 1, 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("run.py succeeded without the solgeom sources")
    print("selftest: without the sources run.py exits "
          f"{proc.returncode} and prints no result")


if __name__ == "__main__":
    check_checkers()
    check_runs()
    check_bare_directory()
    print("selftest: ok")
