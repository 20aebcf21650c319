"""Run perfbench in two checkouts, in pairs, and record every run.

    python3 tools/bench_pairs.py --parent DIR --change DIR \
        --workloads classify,sweep,reports --seeds 931-940 \
        [--trace-seed 1] --out BENCH_9.json

Each checkout is the root of a source tree with its own perfbench/ and
BENCHMARK.json.  For every workload and seed, one run of `perfbench/run.py`
is made in each checkout, and the side that runs first alternates from pair
to pair.  Every run lasts the `run_seconds` of BENCHMARK.json, which must be
the same in both checkouts.
With --trace-seed, one traced run (--trace 1) per side and workload
follows the pairs.  The output file holds each run's last stdout line
verbatim, tagged with side, workload, seed and order; the Python version,
CPU count and source line counts of both sides; and, per workload and
end-to-end metric, each side's median and quartiles, the number of
pairs the change won and whether the change stays within the metric's
bound.  Each metric's direction and bound come from BENCHMARK.json, which
must declare the same end-to-end metrics in both checkouts.  Standard
library only.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def _seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _environment(root):
    def out(cmd):
        return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              check=True).stdout
    files = sorted(glob.glob(os.path.join(root, "src", "solgeom", "*.py")))
    wc = out(["wc", "-l"] + [os.path.relpath(f, root) for f in files])
    version = out(["python3", "--version"])
    return {"python3 --version": version.strip(),
            "nproc": out(["nproc"]).strip(),
            "wc -l src/solgeom/*.py": wc.rstrip("\n").split("\n")}


def _benchmark(roots):
    """The run length and the end-to-end metrics, by name, that both
    checkouts' BENCHMARK.json declare."""
    specs = set()
    for root in roots.values():
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
        specs.add(json.dumps([spec["run_seconds"], spec["end_to_end"]]))
    if len(specs) != 1:
        raise SystemExit("BENCHMARK.json run_seconds or end_to_end differ")
    seconds, metrics = json.loads(specs.pop())
    return seconds, {m["name"]: m for m in metrics}


def _run(root, workload, seed, seconds, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(cmd)} in {root} failed "
                           f"({proc.returncode}): {proc.stderr[-500:]}")
    return " ".join(cmd), lines[-1]


def _quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def summarize(runs, end_to_end):
    """Per workload and end-to-end metric: each side's quartiles, the
    change's wins over the untraced pairs (ties count for neither side),
    and whether the change's median is worse than the parent's by no more
    than the metric's bound, a fraction of the parent's median."""
    by_key = {}
    for r in runs:
        if r["trace"]:
            continue
        metrics = json.loads(r["stdout_last_line"])["metrics"]
        for name, m in metrics.items():
            by_key.setdefault((r["workload"], name), {}).setdefault(
                r["seed"], {})[r["side"]] = m["value"]
    out = {}
    for (workload, name), pairs in sorted(by_key.items()):
        if name not in end_to_end:
            continue
        pairs = [p for p in pairs.values() if len(p) == 2]
        sign = 1 if end_to_end[name]["better"] == "higher" else -1
        entry = {side: _quartiles([p[side] for p in pairs])
                 for side in SIDES}
        entry["pairs"] = len(pairs)
        entry["change_wins"] = sum(
            1 for p in pairs if sign * (p["change"] - p["parent"]) > 0)
        parent, change = (entry[side]["median"] for side in SIDES)
        entry["within_bound"] = \
            sign * (parent - change) <= end_to_end[name]["bound"] * abs(parent)
        out.setdefault(workload, {})[name] = entry
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 931-940 or 1,5")
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    seconds, end_to_end = _benchmark(roots)

    plan = []
    for workload in args.workloads.split(","):
        for k, seed in enumerate(_seeds(args.seeds)):
            first = SIDES[k % 2]
            second = SIDES[1 - k % 2]
            plan += [(first, workload, seed, 0), (second, workload, seed, 0)]
    if args.trace_seed is not None:
        plan += [(side, workload, args.trace_seed, 1)
                 for workload in args.workloads.split(",") for side in SIDES]

    runs = []
    for order, (side, workload, seed, trace) in enumerate(plan, 1):
        command, line = _run(roots[side], workload, seed, seconds, trace)
        runs.append({"order": order, "side": side, "workload": workload,
                     "seed": seed, "trace": trace, "command": command,
                     "stdout_last_line": line})
        print(f"{order}/{len(plan)} {side} {workload} {seed}: {line}",
              file=sys.stderr, flush=True)

    doc = {"about": "perfbench/run.py in two checkouts, in pairs that "
                    "alternate which side runs first",
           "environment": {side: _environment(roots[side])
                           for side in SIDES},
           "summary": summarize(runs, end_to_end),
           "runs": runs}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
