"""Benchmark of the solgeom classification, end to end and per layer.

    python3 perfbench/run.py --workload classify|sweep|reports \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; solgeom is imported from ./src.
Each workload repeats a fixed seeded round of ops, one at a time in one
client thread (a closed loop), until the time spent in ops reaches
--seconds, always finishing the round it is in.  Outputs are checked
after each round, outside the timed region.  The last line of stdout is
one JSON object: correct, attempted, failed and metrics (the end-to-end
metrics with --trace 0, the per-layer ones with --trace 1).  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import tracing
from workloads import SWEEP_SUITES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 7

IMPORT_PROBE = ("import time; t = time.perf_counter(); import solgeom, "
                "solgeom.cli; print(time.perf_counter() - t); "
                "print(solgeom.__file__)")


def _from_checkout(path):
    return os.path.abspath(path).startswith(SRC + os.sep)


def import_seconds():
    """Import time of solgeom and its CLI in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=60)
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or \
            not _from_checkout(lines[1]):
        raise RuntimeError(f"solgeom does not import from {SRC}: "
                           f"{proc.stderr.strip()[-300:]}")
    return float(lines[0])


def load_solgeom():
    sys.path.insert(0, SRC)
    # verify's pool runs at its default size, min(CPU count, 8)
    os.environ.pop("SOLFOUR_THREADS", None)
    import solgeom
    import solgeom.cli  # noqa: F401  (the reports workload drives it)
    if not _from_checkout(solgeom.__file__):
        raise RuntimeError(f"solgeom imported from {solgeom.__file__}, "
                           f"not from {SRC}")
    return solgeom


def setup(workload, seed):
    """Import, input generation and warm-up, each done SETUP_REPEATS
    times; returns the round, the median set-up time in seconds and the
    median import time in seconds."""
    totals, imports, ops = [], [], None
    for _ in range(SETUP_REPEATS):
        imp = import_seconds()
        t0 = time.perf_counter()
        ops = workload.make_round(seed)
        for op in workload.warmup_ops(ops):
            try:
                workload.run(op)
            except Exception:  # noqa: BLE001  (counted in the timed rounds)
                pass
        totals.append(imp + time.perf_counter() - t0)
        imports.append(imp)
    return ops, statistics.median(totals), statistics.median(imports)


def measure(workload, ops, seconds, tracer=None):
    """Run whole rounds until the time spent in ops reaches `seconds`.
    Returns (op latencies in round order, failed ops, unexpected
    failures)."""
    run = workload.run
    if tracer is not None:
        run = tracer.span("bench.op", "bench", run)
    latencies, failed, unexpected = [], 0, []
    busy = 0.0
    while busy < seconds:
        outputs = []
        for op in ops:
            if tracer is not None:
                tracer.op_id += 1
            t0 = time.perf_counter()
            try:
                out, exc = run(op), None
            except Exception as e:  # noqa: BLE001  (an op that fails)
                out, exc = None, e
            dt = time.perf_counter() - t0
            latencies.append(dt)
            busy += dt
            outputs.append((out, exc))
        for op, (out, exc) in zip(ops, outputs):
            if exc is None:
                try:
                    problem = workload.check(op, out)
                except (KeyError, TypeError, ValueError, IndexError) as e:
                    # an output of the wrong shape
                    problem = f"output does not parse: {e!r}"
            else:
                problem = f"{type(exc).__name__}: {exc}"
            if problem:
                failed += 1
                if not op.known_fault and len(unexpected) < 20:
                    unexpected.append(f"{op.kind} {op.args!r:.120}: "
                                      f"{problem}")
    return latencies, failed, unexpected


def typical_latencies(latencies, per_round):
    """Each op of the round at its median latency over the run's rounds.
    The speed of this shared machine swings by tens of percent for
    seconds at a time; a median per op keeps such a swing from moving
    the percentiles across the round's ops."""
    rounds = [latencies[i:i + per_round]
              for i in range(0, len(latencies), per_round)]
    return sorted(statistics.median(r[j] for r in rounds)
                  for j in range(per_round))


def end_to_end(latencies, per_round, setup_s):
    typical = typical_latencies(latencies, per_round)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (per_round / sum(typical), "1/s"),
        "op_p50_ms": (statistics.median(typical) * 1e3, "ms"),
        "op_p90_ms": (typical[int(0.9 * per_round)] * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def per_layer(tracer, latencies, per_round, import_s):
    counts, total, own = tracer.merged()
    n = len(latencies)

    def per_op(x):
        return x / n

    def ms(ns):
        return ns / 1e6 / n

    def ratio(a, b):
        return a / b if b else 0.0

    snf = sum(counts["intmat." + h] for h in tracing.INTMAT_HELPERS)
    m = {
        "intmat.mul.calls": (per_op(counts["intmat.mul"]), "count"),
        "intmat.snf.calls": (per_op(snf), "count"),
        "intmat.self_ms": (ms(own["intmat"]), "ms"),
        "gl2z.element_order.calls":
            (per_op(counts["gl2z.element_order"]), "count"),
        "gl2z.two_ended_type.calls":
            (per_op(counts["gl2z.two_ended_type"]), "count"),
        "gl2z.self_ms": (ms(own["gl2z"]), "ms"),
        "extensions.find_torsion.calls":
            (per_op(counts["extensions.find_torsion"]), "count"),
        "extensions.find_torsion.ms":
            (ms(total["extensions.find_torsion"]), "ms"),
        "extensions.element_mul.calls":
            (per_op(counts["extensions.element_mul"]), "count"),
        "extensions.presentation.per_report": (ratio(
            counts["extensions.presentation@classifier.homology_report"],
            counts["classifier.homology_report"]), "ratio"),
        "extensions.center.ms": (ms(total["extensions.center"]), "ms"),
        "extensions.self_ms": (ms(own["extensions"]), "ms"),
        "catalog.resolve_group.ms":
            (ms(total["catalog.resolve_group"]), "ms"),
        "catalog.groups_built.per_lookup": (ratio(
            counts["extensions.ExtensionGroup@catalog.resolve_group"],
            counts["catalog.resolve_group"]), "ratio"),
        "classifier.from_extension.ms":
            (ms(total["classifier.from_extension"]), "ms"),
        "classifier.homology_report.ms":
            (ms(total["classifier.homology_report"]), "ms"),
        "classifier.self_ms": (ms(own["classifier"]), "ms"),
    }
    for suite, _ in SWEEP_SUITES:
        m[f"verify.{suite}.ms"] = (ms(total["verify." + suite]), "ms")
    m.update({
        "verify.self_ms": (ms(own["verify"]), "ms"),
        "cli.main.ms": (ms(total["cli.main"]), "ms"),
        "cli.self_ms": (ms(own["cli"]), "ms"),
        "cli.import_ms": (import_s * 1e3, "ms"),
        "trace.ops_per_s":
            (per_round / sum(typical_latencies(latencies, per_round)),
             "1/s"),
    })
    return m, counts


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        solgeom = load_solgeom()
    except (ImportError, RuntimeError) as exc:
        print(f"perfbench: cannot load solgeom: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](solgeom)
    # One CPU for the whole process: under the interpreter lock only one
    # thread runs at a time anyway, and lock handoffs between threads on
    # different CPUs of a shared machine made the sweep's figures swing
    # by +-15% from one minute to the next.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ops, setup_s, import_s = setup(workload, args.seed)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, solgeom)
    latencies, failed, unexpected = measure(
        workload, ops, args.seconds, tracer)
    attempted = len(latencies)
    for line in unexpected:
        print(f"perfbench: failed op: {line}", file=sys.stderr)

    if tracer is None:
        metrics = end_to_end(latencies, len(ops), setup_s)
    else:
        metrics, counts = per_layer(tracer, latencies, len(ops), import_s)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "ops": attempted, "round": len(ops),
                            "counts": dict(sorted(counts.items())),
                            "metrics": {k: v for k, (v, _) in
                                        metrics.items()}})
        print(f"perfbench: spans written to {os.path.relpath(path, ROOT)}",
              file=sys.stderr)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
