"""Time the seven verify suites of two checkouts, in one process.

    python3 tools/suite_ab.py --parent DIR --change DIR [--rounds 60]

Each checkout's src/solgeom is loaded under its own package name
(solgeom_parent, solgeom_change), so both sides share one interpreter, one
CPU and the same moments of the machine's load; the process is pinned to
one CPU as perfbench/run.py pins itself.  The suites and bounds are the
`sweep` workload's, read from the change checkout's perfbench/workloads.py.
After one warm-up round, each round runs every suite on both sides, and the
side that goes first alternates from round to round.

Prints, per suite, each side's median time in ms and the median of the
per-round ratios change/parent, then the same for the slowest suite of
each round, the op that sets `sweep`'s op_p90_ms, and for the sum of the
seven suites of each round (`round total`), the in-process analogue of
`sweep`'s ops_per_s.  Both sides must report the same instance count and
verdict.  This is a diagnostic that resolves small differences the
end-to-end runs cannot; speed claims come from tools/bench_pairs.py.
Standard library only.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import time

SIDES = ("parent", "change")


def _load(root, side):
    """The solgeom package of a checkout, imported as solgeom_<side>."""
    name = f"solgeom_{side}"
    pkg = os.path.join(os.path.abspath(root), "src", "solgeom")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"),
        submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(name + ".verify")


def _sweep_suites(root):
    sys.path.insert(0, os.path.join(os.path.abspath(root), "perfbench"))
    import workloads
    return workloads.SWEEP_SUITES


def _time(verify, name, bounds):
    t0 = time.perf_counter()
    rep = verify.run_suite(name, **bounds)
    return time.perf_counter() - t0, (rep.instances, rep.ok)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--rounds", type=int, default=60)
    args = ap.parse_args(argv)

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    verify = {side: _load(getattr(args, side), side) for side in SIDES}
    suites = _sweep_suites(args.change)
    times = {(side, name): [] for side in SIDES for name, _ in suites}
    for r in range(args.rounds + 1):
        order = SIDES if r % 2 == 0 else SIDES[::-1]
        for name, bounds in suites:
            outcome = {}
            for side in order:
                seconds, outcome[side] = _time(verify[side], name, bounds)
                if r:  # round 0 is the warm-up
                    times[side, name].append(seconds * 1000)
            if outcome["parent"] != outcome["change"]:
                raise SystemExit(f"{name}: (instances, ok) parent "
                                 f"{outcome['parent']}, change "
                                 f"{outcome['change']}")

    def row(label, parent, change):
        ratios = [c / p for p, c in zip(parent, change)]
        print(f"{label:<18} {statistics.median(parent):9.3f} "
              f"{statistics.median(change):9.3f} "
              f"{statistics.median(ratios):7.3f}")

    print(f"{args.rounds} rounds; median ms per side, median per-round "
          f"ratio change/parent")
    print(f"{'suite':<18} {'parent':>9} {'change':>9} {'ratio':>7}")
    for name, _ in suites:
        row(name, times["parent", name], times["change", name])
    slowest = {side: [max(times[side, name][i] for name, _ in suites)
                      for i in range(args.rounds)] for side in SIDES}
    row("slowest op", slowest["parent"], slowest["change"])
    total = {side: [sum(times[side, name][i] for name, _ in suites)
                    for i in range(args.rounds)] for side in SIDES}
    row("round total", total["parent"], total["change"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
