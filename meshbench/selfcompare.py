"""Same-code self-comparison: how noisy is each end-to-end metric?

    python3 meshbench/selfcompare.py --pairs 10 [--workloads a,b] [--trace 0|1]

Runs ``run.py`` for seeds 1..N on every workload, as two sets of runs of
the same code, alternating which set goes first. For every metric and
workload it prints each set's median and quartiles, the spread
(quartile distance over the median) against the metric's bound in
``BENCHMARK.json``, the second median's change against the first, and
how many same-seed pairs a gate at that bound would flag as a
regression although the code is identical. Every metric, ``setup_s``
included, must keep its spread and its median change within its bound.
``--trace 1`` instead checks that the deterministic counters and the
output digest repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from meshbench.common import ROOT, load_spec, quartiles  # noqa: E402

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")

#: Per-layer counters that must repeat exactly for a fixed seed.
DETERMINISTIC = ("sim.events", "phy.frames", "slotted.slots")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    context, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"context": context, "result": result,
            "values": {k: v["value"] for k, v in result["metrics"].items()}}


def worse_by(metric: dict, base: float, new: float) -> float:
    """Relative change of ``new`` against ``base``, positive = worse."""
    if not base:
        return 0.0
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, default=10, help="seeds per set")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default=None, metavar="PATH", help="also write raw runs here")
    args = parser.parse_args(argv)

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    report, ok = {}, True
    for workload in args.workloads.split(","):
        sets = [[], []]
        for seed in range(1, args.pairs + 1):
            for which in ((0, 1) if seed % 2 else (1, 0)):
                sets[which].append(run_once(workload, seed, spec["run_seconds"], args.trace))
            print(f"# {workload} seed {seed} done", file=sys.stderr, flush=True)
        report[workload] = sets
        if args.json:
            with open(args.json, "w") as handle:
                json.dump(report, handle, indent=1, sort_keys=True)
        runs = [run for runs_of_set in sets for run in runs_of_set]
        correct = all(run["result"]["correct"] and run["result"]["failed"] == 0 for run in runs)
        attempted = sum(run["result"]["attempted"] for run in runs)
        ok &= correct
        print(f"\n## {workload}: {len(runs)} runs, correct={correct}, "
              f"operations attempted={attempted}")
        same_digest = all(a["context"]["digest"] == b["context"]["digest"]
                          for a, b in zip(*sets))
        ok &= same_digest
        print(f"digest identical across same-seed pairs: {same_digest}")
        if args.trace:
            for name in DETERMINISTIC:
                same = all(a["values"][name] == b["values"][name] for a, b in zip(*sets))
                ok &= same
                print(f"{name} repeats exactly for each seed: {same}")
            continue
        header = ("| metric | bound | set | q1 | median | q3 | spread | spread/bound "
                  "| median change | false flags |")
        print(header)
        print("|" + "---|" * (header.count("|") - 1))
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for which, runs_of_set in enumerate(sets):
                values = [run["values"][name] for run in runs_of_set]
                q1, med, q3 = quartiles(values)
                medians.append(med)
                spread = (q3 - q1) / med if med else float("inf")
                row = (f"| {name} | {bound} | {'AB'[which]} | {q1:.6g} | {med:.6g} | {q3:.6g} "
                       f"| {spread:.3f} | {spread / bound:.2f} |")
                if which == 1:
                    flags = sum(worse_by(metric, a["values"][name], b["values"][name]) > bound
                                for a, b in zip(*sets))
                    change = worse_by(metric, medians[0], medians[1])
                    row += f" {change:+.3f} | {flags}/{len(runs_of_set)} |"
                    ok &= change <= bound
                else:
                    row += " | |"
                ok &= spread <= bound
                print(row)
    print(f"\nverdict: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
