"""Benchmark entry point.

    python3 meshbench/run.py --workload event-sweep --seed 1 --seconds 25 --trace 0

Builds the workload's inputs from ``--seed``, measures the program for
``--seconds`` seconds (``--trace 0``: end-to-end metrics, program run as
subprocesses) or runs the traced in-process slice (``--trace 1``:
per-layer metrics), checks the program's outputs and prints, as the last
line of standard output, ``{"correct", "attempted", "failed",
"metrics"}``. The line before it is a JSON context record: host facts,
the runner lane, sample counts and the output digest.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from meshbench.common import (  # noqa: E402
    SRC,
    Ledger,
    SetupError,
    host_facts,
    load_spec,
    require_program,
)

WORKLOADS = ("event-sweep", "slotted-scale", "service-studies")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> dict:
    """Measure one workload; returns the result record (and context)."""
    from meshbench import traced, workloads

    ledger = Ledger()
    if args.trace:
        if args.workload == "service-studies":
            outcome = traced.run_traced_service(args.seed, ledger)
        else:
            outcome = traced.run_traced_cli(args.workload, args.seed, ledger)
    elif args.workload == "service-studies":
        outcome = workloads.run_service(args.seed, args.seconds, ledger)
    else:
        outcome = workloads.run_cli(args.workload, args.seed, args.seconds, ledger)
    spec = load_spec()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    values = outcome["metrics"]
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        raise RuntimeError(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}")
    context = dict(outcome["context"])
    context.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   failures=ledger.failures,
                   host=host_facts(context.pop("lane", "subprocesses, --jobs 2")))
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    return {"context": context, "result": result}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        require_program()
    except SetupError as error:
        print(f"meshbench: {error}", file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(SRC, "repro"), quiet=1)
    record = run(args)
    print(json.dumps(record["context"], sort_keys=True))
    print(json.dumps(record["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
