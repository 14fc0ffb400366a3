"""End-to-end and per-layer benchmark of the EZ-flow reproduction.

Run ``python3 meshbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``meshbench/README.md``.
"""
