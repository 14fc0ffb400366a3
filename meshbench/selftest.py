"""The benchmark's own tests (not collected by the repository's suite).

    python -m pytest meshbench/selftest.py -q

Covers the tracer's self-time arithmetic, complete removal of the
wrappers after a traced run, a tiny-size smoke run of every workload
(untraced and traced) and the refusal to run without the program.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from meshbench import inputs, traced, workloads  # noqa: E402
from meshbench.common import ROOT, Ledger, load_spec, require_program  # noqa: E402
from meshbench.tracer import Tracer, leftover_wrappers, self_times  # noqa: E402

require_program()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)
    root = tracer.open("a")          # a: 0..10
    clock.now = 1.0
    child = tracer.open("b")         # b: 1..4, with grandchild c: 2..3
    clock.now = 2.0
    grandchild = tracer.open("c")
    clock.now = 3.0
    tracer.close(grandchild)
    clock.now = 4.0
    tracer.close(child)
    clock.now = 6.0
    last = tracer.open("b")          # b: 6..10 runs to the parent's end
    clock.now = 10.0
    tracer.close(last)
    tracer.close(root)
    summary = tracer.summary()
    assert summary["a"]["total_s"] == 10.0
    assert summary["a"]["self_s"] == 10.0 - 3.0 - 4.0
    assert summary["b"]["count"] == 2
    assert summary["b"]["total_s"] == 7.0
    assert summary["b"]["self_s"] == 7.0 - 1.0
    assert summary["c"]["self_s"] == 1.0


def test_overlapping_and_overhanging_children_count_once():
    spans = [
        ["p", -1, 0.0, 10.0],
        ["x", 0, 2.0, 6.0],
        ["y", 0, 4.0, 8.0],     # overlaps x: covered 2..8 once
        ["z", 0, 9.0, 12.0],    # ends after the parent: clipped to 9..10
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_wrappers_are_fully_removed():
    from meshbench.layers import instrument
    from repro.mac.dcf import Dcf
    from repro.phy import propagation
    from repro.topology import meshgen

    before = (Dcf.__dict__["on_medium_busy"], propagation.distance,
              meshgen.distance, meshgen.generate_topology)
    tracer = Tracer()
    instrument(tracer)
    try:
        assert leftover_wrappers()
        assert meshgen.distance is not before[2]
    finally:
        tracer.uninstall()
    assert leftover_wrappers() == []
    after = (Dcf.__dict__["on_medium_busy"], propagation.distance,
             meshgen.distance, meshgen.generate_topology)
    assert all(a is b for a, b in zip(before, after))


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload's inputs to seconds of work."""
    def event(seed, jobs=2):
        common = ["--set", "fidelity=event", "--set", "nodes=9", "--set", "topology=grid",
                  "--set", "algorithm=none,ezflow", "--set", "duration_s=4",
                  "--set", "warmup_s=1", "--base-seed", str(seed), "--jobs", str(jobs)]
        return [common, common + ["--set", "loss=ge:0.02:0.25"]]

    def slotted(seed, jobs=2):
        return [["--set", "fidelity=slotted", "--set", "topology=mesh", "--set", "nodes=50",
                 "--set", "density=4.0", "--set", "flows=4", "--set", "algorithm=none,ezflow",
                 "--set", "duration_s=4", "--set", "warmup_s=1",
                 "--base-seed", str(seed + i), "--jobs", str(jobs)] for i in range(2)]

    def service(study_seed):
        return {"experiment": "meshgen", "grid": {"algorithm": ["none", "ezflow"]},
                "set": {"topology": "grid", "nodes": 9, "duration_s": 3.0,
                        "warmup_s": 1.0, "seed": study_seed}}

    monkeypatch.setattr(inputs, "event_sweep_studies", event)
    monkeypatch.setattr(inputs, "slotted_scale_studies", slotted)
    monkeypatch.setattr(inputs, "service_study", service)
    monkeypatch.setattr(inputs, "CLI_RUNS", {"event-sweep": 2, "slotted-scale": 2})
    monkeypatch.setattr(workloads, "SERVICE_SESSIONS", 2)


def _assert_complete(outcome, ledger, kind):
    assert ledger.correct, ledger.failures
    assert ledger.attempted > 0 and ledger.failed == 0
    names = {m["name"] for m in load_spec()[kind]}
    assert set(outcome["metrics"]) == names
    if kind == "end_to_end":
        assert all(value > 0 for value in outcome["metrics"].values()), outcome["metrics"]


@pytest.mark.parametrize("workload", ["event-sweep", "slotted-scale", "service-studies"])
def test_tiny_smoke_run(tiny, workload):
    ledger = Ledger()
    if workload == "service-studies":
        outcome = workloads.run_service(seed=3, seconds=0.1, ledger=ledger)
    else:
        outcome = workloads.run_cli(workload, seed=3, seconds=0.1, ledger=ledger)
    _assert_complete(outcome, ledger, "end_to_end")

    ledger = Ledger()
    if workload == "service-studies":
        outcome = traced.run_traced_service(seed=3, ledger=ledger)
    else:
        outcome = traced.run_traced_cli(workload, seed=3, ledger=ledger)
    _assert_complete(outcome, ledger, "per_layer")
    assert leftover_wrappers() == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "meshbench"), tmp_path / "meshbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "meshbench/run.py", "--workload", "event-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
