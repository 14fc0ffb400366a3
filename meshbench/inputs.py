"""The program inputs each workload generates from its seed.

Only these arguments, grids and study documents reach the program; the
same workload seed always yields the same inputs.
"""

from __future__ import annotations

from typing import Dict, List

from meshbench.common import seeded_rng

#: Link-state axis of event-sweep: the lossy half adds Gilbert-Elliott
#: loss plus a down/move/up churn schedule.
LOSSY = ("--set", "loss=ge:0.02:0.25",
         "--set", "churn=down:3@8+move:5@14:150:150+up:3@20")


def _seed(rng) -> int:
    return rng.randrange(1, 2**31 - 1)


def event_sweep_studies(seed: int, jobs: int = 2) -> List[List[str]]:
    """Two ``sweep meshgen`` argument lists: the static and lossy halves."""
    base = _seed(seeded_rng("event-sweep", seed, "base"))
    common = ["--set", "fidelity=event", "--set", "nodes=49", "--set", "density=2.0",
              "--set", "topology=mesh,grid,tree",
              "--set", "algorithm=none,ezflow,diffq,penalty",
              "--base-seed", str(base), "--jobs", str(jobs)]
    return [common, common + list(LOSSY)]


def slotted_scale_studies(seed: int, jobs: int = 2) -> List[List[str]]:
    """Two ``sweep meshgen`` argument lists of 2000-node slotted runs.

    Density 6.0 keeps meshgen's connectivity rejection loop at one
    placement per run: at 4.0, 2000-node placements took 1-3 attempts
    across seeds, which made per-run CPU vary 2-3x with the seed.
    """
    rng = seeded_rng("slotted-scale", seed, "base")
    studies = []
    for _ in range(2):
        studies.append(["--set", "fidelity=slotted", "--set", "topology=mesh",
                        "--set", "nodes=2000", "--set", "density=6.0",
                        "--set", "flows=64", "--set", "gateways=4",
                        "--set", "algorithm=none,ezflow", "--set", "duration_s=15",
                        "--base-seed", str(_seed(rng)), "--jobs", str(jobs)])
    return studies


#: Runs per study of each CLI workload (grid size).
CLI_RUNS = {"event-sweep": 12, "slotted-scale": 2}

#: Fresh studies per service round.
SERVICE_ROUND = 4


def service_study(study_seed: int) -> Dict[str, object]:
    """One small, distinct meshgen study document for the service."""
    return {
        "experiment": "meshgen",
        "grid": {"algorithm": ["none", "ezflow"]},
        "set": {"topology": "mesh", "nodes": 16, "duration_s": 10.0,
                "warmup_s": 2.0, "seed": study_seed},
    }


def service_studies(seed: int, count: int) -> List[Dict[str, object]]:
    """The first ``count`` distinct studies of the seed's sequence."""
    rng = seeded_rng("service-studies", seed, "studies")
    return [service_study(_seed(rng)) for _ in range(count)]


def service_warmup(seed: int) -> Dict[str, object]:
    """The untimed warm-up study (disjoint seed stream from the measured ones)."""
    return service_study(_seed(seeded_rng("service-studies", seed, "warmup")))


def sampled(seed: int, workload: str, items: List[str], k: int) -> List[str]:
    """``k`` items drawn from ``items`` by the workload seed."""
    rng = seeded_rng(workload, seed, "sample")
    return sorted(rng.sample(sorted(items), min(k, len(items))))
