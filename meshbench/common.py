"""Shared plumbing: paths, the program's environment, process accounting,
operation bookkeeping, output digests and statistics."""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
from typing import Dict, Iterable, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".meshbench_tmp")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (e.g. the program is missing)."""


def require_program() -> None:
    """Fail unless the program's sources are present in the checkout."""
    for path in (os.path.join(SRC, "repro", "experiments", "__main__.py"),
                 os.path.join(SRC, "repro", "service", "__main__.py"),
                 SPEC_PATH):
        if not os.path.isfile(path):
            raise SetupError(f"missing {os.path.relpath(path, ROOT)}: run from a full checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def program_env() -> Dict[str, str]:
    """Environment for program subprocesses: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def make_tmp(tag: str) -> str:
    """A fresh scratch directory inside the checkout."""
    os.makedirs(TMP_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{tag}-", dir=TMP_ROOT)


def remove_tmp(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(TMP_ROOT)  # only succeeds when no other run uses it
    except OSError:
        pass


def seeded_rng(workload: str, seed: int, stream: str) -> random.Random:
    """Deterministic RNG for one input stream of one workload and seed."""
    return random.Random(f"meshbench:{workload}:{seed}:{stream}")


def children_cpu_s() -> float:
    """User+system CPU of every child process reaped so far (whole trees)."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def children_peak_rss_mb() -> float:
    """Largest resident set of any reaped descendant, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


_TICK = os.sysconf("SC_CLK_TCK")


def tree_cpu_s(root_pid: int) -> float:
    """User+system CPU of a live process tree, reaped children included."""
    stats = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                text = handle.read()
        except OSError:
            continue
        fields = text[text.rindex(")") + 2:].split()
        # fields[1] is ppid; stat fields 14-17 are utime, stime and the
        # cutime/cstime of children this process has already reaped.
        stats[int(entry)] = (int(fields[1]), sum(int(f) for f in fields[11:15]))
    children: Dict[int, List[int]] = {}
    for pid, (ppid, _) in stats.items():
        children.setdefault(ppid, []).append(pid)
    total, stack = 0, [root_pid]
    while stack:
        pid = stack.pop()
        if pid in stats:
            total += stats[pid][1]
        stack.extend(children.get(pid, ()))
    return total / _TICK


class Ledger:
    """Operations attempted/failed and named correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def op(self, ok: bool, what: str) -> bool:
        """Record one program operation (an invocation, a request)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"operation failed: {what}")
        return ok

    def check(self, ok: bool, what: str) -> bool:
        """Record one output check; a failed check makes the run incorrect."""
        if not ok:
            self.failures.append(f"check failed: {what}")
        return ok

    @property
    def correct(self) -> bool:
        return not self.failures


def _manifest_without_timing(path: str) -> bytes:
    with open(path) as handle:
        manifest = json.load(handle)
    manifest.pop("timing", None)
    return json.dumps(manifest, sort_keys=True, indent=2).encode()


def tree_files(out_dir: str) -> Dict[str, bytes]:
    """Every exported file's bytes by relative path, manifest minus timing."""
    files = {}
    for root, _dirs, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, out_dir)
            if rel == "manifest.json":
                files[rel] = _manifest_without_timing(path)
            else:
                with open(path, "rb") as handle:
                    files[rel] = handle.read()
    return files


def output_digest(out_dirs: Sequence[str]) -> str:
    """Digest of simulated outputs: sorted result.json bytes + manifests
    minus their wall-clock ``timing`` section."""
    digest = hashlib.sha256()
    for index, out_dir in enumerate(out_dirs):
        files = tree_files(out_dir)
        for rel in sorted(files):
            if rel == "manifest.json" or rel.endswith("result.json"):
                digest.update(f"{index}:{rel}\n".encode())
                digest.update(files[rel])
    return digest.hexdigest()


def bytes_digest(chunks: Iterable[bytes]) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(len(chunk).to_bytes(8, "big"))
        digest.update(chunk)
    return digest.hexdigest()


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quartiles(values: Sequence[float]):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        value = float(values[0]) if values else 0.0
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def host_facts(lane: Optional[str]) -> Dict[str, object]:
    import platform

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "lane": lane,
    }
