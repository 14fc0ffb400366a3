"""The untraced workloads: the real entry points, run as subprocesses.

``event-sweep`` and ``slotted-scale`` launch ``python -m
repro.experiments sweep meshgen`` at ``--jobs 2``; ``service-studies``
launches ``python -m repro.service --jobs 2`` and drives it with one
closed-loop client. Each workload repeats identical *rounds* until the
measuring time is used up and reports medians over them.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List

from meshbench import checks, inputs
from meshbench.client import Client, ServiceError
from meshbench.common import (
    ROOT,
    Ledger,
    bytes_digest,
    children_cpu_s,
    children_peak_rss_mb,
    make_tmp,
    median,
    output_digest,
    program_env,
    remove_tmp,
    tree_cpu_s,
)

#: Times each CLI study is re-issued per round against the round's store.
CACHED_REISSUES = 2

#: Seconds a single program invocation may take before it counts as hung.
INVOCATION_TIMEOUT_S = 150.0


def keep_going(begin: float, seconds: float, round_walls: List[float]) -> bool:
    """Start another round only if it should end within the measuring time."""
    if not round_walls:
        return True
    return time.perf_counter() - begin + median(round_walls) <= seconds


def cli_sweep(args: List[str], store: str, out: str) -> Dict[str, object]:
    """One ``sweep meshgen`` invocation; times setup (launch to banner),
    wall (launch to exit) and the CPU of its whole process tree."""
    cpu0 = children_cpu_s()
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments", "sweep", "meshgen", *args,
         "--store", f"sqlite:{store}", "--out", out],
        cwd=ROOT, env=program_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    banner_at = None
    lines = []
    watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        for raw in iter(proc.stderr.readline, b""):
            line = raw.decode(errors="replace")
            if banner_at is None and line.startswith("sweep meshgen:"):
                banner_at = time.perf_counter()
            lines.append(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
    ended = time.perf_counter()
    return {
        "code": code,
        "setup_s": (banner_at or ended) - started,
        "wall_s": ended - started,
        "cpu_s": children_cpu_s() - cpu0,
        "stderr": "".join(lines),
    }


def _banner_runs(stderr: str) -> int:
    for line in stderr.splitlines():
        if line.startswith("sweep meshgen:"):
            return int(line.split(":")[1].split()[0])
    return -1


def _manifest_timing(out: str):
    with open(os.path.join(out, "manifest.json")) as handle:
        timing = json.load(handle)["timing"]
    walls = [run["wall_s"] for run in timing["runs"].values()]
    return walls, int(timing["total_events"])


def run_cli(workload: str, seed: int, seconds: float, ledger: Ledger) -> Dict[str, object]:
    studies = (inputs.event_sweep_studies if workload == "event-sweep"
               else inputs.slotted_scale_studies)(seed)
    per_study = inputs.CLI_RUNS[workload]
    tmp = make_tmp(workload)
    try:
        # Untimed warm-up: byte-compiles and pages in the program and the
        # worker-pool start path, so the first timed round is not special.
        warm = cli_sweep(["--set", "nodes=9", "--set", "topology=grid",
                          "--set", "algorithm=none,ezflow", "--set", "duration_s=3",
                          "--set", "warmup_s=1", "--jobs", "2"],
                         os.path.join(tmp, "warm.sqlite"), os.path.join(tmp, "warm"))
        ledger.op(warm["code"] == 0, f"warm-up sweep exited {warm['code']}")

        setups, study_walls, run_walls, cached_walls = [], [], [], []
        rounds: List[Dict[str, float]] = []
        digests: List[str] = []
        first_outs: List[str] = []
        begin = time.perf_counter()
        while keep_going(begin, seconds, [r["span_s"] for r in rounds]):
            index = len(rounds)
            round_begin = time.perf_counter()
            base = os.path.join(tmp, f"round{index}")
            store = base + ".sqlite"
            fresh_outs = [f"{base}-fresh{i}" for i in range(len(studies))]
            round_stats = {"wall_s": 0.0, "cpu_s": 0.0, "runs": 0, "work_s": 0.0, "events": 0}
            for args, out in zip(studies, fresh_outs):
                result = cli_sweep(args, store, out)
                ok = ledger.op(result["code"] == 0, f"{workload} sweep exited {result['code']}")
                ledger.check(_banner_runs(result["stderr"]) == per_study,
                             f"{workload}: banner announces {per_study} run(s)")
                setups.append(result["setup_s"])
                study_walls.append(result["wall_s"])
                round_stats["wall_s"] += result["wall_s"]
                round_stats["cpu_s"] += result["cpu_s"]
                round_stats["work_s"] += result["wall_s"] - result["setup_s"]
                if ok:
                    checks.check_cli_export(ledger, out, per_study, f"{workload} round {index}")
                    walls, events = _manifest_timing(out)
                    run_walls.extend(walls)
                    round_stats["runs"] += len(walls)
                    round_stats["events"] += events
            # Re-issue every study against the round's store: all cache hits.
            # A re-issue is short, so each one is timed CACHED_REISSUES times.
            for i, args in [(i, a) for _ in range(CACHED_REISSUES) for i, a in enumerate(studies)]:
                out = f"{base}-cached{i}"
                result = cli_sweep(args, store, out)
                ledger.op(result["code"] == 0, f"{workload} cached sweep exited {result['code']}")
                ledger.check(f"{per_study} cache hit(s), 0 executed" in result["stderr"],
                             f"{workload}: re-issued sweep is served from the store")
                setups.append(result["setup_s"])
                cached_walls.append(result["wall_s"])
                if result["code"] == 0:
                    checks.check_same_outputs(ledger, fresh_outs[i], out,
                                              f"{workload} round {index}: cached export")
                shutil.rmtree(out, ignore_errors=True)
            digests.append(output_digest(fresh_outs))
            round_stats["span_s"] = time.perf_counter() - round_begin
            rounds.append(round_stats)
            if index == 0:
                first_outs = fresh_outs
            else:
                for out in fresh_outs:
                    shutil.rmtree(out, ignore_errors=True)
        peak_rss = children_peak_rss_mb()

        # Checks after timing ends.
        ledger.check(len(set(digests)) == 1, f"{workload}: every round's outputs are identical")
        exported = {}
        for out in first_outs:
            if os.path.exists(os.path.join(out, "manifest.json")):
                with open(os.path.join(out, "manifest.json")) as handle:
                    exported.update((run["run_id"], out) for run in json.load(handle)["runs"])
        k = 3 if workload == "event-sweep" else 1
        for run_id in inputs.sampled(seed, workload, list(exported), k):
            checks.check_reruns(ledger, exported[run_id], [run_id], workload)
        metrics = {
            "setup_s": median(setups),
            "wall_s": median([r["wall_s"] for r in rounds]),
            "cpu_s": median([r["cpu_s"] for r in rounds]),
            "peak_rss_mb": peak_rss,
            "runs_per_s": median([r["runs"] / r["work_s"] for r in rounds if r["work_s"] > 0]),
            "run_p50_s": median(run_walls),
            "host_us_per_event": median([r["cpu_s"] / r["events"] * 1e6
                                         for r in rounds if r["events"]]),
            "study_p50_s": median(study_walls),
            "studies_per_s": median([len(studies) / r["wall_s"] for r in rounds]),
            "cached_studies_per_s": 1.0 / median(cached_walls),
        }
        context = {"digest": digests[0], "rounds": len(rounds),
                   "samples": {"setup_s": len(setups), "study_s": len(study_walls),
                               "run_s": len(run_walls), "cached": len(cached_walls)},
                   "round_wall_s": [r["wall_s"] for r in rounds],
                   "round_cpu_s": [r["cpu_s"] for r in rounds]}
        return {"metrics": metrics, "context": context}
    finally:
        remove_tmp(tmp)


# -- service-studies ---------------------------------------------------

#: Server sessions per run (each one a fresh store, port and pool), so
#: ``setup_s`` is a median of several set-ups.
SERVICE_SESSIONS = 5

#: Times each service study is resubmitted per round. A resubmission takes
#: a few milliseconds and its latency swings with the host's scheduling, so
#: many are timed and ``cached_studies_per_s`` is taken from their median.
SERVICE_REISSUES = 5


def _start_service(store: str, log_path: str):
    log = open(log_path, "wb")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--store", f"sqlite:{store}",
         "--port", "0", "--jobs", "2", "--quiet"],
        cwd=ROOT, env=program_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=log,
    )
    log.close()
    banner = proc.stdout.readline().decode()
    if "http://" not in banner:
        proc.kill()
        proc.wait()
        raise ServiceError(f"service did not start: {banner!r}")
    port = int(banner.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
    return proc, port


def _stop_service(proc) -> int:
    proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout=INVOCATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        code = proc.wait()
    proc.stdout.close()
    return code


def service_round(client: Client, docs, ledger: Ledger, cpu_of=None):
    """One round: every study fresh, then every study resubmitted
    ``SERVICE_REISSUES`` times."""
    fresh, cached = [], []
    cpu0 = cpu_of() if cpu_of else 0.0
    begin = time.perf_counter()
    for doc in docs:
        try:
            fresh.append(client.study(doc))
            ledger.op(True, "study")
        except (OSError, ServiceError) as error:
            ledger.op(False, f"study: {error}")
    fresh_wall = time.perf_counter() - begin
    cpu = (cpu_of() if cpu_of else 0.0) - cpu0
    for doc in [doc for _ in range(SERVICE_REISSUES) for doc in docs]:
        try:
            cached.append(client.study(doc))
            ledger.op(True, "resubmission")
        except (OSError, ServiceError) as error:
            ledger.op(False, f"resubmission: {error}")
    return fresh, cached, fresh_wall, cpu


def check_round(client: Client, ledger: Ledger, fresh, cached, what: str) -> None:
    """Job states, executed counts and SSE grammar of one round (untimed)."""
    for outcome, resubmitted in [(o, False) for o in fresh] + [(o, True) for o in cached]:
        job = client.job(outcome.job_id)
        ledger.check(job["state"] == "done" and job["exit_code"] == 0,
                     f"{what}: {outcome.job_id} done with exit 0")
        expected = 0 if resubmitted else len(outcome.run_ids)
        ledger.check(job["executed"] == expected,
                     f"{what}: {outcome.job_id} executed {job['executed']}, expected {expected}")
        checks.check_sse_grammar(ledger, outcome.run_ids, outcome.events,
                                 f"{what} {outcome.job_id}")
    for i, b in enumerate(cached if fresh else []):
        ledger.check(fresh[i % len(fresh)].compare_md == b.compare_md,
                     f"{what}: resubmission serves the same compare.md")


def run_service(seed: int, seconds: float, ledger: Ledger) -> Dict[str, object]:
    tmp = make_tmp("service-studies")
    session_budget = seconds / SERVICE_SESSIONS
    setups, study_lat, cached_lat = [], [], []
    rounds: List[Dict[str, float]] = []
    sessions = []
    try:
        for session in range(SERVICE_SESSIONS):
            store = os.path.join(tmp, f"session{session}.sqlite")
            started = time.perf_counter()
            proc, port = _start_service(store, os.path.join(tmp, f"session{session}.log"))
            docs_all, compares = [], []
            try:
                client = Client(port)
                client.wait_ready()
                warm = client.study(inputs.service_warmup(seed))
                setups.append(time.perf_counter() - started)
                ledger.op(True, "warm-up study")
                check_round(client, ledger, [warm], [], "warm-up")
                begin = time.perf_counter()
                spans: List[float] = []
                while keep_going(begin, session_budget, spans):
                    round_begin = time.perf_counter()
                    offset = len(docs_all)
                    docs = inputs.service_studies(seed, offset + inputs.SERVICE_ROUND)[offset:]
                    fresh, cached, fresh_wall, cpu = service_round(
                        client, docs, ledger, lambda: tree_cpu_s(proc.pid))
                    rounds.append({"wall_s": fresh_wall, "cpu_s": cpu,
                                   "studies": len(fresh),
                                   "runs": sum(len(o.run_ids) for o in fresh)})
                    study_lat.extend(o.latency_s for o in fresh)
                    cached_lat.extend(o.latency_s for o in cached)
                    docs_all.extend(docs)
                    compares.extend(o.compare_md for o in fresh)
                    check_round(client, ledger, fresh, cached, f"session {session}")
                    spans.append(time.perf_counter() - round_begin)
            finally:
                code = _stop_service(proc)
            ledger.op(code == 0, f"service exited {code}")
            sessions.append((store, docs_all, compares))
        peak_rss = children_peak_rss_mb()

        # Checks after timing ends, against each session's store.
        run_walls, events, digests, reruns = [], 0, [], {}
        for session, (store, docs_all, compares) in enumerate(sessions):
            walls, session_events = checks.service_store_checks(
                ledger, store, docs_all, compares, reruns, f"session {session}")
            run_walls.extend(walls)
            events += session_events
            digests.append(bytes_digest(compares[:inputs.SERVICE_ROUND]))
        ledger.check(len(set(digests)) == 1, "service: every session's first round is identical")
        metrics = {
            "setup_s": median(setups),
            "wall_s": median([r["wall_s"] for r in rounds]),
            "cpu_s": median([r["cpu_s"] for r in rounds]),
            "peak_rss_mb": peak_rss,
            "runs_per_s": median([r["runs"] / r["wall_s"] for r in rounds]),
            "run_p50_s": median(run_walls),
            "host_us_per_event": sum(r["cpu_s"] for r in rounds) / events * 1e6 if events else 0.0,
            "study_p50_s": median(study_lat),
            "studies_per_s": median([r["studies"] / r["wall_s"] for r in rounds]),
            "cached_studies_per_s": 1.0 / median(cached_lat),
        }
        context = {"digest": digests[0], "rounds": len(rounds),
                   "samples": {"setup_s": len(setups), "study_s": len(study_lat),
                               "run_s": len(run_walls),
                               "cached": len(cached_lat)},
                   "round_wall_s": [r["wall_s"] for r in rounds],
                   "round_cpu_s": [r["cpu_s"] for r in rounds]}
        return {"metrics": metrics, "context": context}
    finally:
        remove_tmp(tmp)
