"""The traced runs: per-layer metrics from an instrumented in-process pass.

Each workload's fixed slice runs in this process on the runner's inline
``jobs=1`` lane, so the wrappers also see the layers that run in pool
workers at ``--jobs 2``. An untimed warm pass first pays the one-time
costs (lazy imports, first store open, page-in); then one untraced pass
is the reference for ``trace.overhead_frac``, and one pass runs with a
:class:`~meshbench.tracer.Tracer` installed. The wrappers are removed
before anything else runs. All passes must export identical bytes:
tracing may not change what the program computes.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from typing import Dict, List

from meshbench import checks, inputs
from meshbench.client import Client
from meshbench.common import Ledger, bytes_digest, make_tmp, median, output_digest, remove_tmp
from meshbench.layers import MOVES, instrument, layer_metrics
from meshbench.tracer import Tracer, leftover_wrappers
from meshbench.workloads import check_round, service_round

LANE = "in-process jobs=1 (the runner's inline lane)"


def _cli_pass(workload: str, studies: List[List[str]], tmp: str, ledger: Ledger,
              tracer: Tracer = None):
    """Fresh sweeps then cached re-issues, through the CLI's ``main``."""
    from repro.experiments.__main__ import main

    store = os.path.join(tmp, "store.sqlite")
    fresh = [os.path.join(tmp, f"fresh{i}") for i in range(len(studies))]
    argvs = [["sweep", "meshgen", *args, "--store", f"sqlite:{store}", "--out", out]
             for args, out in zip(studies, fresh)]
    argvs += [["sweep", "meshgen", *args, "--store", f"sqlite:{store}",
               "--out", os.path.join(tmp, f"cached{i}")] for i, args in enumerate(studies)]
    try:
        if tracer is not None:
            instrument(tracer)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            begin = time.perf_counter()
            codes = [main(argv) for argv in argvs]
            wall = time.perf_counter() - begin
    finally:
        if tracer is not None:
            tracer.uninstall()
    for code in codes:
        ledger.op(code == 0, f"{workload} in-process sweep exited {code}")
    for i, out in enumerate(fresh):
        checks.check_cli_export(ledger, out, inputs.CLI_RUNS[workload], f"{workload} traced")
        checks.check_same_outputs(ledger, out, os.path.join(tmp, f"cached{i}"),
                                  f"{workload} traced: cached export")
    return wall, output_digest(fresh)


def run_traced_cli(workload: str, seed: int, ledger: Ledger) -> Dict[str, object]:
    make = inputs.event_sweep_studies if workload == "event-sweep" else inputs.slotted_scale_studies
    studies = make(seed, jobs=1)
    if workload == "slotted-scale":
        studies = studies[:1]
    tmp = make_tmp(f"{workload}-traced")
    try:
        _, warm_digest = _cli_pass(workload, studies, os.path.join(tmp, "w"), ledger)
        untraced_wall, untraced_digest = _cli_pass(workload, studies, os.path.join(tmp, "u"),
                                                   ledger)
        tracer = Tracer()
        traced_wall, traced_digest = _cli_pass(workload, studies, os.path.join(tmp, "t"),
                                               ledger, tracer)
    finally:
        remove_tmp(tmp)
    ledger.check(warm_digest == untraced_digest == traced_digest,
                 f"{workload}: tracing leaves outputs identical")
    ledger.check(not leftover_wrappers(), f"{workload}: every wrapper removed after tracing")
    metrics = layer_metrics(tracer, traced_wall, untraced_wall, jobs=1,
                            extra={"service.queue_wait_s": 0.0})
    return {"metrics": metrics, "context": {"digest": traced_digest, "lane": LANE, "moves": MOVES,
                                            "untraced_wall_s": untraced_wall,
                                            "traced_wall_s": traced_wall}}


def _service_pass(seed: int, tmp: str, ledger: Ledger, tracer: Tracer = None):
    """Warm-up, then one traced round against an in-process service."""
    from repro.service.app import ServiceApp
    from repro.service.http import serve
    from repro.service.jobs import SweepService

    store = os.path.join(tmp, "store.sqlite")
    docs = inputs.service_studies(seed, inputs.SERVICE_ROUND)
    service = SweepService(f"sqlite:{store}", jobs=1).start()
    server = serve(ServiceApp(service), "127.0.0.1", 0, quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = Client(server.server_address[1])
        client.wait_ready()
        warm = client.study(inputs.service_warmup(seed))
        ledger.op(True, "warm-up study")
        check_round(client, ledger, [warm], [], "traced warm-up")
        try:
            if tracer is not None:
                instrument(tracer)
            begin = time.perf_counter()
            fresh, cached, _, _ = service_round(client, docs, ledger)
            wall = time.perf_counter() - begin
        finally:
            if tracer is not None:
                tracer.uninstall()
        check_round(client, ledger, fresh, cached, "traced")
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
        service.shutdown()
    compares = [outcome.compare_md for outcome in fresh]
    checks.service_store_checks(ledger, store, docs, compares, {}, "traced")
    return wall, compares, median([outcome.queue_wait_s for outcome in fresh])


def run_traced_service(seed: int, ledger: Ledger) -> Dict[str, object]:
    tmp = make_tmp("service-traced")
    try:
        for name in ("w", "u", "t"):
            os.makedirs(os.path.join(tmp, name))
        _, warm_md, _ = _service_pass(seed, os.path.join(tmp, "w"), ledger)
        untraced_wall, untraced_md, _ = _service_pass(seed, os.path.join(tmp, "u"), ledger)
        tracer = Tracer()
        traced_wall, traced_md, queue_wait = _service_pass(seed, os.path.join(tmp, "t"),
                                                           ledger, tracer)
    finally:
        remove_tmp(tmp)
    ledger.check(warm_md == untraced_md == traced_md,
                 "service: tracing leaves compare.md identical")
    ledger.check(not leftover_wrappers(), "service: every wrapper removed after tracing")
    metrics = layer_metrics(tracer, traced_wall, untraced_wall, jobs=1,
                            extra={"service.queue_wait_s": queue_wait})
    return {"metrics": metrics, "context": {"digest": bytes_digest(traced_md), "lane": LANE,
                                            "moves": MOVES,
                                            "untraced_wall_s": untraced_wall,
                                            "traced_wall_s": traced_wall}}
