"""Output checks that only test deterministic things.

Every check here runs after timing ends and compares bytes the program
produced with bytes rebuilt in this process from the same inputs. Wall
times (the manifest's ``timing`` section) and droppable telemetry
(``RunProgress``/``MetricSample``) are never compared.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, Iterable, List, Mapping

from meshbench.common import Ledger, tree_files

TERMINAL = ("RunFinished", "RunFailed")


def check_cli_export(ledger: Ledger, out_dir: str, expected_runs: int, what: str) -> None:
    """Run count as expected and no ``failures.json`` in an export tree."""
    manifest_path = os.path.join(out_dir, "manifest.json")
    if not ledger.check(os.path.isfile(manifest_path), f"{what}: manifest.json exported"):
        return
    with open(manifest_path) as handle:
        runs = json.load(handle)["runs"]
    ledger.check(len(runs) == expected_runs,
                 f"{what}: {len(runs)} run(s) exported, expected {expected_runs}")
    ledger.check(not os.path.exists(os.path.join(out_dir, "failures.json")),
                 f"{what}: no failures.json")


def check_same_outputs(ledger: Ledger, left: str, right: str, what: str) -> None:
    """Two export trees hold the same simulated outputs: every
    ``result.json`` and the manifest minus its ``timing`` section."""
    a, b = (
        {rel: data for rel, data in tree_files(path).items()
         if rel == "manifest.json" or rel.endswith("result.json")}
        for path in (left, right)
    )
    ledger.check(sorted(a) == sorted(b), f"{what}: same result files")
    differing = [rel for rel in a if rel in b and a[rel] != b[rel]]
    ledger.check(not differing, f"{what}: identical bytes (differ: {differing[:3]})")


def export_bytes(result) -> bytes:
    """The bytes ``export_json`` writes for one result."""
    from repro.experiments.export import export_json

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "result.json")
        export_json(result, path)
        with open(path, "rb") as handle:
            return handle.read()


def rerun_bytes(spec_id: str, kwargs: Mapping[str, object]) -> bytes:
    """``export_json`` bytes of an in-process run of one request."""
    from repro.experiments.specs import get_spec

    return export_bytes(get_spec(spec_id).run(**dict(kwargs)))


def check_reruns(ledger: Ledger, out_dir: str, run_ids: Iterable[str], what: str) -> None:
    """Exported ``result.json`` bytes equal an in-process re-run's."""
    with open(os.path.join(out_dir, "manifest.json")) as handle:
        by_id = {run["run_id"]: run for run in json.load(handle)["runs"]}
    for run_id in run_ids:
        run = by_id[run_id]
        with open(os.path.join(out_dir, run_id, "result.json"), "rb") as handle:
            exported = handle.read()
        ledger.check(rerun_bytes(run["experiment"], run["kwargs"]) == exported,
                     f"{what}: re-run of {run_id} matches result.json")


def check_sse_grammar(ledger: Ledger, run_ids: List[str],
                      events: List[Dict[str, object]], what: str) -> None:
    """Each run streamed exactly one RunStarted and one terminal event."""
    started: Dict[str, int] = {run_id: 0 for run_id in run_ids}
    ended: Dict[str, int] = {run_id: 0 for run_id in run_ids}
    for event in events:
        kind, run_id = event.get("kind"), event.get("run_id")
        if kind == "RunStarted":
            started[run_id] = started.get(run_id, 0) + 1
        elif kind in TERMINAL:
            ended[run_id] = ended.get(run_id, 0) + 1
    bad = [r for r in started if started[r] != 1 or ended.get(r) != 1]
    bad += [r for r in ended if r not in started]
    ledger.check(not bad, f"{what}: one RunStarted + one terminal event per run (bad: {bad[:3]})")


def service_store_checks(ledger: Ledger, store_path: str,
                         studies: List[Mapping[str, object]],
                         compare_bytes: List[bytes],
                         reruns: Dict[str, tuple], what: str):
    """Post-shutdown checks against one service session's store.

    ``compare.md`` bytes served over HTTP must equal ``render_compare``
    over the same study rebuilt from the store, and every stored result
    must equal an in-process re-run of its request. ``reruns`` caches
    those re-runs by run id as ``(events, export_json bytes)`` across
    sessions. Returns the per-run wall seconds and the simulated events
    of the studies' runs.
    """
    from repro.experiments.specs import get_spec
    from repro.results import ResultSet, compare, render_compare
    from repro.results.store import open_store, request_key
    from repro.service.jobs import build_study

    walls: List[float] = []
    events = 0
    with open_store(f"sqlite:{store_path}") as store:
        index = {entry["content_key"]: entry for entry in store.index()}
        for doc, served in zip(studies, compare_bytes):
            requests = build_study(doc).requests()
            records = [store.get(request) for request in requests]
            if not ledger.check(all(r is not None for r in records),
                                f"{what}: every run of a study is in the store"):
                continue
            rendered = render_compare(compare(ResultSet.from_records(records))) + "\n"
            ledger.check(rendered.encode() == served,
                         f"{what}: compare.md equals the store rebuild")
            for request, record in zip(requests, records):
                walls.append(index[request_key(request)]["wall_s"])
                if request.run_id not in reruns:
                    result = get_spec(request.spec_id).run(**request.kwargs_dict)
                    reruns[request.run_id] = (int(result.runtime["events"]), export_bytes(result))
                run_events, expected = reruns[request.run_id]
                events += run_events
                ledger.check(export_bytes(record.result) == expected,
                             f"{what}: re-run of {request.run_id} matches the stored result")
    return walls, events
