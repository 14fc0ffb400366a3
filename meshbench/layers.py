"""Which program functions each layer metric wraps, and how it is derived.

:func:`instrument` patches a :class:`~meshbench.tracer.Tracer` into the
public functions at each layer boundary; :func:`layer_metrics` turns
the recorded spans and counts into the ``per_layer`` metrics of
``BENCHMARK.json``. :data:`MOVES` records, for every layer, the
end-to-end metric and workload it should move (printed with every
traced result).
"""

from __future__ import annotations

import importlib
import os
import pkgutil
from typing import Dict, Mapping

from meshbench.tracer import Tracer

#: Layer -> the end-to-end metrics (and workload) its metrics should move.
MOVES: Dict[str, str] = {
    "sim": "cpu_s, host_us_per_event, run_p50_s on event-sweep; no movement on slotted-scale",
    "phy": "transmit/cs_callbacks: cpu_s on event-sweep; connectivity/rx_power/distance: wall_s, run_p50_s on slotted-scale",
    "mac": "cpu_s on event-sweep",
    "core": "cpu_s on event-sweep (ezflow runs)",
    "topology": "wall_s, cpu_s on slotted-scale",
    "slotted": "runs_per_s on slotted-scale",
    "tiers": "runs_per_s on event-sweep and slotted-scale",
    "runner": "studies_per_s, study_p50_s on service-studies; runs_per_s on event-sweep",
    "store": "cached_studies_per_s on service-studies; wall_s on event-sweep",
    "export": "tail of wall_s on event-sweep and slotted-scale",
    "results": "study_p50_s on service-studies",
    "telemetry": "study_p50_s on service-studies",
    "service": "study_p50_s on service-studies",
}

#: Layers that own spans (``core`` is counted only), in report order.
SPAN_LAYERS = tuple(layer for layer in MOVES if layer != "core")


def import_program() -> None:
    """Import every ``repro`` module, so patches reach all bound names."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        importlib.import_module(info.name)


def _tree_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def instrument(tracer: Tracer) -> None:
    """Patch every layer boundary the per-layer metrics read."""
    import_program()
    from repro.core.boe import BufferOccupancyEstimator
    from repro.core.caa import ChannelAccessAdapter
    from repro.experiments import export
    from repro.experiments.runner import SweepRunner
    from repro.experiments.tiers import EventTier, SlottedTier
    from repro.mac.dcf import Dcf
    from repro.mac.queues import FifoQueue
    from repro.phy import connectivity, propagation
    from repro.phy.channel import Channel
    from repro.results.store import DirectoryStore, ResultStore, SqliteStore
    from repro.service.app import ServiceApp
    from repro.service.jobs import SweepService
    from repro.sim import slotted
    from repro.sim.engine import Engine
    from repro.telemetry.hub import TelemetryHub
    from repro.topology import meshgen

    compare_module = importlib.import_module("repro.results.compare")

    # sim: the event engine's dispatch loop; events = dispatched delta.
    tracer.span_on(
        Engine, "run", "sim.run",
        before=lambda args: args[0]._processed,
        after=lambda t, args, result, before: t.add("sim.events", args[0]._processed - before),
    )
    # phy
    tracer.span_on(Channel, "transmit", "phy.transmit")
    tracer.count_on(Dcf, "on_medium_busy", "phy.cs_callbacks")
    tracer.count_on(Dcf, "on_medium_idle", "phy.cs_callbacks")
    tracer.span_on(connectivity.GeometricConnectivity, "__init__", "phy.connectivity_build")
    tracer.count_on(connectivity.GeometricConnectivity, "rx_power", "phy.rx_power_calls")
    tracer.count_on(propagation.TwoRayGround, "received_power", "phy.rx_power_calls")
    tracer.count_on(propagation, "distance", "phy.distance_calls")
    # mac
    tracer.span_on(Dcf, "on_frame_received", "mac.rx")
    tracer.count_on(Dcf, "start_data_transmission", "mac.tx_attempts")
    tracer.count_on(Dcf, "notify_tx_success", "mac.tx_success")
    tracer.count_on(
        FifoQueue, "push", "mac.queue_pushes",
        after=lambda t, args, accepted: None if accepted else t.add("mac.queue_drops"),
    )
    # core: EZ-flow's BOE and CAA
    tracer.count_on(BufferOccupancyEstimator, "note_overheard", "core.boe_samples")
    tracer.count_on(
        ChannelAccessAdapter, "on_sample", "core.caa_samples",
        after=lambda t, args, decision: (
            t.add("core.cw_changes")
            if decision is not None and decision.new_cw != decision.old_cw
            else None
        ),
    )
    # topology
    tracer.span_on(
        meshgen, "generate_topology", "topology.generate",
        after=lambda t, args, topo, _: t.add("topology.connect_checks", topo.attempts),
    )
    tracer.count_on(meshgen, "is_connected", "topology.connect_checks")
    tracer.span_on(meshgen, "bfs_tree", "topology.bfs")
    # slotted tier
    tracer.span_on(slotted.SlottedMesh, "step", "slotted.step")
    tracer.span_on(slotted, "sample_transmitters", "slotted.sample")
    # tiers
    tracer.span_on(EventTier, "run_scenario", "tiers.event_run")
    tracer.span_on(SlottedTier, "run_scenario", "tiers.slotted_run")

    # runner: executed vs cached records, and the summed run wall time.
    def runner_after(t, args, records, _):
        for record in records:
            if record.cached:
                t.add("runner.runs_cached")
            else:
                t.add("runner.runs_executed")
                t.add("runner.run_wall_s", record.wall_s)

    tracer.span_on(SweepRunner, "run", "runner.run", after=runner_after)
    # store (both backends)
    tracer.span_on(SqliteStore, "put", "store.put")
    tracer.span_on(DirectoryStore, "put", "store.put")
    for cls in (SqliteStore, DirectoryStore):
        tracer.span_on(
            cls, "get", "store.get",
            after=lambda t, args, record, _: t.add("store.hits") if record is not None else None,
        )
    tracer.span_on(ResultStore, "finalize", "store.finalize")
    tracer.span_on(DirectoryStore, "finalize", "store.finalize")
    # export
    tracer.span_on(
        export, "export_records", "export.records",
        after=lambda t, args, result, _: t.add("export.bytes", _tree_bytes(args[1])),
    )
    # results
    tracer.span_on(compare_module, "compare", "results.compare")
    tracer.span_on(compare_module, "render_compare", "results.render_compare")
    # telemetry
    tracer.span_on(TelemetryHub, "emit", "telemetry.emit")
    # service
    tracer.span_on(ServiceApp, "__call__", "service.request")
    tracer.span_on(SweepService, "submit", "service.submit")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    traced_wall_s: float,
    untraced_wall_s: float,
    jobs: int,
    extra: Mapping[str, float] = (),
) -> Dict[str, float]:
    """The per-layer metric values of one traced pass."""
    spans = tracer.summary()
    counts = tracer.counts

    def total(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    def own(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return int(spans.get(name, {}).get("count", 0))

    frames = calls("phy.transmit")
    slots = calls("slotted.step")
    runs = counts["runner.runs_executed"] + counts["runner.runs_cached"]
    runner_s = total("runner.run")
    run_wall = counts["runner.run_wall_s"]
    gets = calls("store.get")
    telemetry_events = calls("telemetry.emit")
    values = {
        "sim.events": int(counts["sim.events"]),
        "sim.run_self_s": own("sim.run"),
        "phy.frames": frames,
        "phy.transmit_self_s": own("phy.transmit"),
        "phy.cs_callbacks": int(counts["phy.cs_callbacks"]),
        "phy.cs_callbacks_per_frame": _ratio(counts["phy.cs_callbacks"], frames),
        "phy.connectivity_build_s": total("phy.connectivity_build"),
        "phy.rx_power_calls": int(counts["phy.rx_power_calls"]),
        "phy.distance_calls": int(counts["phy.distance_calls"]),
        "mac.rx_self_s": own("mac.rx"),
        "mac.tx_attempts": int(counts["mac.tx_attempts"]),
        "mac.tx_success_ratio": _ratio(counts["mac.tx_success"], counts["mac.tx_attempts"]),
        "mac.queue_drops": int(counts["mac.queue_drops"]),
        "core.boe_samples": int(counts["core.boe_samples"]),
        "core.caa_samples": int(counts["core.caa_samples"]),
        "core.cw_changes": int(counts["core.cw_changes"]),
        "topology.generate_s": total("topology.generate"),
        "topology.connect_checks": int(counts["topology.connect_checks"]),
        "topology.bfs_s": total("topology.bfs"),
        "slotted.slots": slots,
        "slotted.step_self_s": own("slotted.step"),
        "slotted.sample_s": total("slotted.sample"),
        "slotted.us_per_slot": _ratio(total("slotted.step"), slots) * 1e6,
        "tiers.event_run_s": total("tiers.event_run"),
        "tiers.slotted_run_s": total("tiers.slotted_run"),
        "runner.runs_executed": int(counts["runner.runs_executed"]),
        "runner.runs_cached": int(counts["runner.runs_cached"]),
        "runner.busy_frac": _ratio(run_wall, jobs * runner_s),
        "runner.overhead_s": max(0.0, runner_s - run_wall),
        "store.puts": calls("store.put"),
        "store.put_s": total("store.put"),
        "store.gets": gets,
        "store.get_s": total("store.get"),
        "store.hit_ratio": _ratio(counts["store.hits"], gets),
        "store.finalize_s": total("store.finalize"),
        "export.records_s": total("export.records"),
        "export.bytes": int(counts["export.bytes"]),
        "results.compare_s": total("results.compare") + total("results.render_compare"),
        "telemetry.events": telemetry_events,
        "telemetry.events_per_run": _ratio(telemetry_events, runs),
        "telemetry.emit_s": total("telemetry.emit"),
        "service.requests": calls("service.request"),
        "service.request_s": total("service.request"),
        "service.submit_s": total("service.submit"),
    }
    values.update(extra)
    layer_self: Dict[str, float] = {layer: 0.0 for layer in SPAN_LAYERS}
    for name, entry in spans.items():
        layer = name.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += entry["self_s"]
    for layer, seconds in layer_self.items():
        values[f"share.{layer}"] = _ratio(seconds, traced_wall_s)
    values["trace.overhead_frac"] = _ratio(traced_wall_s, untraced_wall_s) - 1.0
    return values
