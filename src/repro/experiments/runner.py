"""Fault-tolerant parallel scenario-sweep runner.

``SweepRunner`` executes :class:`RunRequest` batches — single paper
experiments, the whole catalogue, or cartesian parameter grids — either
inline or fanned out over worker processes. Results come back in request
order regardless of worker count, and every run's seed is derived from
the request alone, so a parallel sweep is byte-identical to the same
sweep run serially (``tests/test_runner.py`` locks this in).

Execution is supervised: a worker raising, hanging past ``run_timeout``,
or dying outright (segfault, OOM kill, ``os._exit``) is detected,
attributed to the run that caused it, and handled per the
:class:`ErrorPolicy` — abort the batch (``fail``, the default), record a
typed :class:`RunFailure` and keep going (``continue``), or retry with
capped exponential backoff first (``retry:N``). A run that crashes its
worker while others share the pool is re-run alone in a one-worker
quarantine lane so the poison run is identified exactly and innocent
runs are never charged for its crash.

Design rules that keep the determinism guarantee cheap:

* a request is a pure function of (spec id, kwargs): workers share no
  state and records are always *released* in request order, whatever
  order completions arrive in;
* inline and pooled execution catch errors at the same stack depth
  (:func:`_attempt`), so recorded failure tracebacks are byte-identical
  at any ``--jobs`` count;
* exported artefacts never contain wall-clock times or timestamps —
  timing is reported on stdout only;
* worker processes re-resolve the entry point from the spec's
  ``module:function`` string, so requests pickle trivially under both
  fork and spawn start methods.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import time
import traceback as traceback_module
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import BrokenExecutor, CancelledError
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.common import ExperimentResult
from repro.experiments.faults import FaultAction, FaultPlan
from repro.experiments.specs import ScenarioSpec, get_spec
from repro.telemetry.channel import WorkerPublisher, drain_channel
from repro.telemetry.events import RunFailed, RunFinished, RunStarted
from repro.telemetry.hub import RunEventGate
from repro.telemetry.probe import ProbeSession, activate_probe


@dataclass(frozen=True)
class RunRequest:
    """One unit of work: a scenario plus its (validated) kwargs.

    ``run_id`` names the run everywhere — progress lines, export
    directories, manifest entries. It must be unique within a batch and
    filesystem-safe; :func:`request_for` builds canonical ones.
    """

    spec_id: str
    kwargs: Tuple[Tuple[str, object], ...]  # sorted items, hashable/picklable
    run_id: str

    @property
    def kwargs_dict(self) -> Dict[str, object]:
        return dict(self.kwargs)


#: Schema tag of the failure wire form (:meth:`RunFailure.to_json_dict`).
RUN_FAILURE_SCHEMA = "repro.results/failure/1"


@dataclass
class RunFailure:
    """One run's typed failure record.

    ``kind`` classifies the failure mode: ``exception`` (the run
    raised), ``timeout`` (it exceeded the per-run timeout and its worker
    was killed), or ``worker-crash`` (the worker process died under it —
    segfault, OOM kill, ``os._exit``). ``attempts`` counts executions
    including retries. ``wall_s`` is in-memory bookkeeping only;
    :meth:`to_dict` (the exported/stored form) omits it so failure
    records stay deterministic at any ``--jobs`` count.
    """

    run_id: str
    spec_id: str
    kwargs: Dict[str, object] = field(default_factory=dict)
    kind: str = "exception"
    error: str = ""
    message: str = ""
    traceback: Optional[str] = None
    attempts: int = 1
    wall_s: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        """The deterministic (timestamp- and timing-free) export form."""
        return {
            "run_id": self.run_id,
            "spec_id": self.spec_id,
            "kwargs": self.kwargs,
            "kind": self.kind,
            "error": self.error,
            "message": self.message,
            "traceback": self.traceback,
            "attempts": self.attempts,
        }

    def to_json_dict(self) -> Dict[str, object]:
        """The schema-versioned wire form (HTTP responses).

        The body is exactly :meth:`to_dict` — the same dict
        ``failures.json`` exports — wrapped with a ``schema`` tag at the
        envelope so clients can detect layout changes; export bytes
        carry no tag and stay unchanged.
        """
        return {"schema": RUN_FAILURE_SCHEMA, **self.to_dict()}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunFailure":
        return cls(
            run_id=data["run_id"],
            spec_id=data["spec_id"],
            kwargs=dict(data.get("kwargs", {})),
            kind=data.get("kind", "exception"),
            error=data.get("error", ""),
            message=data.get("message", ""),
            traceback=data.get("traceback"),
            attempts=int(data.get("attempts", 1)),
            wall_s=float(data.get("wall_s", 0.0)),
        )


@dataclass
class RunRecord:
    """The outcome of one request.

    ``cached`` is True when the record came out of a
    :class:`~repro.results.store.ResultStore` instead of being executed
    (a checkpoint/dedupe hit); ``wall_s`` then reports the originally
    measured wall seconds. Under ``--on-error continue`` a failed run
    yields a record with ``failure`` set and ``result`` None.
    """

    request: RunRequest
    result: Optional[ExperimentResult]
    wall_s: float
    cached: bool = False
    failure: Optional[RunFailure] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass(frozen=True)
class ErrorPolicy:
    """What :meth:`SweepRunner.run` does when a run fails.

    ``fail`` aborts the batch on the first failure (the error propagates
    as itself — the historical behaviour and still the default).
    ``continue`` records a :class:`RunFailure` and keeps going.
    ``retries`` re-executes a failed run up to N extra times, sleeping
    ``min(backoff_cap_s, backoff_base_s * 2**(attempt-1))`` between
    attempts, before the mode applies; :meth:`parse` spells this
    ``retry:N`` (retry, then record and continue).
    """

    mode: str = "fail"
    retries: int = 0
    backoff_base_s: float = 0.1
    backoff_cap_s: float = 2.0

    def __post_init__(self):
        if self.mode not in ("fail", "continue"):
            raise ValueError(f"error policy mode {self.mode!r}: expected "
                             f"'fail' or 'continue'")
        if self.retries < 0:
            raise ValueError("error policy retries must be >= 0")

    @classmethod
    def parse(cls, spec: str) -> "ErrorPolicy":
        """Parse the CLI spelling: ``fail`` | ``continue`` | ``retry:N``."""
        text = (spec or "").strip()
        if text == "fail":
            return cls("fail")
        if text == "continue":
            return cls("continue")
        if text.startswith("retry:"):
            try:
                retries = int(text[len("retry:"):])
            except ValueError:
                retries = 0
            if retries < 1:
                raise ValueError(
                    f"error policy {spec!r}: retry:N needs a positive N"
                )
            return cls("continue", retries=retries)
        raise ValueError(
            f"error policy {spec!r}: expected 'fail', 'continue' or 'retry:N'"
        )

    def backoff_s(self, attempt: int) -> float:
        """Sleep before re-executing after the ``attempt``-th failure."""
        return min(self.backoff_cap_s, self.backoff_base_s * (2 ** (attempt - 1)))


class RunTimeoutError(RuntimeError):
    """A run exceeded the per-run timeout and its worker was killed."""


class WorkerCrashError(RuntimeError):
    """A worker process died (segfault, OOM kill, ``os._exit``)."""


class WorkerRunError(RuntimeError):
    """A worker's exception could not be pickled back; carries its text."""


def _slug(value: object) -> str:
    """Filesystem-safe rendering of one kwarg value."""
    if isinstance(value, (tuple, list)):
        return "+".join(_slug(v) for v in value)
    return str(value).replace("/", "_").replace(" ", "")


def make_run_id(spec_id: str, kwargs: Mapping[str, object]) -> str:
    """Canonical run id: the spec id plus sorted ``key=value`` parts."""
    parts = [spec_id]
    for key in sorted(kwargs):
        parts.append(f"{key}={_slug(kwargs[key])}")
    return "~".join(parts)


def request_for(
    spec_id: str,
    kwargs: Optional[Mapping[str, object]] = None,
    run_id: Optional[str] = None,
) -> RunRequest:
    """Build a validated request for one scenario run."""
    spec = get_spec(spec_id)
    validated = spec.validate(kwargs or {})
    items = tuple(sorted(validated.items()))
    return RunRequest(
        spec_id=spec.id,
        kwargs=items,
        run_id=run_id or (spec.id if not items else make_run_id(spec.id, validated)),
    )


def expand_grid(grid: Mapping[str, Sequence[object]]) -> List[Dict[str, object]]:
    """Cartesian product of a parameter grid, in deterministic order.

    Keys are iterated sorted; values in the order given. ``{}`` yields
    one empty point (the scenario's defaults).
    """
    keys = sorted(grid)
    combos = itertools.product(*(tuple(grid[k]) for k in keys))
    return [dict(zip(keys, combo)) for combo in combos]


def _grid_requests(
    spec_id: str,
    grid: Mapping[str, Sequence[object]],
    base_seed: Optional[int] = None,
    replicates: int = 1,
) -> List[RunRequest]:
    """Requests for every grid point (× replicates) of one scenario.

    With ``base_seed`` set, each run gets ``seed`` derived from
    (base_seed, spec id, run index) via :meth:`ScenarioSpec.derive_seed`;
    a ``seed`` axis in the grid itself wins over derivation. Without
    ``base_seed`` and without a seed axis, every replicate runs the
    scenario's default seed (replicates > 1 then only make sense for
    timing, so ``replicates`` requires one of the two).

    Internal: :class:`repro.results.Study` is the public way to build
    grid sweeps.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    spec = get_spec(spec_id)
    if replicates > 1 and base_seed is None and "seed" not in grid:
        raise ValueError("replicates > 1 needs base_seed or a seed axis")
    requests: List[RunRequest] = []
    index = 0
    for point in expand_grid(grid):
        for replicate in range(replicates):
            kwargs = dict(point)
            derived = base_seed is not None and "seed" not in point
            if derived:
                kwargs["seed"] = spec.derive_seed(base_seed, index)
            run_id = make_run_id(spec.id, kwargs)
            # Without a derived per-index seed, replicates of a point
            # share identical kwargs; the suffix keeps run ids unique.
            if replicates > 1 and not derived:
                run_id = f"{run_id}~r{replicate}"
            requests.append(request_for(spec.id, kwargs, run_id=run_id))
            index += 1
    return requests


def catalogue_requests(
    spec_ids: Iterable[str],
    overrides: Optional[Mapping[str, object]] = None,
    strict: bool = True,
) -> Tuple[List[RunRequest], List[str]]:
    """Requests for a list of scenario ids with shared kwarg overrides.

    Aliases collapse onto their primary spec (each harness runs once).
    In ``strict`` mode an override a scenario does not declare raises
    :class:`~repro.experiments.specs.UnknownParameterError`; otherwise it
    is skipped for that scenario and reported in the returned warning
    list (the ``all`` behaviour: ``--duration`` applies where it means
    something).
    """
    overrides = dict(overrides or {})
    requests: List[RunRequest] = []
    warnings: List[str] = []
    seen = set()
    for spec_id in spec_ids:
        spec = get_spec(spec_id)
        if spec.id in seen:
            continue
        seen.add(spec.id)
        kwargs = {}
        for key, value in overrides.items():
            if any(p.name == key for p in spec.params):
                kwargs[key] = value
            elif strict:
                spec.param(key)  # raises UnknownParameterError
            else:
                warnings.append(f"{spec.id}: ignoring undeclared option {key!r}")
        requests.append(request_for(spec.id, kwargs, run_id=spec.id))
    return requests, warnings


def execute_request(request: RunRequest) -> RunRecord:
    """Run one request in this process (no supervision, errors propagate)."""
    spec = get_spec(request.spec_id)
    started = time.perf_counter()
    result = spec.run(**request.kwargs_dict)
    return RunRecord(request, result, time.perf_counter() - started)


#: Pool-worker telemetry channel, installed by the executor initializer.
_WORKER_CHANNEL = None


def _worker_channel_init(channel) -> None:
    """Executor ``initializer``: remember the worker→parent channel."""
    global _WORKER_CHANNEL
    _WORKER_CHANNEL = channel


@dataclass(frozen=True)
class _TelemetryTask:
    """The picklable telemetry slice of a task tuple (probe config)."""

    sample_interval_s: float = 1.0


class _InlinePublisher:
    """Publisher shim for inline attempts: emit straight to the sink."""

    __slots__ = ("emit",)

    def __init__(self, emit):
        self.emit = emit

    def take_residual(self):
        return ()


def _attempt(
    task: Tuple[RunRequest, Optional[FaultAction], int, Optional[_TelemetryTask]],
    publisher=None,
):
    """One supervised run attempt, inline or inside a pool worker.

    Returns a plain payload tuple instead of raising, catching at one
    fixed stack depth whichever lane runs it — which is what makes
    recorded failure tracebacks byte-identical at any ``--jobs`` count:

    * ``("ok", result, wall_s, residual)`` on success;
    * ``("error", class_name, message, traceback_text, exc, wall_s,
      residual)`` when the run raised. ``exc`` is the exception object
      itself, so the ``fail`` policy can re-raise it with its genuine
      traceback (:func:`_pooled_attempt` swaps in a pickle of it).

    ``residual`` (always the last element) is the tail of the run's
    telemetry stream that was still buffered at run end: carrying it in
    the payload — which travels on the executor's result queue — means
    it can never lose the race against the run being settled, which
    events still in flight on the side channel can.

    ``publisher`` (given when the task carries a telemetry slice)
    activates the run's telemetry probe: ``RunStarted`` is published on
    the first attempt and a :class:`ProbeSession` is installed for the
    spec's duration (terminal events are the *supervisor's* to emit —
    only it knows when a run is finally settled).
    """
    request, action, attempt, telem = task
    previous = None
    if publisher is not None:
        if attempt == 1:
            publisher.emit(
                RunStarted(run_id=request.run_id, spec_id=request.spec_id)
            )
        previous = activate_probe(
            ProbeSession(publisher.emit, request.run_id, telem.sample_interval_s)
        )
    started = time.perf_counter()
    try:
        try:
            if action is not None:
                action.trigger(request.run_id, attempt)
            spec = get_spec(request.spec_id)
            result = spec.run(**request.kwargs_dict)
        except Exception as exc:
            wall_s = time.perf_counter() - started
            text = "".join(
                traceback_module.format_exception(type(exc), exc, exc.__traceback__)
            )
            payload = ("error", type(exc).__name__, str(exc), text, exc, wall_s)
        else:
            payload = ("ok", result, time.perf_counter() - started)
    finally:
        if publisher is not None:
            activate_probe(previous)
    residual = publisher.take_residual() if publisher is not None else ()
    return payload + (residual,)


def _pooled_attempt(task):
    """The pool-worker entry point: :func:`_attempt` with a picklable payload.

    Publishes telemetry on the worker channel, and replaces the raised
    exception with its pickle — or None when it does not round-trip, in
    which case the ``fail`` policy raises :class:`WorkerRunError`.
    """
    publisher = WorkerPublisher(_WORKER_CHANNEL) if task[3] is not None else None
    payload = _attempt(task, publisher)
    if payload[0] == "error":
        try:
            blob = pickle.dumps(payload[4])
            pickle.loads(blob)
        except Exception:
            blob = None
        payload = payload[:4] + (blob,) + payload[5:]
    return payload


class _Fatal:
    """A failure parked until the release cursor reaches it (fail mode).

    Failures can complete out of request order under pooled execution;
    the ``fail`` policy still raises at the failed run's *position* in
    the batch — the same place the old order-preserving ``imap`` loop
    raised — so earlier runs release normally first. ``exc`` is the
    exception itself (inline lane), its pickle (pooled lanes) or None.
    """

    __slots__ = ("kind", "error", "message", "traceback", "exc", "run_id")

    def __init__(self, kind, error, message, tb, exc, run_id):
        self.kind = kind
        self.error = error
        self.message = message
        self.traceback = tb
        self.exc = exc
        self.run_id = run_id

    def reraise(self):
        if self.kind == "timeout":
            raise RunTimeoutError(f"run {self.run_id!r}: {self.message}")
        if self.kind == "worker-crash":
            raise WorkerCrashError(f"run {self.run_id!r}: {self.message}")
        exc = self.exc
        if isinstance(exc, bytes):
            try:
                exc = pickle.loads(exc)
            except Exception:  # pragma: no cover - defensive
                exc = None
        if isinstance(exc, BaseException):
            raise exc
        raise WorkerRunError(
            f"{self.error}: {self.message}\n{self.traceback or ''}".rstrip()
        )


class _TaskState:
    """Supervisor-side bookkeeping for one pending request."""

    __slots__ = ("attempt", "action", "started", "timed_out")

    def __init__(self, action: Optional[FaultAction]):
        self.attempt = 1
        self.action = action
        self.started: Optional[float] = None  # monotonic, first seen running
        self.timed_out = False  # we killed its lane on purpose


class _Lane:
    """One executor plus the futures currently living in it."""

    __slots__ = ("executor", "workers", "tasks")

    def __init__(self, executor: ProcessPoolExecutor, workers: int):
        self.executor = executor
        self.workers = workers
        # future -> pending index; insertion order is submission order,
        # which is the order the executor dispatches tasks to workers.
        self.tasks: Dict[object, int] = {}


#: Supervisor poll granularity (seconds): an upper bound on how long a
#: completion, crash or timeout goes unnoticed, not a scheduling unit —
#: ``wait`` returns the moment a future resolves.
_POLL_S = 0.05


class SweepRunner:
    """Fan a batch of requests out over processes, deterministically.

    Every batch goes through one outcome loop, which settles each
    attempt (retry, record or abort), checkpoints it and releases
    records in request order; its *lanes* differ only in where an
    attempt executes. The *inline* lane runs it in the calling thread,
    with no pool and no pickling, when the release cursor reaches it:
    chosen at ``jobs=1`` (or for a single pending run) unless
    supervision needs a separate process (a ``run_timeout``, or a fault
    plan that can crash the worker). Otherwise runs go to the pooled
    *main* lane, a ``ProcessPoolExecutor``, and completions may arrive
    in any order — but records are still *released*, and ``on_record``
    fired, in request order, so progress reporting and exports stay
    deterministic. Under the ``fail`` policy an inline run's exception
    propagates as itself, genuine traceback included; a pooled run's
    is re-raised from its pickle.

    The executor is created on first parallel use and *reused* across
    ``run()`` calls, so a driver issuing several sweeps (the benchmark
    suite, test batteries, future schedulers) pays process spin-up once
    instead of per batch. Workers spawn lazily up to ``jobs``, so small
    batches never fork processes that would sit idle. Close the runner
    (context manager or :meth:`close`) to release the workers; a
    garbage-collected runner terminates them as a fallback.

    Supervision: a worker death breaks the whole executor
    (``BrokenProcessPool``), so the supervisor rebuilds it and sorts the
    in-flight runs — when exactly one was running, that run is charged
    with the crash; when several were (the ambiguous case), each suspect
    re-runs alone in a one-worker *quarantine lane*, where sole
    occupancy attributes the next crash exactly. Queued, never-started
    runs are resubmitted without being charged. ``run_timeout`` is
    enforced the same way: the overdue run's lane is killed deliberately
    and only the overdue run is charged; timed-out and crashing runs
    retry in the quarantine lane so they cannot take the main pool down
    repeatedly.
    """

    def __init__(self, jobs: int = 1, mp_context: Optional[str] = None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.mp_context = mp_context
        self._executor: Optional[ProcessPoolExecutor] = None
        # Worker→parent telemetry channel; created with the first
        # executor (initargs are fixed at pool construction) and shared
        # by every lane, so late-attached telemetry still has transport.
        self._channel = None

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC fallback
        # May run during interpreter shutdown, where even the machinery
        # this method needs (module globals, exception classes) can be
        # half torn down — swallow absolutely everything.
        try:
            self.close()
        except BaseException:
            pass

    @staticmethod
    def _kill_workers(executor) -> None:
        """Terminate an executor's worker processes (never raises)."""
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already dead / shutdown
                pass

    def close(self) -> None:
        """Terminate the persistent worker pool (idempotent).

        Safe to call from ``__del__`` at interpreter shutdown: a runner
        collected that late may find the executor machinery's module
        globals already set to ``None``, which surfaces as
        ``AttributeError``/``TypeError`` from ``shutdown`` — the
        executor is dropped regardless and the OS reaps the workers.
        """
        executor = getattr(self, "_executor", None)
        self._executor = None
        if executor is not None:
            try:
                self._kill_workers(executor)
                executor.shutdown(wait=False, cancel_futures=True)
            except (AttributeError, TypeError):  # pragma: no cover - shutdown races
                pass
        channel = getattr(self, "_channel", None)
        self._channel = None
        if channel is not None:
            try:
                channel.cancel_join_thread()
                channel.close()
            except Exception:  # pragma: no cover - shutdown races
                pass

    def _ensure_channel(self):
        """The shared telemetry channel (created with the first executor).

        Bounded so a stalled parent can never make workers accumulate
        unbounded queue memory; the publisher side drops oldest
        droppable events instead of blocking when it fills.
        """
        if self._channel is None:
            context = multiprocessing.get_context(self.mp_context)
            self._channel = context.Queue(256)
        return self._channel

    def _make_executor(self, workers: int) -> ProcessPoolExecutor:
        context = multiprocessing.get_context(self.mp_context)
        # The channel rides along unconditionally: initargs are fixed at
        # pool construction, and the persistent executor must serve
        # later run() calls that do attach telemetry. Workers only touch
        # it when a task carries a telemetry slice.
        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_worker_channel_init,
            initargs=(self._ensure_channel(),),
        )

    def _ensure_executor(self) -> ProcessPoolExecutor:
        """The persistent main-lane executor (workers spawn on demand)."""
        if self._executor is None:
            self._executor = self._make_executor(self.jobs)
        return self._executor

    def _discard_executor(self) -> None:
        executor = self._executor
        self._executor = None
        if executor is not None:
            try:
                executor.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - already broken
                pass

    # -- execution -----------------------------------------------------

    def _outcomes(
        self, pending, actions, policy, run_timeout, checkpoint, inline,
        telem=None, gate=None,
    ):
        """The one outcome loop; yields outcomes in ``pending`` order.

        It alone owns attempt counting, retry backoff, ``fail`` versus
        ``continue`` folding, checkpointing, terminal telemetry events
        and in-order release. Lanes differ only in how an attempt
        executes: with ``inline`` every run executes in the calling
        thread when the release cursor reaches it (so records,
        checkpoints and a fail-fast abort land exactly where a serial
        loop puts them); otherwise runs go to the pooled ``main`` lane,
        and crash suspects and crash/timeout retries to the one-worker
        ``quarantine`` lane.

        Outcomes (``RunRecord`` or ``RunFailure``) are buffered as
        completions arrive and yielded strictly in ``pending`` order;
        checkpointing happens at completion time so a kill loses at most
        the in-flight runs. The ``finally`` block tears down in-flight
        work when the generator exits early (an error released to the
        caller, ``KeyboardInterrupt``, or the caller closing us), so no
        worker is left computing a discarded run.
        """
        n = len(pending)
        states = [_TaskState(action) for action in actions]
        ready: Dict[int, object] = {}  # index -> RunRecord | RunFailure | _Fatal
        backlog: List[Tuple[float, int, str]] = []  # (due, index, lane name)
        lanes: Dict[str, _Lane] = {}
        deferred = set()  # inline-lane runs waiting for the release cursor
        publisher = _InlinePublisher(gate.emit) if inline and gate is not None else None
        completed = False

        def drain_telemetry(grace: bool = False):
            # Pull whatever the workers have published so far through
            # the gate. Called opportunistically every poll and — with
            # ``grace`` — decisively before a terminal event seals a
            # run's stream: a batch the worker flushed just before
            # returning can still sit in the channel's feeder thread
            # when the result future completes, so wait a beat and
            # drain once more before closing the door on it. (Inline
            # runs publish straight to the gate: no channel to drain.)
            if gate is not None and not inline and self._channel is not None:
                drain_channel(self._channel, gate.emit)
                if grace:
                    time.sleep(0.002)
                    drain_channel(self._channel, gate.emit)

        def settle(index, payload):
            request = pending[index]
            if gate is not None:
                # Older events first (the side channel), then the tail
                # the worker carried home inside the payload itself.
                drain_telemetry(grace=True)
                for event in payload[-1]:
                    gate.emit(event)
            if payload[0] == "ok":
                record = RunRecord(request, payload[1], payload[2])
                checkpoint(request, record)
                if gate is not None:
                    gate.emit(RunFinished(run_id=request.run_id))
                ready[index] = record
            else:
                _, error, message, tb, exc, wall_s = payload[:6]
                charge(index, "exception", error, message, tb, exc, wall_s)

        def charge(index, kind, error, message, tb, exc, wall_s):
            state = states[index]
            if state.attempt <= policy.retries:
                delay = policy.backoff_s(state.attempt)
                state.attempt += 1
                # Inline retries stay inline. Pooled exception retries go
                # back to the main lane; timeout and crash retries run
                # quarantined so a persistently poison run cannot keep
                # taking the shared pool down.
                if inline:
                    lane_name = "inline"
                else:
                    lane_name = "main" if kind == "exception" else "quarantine"
                backlog.append((time.monotonic() + delay, index, lane_name))
                return
            request = pending[index]
            if gate is not None:
                drain_telemetry(grace=True)
                gate.emit(
                    RunFailed(
                        run_id=request.run_id,
                        failure_kind=kind,
                        error=error,
                        message=message,
                    )
                )
            if policy.mode == "fail":
                ready[index] = _Fatal(kind, error, message, tb, exc, request.run_id)
                return
            failure = RunFailure(
                run_id=request.run_id,
                spec_id=request.spec_id,
                kwargs=request.kwargs_dict,
                kind=kind,
                error=error,
                message=message,
                traceback=tb,
                attempts=state.attempt,
                wall_s=wall_s or 0.0,
            )
            checkpoint(request, failure)
            ready[index] = failure

        def handle_break(lane_name):
            lane = lanes.pop(lane_name, None)
            if lane is None:  # pragma: no cover - already handled
                return
            if lane.executor is self._executor:
                self._executor = None
            # Give the executor's manager thread a moment to resolve
            # every pending future, then harvest results that landed
            # before the break — they are genuine completions.
            wait(list(lane.tasks), timeout=5.0)
            try:
                lane.executor.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - already torn down
                pass
            crashed: List[int] = []  # submission order
            for future, index in list(lane.tasks.items()):
                try:
                    payload = future.result(timeout=0)
                except BaseException:
                    crashed.append(index)
                else:
                    settle(index, payload)
            lane.tasks.clear()
            now = time.monotonic()
            deliberate = any(states[i].timed_out for i in crashed)
            if deliberate:
                # We killed this lane to enforce run_timeout: charge the
                # overdue run(s); co-running and queued runs are innocent
                # and simply resubmit.
                for index in crashed:
                    state = states[index]
                    if state.timed_out:
                        state.timed_out = False
                        charge(
                            index,
                            "timeout",
                            "RunTimeoutError",
                            f"run exceeded the per-run timeout "
                            f"({run_timeout:g} s)",
                            None,
                            None,
                            run_timeout or 0.0,
                        )
                    else:
                        backlog.append((0.0, index, lane_name))
                return
            suspects = [i for i in crashed if states[i].started is not None]
            if not suspects and crashed:
                # A fast crash can break the pool before any poll ever
                # observes the run in flight. The executor dispatches
                # submissions FIFO, so the earliest-submitted unfinished
                # task(s) — at most one per worker — were the ones a
                # worker had picked up.
                suspects = crashed[: lane.workers]
            queued = [i for i in crashed if i not in suspects]
            if len(suspects) == 1:
                index = suspects[0]
                wall_s = now - (states[index].started or now)
                charge(
                    index,
                    "worker-crash",
                    "WorkerCrashError",
                    "worker process died (segfault, OOM kill, or os._exit)",
                    None,
                    None,
                    wall_s,
                )
            else:
                # Ambiguous: several runs were in flight when the pool
                # broke. Re-run each alone in the quarantine lane, where
                # sole occupancy attributes the next crash exactly —
                # innocents complete there without ever being charged.
                for index in suspects:
                    backlog.append((0.0, index, "quarantine"))
            for index in queued:
                backlog.append((0.0, index, lane_name))

        def submit(lane_name, index):
            if lane_name == "inline":
                deferred.add(index)
                return
            for _ in range(2):
                lane = lanes.get(lane_name)
                if lane is None:
                    if lane_name == "main":
                        lane = _Lane(self._ensure_executor(), self.jobs)
                    else:
                        lane = _Lane(self._make_executor(1), 1)
                    lanes[lane_name] = lane
                state = states[index]
                state.started = None
                state.timed_out = False
                try:
                    future = lane.executor.submit(
                        _pooled_attempt,
                        (pending[index], state.action, state.attempt, telem),
                    )
                except BrokenExecutor:
                    # A worker died while idle; rebuild the lane once.
                    handle_break(lane_name)
                    continue
                lane.tasks[future] = index
                return
            raise WorkerCrashError(  # pragma: no cover - two breaks in a row
                "worker pool repeatedly broken on submit"
            )

        next_index = 0
        try:
            for index in range(n):
                submit("inline" if inline else "main", index)
            while next_index < n:
                while next_index in ready:
                    outcome = ready.pop(next_index)
                    if isinstance(outcome, _Fatal):
                        outcome.reraise()
                    next_index += 1
                    yield outcome
                if next_index >= n:
                    break
                if next_index in deferred:
                    deferred.discard(next_index)
                    state = states[next_index]
                    task = (pending[next_index], state.action, state.attempt, telem)
                    settle(next_index, _attempt(task, publisher))
                    continue
                now = time.monotonic()
                due = [entry for entry in backlog if entry[0] <= now]
                if due:
                    backlog[:] = [e for e in backlog if e[0] > now]
                    for _, index, lane_name in sorted(due, key=lambda e: e[1]):
                        submit(lane_name, index)
                futures = [f for lane in lanes.values() for f in lane.tasks]
                if not futures:
                    if backlog:
                        next_due = min(entry[0] for entry in backlog)
                        time.sleep(min(_POLL_S, max(0.0, next_due - now)))
                        continue
                    if ready or deferred:
                        continue
                    raise RuntimeError(  # pragma: no cover - invariant
                        "sweep supervisor stalled with no work in flight"
                    )
                done, _ = wait(futures, timeout=_POLL_S, return_when=FIRST_COMPLETED)
                drain_telemetry()
                now = time.monotonic()
                for lane in lanes.values():
                    # The executor dispatches FIFO, so the earliest
                    # unfinished submissions — at most one per worker —
                    # are the runs actually on a worker right now. (A
                    # future's own running() flag over-reports: it flips
                    # as soon as the task enters the call queue.)
                    in_flight = [f for f in lane.tasks if not f.done()]
                    for future in in_flight[: lane.workers]:
                        state = states[lane.tasks[future]]
                        if state.started is None:
                            state.started = now
                broken: List[str] = []
                for lane_name in list(lanes):
                    lane = lanes.get(lane_name)
                    if lane is None:
                        continue
                    for future in [f for f in done if f in lane.tasks]:
                        try:
                            payload = future.result()
                        except (BrokenExecutor, CancelledError, OSError):
                            broken.append(lane_name)
                            break
                        index = lane.tasks.pop(future)
                        settle(index, payload)
                for lane_name in broken:
                    handle_break(lane_name)
                if run_timeout is not None:
                    now = time.monotonic()
                    for lane_name, lane in list(lanes.items()):
                        overdue = [
                            index
                            for index in lane.tasks.values()
                            if states[index].started is not None
                            and not states[index].timed_out
                            and now - states[index].started > run_timeout
                        ]
                        if overdue:
                            for index in overdue:
                                states[index].timed_out = True
                            # Killing the lane breaks it; the next loop
                            # iteration routes it through handle_break,
                            # which charges only the overdue run(s).
                            self._kill_workers(lane.executor)
            completed = True
        finally:
            quarantine = lanes.pop("quarantine", None)
            if quarantine is not None:
                if not completed:
                    self._kill_workers(quarantine.executor)
                try:
                    quarantine.executor.shutdown(
                        wait=completed, cancel_futures=True
                    )
                except Exception:  # pragma: no cover - already torn down
                    pass
            if not completed:
                main = lanes.pop("main", None)
                if main is not None:
                    if main.executor is self._executor:
                        self._executor = None
                    self._kill_workers(main.executor)
                    try:
                        main.executor.shutdown(wait=False, cancel_futures=True)
                    except Exception:  # pragma: no cover - already torn down
                        pass

    @staticmethod
    def _checkpoint(store) -> Callable[[RunRequest, object], None]:
        if store is None:
            return lambda request, outcome: None

        def checkpoint(request, outcome):
            if isinstance(outcome, RunFailure):
                store.put_failure(request, outcome)
            else:
                store.put(outcome)

        return checkpoint

    def run(
        self,
        requests: Sequence[RunRequest],
        on_record: Optional[Callable[[RunRecord], None]] = None,
        store=None,
        policy: Optional[object] = None,
        run_timeout: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
        telemetry=None,
    ) -> List[RunRecord]:
        """Execute ``requests`` and return their records, in request order.

        With ``store`` (a :class:`~repro.results.store.ResultStore`),
        requests whose content key is already present come back as cache
        hits (``record.cached``) without executing, every freshly
        executed run is checkpointed into the store the moment it
        finishes, and a fully completed batch is finalized — so a killed
        sweep re-issued against the same store resumes instead of
        restarting, with artefacts byte-identical to an uninterrupted
        run (runs are pure functions of their requests). ``on_record``
        still fires in request order, for hits and fresh runs alike.

        ``policy`` (an :class:`ErrorPolicy` or its string spelling)
        governs failures; failed runs under ``continue`` come back as
        records with ``record.failure`` set and are checkpointed into
        the store as failure records, so a resume retries exactly the
        failed/missing runs. ``run_timeout`` kills any single run
        exceeding that many wall seconds (forces pooled execution even
        at ``jobs=1``). ``faults`` injects a deterministic
        :class:`~repro.experiments.faults.FaultPlan` (default: the
        :data:`~repro.experiments.faults.FAULT_PLAN_ENV` env var).

        ``telemetry`` (a :class:`~repro.telemetry.hub.TelemetryHub` with
        at least one listener) streams live run events through a
        :class:`~repro.telemetry.hub.RunEventGate`, so every run in the
        batch — cached hits included — produces exactly
        ``RunStarted (RunProgress|MetricSample)* (RunFinished|RunFailed)``.
        Telemetry is strictly off the export path: records, stores and
        exported bytes are identical with it on or off.
        """
        if isinstance(policy, str):
            policy = ErrorPolicy.parse(policy)
        if policy is None:
            policy = ErrorPolicy()
        if run_timeout is not None and run_timeout <= 0:
            raise ValueError("run_timeout must be positive")
        if faults is None:
            faults = FaultPlan.from_env()
        run_ids = [r.run_id for r in requests]
        if len(set(run_ids)) != len(run_ids):
            seen, dupes = set(), []
            for run_id in run_ids:
                if run_id in seen and run_id not in dupes:
                    dupes.append(run_id)
                seen.add(run_id)
            raise ValueError(
                "duplicate run ids in batch: " + ", ".join(sorted(dupes))
            )
        gate = None
        telem = None
        if telemetry is not None and telemetry.attached:
            gate = RunEventGate(telemetry.emit)
            telem = _TelemetryTask(sample_interval_s=telemetry.sample_interval_s)
        if self._channel is not None:
            # Discard stragglers a previous (aborted) batch left queued;
            # their runs' gates are gone and their ids would pollute
            # this batch's streams.
            drain_channel(self._channel, lambda event: None)
        cached: Dict[str, RunRecord] = {}
        pending: List[RunRequest] = []
        actions: List[Optional[FaultAction]] = []
        for index, request in enumerate(requests):
            hit = store.get(request) if store is not None else None
            if hit is not None:
                cached[request.run_id] = hit
            else:
                pending.append(request)
                actions.append(
                    faults.action_for(request.run_id, index) if faults else None
                )
        checkpoint = self._checkpoint(store)
        needs_worker = run_timeout is not None or any(
            action is not None and action.kind == "crash" for action in actions
        )
        inline = (self.jobs == 1 or len(pending) <= 1) and not needs_worker
        outcomes = self._outcomes(
            pending, actions, policy, run_timeout, checkpoint, inline,
            telem=telem, gate=gate,
        )
        records: List[RunRecord] = []
        try:
            for request in requests:
                record = cached.get(request.run_id)
                if record is None:
                    outcome = next(outcomes)
                    if isinstance(outcome, RunFailure):
                        record = RunRecord(
                            request, None, outcome.wall_s, failure=outcome
                        )
                    else:
                        record = outcome
                elif gate is not None:
                    # A cache hit never executes: its stream is the
                    # immediate two-event form, emitted at release time.
                    gate.emit(
                        RunStarted(run_id=request.run_id, spec_id=request.spec_id)
                    )
                    gate.emit(RunFinished(run_id=request.run_id, cached=True))
                if on_record is not None:
                    on_record(record)
                records.append(record)
        except BaseException:
            # Error path (including KeyboardInterrupt): terminate the
            # in-flight batch so no worker is left computing runs nobody
            # will collect.
            outcomes.close()
            raise
        if store is not None:
            store.finalize(records)
        return records


def default_jobs() -> int:
    """Worker count for ``--jobs 0``: every core the container grants."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        return os.cpu_count() or 1
