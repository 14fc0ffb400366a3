"""In-memory span tracer that instruments the program from outside.

The tracer wraps public functions and methods of the ``repro`` package
(:meth:`Tracer.span_on`, :meth:`Tracer.count_on`) and records, for every
wrapped call, a span ``(name, parent, start, end)`` or a plain count.
Spans nest per thread: a span's parent is the innermost span open on the
same thread when it started. A span's *self time* is its duration minus
the part of its interval covered by its child spans (the union of the
children's intervals, clipped to the parent), so a layer is charged only
for the work done in its own code.

:meth:`Tracer.uninstall` puts every original object back, so code run in
the same process after a traced run executes no wrapper at all.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

#: Attribute set on every wrapper, so tests can prove none is left behind.
WRAPPED_MARK = "__meshbench_wrapped__"

# Span record fields (records are lists so the closing time can be set).
NAME, PARENT, START, END = range(4)


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Self time of every span: duration minus the union of its children.

    ``spans`` are ``(name, parent_index, start, end)`` records; a parent
    index of -1 marks a root. Child intervals are clipped to the parent
    and merged before they are subtracted, so overlapping children (or a
    child still running when the parent ends) are never counted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


class Tracer:
    """Spans and counters recorded by wrappers patched into the program."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        """Start a span on this thread; returns its index."""
        stack = self._stack()
        record = [name, stack[-1] if stack else -1, self.clock(), None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        """End the span ``index`` (the innermost open span of this thread)."""
        self.spans[index][END] = self.clock()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def add(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the counter ``name``."""
        with self._lock:
            self.counts[name] += amount

    # -- summaries -----------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``count``, ``total_s`` and ``self_s``."""
        spans = self.spans
        if any(span[END] is None for span in spans):
            raise RuntimeError("summary() with spans still open")
        selfs = self_times(spans)
        out: Dict[str, Dict[str, float]] = {}
        for span, own in zip(spans, selfs):
            entry = out.setdefault(span[NAME], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += span[END] - span[START]
            entry["self_s"] += own
        return out

    # -- instrumentation -----------------------------------------------

    def _replace(self, owner: object, attr: str, wrapper) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapper)

    def _wrap(self, owner, attr, make):
        """Patch ``owner.attr`` (a class or module) with ``make(original)``.

        A module-level function is also re-pointed in every already
        imported ``repro`` module that bound it by name, so callers that
        did ``from module import function`` see the wrapper too.
        """
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            func = raw.__func__ if kind else raw
            wrapper = make(func)
            self._replace(owner, attr, kind(wrapper) if kind else wrapper)
            return
        original = getattr(owner, attr)
        wrapper = make(original)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "repro" or module is None:
                continue
            if module.__dict__.get(attr) is original:
                self._replace(module, attr, wrapper)

    def span_on(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Record a span ``name`` around every call of ``owner.attr``.

        ``before(args)`` runs before the call (its value is passed on)
        and ``after(tracer, args, result, state)`` after the span closes;
        neither is timed inside the span.
        """
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                state = before(args) if before is not None else None
                index = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(index)
                if after is not None:
                    after(tracer, args, result, state)
                return result

            setattr(wrapper, WRAPPED_MARK, True)
            return wrapper

        self._wrap(owner, attr, make)

    def count_on(self, owner, attr: str, name: str, after=None) -> None:
        """Count calls of ``owner.attr`` under ``name`` (no span).

        ``after(tracer, args, result)`` may add further counts.
        """
        tracer = self
        counts = self.counts

        def make(fn):
            if after is None:
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    counts[name] += 1
                    return fn(*args, **kwargs)
            else:
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    counts[name] += 1
                    result = fn(*args, **kwargs)
                    after(tracer, args, result)
                    return result

            setattr(wrapper, WRAPPED_MARK, True)
            return wrapper

        self._wrap(owner, attr, make)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest patch first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


def leftover_wrappers(package_prefix: str = "repro") -> List[str]:
    """Qualified names of tracer wrappers still reachable in the package.

    Scans every imported module of the package and the classes defined
    in it. An empty list means an untraced run pays nothing.
    """
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != package_prefix:
            continue
        for attr, value in list(vars(module).items()):
            if getattr(value, WRAPPED_MARK, False):
                found.append(f"{name}.{attr}")
            if isinstance(value, type) and value.__module__ == name:
                for member, raw in vars(value).items():
                    func = getattr(raw, "__func__", raw)
                    if getattr(func, WRAPPED_MARK, False):
                        found.append(f"{name}.{attr}.{member}")
    return found
