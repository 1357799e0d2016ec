"""Hierarchical tracing: nested spans, thread-local context, counters.

A *span* is one named, timed section of work.  Spans nest: the tracer
keeps a thread-local stack of open spans, so ``span("layer:0:conv")``
opened while ``span("shard:compute")`` is active becomes its child, and
the finished trees (one per outermost span) describe where the wall
time of a workload went.  Worker threads attach to the right parent by
passing an explicit ``parent=`` handle captured on the submitting
thread (see :meth:`Tracer.current`).

Tracing is **off by default** and the disabled fast path is a no-op:
:meth:`Tracer.span` returns the shared :data:`NULL_SPAN` singleton
(whose ``__enter__``/``__exit__``/``add_counter`` do nothing) after a
single attribute check, so instrumented hot loops cost one branch per
call.  Enable globally with :func:`enable`, the ``REPRO_TRACE``
environment variable, or ``RuntimeConfig(trace=True)``.

Per-kernel wall time is a separate, always-on concern: the engine's
kernel sections record ``(calls, seconds)`` into the process-global
:data:`KERNEL_COUNTERS` store (the accounting previously kept by
``simulator.engine.KERNEL_STATS``) *and*, when tracing is enabled, open
a ``kernel:*`` span timed from the identical clock readings — so the
flat totals and the span tree always agree exactly per section.
"""

from __future__ import annotations

import os
import threading
import time

_perf_counter = time.perf_counter
_get_ident = threading.get_ident

__all__ = ["Span", "Tracer", "NULL_SPAN", "CounterStore", "CounterScope",
           "KERNEL_COUNTERS", "kernel_section", "merge_counters", "tracer",
           "enabled", "enable", "disable", "reset", "span", "current",
           "add_counter"]


class _NullSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def add_counter(self, name, value=1):
        pass


#: The disabled-path singleton; identity-testable (``span is NULL_SPAN``).
NULL_SPAN = _NullSpan()


class Span:
    """One timed, named section; a node of the trace tree.

    ``counters`` is a plain ``{name: number}`` dict of additive values
    (bits processed, cache hits, samples, ...) attached via
    :meth:`add_counter`.  ``children`` holds completed sub-spans in
    completion order.  Use as a context manager; timing and tree
    linkage happen on enter/exit.  ``parent`` is the explicit parent
    passed in, or, if none was, the thread's innermost open span at
    enter.
    """

    __slots__ = ("name", "category", "start_s", "end_s", "counters",
                 "children", "thread_id", "parent", "_tracer", "_stack")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 parent: "Span" = None):
        self.name = name
        self.category = category
        self.start_s = None
        self.end_s = None
        self.counters = {}
        self.children = []
        self.thread_id = None
        self.parent = parent
        self._tracer = tracer

    @property
    def duration_s(self) -> float:
        if self.start_s is None or self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def add_counter(self, name: str, value=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    # Enter and exit are the whole per-span cost every traced layer,
    # shard and kernel section pays, so they touch the tracer's state
    # directly instead of calling through it.  A span leaves the stack
    # of the thread that entered it.
    def __enter__(self):
        local = self._tracer._local
        try:
            stack = local.stack
        except AttributeError:
            stack = local.stack = []
        self._stack = stack
        if self.parent is None and stack:
            self.parent = stack[-1]
        self.thread_id = _get_ident()
        stack.append(self)
        self.start_s = _perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.end_s = _perf_counter()
        stack = self._stack
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:        # mismatched exits: drop inner spans
            del stack[stack.index(self):]
        parent = self.parent
        if parent is not None:
            # list.append is atomic, so a child needs no lock to join
            # its parent, even across threads.
            parent.children.append(self)
        else:
            self._tracer._add_root(self)
        return False

    def __repr__(self):
        return (f"Span({self.name!r}, {self.duration_s * 1e3:.3f} ms, "
                f"{len(self.children)} children)")


class Tracer:
    """Span factory and trace-tree collector.

    Thread safety: the open-span stack is thread-local, so same-thread
    nesting is lock-free.  A finished span joins its parent's
    ``children`` (the parent may live on another thread) with one
    atomic ``list.append``; finished roots, and the reads and resets of
    the root list, go through one lock.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._roots = []
        self._local = threading.local()
        self.epoch_s = time.perf_counter()

    # -- span lifecycle ----------------------------------------------

    def span(self, name: str, category: str = "span",
             parent: Span = None):
        """A context manager timing ``name``; no-op when disabled.

        ``parent`` overrides the thread-local parent — capture it with
        :meth:`current` on the submitting thread and pass it into work
        scheduled on another thread so the shard/task attaches to the
        right node.
        """
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, category, parent)

    def _add_root(self, span: Span) -> None:
        """Collect a finished span that has no parent."""
        with self._lock:
            self._roots.append(span)

    # -- context -----------------------------------------------------

    def current(self) -> Span:
        """The innermost open span on this thread (None if no span or
        tracing is disabled) — the handle to pass as ``parent=`` when
        handing work to another thread."""
        if not self.enabled:
            return None
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def add_counter(self, name: str, value=1) -> None:
        """Add to the innermost open span's counter; no-op otherwise."""
        span = self.current()
        if span is not None:
            span.add_counter(name, value)

    def record_span(self, name: str, duration_s: float,
                    category: str = "span", parent: Span = None,
                    counters: dict = None) -> Span:
        """Attach an already-measured section as a completed span.

        For work timed where spans cannot live — e.g. compute seconds
        reported back from a pool *process* — the parent side records a
        synthetic span ending now.  Returns the span (or
        :data:`NULL_SPAN` when disabled).
        """
        if not self.enabled:
            return NULL_SPAN
        span = Span(self, name, category,
                    parent if parent is not None else self.current())
        span.thread_id = _get_ident()
        span.end_s = _perf_counter()
        span.start_s = span.end_s - duration_s
        if counters:
            span.counters.update(counters)
        if span.parent is not None:
            span.parent.children.append(span)
        else:
            self._add_root(span)
        return span

    # -- collection --------------------------------------------------

    def roots(self) -> list:
        """Completed outermost spans, in completion order."""
        with self._lock:
            return list(self._roots)

    def reset(self) -> None:
        """Drop collected trees and restart the export epoch."""
        with self._lock:
            self._roots.clear()
        self.epoch_s = time.perf_counter()


class CounterStore:
    """Thread-safe ``{name: (calls, total)}`` accumulator.

    The process-global :data:`KERNEL_COUNTERS` instance is the single
    home of per-kernel call counts and cumulative wall seconds (the
    accounting historically kept by ``simulator.engine.KERNEL_STATS``,
    which is now an alias of it).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._stats = {}

    def record(self, name: str, value: float) -> None:
        with self._lock:
            calls, total = self._stats.get(name, (0, 0.0))
            self._stats[name] = (calls + 1, total + value)

    def snapshot(self) -> dict:
        """``{name: (calls, total)}`` copy of the counters."""
        with self._lock:
            return dict(self._stats)

    def reset(self) -> None:
        with self._lock:
            self._stats.clear()

    def delta_since(self, baseline: dict) -> dict:
        """``{name: (calls, total)}`` accumulated since ``baseline``.

        ``baseline`` is a prior :meth:`snapshot`.  Rows whose call count
        did not advance are dropped, so the delta of an idle store is
        ``{}``.  This is the scoped view long-lived processes need: the
        store itself is process-global and only ever grows, so
        per-request / per-interval accounting must difference two
        snapshots rather than :meth:`reset` (which would race other
        readers).
        """
        current = self.snapshot()
        delta = {}
        for name, (calls, total) in current.items():
            base_calls, base_total = baseline.get(name, (0, 0.0))
            if calls != base_calls:
                delta[name] = (calls - base_calls, total - base_total)
        return delta

    def scope(self) -> "CounterScope":
        """A :class:`CounterScope` anchored at the store's current state."""
        return CounterScope(self)


class CounterScope:
    """Snapshot-delta window over a :class:`CounterStore`.

    Marks the store's state at construction (or on ``__enter__``) and
    reports only what accumulated since via :meth:`delta`; :meth:`rebase`
    slides the window forward.  Many scopes can watch one store
    concurrently — nothing is reset, so scopes never disturb each other
    or the process-lifetime totals.

        with KERNEL_COUNTERS.scope() as scope:
            ...                       # serve one request
        per_request = scope.delta()   # this request's kernel seconds
    """

    __slots__ = ("_store", "_baseline")

    def __init__(self, store: CounterStore):
        self._store = store
        self.rebase()

    def rebase(self) -> None:
        """Move the window start to the store's current state."""
        self._baseline = self._store.snapshot()

    def delta(self) -> dict:
        """``{name: (calls, total)}`` accumulated since the baseline."""
        return self._store.delta_since(self._baseline)

    def __enter__(self):
        self.rebase()
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


#: Process-global kernel timing accumulator (one per worker process).
KERNEL_COUNTERS = CounterStore()


class kernel_section:
    """Time one kernel section into :data:`KERNEL_COUNTERS` and, when
    tracing, an identical ``kernel:<name>`` span.

    Both accountings are derived from the *same* two clock readings, so
    a trace's per-kernel span totals and the flat counter store agree
    exactly — kernel seconds are never double-measured.
    ``add_counter`` forwards to the span (no-op when tracing is off).
    """

    __slots__ = ("_name", "_span", "_t0")

    def __init__(self, name: str):
        self._name = name

    def __enter__(self):
        if _TRACER.enabled:
            self._span = Span(_TRACER, "kernel:" + self._name, "kernel")
            self._span.__enter__()
            self._t0 = self._span.start_s
        else:
            self._span = None
            self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._span is not None:
            self._span.__exit__(exc_type, exc, tb)
            KERNEL_COUNTERS.record(self._name, self._span.duration_s)
        else:
            KERNEL_COUNTERS.record(self._name,
                                   time.perf_counter() - self._t0)
        return False

    def add_counter(self, name: str, value=1) -> None:
        if self._span is not None:
            self._span.add_counter(name, value)


def merge_counters(a: dict, b: dict) -> dict:
    """Additive merge of two counter dicts (associative, commutative —
    with exact (integer) counter values)."""
    merged = dict(a)
    for name, value in b.items():
        merged[name] = merged.get(name, 0) + value
    return merged


def _env_enabled() -> bool:
    return os.environ.get("REPRO_TRACE", "").strip().lower() not in (
        "", "0", "false", "no", "off")


#: The process-global tracer every instrumented subsystem reports to.
_TRACER = Tracer(enabled=_env_enabled())


def tracer() -> Tracer:
    """The process-global :class:`Tracer`."""
    return _TRACER


def enabled() -> bool:
    return _TRACER.enabled


def enable() -> None:
    _TRACER.enabled = True


def disable() -> None:
    _TRACER.enabled = False


def reset() -> None:
    _TRACER.reset()


def span(name: str, category: str = "span", parent: Span = None):
    """Module-level shorthand for ``tracer().span(...)``."""
    if not _TRACER.enabled:
        return NULL_SPAN
    return Span(_TRACER, name, category, parent)


def current() -> Span:
    return _TRACER.current()


def add_counter(name: str, value=1) -> None:
    _TRACER.add_counter(name, value)
