"""Dynamic request batching: coalesce small requests into worker waves.

Callers submit ``(n, C, H, W)`` arrays and get a
:class:`concurrent.futures.Future` back.  A collector thread drains the
queue and flushes a wave when either ``flush_at`` samples are pending
or the oldest request has waited ``max_wait_s`` — the classic
latency/throughput window of serving systems; a wave stops taking
requests once it holds ``max_batch`` samples.
:class:`~repro.runtime.InferenceRuntime` sets ``flush_at`` to the
samples that give every worker one full shard: shards never span
requests, so a wave that already does gains nothing by waiting.

Coalescing is a *scheduling* decision only: the processor receives the
original per-request arrays (the worker pool shards each request
independently), so a request's logits never depend on the traffic it
happened to be coalesced with.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future

import numpy as np

from .. import obs
from .metrics import RuntimeMetrics

__all__ = ["BatcherClosedError", "DynamicBatcher"]


class BatcherClosedError(RuntimeError):
    """Submit refused because the batcher (or its runtime) is closing.

    A typed subclass of the historical ``RuntimeError`` so existing
    callers keep working, while serving layers can map it to a clean
    "shed: draining" response instead of a generic 500.
    """


class _Request:
    __slots__ = ("x", "future", "enqueued_at")

    def __init__(self, x: np.ndarray):
        self.x = x
        self.future = Future()
        self.enqueued_at = time.perf_counter()


class DynamicBatcher:
    """Window-based request coalescer in front of a batch processor.

    Parameters
    ----------
    process:
        ``process(list_of_arrays) -> list_of_results``; called on the
        collector thread with one array per coalesced request.
    max_batch:
        A wave stops taking requests once it holds this many samples.
    max_wait_s:
        Flush a non-empty queue after the oldest request has waited this
        long, even if fewer than ``flush_at`` samples are pending.
    flush_at:
        Flush as soon as this many samples are queued; defaults to
        ``max_batch``.
    metrics:
        Optional :class:`RuntimeMetrics`; records queue depth, waits and
        batch counts.
    """

    def __init__(self, process, max_batch: int, max_wait_s: float,
                 metrics: RuntimeMetrics = None, flush_at: int = None):
        self._process = process
        self._max_batch = max_batch
        self._max_wait_s = max_wait_s
        self.flush_at = max_batch if flush_at is None else flush_at
        self._metrics = metrics
        self._queue = deque()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._closed = False
        self._thread = threading.Thread(
            target=self._collector, name="repro-batcher", daemon=True
        )
        self._thread.start()

    # -- public API --------------------------------------------------

    def submit(self, x: np.ndarray) -> Future:
        """Enqueue one request; resolves to its logits array."""
        x = np.asarray(x, dtype=np.float64)
        request = _Request(x)
        with self._lock:
            if self._closed:
                raise BatcherClosedError("batcher is closed")
            self._queue.append(request)
            depth = len(self._queue)
            self._wakeup.notify()
        if self._metrics is not None:
            self._metrics.observe_queue_depth(depth)
        return request.future

    def close(self) -> None:
        """Flush pending requests and stop the collector thread.

        Idempotent and safe to call from several threads at once: every
        caller returns only after the collector has drained the queue
        and exited.  Submissions racing a close either make it into the
        final drain or fail with :class:`BatcherClosedError` — a request
        is never silently dropped.
        """
        with self._lock:
            self._closed = True
            self._wakeup.notify()
        # Outside the lock: the collector needs it to drain.  join() is
        # safe to call repeatedly and from multiple closers concurrently.
        self._thread.join()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # -- collector ---------------------------------------------------

    def _collector(self) -> None:
        while True:
            wave = self._next_wave()
            if wave is None:
                return
            self._flush(wave)

    def _next_wave(self):
        """Block until a flush condition holds; pop the wave to run.

        Returns ``None`` when closed and drained.
        """
        with self._lock:
            while True:
                if self._queue:
                    pending = sum(r.x.shape[0] for r in self._queue)
                    oldest = self._queue[0].enqueued_at
                    now = time.perf_counter()
                    if (self._closed or pending >= self.flush_at
                            or now - oldest >= self._max_wait_s):
                        wave = []
                        samples = 0
                        while self._queue and samples < self._max_batch:
                            wave.append(self._queue.popleft())
                            samples += wave[-1].x.shape[0]
                        return wave
                    self._wakeup.wait(
                        timeout=self._max_wait_s - (now - oldest)
                    )
                elif self._closed:
                    return None
                else:
                    self._wakeup.wait()

    def _flush(self, wave) -> None:
        now = time.perf_counter()
        # Transition every Future to RUNNING before computing.  A request
        # cancelled while it sat in the queue reports False here and is
        # dropped from the wave (no wasted compute); afterwards a
        # concurrent cancel() can no longer win, so resolving the
        # survivors below cannot raise InvalidStateError.
        live = [r for r in wave
                if r.future.set_running_or_notify_cancel()]
        with obs.span("batch:flush", category="batch") as span:
            span.add_counter("requests", len(live))
            span.add_counter("cancelled", len(wave) - len(live))
            span.add_counter("samples", sum(r.x.shape[0] for r in live))
            span.add_counter("queue_wait_s",
                             sum(now - r.enqueued_at for r in live))
            if self._metrics is not None:
                for request in live:
                    self._metrics.add_stage_time(
                        "queue", now - request.enqueued_at
                    )
                self._metrics.add_counts(requests=len(live), batches=1)
                with self._lock:
                    depth = len(self._queue)
                self._metrics.observe_queue_depth(depth)
            if not live:
                return
            try:
                results = self._process([r.x for r in live])
            except Exception as exc:
                for request in live:
                    request.future.set_exception(exc)
                return
            for request, result in zip(live, results):
                request.future.set_result(result)
