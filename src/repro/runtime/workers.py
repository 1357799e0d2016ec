"""Shard execution: serial reference, thread pool, or process pool.

The unit of work is a *shard* — a contiguous slice of samples no larger
than ``RuntimeConfig.shard_size``.  Sharding is where the determinism
guarantee lives: the functional simulator derives every activation
stream seed from the position index *within* the forwarded array, so a
shard's logits are a pure function of (shard contents, SC config).  The
pool therefore always splits identically and always merges in shard
order, making any backend and any worker count bit-identical to the
serial reference execution.

Two entry points share that sharding: :meth:`WorkerPool.run_batch`
executes one batch for a waiting caller (the serial backend computes it
inline), and :meth:`WorkerPool.submit` dispatches a request the moment
it arrives — every shard goes to the executor at once — and returns a
:class:`~concurrent.futures.Future` of the merged logits.  Both take an
optional progressive policy: the request is then one unsharded shard
running the plan's resumable evaluation, on the same workers.

On shard failure the pool can degrade gracefully: with
``fallback="fixedpoint"`` the failed shard is re-run on the 8-bit
fixed-point reference network in the parent, the batch completes, and
the failure is recorded in the metrics instead of crashing the caller.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import threading
import time
from concurrent.futures import (BrokenExecutor, Future, ProcessPoolExecutor,
                                ThreadPoolExecutor)

import numpy as np

from .. import obs
from ..simulator.engine import ENCODE_CACHE
from .config import RuntimeConfig
from .metrics import RuntimeMetrics
from .plan import ExecutionPlan

__all__ = ["BatcherClosedError", "WorkerPool"]


class BatcherClosedError(RuntimeError):
    """Submit refused because the worker pool (or its runtime) is
    closing.

    A typed subclass of the historical ``RuntimeError`` so existing
    callers keep working, while serving layers can map it to a clean
    "shed: draining" response instead of a generic 500.
    """


# Per-process plan installed by the ProcessPoolExecutor initializer: a
# copy-on-write copy of the parent's under ``fork``, an unpickled copy
# under ``spawn`` and ``forkserver``.  A pool's plan is fixed at
# construction, and one executor's workers never take another's tasks.
_WORKER_PLAN = None
_WORKER_BARRIER = None

#: Workers wait at most this long for the warm-up barrier; a broken
#: barrier is counted as an error rather than wedging the pool.
_HANDSHAKE_TIMEOUT_S = 30.0


def _init_worker(plan: ExecutionPlan, barrier) -> None:
    global _WORKER_PLAN, _WORKER_BARRIER
    _WORKER_PLAN = plan
    _WORKER_BARRIER = barrier


def _worker_handshake() -> int:
    """One warm-protocol task per worker: rendezvous, return the pid.

    The parent submits exactly ``workers`` of these when it builds the
    executor; each blocks on the shared barrier, so every worker process
    is spawned *and initialized* before any returns — no shard can land
    on a cold worker.
    """
    _WORKER_BARRIER.wait(timeout=_HANDSHAKE_TIMEOUT_S)
    return os.getpid()


def _run_shard_in_worker(x: np.ndarray, policy=None) -> tuple:
    """Execute one shard in a pool process; returns stats for the parent.

    Worker processes have their own cache counters, so the
    activation-encode hit/miss deltas are measured here and folded into
    the parent metrics with the result.  Under a progressive ``policy``
    the result is the evaluation's
    :class:`~repro.runtime.progressive.ProgressiveOutcome`.
    """
    t0 = time.perf_counter()
    a_h0, a_m0 = ENCODE_CACHE.counters()
    result = (_WORKER_PLAN.run(x) if policy is None
              else _WORKER_PLAN.run_progressive(x, policy))
    a_h1, a_m1 = ENCODE_CACHE.counters()
    return (result, time.perf_counter() - t0, a_h1 - a_h0, a_m1 - a_m0)


class WorkerPool:
    """Execute shards of samples on the configured backend.

    Thread and serial backends share the caller's plan (and its layers'
    plan caches); the process backend hands the plan to each worker
    through the pool initializer — copy-on-write under ``fork``,
    unpickled under ``spawn`` and ``forkserver``.  :meth:`run_batch`
    serves a waiting caller; :meth:`submit` dispatches a request on
    arrival and returns a future.

    Given a :class:`~repro.runtime.progressive.ProgressivePolicy`, either
    entry point runs :meth:`ExecutionPlan.run_progressive` as one
    unsharded shard (a progressive request is one resumable evaluation)
    and yields its :class:`~repro.runtime.progressive.ProgressiveOutcome`
    instead of logits.  Such a shard clocks no ``bits_simulated``, gets
    no fixed-point fallback, and records its ``progressive_*`` counters
    in the shard's metrics update.
    """

    def __init__(self, plan: ExecutionPlan, config: RuntimeConfig,
                 metrics: RuntimeMetrics, reference=None):
        self.plan = plan
        self.config = config
        self.metrics = metrics
        self.reference = reference
        self._executor = None
        self._executor_lock = threading.Lock()
        self._closed = False

    # -- public API --------------------------------------------------

    def run_batch(self, x: np.ndarray, policy=None):
        """Shard, execute, and merge one ``(N, ...)`` batch, returning
        when its last shard is in (the serial backend computes it
        inline, on the calling thread).  The batch counts as one
        request, recorded with its dispatch and merge times in one
        metrics update, failed or not."""
        with obs.span("pool:wave", category="pool") as wave:
            t0 = time.perf_counter()
            shards = self._shards(x, policy)
            dispatch_s = time.perf_counter() - t0
            merge_s = 0.0
            wave.add_counter("shards", len(shards))
            try:
                futures = self._submit(shards, policy)
                outputs = [self._collect(future, shard, policy)
                           for future, shard in zip(futures, shards)]
                t0 = time.perf_counter()
                logits = self._merge(outputs)
                merge_s = time.perf_counter() - t0
            finally:
                self.metrics.add_request(dispatch_s, merge_s)
            return logits

    def submit(self, x: np.ndarray, policy=None) -> Future:
        """Dispatch one ``(N, ...)`` request now; returns a
        :class:`~concurrent.futures.Future` of its logits (or, under a
        progressive ``policy``, of its outcome).

        The request is sharded exactly as :meth:`run_batch` shards it
        (so its bits are :meth:`run_batch`'s), every shard goes to the
        executor at once, and the future resolves to the shard-ordered
        merge when the last shard lands.  The serial backend runs
        submitted shards on one pool thread, in arrival order, never on
        the caller's thread.  An accepted request counts as one request
        in the metrics.

        Cancelling the future before it resolves cancels the shards that
        have not started, which are then never computed; shards already
        running finish and their results are dropped.  A shard failure
        resolves the future with the error, or, under
        ``fallback="fixedpoint"``, with the shard recomputed on the
        reference.  Raises :class:`BatcherClosedError` once
        :meth:`close` has begun.
        """
        submitted_at = time.perf_counter()
        request = _Request(self._shards(x, policy), policy, submitted_at)
        dispatch_s = time.perf_counter() - submitted_at
        if not request.shards:
            self.metrics.add_request(dispatch_s)
            request.resolve(self._merge([]))
            return request.future
        request.shard_futures = self._submit(request.shards, policy, request)
        self.metrics.add_request(dispatch_s, in_flight=1)
        request.future.add_done_callback(
            functools.partial(self._settle, request))
        for index, shard_future in enumerate(request.shard_futures):
            shard_future.add_done_callback(
                functools.partial(self._land, request, index))
        return request.future

    def start(self) -> None:
        """Build the executor now, so the first :meth:`submit` does not
        pay for it on the caller's thread — an event loop, when serving.
        A process pool has spawned and initialized every worker when
        this returns (the warm protocol, :meth:`_warm_up`)."""
        with self._executor_lock:
            self._open_executor()

    def close(self) -> None:
        """Shut the executor down; idempotent and thread-safe.

        Concurrent closers all wait for in-flight shards to finish
        (``shutdown(wait=True)`` is itself reentrant), so every request
        :meth:`submit` accepted resolves; submits racing a close fail
        with :class:`BatcherClosedError` instead of silently opening a
        new executor after shutdown.  A process pool's workers have
        exited when this returns.
        """
        with self._executor_lock:
            self._closed = True
            executor = self._executor
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # -- execution backends ------------------------------------------

    def _shards(self, x, policy=None) -> list:
        """``x`` cut into contiguous slices of at most ``shard_size``;
        a progressive request is one shard, whatever its size."""
        x = np.asarray(x, dtype=np.float64)
        size = self.config.shard_size
        if policy is not None or 0 < x.shape[0] <= size:
            return [x]
        return [x[start:start + size] for start in range(0, x.shape[0], size)]

    def _merge(self, outputs) -> np.ndarray:
        """Shard logits concatenated in shard order (a lone shard's
        logits as they are)."""
        if not outputs:
            return np.zeros((0,) + self.plan.output_shape)
        if len(outputs) == 1:
            return outputs[0]
        return np.concatenate(outputs, axis=0)

    def _submit(self, shards, policy=None, request=None) -> list:
        """Dispatch shards; returns one future per shard, in order.

        :meth:`run_batch`'s shards (no ``request``) on the serial
        backend are computed eagerly, in shard order, on the calling
        thread — the reference order.  Everything else goes to the
        executor, under the executor lock, so a :meth:`close` either
        refuses every shard of a request or waits for all of them.  A
        wave's span is captured here, on the submitting thread, and
        handed to thread-pool shards so their ``shard:compute`` spans
        attach under it; a submitted request's shards start root spans.

        An executor broken by a dead worker is replaced once and the
        shards resubmitted: shards that were in flight on it fail with
        its error, and the pool serves on.
        """
        if request is None and self.config.backend == "serial":
            # Inline shards nest under the wave, this thread's open span.
            return [_Immediate(self._run_local, shard, policy)
                    for shard in shards]
        parent = obs.current() if request is None else None
        with self._executor_lock:
            executor = self._open_executor()
            try:
                return self._enqueue(executor, shards, policy, parent,
                                     request)
            except BrokenExecutor:
                executor.shutdown(wait=True)
                self._executor = None
                return self._enqueue(self._open_executor(), shards, policy,
                                     parent, request)

    def _enqueue(self, executor, shards, policy, parent, request) -> list:
        """Hand each shard to ``executor`` (caller holds the lock)."""
        if self.config.backend == "process":
            return [executor.submit(_run_shard_in_worker, shard, policy)
                    for shard in shards]
        return [executor.submit(self._run_local, shard, policy, parent,
                                request) for shard in shards]

    def _land(self, request: "_Request", index: int, future) -> None:
        """Done-callback of a submitted shard: collect it and resolve
        the request when its last shard is in."""
        if future.cancelled():
            return
        try:
            logits = self._collect(future, request.shards[index],
                                   request.policy, request)
        except Exception as exc:   # the request's error, not the pool's
            request.resolve(error=exc)
            return
        if request.land(index, logits) and not request.future.done():
            with self.metrics.stage("merge"):
                merged = self._merge(request.outputs)
            request.resolve(merged)

    def _settle(self, request: "_Request", future) -> None:
        """Done-callback of a request: cancel its shards that have not
        started (none are left once it resolved normally)."""
        for shard_future in request.shard_futures:
            shard_future.cancel()
        self.metrics.add_queue_depth(-1)

    def _collect(self, future, shard: np.ndarray, policy=None,
                 request: "_Request" = None):
        """Resolve one shard, applying the fallback policy on failure,
        and record it in the metrics with one update."""
        try:
            result = future.result()
        except Exception:
            if (policy is not None or self.config.fallback != "fixedpoint"
                    or self.reference is None):
                self.metrics.add_counts(errors=1)
                raise
            return self._run_fallback(shard)
        if self.config.backend == "process":
            logits, compute_s, act_hits, act_misses = result
            if request is not None:
                # A worker process's clock is not this one: date the
                # shard's start back from its landing by its compute.
                request.start(self.metrics,
                              time.perf_counter() - compute_s)
            # Spans cannot cross the process boundary; attach the
            # worker-reported compute time as a synthetic span so the
            # trace still attributes shard wall time (per-layer detail
            # needs the serial or thread backend).
            obs.tracer().record_span(
                "shard:compute", compute_s, category="shard",
                counters={"samples": shard.shape[0],
                          "act_cache_hits": act_hits,
                          "act_cache_misses": act_misses},
            )
        else:
            (logits, compute_s), act_hits, act_misses = result, 0, 0
        self.metrics.add_shard(
            shard.shape[0],
            shard.shape[0] * self.plan.bits_per_sample if policy is None
            else 0,
            compute_s, act_cache_hits=act_hits, act_cache_misses=act_misses,
            progressive=None if policy is None else logits)
        return logits

    def _run_local(self, x: np.ndarray, policy=None, parent=None,
                   request: "_Request" = None) -> tuple:
        """Serial/thread execution against the shared plan; returns
        ``(logits or outcome, compute seconds)`` for :meth:`_collect`."""
        if request is not None:
            request.start(self.metrics)
        with obs.span("shard:compute", category="shard",
                      parent=parent) as span:
            t0 = time.perf_counter()
            result = (self.plan.run(x) if policy is None
                      else self.plan.run_progressive(x, policy))
            compute_s = time.perf_counter() - t0
            span.add_counter("samples", x.shape[0])
            return result, compute_s

    def _run_fallback(self, shard: np.ndarray) -> np.ndarray:
        """Degrade one failed shard to fixed-point reference execution.

        The fixed-point logits are the infinite-stream-length limit of
        the SC datapath: argmax-compatible, but on the reference scale
        rather than the stochastic counter scale.
        """
        with obs.span("shard:fallback", category="shard") as span:
            span.add_counter("samples", shard.shape[0])
            with self.metrics.stage("fallback"):
                logits = self.reference.forward(shard)
        self.metrics.add_counts(shards=1, samples=shard.shape[0],
                                fallbacks=1, errors=1)
        return logits

    def _open_executor(self):
        """The live executor, built on first use (caller holds the
        lock).  The serial backend's is one thread, for submitted
        requests only."""
        if self._closed:
            raise BatcherClosedError("worker pool is closed")
        if self._executor is None:
            if self.config.backend == "process":
                self._spawn_process_pool()
            else:
                self._executor = ThreadPoolExecutor(
                    max_workers=(1 if self.config.backend == "serial"
                                 else self.config.workers),
                    thread_name_prefix="repro-runtime",
                )
        return self._executor

    def _spawn_process_pool(self) -> None:
        """Build the process executor (caller holds the lock).

        Every worker receives the plan through the pool initializer, and
        the warm protocol runs before the first shard.
        """
        workers = self.config.workers
        self._executor = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(self.plan, multiprocessing.Barrier(workers)),
        )
        self._warm_up(workers)

    def _warm_up(self, workers: int) -> None:
        """Run the warm handshake: one barrier task per worker.

        Submitting ``workers`` blocking tasks forces the executor to
        spawn its full complement (a barrier-parked worker cannot take
        a second task), and the barrier releases only once all of them
        have run their initializer.  A degraded handshake (timeout,
        broken barrier) is counted as an error but is not fatal:
        workers still serve correctly, they just may start lazily.
        """
        futures = [self._executor.submit(_worker_handshake)
                   for _ in range(workers)]
        for future in futures:
            try:
                future.result(timeout=_HANDSHAKE_TIMEOUT_S + 10.0)
            except Exception:
                self.metrics.add_counts(errors=1)


class _Request:
    """One submitted request in flight: its shards, their futures, and
    the future that resolves to the shard-ordered merge."""

    __slots__ = ("shards", "policy", "outputs", "future", "shard_futures",
                 "submitted_at", "_pending", "_started", "_resolved",
                 "_lock")

    def __init__(self, shards: list, policy, submitted_at: float):
        self.shards = shards
        self.policy = policy
        self.outputs = [None] * len(shards)
        self.future = Future()
        self.shard_futures = []
        self.submitted_at = submitted_at
        self._pending = len(shards)
        self._started = False
        self._resolved = False
        self._lock = threading.Lock()

    def start(self, metrics: RuntimeMetrics, at: float = None) -> None:
        """Record the request's ``queue`` time when its first shard
        starts (``at``, default now); later shards record nothing."""
        with self._lock:
            if self._started:
                return
            self._started = True
        if at is None:
            at = time.perf_counter()
        metrics.add_stage_time("queue", max(0.0, at - self.submitted_at))

    def land(self, index: int, logits: np.ndarray) -> bool:
        """Store shard ``index``'s logits; True once every shard is in."""
        with self._lock:
            self.outputs[index] = logits
            self._pending -= 1
            return self._pending == 0

    def resolve(self, result: np.ndarray = None,
                error: BaseException = None) -> None:
        """Settle the future once.  A future the caller cancelled stays
        cancelled; one that is not can no longer be cancelled once this
        has marked it running, so setting it never raises
        ``InvalidStateError``."""
        with self._lock:
            if self._resolved:
                return
            self._resolved = True
        if not self.future.set_running_or_notify_cancel():
            return
        if error is not None:
            self.future.set_exception(error)
        else:
            self.future.set_result(result)


class _Immediate:
    """Future-alike wrapping an eagerly computed (serial) result."""

    def __init__(self, fn, *args):
        try:
            self._result = fn(*args)
            self._exc = None
        except Exception as exc:  # resolved in _collect, like a Future
            self._exc = exc

    def result(self):
        if self._exc is not None:
            raise self._exc
        return self._result
