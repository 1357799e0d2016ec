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
:class:`~concurrent.futures.Future` of the merged logits.

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
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor

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
# under ``spawn`` and ``forkserver``.  The token identifies the executor
# generation that installed it: shards carry the generation they were
# compiled against, so a stale module-global plan (e.g. left behind by a
# respawned pool) can never silently serve new traffic.
_WORKER_PLAN = None
_WORKER_TOKEN = None
_WORKER_BARRIER = None

#: Workers wait at most this long for the warm-up barrier; a broken
#: barrier is counted as an error rather than wedging the pool.
_HANDSHAKE_TIMEOUT_S = 30.0


def _init_worker(plan: ExecutionPlan, token: int, barrier) -> None:
    global _WORKER_PLAN, _WORKER_TOKEN, _WORKER_BARRIER
    _WORKER_PLAN = plan
    _WORKER_TOKEN = token
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


def _run_shard_in_worker(x: np.ndarray, token: int) -> tuple:
    """Execute one shard in a pool process; returns stats for the parent.

    Worker processes have their own cache counters, so the
    activation-encode hit/miss deltas are measured here and folded into
    the parent metrics with the result.  ``token`` must match the plan
    generation installed by this process's initializer.
    """
    if token != _WORKER_TOKEN:
        raise RuntimeError(
            f"worker holds plan generation {_WORKER_TOKEN}, shard wants "
            f"{token}; the pool was respawned without reinstalling"
        )
    t0 = time.perf_counter()
    a_h0, a_m0 = ENCODE_CACHE.counters()
    logits = _WORKER_PLAN.run(x)
    a_h1, a_m1 = ENCODE_CACHE.counters()
    return (logits, time.perf_counter() - t0, a_h1 - a_h0, a_m1 - a_m0)


class WorkerPool:
    """Execute shards of samples on the configured backend.

    Thread and serial backends share the caller's plan (and its layers'
    plan caches); the process backend hands the plan to each worker
    through the pool initializer — copy-on-write under ``fork``,
    unpickled under ``spawn`` and ``forkserver``.  :meth:`run_batch`
    serves a waiting caller; :meth:`submit` dispatches a request on
    arrival and returns a future.
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
        self._plan_token = 0

    # -- public API --------------------------------------------------

    def run_batch(self, x: np.ndarray) -> np.ndarray:
        """Shard, execute, and merge one ``(N, ...)`` batch, returning
        when its last shard is in (the serial backend computes it
        inline, on the calling thread)."""
        with obs.span("pool:wave", category="pool") as wave:
            with self.metrics.stage("dispatch"):
                shards = self._shards(x)
            wave.add_counter("shards", len(shards))
            futures = self._submit(shards)
            outputs = [self._collect(future, shard)
                       for future, shard in zip(futures, shards)]
            with self.metrics.stage("merge"):
                return self._merge(outputs)

    def submit(self, x: np.ndarray) -> Future:
        """Dispatch one ``(N, ...)`` request now; returns a
        :class:`~concurrent.futures.Future` of its logits.

        The request is sharded exactly as :meth:`run_batch` shards it
        (so its bits are :meth:`run_batch`'s), every shard goes to the
        executor at once, and the future resolves to the shard-ordered
        merge when the last shard lands.  The serial backend runs
        submitted shards on one pool thread, in arrival order, never on
        the caller's thread.

        Cancelling the future before it resolves cancels the shards that
        have not started, which are then never computed; shards already
        running finish and their results are dropped.  A shard failure
        resolves the future with the error, or, under
        ``fallback="fixedpoint"``, with the shard recomputed on the
        reference.  Raises :class:`BatcherClosedError` once
        :meth:`close` has begun.
        """
        submitted_at = time.perf_counter()
        with self.metrics.stage("dispatch"):
            request = _Request(self._shards(x), submitted_at)
        if not request.shards:
            request.resolve(self._merge([]))
            return request.future
        request.shard_futures = self._submit(request.shards, request)
        self.metrics.add_queue_depth(1)
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
        with :class:`BatcherClosedError` instead of silently respawning
        an executor after shutdown.  A process pool's workers have
        exited when this returns.
        """
        with self._executor_lock:
            self._closed = True
            executor = self._executor
        if executor is not None:
            executor.shutdown(wait=True)

    def respawn(self, plan: ExecutionPlan = None) -> None:
        """Tear down the executor and reopen the pool, optionally with a
        new plan.

        A closed (or live) pool comes back serving the *current* plan:
        the old executor's workers — whose module-global plan is now
        stale — are shut down, and the next wave builds a fresh executor
        whose initializer installs ``self.plan`` under a new generation
        token.  Shards always carry their generation, so a worker that
        somehow survived with the old plan fails loudly instead of
        returning the old model's logits.
        """
        with self._executor_lock:
            executor, self._executor = self._executor, None
            self._closed = False
            if plan is not None:
                self.plan = plan
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # -- execution backends ------------------------------------------

    def _shards(self, x) -> list:
        """``x`` cut into contiguous slices of at most ``shard_size``."""
        x = np.asarray(x, dtype=np.float64)
        size = self.config.shard_size
        return [x[start:start + size] for start in range(0, x.shape[0], size)]

    def _merge(self, outputs) -> np.ndarray:
        """Shard logits concatenated in shard order."""
        if not outputs:
            return np.zeros((0,) + self.plan.output_shape)
        return np.concatenate(outputs, axis=0)

    def _submit(self, shards, request=None) -> list:
        """Dispatch shards; returns one future per shard, in order.

        :meth:`run_batch`'s shards (no ``request``) on the serial
        backend are computed eagerly, in shard order, on the calling
        thread — the reference order.  Everything else goes to the
        executor, under the executor lock, so a :meth:`close` either
        refuses every shard of a request or waits for all of them.  A
        wave's span is captured here, on the submitting thread, and
        handed to thread-pool shards so their ``shard:compute`` spans
        attach under it; a submitted request's shards start root spans.
        """
        parent = obs.current() if request is None else None
        if request is None and self.config.backend == "serial":
            return [_Immediate(self._run_local, shard, parent)
                    for shard in shards]
        with self._executor_lock:
            executor = self._open_executor()
            try:
                if self.config.backend == "process":
                    token = self._plan_token
                    return [executor.submit(_run_shard_in_worker, shard,
                                            token) for shard in shards]
                return [executor.submit(self._run_local, shard, parent,
                                        request) for shard in shards]
            except RuntimeError as exc:
                # A broken process pool refuses new work; to the caller
                # that is a closed pool, not an internal error.
                raise BatcherClosedError("worker pool is closed") from exc

    def _land(self, request: "_Request", index: int, future) -> None:
        """Done-callback of a submitted shard: collect it and resolve
        the request when its last shard is in."""
        if future.cancelled():
            return
        try:
            logits = self._collect(future, request.shards[index], request)
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

    def _collect(self, future, shard: np.ndarray,
                 request: "_Request" = None) -> np.ndarray:
        """Resolve one shard, applying the fallback policy on failure."""
        try:
            result = future.result()
        except Exception:
            if self.config.fallback != "fixedpoint" or self.reference is None:
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
            self.metrics.add_stage_time("compute", compute_s)
            self.metrics.add_counts(act_cache_hits=act_hits,
                                    act_cache_misses=act_misses)
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
            logits = result
        self.metrics.add_counts(
            shards=1, samples=shard.shape[0],
            bits_simulated=shard.shape[0] * self.plan.bits_per_sample,
        )
        return logits

    def _run_local(self, x: np.ndarray, parent=None,
                   request: "_Request" = None) -> np.ndarray:
        """Serial/thread execution against the shared plan."""
        if request is not None:
            request.start(self.metrics)
        with obs.span("shard:compute", category="shard",
                      parent=parent) as span:
            t0 = time.perf_counter()
            logits = self.plan.run(x)
            self.metrics.add_stage_time("compute", time.perf_counter() - t0)
            span.add_counter("samples", x.shape[0])
            return logits

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

        Each executor generation gets a fresh token.  Every worker
        receives the plan through the pool initializer, and the warm
        protocol runs before the first shard.
        """
        self._plan_token += 1
        workers = self.config.workers
        self._executor = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(self.plan, self._plan_token,
                      multiprocessing.Barrier(workers)),
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

    __slots__ = ("shards", "outputs", "future", "shard_futures",
                 "submitted_at", "_pending", "_started", "_resolved",
                 "_lock")

    def __init__(self, shards: list, submitted_at: float):
        self.shards = shards
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
