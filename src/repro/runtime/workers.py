"""Shard execution: serial reference, thread pool, or process pool.

The unit of work is a *shard* — a contiguous slice of samples no larger
than ``RuntimeConfig.shard_size``.  Sharding is where the determinism
guarantee lives: the functional simulator derives every activation
stream seed from the position index *within* the forwarded array, so a
shard's logits are a pure function of (shard contents, SC config).  The
pool therefore always splits identically and always merges in shard
order, making any backend and any worker count bit-identical to the
serial reference execution.

On shard failure the pool can degrade gracefully: with
``fallback="fixedpoint"`` the failed shard is re-run on the 8-bit
fixed-point reference network in the parent, the batch completes, and
the failure is recorded in the metrics instead of crashing the caller.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np

from .. import obs
from ..simulator.engine import ENCODE_CACHE
from . import shm
from .batcher import BatcherClosedError
from .config import RuntimeConfig
from .metrics import RuntimeMetrics
from .plan import ExecutionPlan

__all__ = ["WorkerPool"]

# Per-process plan installed by the ProcessPoolExecutor initializer; the
# plan is either attached zero-copy from the parent's shared-memory
# publication (shm path) or shipped as a warm pickled copy per worker
# (fallback path).  The token identifies the executor generation that
# installed it: shards carry the generation they were compiled against,
# so a stale module-global plan (e.g. left behind by a respawned pool)
# can never silently serve new traffic.
_WORKER_PLAN = None
_WORKER_TOKEN = None
_WORKER_BARRIER = None
_WORKER_ATTACH = None

#: Workers wait at most this long for the warm-up barrier; a broken
#: barrier degrades to serving without the all-attached guarantee
#: rather than wedging the pool.
_HANDSHAKE_TIMEOUT_S = 30.0


def _init_worker(plan: ExecutionPlan, token: int) -> None:
    global _WORKER_PLAN, _WORKER_TOKEN, _WORKER_BARRIER, _WORKER_ATTACH
    _WORKER_PLAN = plan
    _WORKER_TOKEN = token
    _WORKER_BARRIER = None
    _WORKER_ATTACH = None


def _init_worker_shm(ref, token: int, barrier) -> None:
    """Pool initializer for the shared-memory path.

    Attaches the parent's published segment (zero-copy read-only views
    of the plan's weight words) and stows the warm-up barrier for the
    handshake tasks.  The worker builds its activation encode tables
    itself, on first use.
    """
    global _WORKER_PLAN, _WORKER_TOKEN, _WORKER_BARRIER, _WORKER_ATTACH
    t0 = time.perf_counter()
    _WORKER_PLAN = shm.attach_plan(ref)
    _WORKER_TOKEN = token
    _WORKER_BARRIER = barrier
    _WORKER_ATTACH = {
        "pid": os.getpid(),
        "segment": ref.segment,
        "segment_bytes": ref.total_bytes,
        "attach_seconds": time.perf_counter() - t0,
    }


def _worker_handshake() -> dict:
    """One warm-protocol task per worker: rendezvous, report attach.

    The parent submits exactly ``workers`` of these before the first
    wave; each blocks on the shared barrier, so every worker process is
    spawned *and attached* before any returns — no wave can land on a
    cold worker, and the parent gets per-worker attach stats back.
    """
    info = dict(_WORKER_ATTACH or {"pid": os.getpid()})
    barrier = _WORKER_BARRIER
    if barrier is not None:
        try:
            barrier.wait(timeout=_HANDSHAKE_TIMEOUT_S)
        except threading.BrokenBarrierError:
            info["barrier_broken"] = True
    return info


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
    plan caches); the process backend ships a warm copy of the plan to
    each worker via the pool initializer.
    """

    def __init__(self, plan: ExecutionPlan, config: RuntimeConfig,
                 metrics: RuntimeMetrics, reference=None,
                 name: str = None):
        self.plan = plan
        self.config = config
        self.metrics = metrics
        self.reference = reference
        #: Model name component of the shared-memory publication key
        #: (the serve registry passes its registry name through).
        self.name = name or "plan"
        self._executor = None
        self._executor_lock = threading.Lock()
        self._closed = False
        self._plan_token = 0
        self._plan_ref = None
        self._warm_info = None

    # -- public API --------------------------------------------------

    def run_batch(self, x: np.ndarray) -> np.ndarray:
        """Shard, execute, and merge one ``(N, ...)`` batch."""
        return self.execute_many([x])[0]

    def execute_many(self, arrays) -> list:
        """Execute several independent request arrays as one wave.

        Each array is sharded on its own (shards never span requests, so
        a request's logits do not depend on what it was co-batched
        with), all shards are dispatched together, and per-request
        results are reassembled in order.
        """
        with obs.span("pool:wave", category="pool") as wave:
            with self.metrics.stage("dispatch"):
                jobs = []  # (request_idx, shard)
                for idx, x in enumerate(arrays):
                    x = np.asarray(x, dtype=np.float64)
                    for start in range(0, x.shape[0],
                                       self.config.shard_size):
                        jobs.append(
                            (idx, x[start:start + self.config.shard_size])
                        )
            wave.add_counter("requests", len(arrays))
            wave.add_counter("shards", len(jobs))
            futures = self._submit([shard for _, shard in jobs])
            outputs = [self._collect(f, shard) for f, (_, shard)
                       in zip(futures, jobs)]
            with self.metrics.stage("merge"):
                results = []
                for idx, x in enumerate(arrays):
                    parts = [out for (i, _), out in zip(jobs, outputs)
                             if i == idx]
                    if not parts:
                        results.append(
                            np.zeros((0,) + self.plan.output_shape)
                        )
                    else:
                        results.append(np.concatenate(parts, axis=0))
            return results

    def close(self) -> None:
        """Shut the executor down; idempotent and thread-safe.

        Concurrent closers all wait for in-flight shards to finish
        (``shutdown(wait=True)`` is itself reentrant); submits racing a
        close fail with :class:`BatcherClosedError` instead of silently
        respawning an executor after shutdown.  Releases this pool's
        reference on the shared-memory publication — the segment is
        unlinked when the last pool serving this compiled model closes.
        """
        with self._executor_lock:
            self._closed = True
            executor = self._executor
            ref, self._plan_ref = self._plan_ref, None
        if executor is not None:
            executor.shutdown(wait=True)
        if ref is not None:
            shm.SHARED_PLANS.release(ref.key)

    def respawn(self, plan: ExecutionPlan = None) -> None:
        """Tear down the executor and reopen the pool, optionally with a
        new plan.

        A closed (or live) pool comes back serving the *current* plan:
        the old executor's workers — whose module-global plan is now
        stale — are shut down, the shared-memory publication for the
        old plan is released, and the next wave builds a fresh executor
        whose initializer installs ``self.plan`` under a new generation
        token.  Shards always carry their generation, so a worker that
        somehow survived with the old plan fails loudly instead of
        returning the old model's logits.
        """
        with self._executor_lock:
            executor, self._executor = self._executor, None
            ref, self._plan_ref = self._plan_ref, None
            self._warm_info = None
            self._closed = False
            if plan is not None:
                self.plan = plan
        if executor is not None:
            executor.shutdown(wait=True)
        if ref is not None:
            shm.SHARED_PLANS.release(ref.key)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # -- execution backends ------------------------------------------

    def _submit(self, shards) -> list:
        """Dispatch shards; returns one result-thunk per shard, in order.

        The current span (the wave) is captured here, on the submitting
        thread, and handed to thread-pool shards so their
        ``shard:compute`` spans attach under the right parent."""
        backend = self.config.backend
        parent = obs.current()
        if backend == "serial":
            # The reference order: compute eagerly, in shard order.
            return [_Immediate(self._run_local, shard, parent)
                    for shard in shards]
        executor = self._ensure_executor()
        try:
            if backend == "thread":
                return [executor.submit(self._run_local, shard, parent)
                        for shard in shards]
            token = self._plan_token
            return [executor.submit(_run_shard_in_worker, shard, token)
                    for shard in shards]
        except RuntimeError as exc:
            # close() may shut the executor down between _ensure_executor
            # and submit (a registry evicting this model during an
            # in-flight wave); that is a closed pool, not an internal
            # error.
            raise BatcherClosedError("worker pool is closed") from exc

    def _collect(self, future, shard: np.ndarray) -> np.ndarray:
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

    def _run_local(self, x: np.ndarray, parent=None) -> np.ndarray:
        """Serial/thread execution against the shared plan."""
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

    def _ensure_executor(self):
        with self._executor_lock:
            if self._closed:
                raise BatcherClosedError("worker pool is closed")
            if self._executor is None:
                if self.config.backend == "thread":
                    self._executor = ThreadPoolExecutor(
                        max_workers=self.config.workers,
                        thread_name_prefix="repro-runtime",
                    )
                else:
                    self._spawn_process_pool()
            return self._executor

    def _spawn_process_pool(self) -> None:
        """Build the process executor (caller holds the lock).

        Each executor generation gets a fresh token; with shared memory
        enabled the parent publishes the plan once and runs the warm
        protocol so every worker is attached before the first wave.
        The fallback initializer ships a pickled warm plan per worker —
        the canonical, bit-identical path.
        """
        self._plan_token += 1
        token = self._plan_token
        workers = self.config.workers
        if self._shm_enabled():
            ref = self._publish()
            barrier = multiprocessing.Barrier(workers)
            self._executor = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker_shm,
                initargs=(ref, token, barrier),
            )
            self._warm_up(workers)
        else:
            self._executor = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(self.plan, token),
            )

    def _shm_enabled(self) -> bool:
        if self.config.backend != "process":
            return False
        mode = self.config.shm
        if mode == "never":
            return False
        supported = shm.shm_supported()
        if mode == "always" and not supported:
            raise RuntimeError(
                "RuntimeConfig(shm='always') but shared memory is not "
                "supported on this host"
            )
        return supported

    def _publish(self):
        """Acquire (or reuse) the shared publication for this plan."""
        if self._plan_ref is None:
            key = (self.name, self.plan.fingerprint(), 0)
            with self.metrics.stage("publish"):
                self._plan_ref = shm.SHARED_PLANS.acquire(
                    key, lambda: self.plan)
        return self._plan_ref

    def _warm_up(self, workers: int) -> None:
        """Run the cache-warm handshake: one barrier task per worker.

        Submitting ``workers`` blocking tasks forces the executor to
        spawn its full complement (a barrier-parked worker cannot take
        a second task), and the barrier releases only once all of them
        have run their initializer — i.e. attached the segment.  A
        degraded handshake (timeout, broken barrier) is recorded but
        not fatal: workers still serve correctly, they just may attach
        lazily.
        """
        futures = [self._executor.submit(_worker_handshake)
                   for _ in range(workers)]
        infos = []
        for future in futures:
            try:
                infos.append(future.result(
                    timeout=_HANDSHAKE_TIMEOUT_S + 10.0))
            except Exception:
                self.metrics.add_counts(errors=1)
        attached = [i for i in infos if "attach_seconds" in i]
        self._warm_info = {
            "workers": workers,
            "attached": len(attached),
            "broken": sum(1 for i in infos if i.get("barrier_broken")),
            "attach_seconds": sum(i["attach_seconds"] for i in attached),
        }

    def shm_stats(self) -> dict:
        """This pool's view of the shared publication (or fallback)."""
        with self._executor_lock:
            ref = self._plan_ref
            warm = dict(self._warm_info or {})
        if ref is None:
            return {"enabled": False, "mode": self.config.shm}
        return {
            "enabled": True,
            "mode": self.config.shm,
            "segment": ref.segment,
            "bytes": ref.total_bytes,
            "weight_bytes": ref.weight_bytes,
            "warm": warm,
        }


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
