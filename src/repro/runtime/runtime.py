"""The inference runtime: plan + worker pool + metrics.

:class:`InferenceRuntime` is the serving front-end for the bitstream-
exact functional simulator.  Construction compiles an
:class:`~repro.runtime.plan.ExecutionPlan` (installing every layer's
engine plans), then requests flow::

    submit(x)  -> WorkerPool.submit: shards -> executor -> merge -> Future
    infer(x)   -> WorkerPool.run_batch: the same shards, caller waits
    infer_progressive(x, policy), submit(x, policy)
               -> the same two entry points: one unsharded shard

A submitted request is dispatched the moment it arrives: shards never
span requests, so holding one back to coalesce it with others would
buy no compute.  A progressive request is one more kind of pool work,
under the same worker bound, metrics and cancellation as the others.

Determinism: logits are a pure function of (request contents, SC
config, shard_size) — independent of backend, worker count, concurrent
traffic, and timing.  See ``docs/runtime.md`` for the argument.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..simulator.config import SCConfig
from ..simulator.fixedpoint import FixedPointNetwork
from ..simulator.network import SCNetwork
from ..simulator.progressive import check_resumable
from .config import RuntimeConfig
from .metrics import RuntimeMetrics
from .plan import ExecutionPlan
from .progressive import ProgressivePolicy
from .workers import BatcherClosedError, WorkerPool

__all__ = ["InferenceRuntime"]


class InferenceRuntime:
    """Parallel, observable SC inference.

    Parameters
    ----------
    network:
        The :class:`SCNetwork` to serve.
    input_shape:
        Per-sample input shape ``(C, H, W)``.
    sc_config:
        Optional :class:`SCConfig` override (defaults to the network's).
    config:
        :class:`RuntimeConfig` (workers, backend, shard size, fallback
        policy).
    reference:
        Optional fallback executor for ``fallback="fixedpoint"`` — a
        :class:`FixedPointNetwork`, or a trained
        :class:`~repro.training.network.Sequential` to wrap in one.
    """

    def __init__(self, network: SCNetwork, input_shape: tuple,
                 sc_config: SCConfig = None, config: RuntimeConfig = None,
                 reference=None):
        self.config = config if config is not None else RuntimeConfig()
        if self.config.trace:
            obs.enable()
        self.metrics = RuntimeMetrics()
        with self.metrics.stage("plan"):
            self.plan = ExecutionPlan(network, input_shape, sc_config)
        if reference is not None and not isinstance(reference,
                                                    FixedPointNetwork):
            reference = FixedPointNetwork(reference)
        if self.config.fallback == "fixedpoint" and reference is None:
            raise ValueError(
                "fallback='fixedpoint' requires a reference network"
            )
        self.pool = WorkerPool(self.plan, self.config, self.metrics,
                               reference=reference)
        self._closed = False

    # -- inference ---------------------------------------------------

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Synchronous inference on one ``(N, C, H, W)`` batch.

        Runs :meth:`WorkerPool.run_batch` on the calling thread's
        schedule (the serial backend computes inline); it shards as
        :meth:`submit` does, so results are bit-identical to
        :meth:`submit` and to serial execution.
        """
        self._check_input(x)
        return self.pool.run_batch(x)

    def submit(self, x: np.ndarray, policy=None):
        """Asynchronous inference; returns a Future of the logits.

        The request goes straight to the worker pool
        (:meth:`WorkerPool.submit`): its shards start as soon as a
        worker is free, whatever other traffic is in flight.  Cancelling
        the future skips the shards that have not started.  Each
        request counts as one batch in :meth:`snapshot`.  With a
        progressive ``policy`` the request is :meth:`infer_progressive`'s
        one shard, and the future resolves to its outcome.
        """
        self._check_input(x, policy)
        return self.pool.submit(x, policy)

    def infer_progressive(self, x: np.ndarray, policy=None):
        """Synchronous anytime inference with confidence-gated early
        exit.

        Runs the plan's resumable evaluation
        (:meth:`ExecutionPlan.run_progressive`) under ``policy`` (a
        :class:`~repro.runtime.progressive.ProgressivePolicy`; default
        if ``None``) and returns the
        :class:`~repro.runtime.progressive.ProgressiveOutcome`.  The
        evaluation is one unsharded shard of :meth:`WorkerPool.run_batch`
        on the configured backend — a progressive request is one
        resumable evaluation whose state lives across extension rounds
        — so its logits are the serial ones bit for bit.  Chosen-length
        and early-exit counters land in :meth:`snapshot`.
        """
        if policy is None:
            policy = ProgressivePolicy()
        self._check_input(x, policy)
        return self.pool.run_batch(x, policy)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Synchronous argmax over :meth:`infer` logits."""
        x = np.asarray(x)
        if x.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        return np.argmax(self.infer(x), axis=-1)

    # -- observability -----------------------------------------------

    def snapshot(self):
        """Point-in-time :class:`~repro.runtime.metrics.MetricsSnapshot`.

        Folds in the engine's per-kernel timings (the obs layer's
        :data:`~repro.obs.KERNEL_COUNTERS` store) and activation-encode
        cache counters (process-backed workers report theirs with each
        shard result).  With :mod:`repro.obs` tracing enabled, the
        per-IR-layer span totals from the process-global trace tree are
        folded in as well, giving :meth:`MetricsSnapshot.render` its
        per-layer breakdown.  The engine stats are process-global, so
        with a process backend they cover only work done in this
        process.
        """
        from ..simulator.engine import ENCODE_CACHE
        act_hits, act_misses = ENCODE_CACHE.counters()
        layer_seconds = (obs.aggregate_spans(category="layer")
                         if obs.enabled() else None)
        return self.metrics.snapshot(
            kernel_seconds=obs.KERNEL_COUNTERS.snapshot(),
            act_cache_hits=act_hits,
            act_cache_misses=act_misses,
            layer_seconds=layer_seconds,
        )

    def describe(self) -> str:
        """The compiled plan's per-layer table."""
        return self.plan.describe()

    def shm_stats(self) -> dict:
        """``{"enabled": False, "mode": config.shm}``: no plan is
        published to shared memory.  Kept only because the benchmark's
        offline workloads still read it (see ``RuntimeConfig.shm``)."""
        return {"enabled": False, "mode": self.config.shm}

    # -- lifecycle ---------------------------------------------------

    def close(self) -> None:
        """Refuse new requests with :class:`BatcherClosedError` and wait
        for every in-flight shard, so each accepted request resolves;
        idempotent."""
        if self._closed:
            return
        self._closed = True
        self.pool.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def _check_input(self, x, policy=None) -> None:
        """Validate a request at the one boundary :meth:`infer`,
        :meth:`submit` and :meth:`infer_progressive` share: an open
        runtime, a batched array of the plan's per-sample shape, finite
        values, and for a progressive ``policy`` a resumable plan.  A
        bad request raises ``ValueError``, which serve answers as
        ``bad_request``."""
        if self._closed:
            raise BatcherClosedError("runtime is closed")
        x = np.asarray(x)
        if x.ndim != len(self.plan.input_shape) + 1:
            raise ValueError(
                f"expected batched input with shape (N, "
                f"{', '.join(str(d) for d in self.plan.input_shape)}), "
                f"got {x.shape}"
            )
        if tuple(x.shape[1:]) != self.plan.input_shape:
            raise ValueError(
                f"per-sample shape {tuple(x.shape[1:])} does not match "
                f"the plan's input shape {self.plan.input_shape}"
            )
        if x.dtype.kind in "fc":
            bad = x.size - int(np.count_nonzero(np.isfinite(x)))
            if bad:
                raise ValueError(
                    f"input holds {bad} non-finite value(s) (NaN or inf)")
        if policy is not None:
            check_resumable(self.plan.config)
