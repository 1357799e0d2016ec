"""The batched inference runtime: plan + batcher + worker pool + metrics.

:class:`InferenceRuntime` is the serving front-end for the bitstream-
exact functional simulator.  Construction compiles an
:class:`~repro.runtime.plan.ExecutionPlan` (installing every layer's
engine plans), then requests flow::

    submit(x) -> DynamicBatcher -> WorkerPool shards -> merge -> Future
    infer(x)  ----------------------^ (synchronous, no coalescing)

Determinism: logits are a pure function of (request contents, SC
config, shard_size) — independent of backend, worker count, co-batched
traffic, and timing.  See ``docs/runtime.md`` for the argument.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..simulator.config import SCConfig
from ..simulator.fixedpoint import FixedPointNetwork
from ..simulator.network import SCNetwork
from .batcher import BatcherClosedError, DynamicBatcher
from .config import RuntimeConfig
from .metrics import RuntimeMetrics
from .plan import ExecutionPlan
from .workers import WorkerPool

__all__ = ["InferenceRuntime"]


class InferenceRuntime:
    """Batched, parallel, observable SC inference.

    Parameters
    ----------
    network:
        The :class:`SCNetwork` to serve.
    input_shape:
        Per-sample input shape ``(C, H, W)``.
    sc_config:
        Optional :class:`SCConfig` override (defaults to the network's).
    config:
        :class:`RuntimeConfig` (workers, backend, batching windows,
        shard size, fallback policy).
    reference:
        Optional fallback executor for ``fallback="fixedpoint"`` — a
        :class:`FixedPointNetwork`, or a trained
        :class:`~repro.training.network.Sequential` to wrap in one.
    name:
        Optional model name; becomes the model component of the
        shared-memory publication key (the serve registry passes its
        registry name so segment accounting reads naturally).
    """

    def __init__(self, network: SCNetwork, input_shape: tuple,
                 sc_config: SCConfig = None, config: RuntimeConfig = None,
                 reference=None, name: str = None):
        self.config = config if config is not None else RuntimeConfig()
        if self.config.trace:
            obs.enable()
        self.metrics = RuntimeMetrics()
        with self.metrics.stage("plan"):
            self.plan = ExecutionPlan(
                network, input_shape, sc_config,
                autotune_budget_s=self.config.autotune_budget_s)
        if reference is not None and not isinstance(reference,
                                                    FixedPointNetwork):
            reference = FixedPointNetwork(reference)
        if self.config.fallback == "fixedpoint" and reference is None:
            raise ValueError(
                "fallback='fixedpoint' requires a reference network"
            )
        self.pool = WorkerPool(self.plan, self.config, self.metrics,
                               reference=reference, name=name)
        # One full shard per worker is the most a wave can use at once.
        workers = 1 if self.config.backend == "serial" else self.config.workers
        self.batcher = DynamicBatcher(
            self.pool.execute_many,
            max_batch=self.config.max_batch,
            max_wait_s=self.config.max_wait_s,
            metrics=self.metrics,
            flush_at=min(self.config.max_batch,
                         workers * self.config.shard_size),
        )
        self._closed = False

    # -- inference ---------------------------------------------------

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Synchronous inference on one ``(N, C, H, W)`` batch.

        Bypasses the dynamic batcher (no coalescing latency) but uses
        the same sharded execution path, so results are bit-identical to
        :meth:`submit` and to serial execution.
        """
        self._check_input(x)
        self.metrics.add_counts(requests=1, batches=1)
        return self.pool.run_batch(x)

    def submit(self, x: np.ndarray):
        """Asynchronous inference; returns a Future of the logits.

        Requests are coalesced by the dynamic batcher into waves
        (capped at ``max_batch`` samples), flushed once every worker has
        a full shard (``workers * shard_size`` samples) or after
        ``max_wait_s``, then sharded per request — coalescing never
        changes a request's bits.
        """
        self._check_input(x)
        return self.batcher.submit(x)

    def infer_progressive(self, x: np.ndarray, policy=None):
        """Synchronous anytime inference with confidence-gated early
        exit.

        Runs the plan's resumable evaluation
        (:meth:`ExecutionPlan.run_progressive`) under ``policy`` (a
        :class:`~repro.runtime.progressive.ProgressivePolicy`; default
        if ``None``) and returns the
        :class:`~repro.runtime.progressive.ProgressiveOutcome`.
        Bypasses the dynamic batcher and worker sharding — a
        progressive request is one resumable evaluation whose state
        lives across extension rounds.  Chosen-length and early-exit
        counters land in :meth:`snapshot`.
        """
        self._check_input(x)
        x = np.asarray(x, dtype=np.float64)
        with self.metrics.stage("compute"):
            outcome = self.plan.run_progressive(x, policy)
        self.metrics.add_counts(
            requests=1, batches=1, samples=x.shape[0],
            progressive_requests=1,
            progressive_extensions=outcome.extensions,
            progressive_early_exits=int(outcome.early_exit),
            progressive_final_length=outcome.phase_length,
        )
        return outcome

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
        """The pool's shared-memory publication record (see
        :meth:`~repro.runtime.workers.WorkerPool.shm_stats`)."""
        return self.pool.shm_stats()

    # -- lifecycle ---------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.batcher.close()
        self.pool.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def _check_input(self, x) -> None:
        """Validate a request at the one boundary :meth:`infer`,
        :meth:`submit` and :meth:`infer_progressive` share: an open
        runtime, a batched array of the plan's per-sample shape, finite
        values.  A bad array raises ``ValueError``, which serve answers
        as ``bad_request``."""
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
