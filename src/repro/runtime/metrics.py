"""Runtime observability: per-stage timings, cache hit rate, throughput.

The runtime records wall time per pipeline stage (plan compilation,
queueing, dispatch, compute, merge, fallback), counts work items at every
granularity (requests, batches, shards, samples), and derives throughput
in both samples/sec and simulated bitstream product-bits/sec — the
latter being the honest unit for an SC simulator, where one "MAC" is
``2 * phase_length`` clocked AND/OR bit operations per product lane.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from ..analysis import format_table

__all__ = ["RuntimeMetrics", "MetricsSnapshot", "StageTimer"]

#: Canonical stage names, in pipeline order (rendering preserves this).
#: ``queue`` is each submitted request's wait from ``submit`` until its
#: first shard starts.
STAGES = ("plan", "queue", "dispatch", "compute", "merge", "fallback")


def _layer_order(item):
    """Sort ``layer:<index>:<kind>`` rows numerically by layer index."""
    parts = item[0].split(":")
    try:
        return (0, int(parts[1]), item[0])
    except (IndexError, ValueError):
        return (1, 0, item[0])


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable point-in-time view of the runtime counters.

    ``stage_seconds`` holds cumulative wall time per pipeline stage.
    ``compute`` sums per-shard execution time, so with a parallel backend
    it can exceed elapsed wall time — the ratio is the achieved
    parallelism.
    """

    requests: int
    batches: int
    shards: int
    samples: int
    fallbacks: int
    errors: int
    stage_seconds: dict
    queue_depth: int
    max_queue_depth: int
    bits_simulated: int
    elapsed_s: float
    #: Per-kernel ``{name: (calls, seconds)}`` from the engine's
    #: KERNEL_STATS ("plan:or", "word:bipolar", "encode:act", ...).
    #: Matmul rows are end-to-end; "encode:*" rows are a breakdown.
    kernel_seconds: dict = field(default_factory=dict)
    #: Activation value -> packed-stream table cache (engine
    #: ENCODE_CACHE).
    act_cache_hits: int = 0
    act_cache_misses: int = 0
    #: Per-IR-layer ``{"layer:<i>:<kind>": (calls, seconds)}`` from the
    #: repro.obs trace tree; populated only while tracing is enabled.
    layer_seconds: dict = field(default_factory=dict)
    #: Anytime-inference counters: requests served progressively, how
    #: many extension rounds they took, how many stopped before the
    #: maximum length because the margin gate fired, and the summed
    #: final base phase length (for the mean).
    progressive_requests: int = 0
    progressive_extensions: int = 0
    progressive_early_exits: int = 0
    progressive_final_length: int = 0

    @property
    def progressive_mean_final_length(self) -> float:
        """Mean base phase length progressive requests settled at."""
        if not self.progressive_requests:
            return 0.0
        return self.progressive_final_length / self.progressive_requests

    @property
    def progressive_early_exit_rate(self) -> float:
        """Fraction of progressive requests the margin gate stopped
        before the maximum length."""
        if not self.progressive_requests:
            return 0.0
        return self.progressive_early_exits / self.progressive_requests

    @property
    def act_cache_hit_rate(self) -> float:
        total = self.act_cache_hits + self.act_cache_misses
        return self.act_cache_hits / total if total else 0.0

    @property
    def samples_per_s(self) -> float:
        return self.samples / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def bits_per_s(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.bits_simulated / self.elapsed_s

    def render(self) -> str:
        """Human-readable report via the shared table formatter."""
        counter_rows = [
            ("requests", self.requests),
            ("batches", self.batches),
            ("shards", self.shards),
            ("samples", self.samples),
            ("fallback shards", self.fallbacks),
            ("errors", self.errors),
            ("act-encode-cache hits", self.act_cache_hits),
            ("act-encode-cache misses", self.act_cache_misses),
            ("act-encode-cache hit rate", f"{self.act_cache_hit_rate:.3f}"),
            ("queue depth (now/max)",
             f"{self.queue_depth}/{self.max_queue_depth}"),
            *([("progressive requests", self.progressive_requests),
               ("progressive extensions", self.progressive_extensions),
               ("progressive early-exit rate",
                f"{self.progressive_early_exit_rate:.3f}"),
               ("progressive mean final length",
                f"{self.progressive_mean_final_length:.1f}")]
              if self.progressive_requests else []),
            ("samples/s", f"{self.samples_per_s:.2f}"),
            ("product bits simulated", f"{self.bits_simulated:.3e}"),
            ("product bits/s", f"{self.bits_per_s:.3e}"),
        ]
        stage_rows = [
            (name, f"{self.stage_seconds.get(name, 0.0) * 1e3:.2f}")
            for name in STAGES if name in self.stage_seconds
        ]
        parts = [
            format_table(["metric", "value"], counter_rows,
                         title="Runtime metrics"),
            format_table(["stage", "total wall [ms]"], stage_rows,
                         title="Per-stage timings"),
        ]
        if self.layer_seconds:
            layer_rows = [
                (name, calls, f"{seconds * 1e3:.2f}")
                for name, (calls, seconds)
                in sorted(self.layer_seconds.items(), key=_layer_order)
            ]
            parts.append(format_table(
                ["layer", "calls", "total wall [ms]"], layer_rows,
                title="Per-layer timings (traced)",
            ))
        if self.kernel_seconds:
            kernel_rows = [
                (name, calls, f"{seconds * 1e3:.2f}")
                for name, (calls, seconds)
                in sorted(self.kernel_seconds.items())
            ]
            parts.append(format_table(
                ["kernel", "calls", "total wall [ms]"], kernel_rows,
                title="Per-kernel timings",
            ))
        return "\n\n".join(parts)


@dataclass
class RuntimeMetrics:
    """Thread-safe accumulator behind :class:`MetricsSnapshot`.

    All mutation goes through the ``add_*``/``observe_*`` methods under a
    lock; :meth:`snapshot` additionally folds in the engine counters
    supplied by the caller.
    """

    requests: int = 0
    batches: int = 0
    shards: int = 0
    samples: int = 0
    fallbacks: int = 0
    errors: int = 0
    queue_depth: int = 0
    max_queue_depth: int = 0
    bits_simulated: int = 0
    progressive_requests: int = 0
    progressive_extensions: int = 0
    progressive_early_exits: int = 0
    progressive_final_length: int = 0
    act_cache_hits: int = 0
    act_cache_misses: int = 0
    stage_seconds: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _started: float = field(default_factory=time.perf_counter, repr=False)

    def add_stage_time(self, stage: str, seconds: float) -> None:
        with self._lock:
            self.stage_seconds[stage] = (
                self.stage_seconds.get(stage, 0.0) + seconds
            )

    def stage(self, name: str) -> "StageTimer":
        """Context manager accumulating wall time into ``name``."""
        return StageTimer(self, name)

    def add_counts(self, *, requests: int = 0, batches: int = 0,
                   shards: int = 0, samples: int = 0, fallbacks: int = 0,
                   errors: int = 0, bits_simulated: int = 0,
                   act_cache_hits: int = 0, act_cache_misses: int = 0,
                   progressive_requests: int = 0,
                   progressive_extensions: int = 0,
                   progressive_early_exits: int = 0,
                   progressive_final_length: int = 0) -> None:
        with self._lock:
            self.requests += requests
            self.batches += batches
            self.shards += shards
            self.samples += samples
            self.fallbacks += fallbacks
            self.errors += errors
            self.bits_simulated += bits_simulated
            self.act_cache_hits += act_cache_hits
            self.act_cache_misses += act_cache_misses
            self.progressive_requests += progressive_requests
            self.progressive_extensions += progressive_extensions
            self.progressive_early_exits += progressive_early_exits
            self.progressive_final_length += progressive_final_length

    def add_queue_depth(self, delta: int) -> None:
        """Count requests in (``+1``) and out (``-1``) of flight."""
        with self._lock:
            self.queue_depth += delta
            self.max_queue_depth = max(self.max_queue_depth,
                                       self.queue_depth)

    def snapshot(self, kernel_seconds: dict = None,
                 act_cache_hits: int = 0,
                 act_cache_misses: int = 0,
                 layer_seconds: dict = None) -> MetricsSnapshot:
        """Freeze the counters.

        ``kernel_seconds`` and ``act_cache_*`` carry the engine's
        per-kernel timings and activation-encode cache counters
        (worker-reported deltas accumulated via :meth:`add_counts` are
        folded in on top — the parent's process-global cache never sees
        pool-process activity); ``layer_seconds`` the per-IR-layer span
        totals when tracing.
        """
        with self._lock:
            return MetricsSnapshot(
                requests=self.requests,
                batches=self.batches,
                shards=self.shards,
                samples=self.samples,
                fallbacks=self.fallbacks,
                errors=self.errors,
                stage_seconds=dict(self.stage_seconds),
                queue_depth=self.queue_depth,
                max_queue_depth=self.max_queue_depth,
                bits_simulated=self.bits_simulated,
                progressive_requests=self.progressive_requests,
                progressive_extensions=self.progressive_extensions,
                progressive_early_exits=self.progressive_early_exits,
                progressive_final_length=self.progressive_final_length,
                elapsed_s=time.perf_counter() - self._started,
                kernel_seconds=dict(kernel_seconds or {}),
                act_cache_hits=self.act_cache_hits + act_cache_hits,
                act_cache_misses=self.act_cache_misses + act_cache_misses,
                layer_seconds=dict(layer_seconds or {}),
            )


class StageTimer:
    """``with metrics.stage("compute"):`` wall-time accumulator."""

    def __init__(self, metrics: RuntimeMetrics, name: str):
        self._metrics = metrics
        self._name = name
        self._t0 = None

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._metrics.add_stage_time(
            self._name, time.perf_counter() - self._t0
        )
        return False
