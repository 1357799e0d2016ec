"""Inference runtime for the bitstream-exact SC simulator.

The functional simulator is honest but slow — "SC is extremely slow to
accurately simulate in software" (paper Sec. IV).  Every forward runs
the same datapath, :meth:`SCNetwork.forward` over the layers' cached
engine plans; this package compiles those plans ahead of traffic and
adds the serving machinery a production deployment needs:

- :class:`ExecutionPlan` — compile once: shape validation, per-layer
  engine plans built, autotuned and installed (or reused from the
  fingerprint cache), per-layer cost metadata;
- :class:`WorkerPool` — serial / thread / process shard execution,
  bit-identical to serial at any worker count; a submitted request is
  dispatched on arrival, every shard at once, and resolves a future;
- :class:`RuntimeMetrics` — per-stage wall time, activation
  encode-cache hit rate, simulated bits/sec, queue depth;
- :class:`InferenceRuntime` — the assembled front-end, with optional
  graceful degradation to fixed-point reference execution;
- :mod:`repro.runtime.shm` — zero-copy shared-memory publication of
  compiled plans for the process backend: one copy of the weight words
  per model, attached by every worker (each process builds its own
  activation encode tables);
- :func:`run_profile` — the ``python -m repro profile`` harness: a
  traced workload, a Chrome-loadable artifact, and per-IR-layer wall
  time attribution via :mod:`repro.obs`.
"""

from .bench import BENCH_NETWORKS, BenchResult, format_bench, run_bench
from .config import RuntimeConfig
from .metrics import MetricsSnapshot, RuntimeMetrics
from .plan import ExecutionPlan, LayerPlan
from .profile import ProfileResult, format_profile, run_profile
from .progressive import (ProgressiveOutcome, ProgressivePolicy,
                          run_progressive, top2_margin)
from .runtime import InferenceRuntime
from .shm import (SHARED_PLANS, PlanRef, SharedPlanRegistry, attach_plan,
                  cleanup_orphan_segments, detach_plan, publish_plan,
                  shm_supported)
from .specialize import (GatherPlan, KernelPlan, Specialization,
                         clear_specialization_cache,
                         specialization_cache_info,
                         specialization_fingerprint)
from .workers import BatcherClosedError, WorkerPool

__all__ = [
    "BENCH_NETWORKS", "BenchResult", "format_bench", "run_bench",
    "BatcherClosedError",
    "RuntimeConfig",
    "MetricsSnapshot", "RuntimeMetrics",
    "ExecutionPlan", "LayerPlan",
    "ProfileResult", "format_profile", "run_profile",
    "ProgressiveOutcome", "ProgressivePolicy", "run_progressive",
    "top2_margin",
    "InferenceRuntime",
    "SHARED_PLANS", "PlanRef", "SharedPlanRegistry", "attach_plan",
    "cleanup_orphan_segments", "detach_plan", "publish_plan",
    "shm_supported",
    "GatherPlan", "KernelPlan", "Specialization",
    "clear_specialization_cache", "specialization_cache_info",
    "specialization_fingerprint",
    "WorkerPool",
]
