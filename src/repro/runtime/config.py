"""Configuration for the batched inference runtime."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RuntimeConfig", "BACKENDS", "FALLBACKS", "SHM_MODES"]

#: Worker-pool backends.  ``"serial"`` runs shards in the calling thread
#: (the reference execution order), ``"thread"`` shares the plan across a
#: thread pool (numpy releases the GIL in the packed-bit kernels), and
#: ``"process"`` forks/spawns workers that each hold a warm copy of the
#: plan — the right choice for CPU-bound fan-out on multi-core hosts.
BACKENDS = ("serial", "thread", "process")

#: Shard-failure policies.  ``"none"`` propagates the exception to the
#: caller; ``"fixedpoint"`` re-runs the failed shard on the 8-bit
#: fixed-point reference network (the infinite-stream-length limit of the
#: SC datapath) and records the degradation in the metrics.
FALLBACKS = ("none", "fixedpoint")

#: Shared-memory plan publication for the process backend.  ``"auto"``
#: uses :mod:`repro.runtime.shm` when the platform supports it and
#: falls back to shipping a pickled plan per worker otherwise;
#: ``"always"`` raises if shared memory is unavailable; ``"never"``
#: pins the per-process fallback (the canonical, bit-identical path).
SHM_MODES = ("auto", "always", "never")


@dataclass
class RuntimeConfig:
    """Knobs for :class:`repro.runtime.InferenceRuntime`.

    Attributes
    ----------
    workers:
        Worker count for the shard pool (ignored by the serial backend).
    backend:
        One of :data:`BACKENDS`.
    shard_size:
        Samples per shard.  Shards are the unit of parallelism *and* of
        determinism: a shard's logits are a pure function of its contents
        and the SC configuration, so any worker count — or the serial
        backend — produces bit-identical results for the same input.
    max_batch:
        Dynamic batcher window: a wave stops taking requests once it
        holds this many samples.  The batcher flushes as soon as
        ``min(max_batch, workers * shard_size)`` samples are queued (the
        serial backend counts one worker): that gives every worker a
        full shard, so waiting for more would only add queue time.
    max_wait_s:
        Dynamic batcher window: flush a non-empty queue after this long
        even if it holds fewer samples than the flush threshold above.
    fallback:
        One of :data:`FALLBACKS`.
    trace:
        Enable :mod:`repro.obs` hierarchical tracing for this process
        when the runtime is constructed (the ``REPRO_TRACE`` environment
        variable enables it globally instead).  Off by default: the
        disabled fast path is a single boolean check per instrumented
        section, so serving throughput is unaffected.
    autotune_budget_s:
        Compile-time budget for the per-layer block-schedule
        measurement pass (``0`` disables measurement and keeps the
        global ``SCConfig.block_kib``).
    shm:
        One of :data:`SHM_MODES`: whether the process backend publishes
        the compiled plan through :mod:`repro.runtime.shm` (one
        zero-copy shared segment per model) instead of shipping a
        pickled plan to every worker.  Either way each worker builds
        its own activation encode tables.  Ignored by the serial/thread
        backends, which share the caller's plan directly.
    """

    workers: int = 1
    backend: str = "thread"
    shard_size: int = 4
    max_batch: int = 16
    max_wait_s: float = 0.01
    fallback: str = "none"
    trace: bool = False
    autotune_budget_s: float = 0.25
    shm: str = "auto"

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.shard_size < 1:
            raise ValueError("shard_size must be positive")
        if self.max_batch < 1:
            raise ValueError("max_batch must be positive")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be non-negative")
        if self.fallback not in FALLBACKS:
            raise ValueError(
                f"unknown fallback {self.fallback!r}; expected one of "
                f"{FALLBACKS}"
            )
        if self.autotune_budget_s < 0:
            raise ValueError("autotune_budget_s must be non-negative")
        if self.shm not in SHM_MODES:
            raise ValueError(
                f"unknown shm mode {self.shm!r}; expected one of {SHM_MODES}"
            )
