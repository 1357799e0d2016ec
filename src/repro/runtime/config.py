"""Configuration for the inference runtime."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RuntimeConfig", "BACKENDS", "FALLBACKS", "SHM_MODES"]

#: Worker-pool backends; every request kind, progressive evaluations
#: included, runs on the configured one.  ``"serial"`` runs ``infer``'s
#: and ``infer_progressive``'s shards in the calling thread (the
#: reference execution order) and submitted requests' shards on one pool
#: thread, ``"thread"`` shares the plan across a thread pool (numpy
#: releases the GIL in the packed-bit kernels), and ``"process"``
#: forks/spawns workers that each receive the plan through the pool
#: initializer (copy-on-write under ``fork``, unpickled under
#: ``spawn``/``forkserver``) — the right choice for CPU-bound fan-out on
#: multi-core hosts.
#: Threads overlap only the kernels' native sections: each forward also
#: holds the GIL for its Python-level work, so in probes of ``plan.run``
#: on ``mnist_mlp`` at L=16 (1-2 rows per call, 2 vCPUs) two thread
#: workers gave 0.9-1.4x the samples/s of one, two processes 1.7-2.0x.
BACKENDS = ("serial", "thread", "process")

#: Shard-failure policies.  ``"none"`` propagates the exception to the
#: caller; ``"fixedpoint"`` re-runs the failed shard on the 8-bit
#: fixed-point reference network (the infinite-stream-length limit of the
#: SC datapath) and records the degradation in the metrics.
FALLBACKS = ("none", "fixedpoint")

#: Accepted values of :attr:`RuntimeConfig.shm`, which has no effect:
#: process workers always receive the plan through the pool
#: initializer.  Kept only until the benchmark stops passing
#: ``shm="auto"``.
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
    fallback:
        One of :data:`FALLBACKS`.
    trace:
        Enable :mod:`repro.obs` hierarchical tracing for this process
        when the runtime is constructed (the ``REPRO_TRACE`` environment
        variable enables it globally instead).  Off by default: the
        disabled fast path is a single boolean check per instrumented
        section, so serving throughput is unaffected.
    autotune_budget_s:
        Validated (non-negative) and otherwise ignored: every engine
        plan is tiled at ``SCConfig.block_kib``, with no compile-time
        measurement.  The field stays only because the benchmark's
        ``cnn_offline`` workload passes ``autotune_budget_s=0``; it goes
        when that argument goes.
    shm:
        One of :data:`SHM_MODES`, validated and otherwise ignored: no
        backend publishes the plan to shared memory.  The field stays
        only because the benchmark's ``resnet_pool`` workload passes
        ``shm="auto"``; it goes when that read goes.
    """

    workers: int = 1
    backend: str = "thread"
    shard_size: int = 4
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
