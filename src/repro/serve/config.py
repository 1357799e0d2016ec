"""Configuration for the serving layer."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..runtime import ProgressivePolicy, RuntimeConfig

__all__ = ["ServeConfig"]


@dataclass
class ServeConfig:
    """Knobs for :class:`repro.serve.Server`.

    Attributes
    ----------
    host / port:
        Bind address.  ``port=0`` binds an ephemeral port (the bound
        port is published as ``Server.port`` once started) — the right
        choice for tests and the self-contained load bench.
    models:
        Zoo networks the registry precompiles at startup (warm set).
        Any other :data:`~repro.runtime.BENCH_NETWORKS` name is still
        servable — it is compiled on first request and subject to LRU
        eviction.
    max_loaded:
        Registry capacity, warm set included.  Least-recently-used
        models beyond it are closed and evicted (warm models are pinned).
    max_queue_depth:
        Admission bound on concurrently admitted ``predict`` requests
        per server.  Request ``max_queue_depth + 1`` is refused with a
        ``shed: queue_full`` response — the queue never grows past the
        bound, which is what keeps tail latency finite under overload.
    quota_rate / quota_burst:
        Per-client token bucket: sustained requests/second and burst
        capacity.  ``quota_rate=0`` disables quotas.
    default_deadline_s:
        Deadline applied to requests that do not carry their own;
        ``None`` means no default.  An expired deadline cancels the
        request's future (its shards that have not started are never
        computed) and answers ``error: deadline``.
    phase_length / seed:
        SC stream phase length and weight seed for registry-built
        networks (untrained zoo weights; serving cost does not depend
        on values).
    runtime:
        :class:`~repro.runtime.RuntimeConfig` template for every model
        runtime the registry constructs.
    progressive:
        Default :class:`~repro.runtime.ProgressivePolicy` for requests
        that opt into anytime inference with ``"progressive": true``
        (a dict is accepted and normalized).  Per-request policy
        objects override individual fields.  ``None`` uses the policy
        defaults.
    """

    host: str = "127.0.0.1"
    port: int = 0
    models: tuple = ("mnist_mlp",)
    max_loaded: int = 4
    max_queue_depth: int = 32
    quota_rate: float = 0.0
    quota_burst: float = 8.0
    default_deadline_s: float = None
    phase_length: int = 16
    seed: int = 0
    runtime: RuntimeConfig = field(default_factory=lambda: RuntimeConfig(
        workers=2, backend="thread", shard_size=4,
    ))
    progressive: ProgressivePolicy = None

    def __post_init__(self):
        if isinstance(self.progressive, dict):
            self.progressive = ProgressivePolicy(**self.progressive)
        if self.progressive is None:
            self.progressive = ProgressivePolicy()
        if isinstance(self.models, str):
            self.models = (self.models,)
        self.models = tuple(self.models)
        if self.max_loaded < max(1, len(self.models)):
            raise ValueError(
                "max_loaded must cover the warm set "
                f"({len(self.models)} models)"
            )
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be positive")
        if self.quota_rate < 0:
            raise ValueError("quota_rate must be non-negative")
        if self.quota_burst <= 0:
            raise ValueError("quota_burst must be positive")
        if (self.default_deadline_s is not None
                and self.default_deadline_s <= 0):
            raise ValueError("default_deadline_s must be positive")
        if self.phase_length < 1:
            raise ValueError("phase_length must be positive")
