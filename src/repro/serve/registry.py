"""Warm model registry: precompiled plans, lazy load, LRU eviction.

Compiling an :class:`~repro.runtime.ExecutionPlan` pre-encodes every
constant weight bitstream — exactly the work a serving process must not
pay on the request path.  The registry compiles the configured warm set
at startup (so the first request to each warm model is already fast),
loads any other known zoo network on first use, and evicts the
least-recently-used cold models beyond ``max_loaded`` (closing their
runtimes, which drains their pools and stops their workers).  Warm
models are pinned: they are never evicted.

Registry keys are the :data:`~repro.runtime.BENCH_NETWORKS` zoo names;
each entry owns one :class:`~repro.runtime.InferenceRuntime` built from
the shared :class:`~repro.runtime.RuntimeConfig` template.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict

from .. import obs
from ..runtime import BENCH_NETWORKS, InferenceRuntime, RuntimeConfig
from ..simulator import SCConfig, SCNetwork

__all__ = ["ModelRegistry"]


class ModelRegistry:
    """Name -> warm :class:`InferenceRuntime`, with LRU bound.

    Thread-safe: construction of a model happens outside the lock (plan
    compilation is seconds of work; holding the lock would serialize
    unrelated lookups), with a per-name event so concurrent first
    requests compile once.
    """

    def __init__(self, warm=("mnist_mlp",), max_loaded: int = 4,
                 phase_length: int = 16, seed: int = 0,
                 runtime_config: RuntimeConfig = None):
        if isinstance(warm, str):
            warm = (warm,)
        unknown = sorted(set(warm) - set(BENCH_NETWORKS))
        if unknown:
            raise KeyError(
                f"unknown warm model(s) {', '.join(unknown)}; known: "
                f"{', '.join(sorted(BENCH_NETWORKS))}"
            )
        if max_loaded < max(1, len(warm)):
            raise ValueError("max_loaded must cover the warm set")
        self.warm = tuple(warm)
        self.max_loaded = max_loaded
        self.phase_length = phase_length
        self.seed = seed
        self._template = (runtime_config if runtime_config is not None
                          else RuntimeConfig())
        self._lock = threading.Lock()
        self._loaded = OrderedDict()   # name -> runtime, MRU last
        self._building = {}            # name -> threading.Event
        self._closed = False
        self.loads = 0
        self.evictions = 0

    # -- lifecycle ----------------------------------------------------

    def warm_up(self) -> None:
        """Compile every warm-set model now (server startup)."""
        for name in self.warm:
            self.get(name)

    def close(self) -> None:
        """Close every loaded runtime, and with it its pool's worker
        threads or processes; idempotent."""
        with self._lock:
            self._closed = True
            runtimes = list(self._loaded.values())
            self._loaded.clear()
        for runtime in runtimes:
            runtime.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # -- lookup -------------------------------------------------------

    def known(self) -> tuple:
        """Every servable model name, warm or cold."""
        return tuple(sorted(BENCH_NETWORKS))

    def loaded(self) -> tuple:
        """Currently resident names, least recently used first."""
        with self._lock:
            return tuple(self._loaded)

    def snapshots(self) -> dict:
        """``{name: MetricsSnapshot}`` for every resident runtime,
        without touching recency order."""
        with self._lock:
            items = list(self._loaded.items())
        return {name: runtime.snapshot() for name, runtime in items}

    def specializations(self) -> dict:
        """``{name: specialization summary}`` per resident runtime —
        which plan variant is live, per-layer block schedules, and
        zero-lane skip rates (see
        :meth:`~repro.runtime.ExecutionPlan.specialization_summary`)."""
        with self._lock:
            items = list(self._loaded.items())
        return {name: runtime.plan.specialization_summary()
                for name, runtime in items}

    def resident(self, name: str):
        """The runtime for ``name`` if it is loaded, else ``None``.

        Never compiles, so an event loop may call it: it takes the same
        lock, LRU touch and closed check as :meth:`get`, which remains
        the path for a miss.  Raises ``RuntimeError`` once the registry
        is closed.
        """
        with self._lock:
            return self._touch(name)

    def _touch(self, name: str):
        """Resident lookup with LRU refresh; the caller holds the lock."""
        if self._closed:
            raise RuntimeError("model registry is closed")
        runtime = self._loaded.get(name)
        if runtime is not None:
            self._loaded.move_to_end(name)
        return runtime

    def get(self, name: str) -> InferenceRuntime:
        """The runtime for ``name``, compiling and/or evicting as needed.

        Raises ``KeyError`` for names outside the zoo and
        ``RuntimeError`` once the registry is closed.
        """
        if name not in BENCH_NETWORKS:
            raise KeyError(
                f"unknown model {name!r}; known: "
                f"{', '.join(sorted(BENCH_NETWORKS))}"
            )
        while True:
            with self._lock:
                runtime = self._touch(name)
                if runtime is not None:
                    return runtime
                pending = self._building.get(name)
                if pending is None:
                    self._building[name] = threading.Event()
                    break
            # Another thread is compiling this model; wait and retry.
            pending.wait()
        try:
            runtime = self._build(name)
        except BaseException:
            with self._lock:
                self._building.pop(name).set()
            raise
        evicted = []
        with self._lock:
            self._loaded[name] = runtime
            self._loaded.move_to_end(name)
            self.loads += 1
            for victim in list(self._loaded):
                if len(self._loaded) <= self.max_loaded:
                    break
                if victim in self.warm or victim == name:
                    continue
                evicted.append(self._loaded.pop(victim))
                self.evictions += 1
            self._building.pop(name).set()
        for old in evicted:
            old.close()
        return runtime

    def _build(self, name: str) -> InferenceRuntime:
        with obs.span(f"registry:load:{name}", category="registry"):
            builder, shape = BENCH_NETWORKS[name]
            network = SCNetwork.from_trained(
                builder(seed=self.seed),
                SCConfig(phase_length=self.phase_length),
            )
            runtime = InferenceRuntime(
                network, shape, config=dataclasses.replace(self._template))
            # The server's event loop submits requests: start the pool
            # here, off the loop, not on the first request (a process
            # pool spawns and initializes every worker in start()).
            try:
                runtime.pool.start()
            except BaseException:
                runtime.close()
                raise
            return runtime
