"""Concurrency stress: shared registry and shared layer plan caches.

Everything here synchronizes on barriers/events — never sleeps — so the
interleavings under test (simultaneous warm-up, eviction during
in-flight waves, cold forwards racing plan-cache eviction) actually
occur rather than being timing lottery wins.
"""

import multiprocessing
import sys
import threading

import numpy as np
import pytest

from repro.runtime import BatcherClosedError, RuntimeConfig
from repro.serve import ModelRegistry
from repro.serve import registry as registry_mod
from repro.simulator import SCConfig, SCNetwork
from repro.training import (Flatten, ReLU, Sequential, SplitOrConv2d,
                            SplitOrLinear)

SHAPE = (1, 8, 8)
MLP_SHAPE = (1, 28, 28)


def tiny_network(seed=0, phase_length=16):
    rng = np.random.default_rng(seed)
    net = Sequential([
        SplitOrConv2d(1, 3, 3, rng=rng), ReLU(),
        Flatten(),
        SplitOrLinear(3 * 6 * 6, 4, rng=rng),
    ])
    return SCNetwork.from_trained(net, SCConfig(phase_length=phase_length))


@pytest.fixture
def fast_zoo(monkeypatch):
    """Aliases resolving to the cheap MLP builder (test_serve idiom)."""
    mlp = registry_mod.BENCH_NETWORKS["mnist_mlp"]
    for alias in ("zoo_a", "zoo_b"):
        monkeypatch.setitem(registry_mod.BENCH_NETWORKS, alias, mlp)
    return ("zoo_a", "zoo_b")


class TestRegistryConcurrency:
    CONFIG = dict(workers=1, backend="process", shard_size=2)

    def test_simultaneous_warm_up_builds_once(self, fast_zoo):
        """N threads racing the first get() compile one runtime and
        start one pool, every thread serves from it, and its worker is
        gone once the registry closes."""
        n_threads = 4
        x = np.random.default_rng(3).uniform(0, 1, (2,) + MLP_SHAPE)
        start = threading.Barrier(n_threads)
        results, errors = [None] * n_threads, []
        before = set(multiprocessing.active_children())

        with ModelRegistry(warm=(), max_loaded=2, phase_length=4,
                           runtime_config=RuntimeConfig(**self.CONFIG),
                           ) as registry:
            def hammer(i):
                try:
                    start.wait(timeout=60)
                    results[i] = registry.get("zoo_a").infer(x)
                except Exception as exc:   # noqa: BLE001 - collected
                    errors.append(exc)

            threads = [threading.Thread(target=hammer, args=(i,))
                       for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not errors
            assert registry.loads == 1
            for out in results[1:]:
                np.testing.assert_array_equal(out, results[0])
            # One pool of one worker: a second build would start another.
            workers = set(multiprocessing.active_children()) - before
            assert len(workers) == 1
        assert not any(p.is_alive() for p in workers)

    def test_eviction_during_inflight_waves(self, fast_zoo):
        """Evicting a model while another thread drives traffic through
        it must end in BatcherClosedError, never a crash or a wrong
        answer."""
        x = np.random.default_rng(4).uniform(0, 1, (2,) + MLP_SHAPE)
        overlap = threading.Barrier(2)
        done = threading.Event()
        outputs, errors = [], []

        with ModelRegistry(warm=(), max_loaded=1, phase_length=4,
                           runtime_config=RuntimeConfig(
                               workers=2, backend="thread", shard_size=2),
                           ) as registry:
            expected = registry.get("zoo_a").infer(x)

            def traffic():
                try:
                    runtime = registry.get("zoo_a")
                    overlap.wait(timeout=60)
                    while not done.is_set():
                        outputs.append(runtime.infer(x))
                except BatcherClosedError:
                    pass               # evicted mid-stream: expected
                except Exception as exc:  # noqa: BLE001 - collected
                    errors.append(exc)

            thread = threading.Thread(target=traffic)
            thread.start()
            overlap.wait(timeout=60)
            registry.get("zoo_b")      # max_loaded=1: evicts zoo_a
            done.set()
            thread.join(timeout=120)
            assert not thread.is_alive()
            assert not errors
            for out in outputs:
                np.testing.assert_array_equal(out, expected)

    def test_resident_lookups_race_loads_and_evictions(self, fast_zoo):
        """The server's event-loop lookup (``resident``) racing
        ``get``'s loads and LRU evictions on other threads: no
        exception, and the load/eviction books balance."""
        n_threads, iterations = 4, 12
        start = threading.Barrier(n_threads)
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ModelRegistry(warm=(), max_loaded=1, phase_length=4,
                               runtime_config=RuntimeConfig(
                                   backend="serial")) as registry:
                def hammer(i):
                    try:
                        start.wait(timeout=60)
                        for step in range(iterations):
                            name = fast_zoo[(i + step) % len(fast_zoo)]
                            for _ in range(20):
                                registry.resident(name)
                            if i % 2 == 0:
                                registry.get(name)
                    except Exception as exc:  # noqa: BLE001 - collected
                        errors.append(exc)

                threads = [threading.Thread(target=hammer, args=(i,))
                           for i in range(n_threads)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
                assert not errors
                assert registry.evictions > 0
                assert (registry.loads - registry.evictions
                        == len(registry.loaded()) == 1)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.slow
    def test_stress_threads_and_process_pool(self, fast_zoo):
        """The full mix: threads hammering a shared registry whose
        models run on process pools, with max_loaded forcing continuous
        eviction churn underneath the traffic."""
        n_threads, iterations = 4, 5
        x = np.random.default_rng(5).uniform(0, 1, (2,) + MLP_SHAPE)
        start = threading.Barrier(n_threads)
        collected, errors = [], []
        lock = threading.Lock()
        before = set(multiprocessing.active_children())

        with ModelRegistry(warm=(), max_loaded=1, phase_length=4,
                           runtime_config=RuntimeConfig(**self.CONFIG),
                           ) as registry:
            expected = {name: registry.get(name).infer(x)
                        for name in fast_zoo}

            def hammer(i):
                try:
                    start.wait(timeout=60)
                    for step in range(iterations):
                        name = fast_zoo[(i + step) % len(fast_zoo)]
                        try:
                            out = registry.get(name).infer(x)
                        except BatcherClosedError:
                            continue   # lost an eviction race: retryable
                        with lock:
                            collected.append((name, out))
                except Exception as exc:  # noqa: BLE001 - collected
                    errors.append(exc)

            threads = [threading.Thread(target=hammer, args=(i,))
                       for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
            assert not any(t.is_alive() for t in threads)
            assert not errors
            assert collected           # churn cannot starve everyone
            for name, out in collected:
                np.testing.assert_array_equal(out, expected[name])
            assert registry.evictions > 0
        # Eviction and close stopped every worker this test started.
        assert not set(multiprocessing.active_children()) - before


class TestLayerPlanCacheConcurrency:
    """Thread workers share each layer's plan cache: cold forwards racing
    to build the same plans, and windows of many lengths racing its LRU
    eviction, must give the serial bits and keep the cache bounded."""

    def test_cold_forwards_and_evictions_race(self):
        n_threads, lengths = 6, (8, 16, 24, 32, 40)
        x = np.random.default_rng(6).uniform(0, 1, (2,) + SHAPE)
        expected = {L: tiny_network(phase_length=L).forward(x)
                    for L in lengths}
        shared = tiny_network()
        for layer in shared.layers:
            if hasattr(layer, "plans"):
                layer.plans.max_entries = 3
        start = threading.Barrier(n_threads)
        results, errors = [], []
        lock = threading.Lock()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def hammer(i):
                try:
                    start.wait(timeout=60)
                    for step in range(2 * len(lengths)):
                        L = lengths[(i + step) % len(lengths)]
                        out = shared.forward(
                            x, config=SCConfig(phase_length=L))
                        with lock:
                            results.append((L, out))
                except Exception as exc:  # noqa: BLE001 - collected
                    errors.append(exc)

            threads = [threading.Thread(target=hammer, args=(i,))
                       for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(results) == n_threads * 2 * len(lengths)
        for L, out in results:
            np.testing.assert_array_equal(out, expected[L])
        for layer in shared.layers:
            if hasattr(layer, "plans"):
                assert len(layer.plans) <= 3
