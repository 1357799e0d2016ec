"""Shared-memory plan publication: bit-identity, layout round-trips,
refcounted lifecycle, orphan cleanup, and encode-cache eviction.

The shm path must be invisible in the numbers: a plan attached from a
segment (read-only zero-copy views) produces exactly the logits of the
plan it was published from, for every zoo graph and every accumulator /
representation combination, and pool workers build their own activation
encode tables whether the plan reached them through a segment or a
pickle.  Lifecycle tests pin the safety property that a mapping cannot
be torn down under live views, and that crashed owners never leak
``/dev/shm`` entries.
"""

import json
import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import (BENCH_NETWORKS, ExecutionPlan, RuntimeConfig,
                           RuntimeMetrics, WorkerPool, shm_supported)
from repro.runtime import shm
from repro.simulator import SCConfig, SCNetwork
from repro.simulator.engine import ENCODE_CACHE, ActivationEncodeCache
from repro.training import (Flatten, ReLU, Sequential, SplitOrConv2d,
                            SplitOrLinear)

pytestmark = pytest.mark.skipif(not shm_supported(),
                                reason="no shared memory on this host")

SHAPE = (1, 8, 8)
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tiny_network(seed=0, **config_kwargs):
    rng = np.random.default_rng(seed)
    net = Sequential([
        SplitOrConv2d(1, 3, 3, rng=rng), ReLU(),
        Flatten(),
        SplitOrLinear(3 * 6 * 6, 4, rng=rng),
    ])
    config_kwargs.setdefault("phase_length", 8)
    return SCNetwork.from_trained(net, SCConfig(**config_kwargs))


def publish_and_attach(plan, key=("test", "fp", 0)):
    """Publish ``plan`` and hand back ``(ref, attached plan)``."""
    ref = shm.publish_plan(key, plan)
    return ref, shm.attach_plan(ref)


def drop_and_detach(ref):
    """Detach + unlink ``ref`` (caller must have dropped its views)."""
    shm.detach_plan(ref.segment)
    shm.unlink_segment(ref.segment)


class TestBitIdentity:
    """An attached plan is the published plan, bit for bit."""

    @pytest.mark.parametrize("network", sorted(BENCH_NETWORKS))
    def test_zoo_graphs(self, network):
        builder, shape = BENCH_NETWORKS[network]
        sc = SCNetwork.from_trained(builder(seed=0),
                                    SCConfig(phase_length=8))
        plan = ExecutionPlan(sc, shape)
        x = np.random.default_rng(1).uniform(0, 1, (2,) + shape)
        expected = plan.run(x)
        ref, attached = publish_and_attach(plan, key=(network, "fp", 0))
        try:
            assert np.array_equal(attached.run(x), expected)
        finally:
            del attached
            drop_and_detach(ref)

    @pytest.mark.parametrize("accumulator", ["or", "apc", "mux"])
    @pytest.mark.parametrize("representation",
                             ["split-unipolar", "bipolar"])
    def test_accumulator_representation_matrix(self, accumulator,
                                               representation):
        sc = tiny_network(accumulator=accumulator,
                          representation=representation)
        plan = ExecutionPlan(sc, SHAPE)
        x = np.random.default_rng(2).uniform(0, 1, (3,) + SHAPE)
        expected = plan.run(x)
        ref, attached = publish_and_attach(plan)
        try:
            assert np.array_equal(attached.run(x), expected)
        finally:
            del attached
            drop_and_detach(ref)

    def test_attached_arrays_are_zero_copy_views(self):
        arrays = {"a": np.arange(64, dtype=np.float64),
                  "b": np.ones((8, 8), dtype=np.uint8)}
        ref = shm.publish_plan(("views", "fp", 0), arrays)
        attached = shm.attach_plan(ref)
        segment = shm._ATTACHED[ref.segment][0]
        raw = np.frombuffer(segment.buf, dtype=np.uint8)
        try:
            for name, original in arrays.items():
                view = attached[name]
                assert np.array_equal(view, original)
                assert not view.flags.writeable
                assert np.shares_memory(view, raw)
        finally:
            del attached, raw, view, segment
            drop_and_detach(ref)

    @pytest.mark.parametrize("mode", ["always", "never"])
    def test_process_pool_end_to_end(self, mode):
        """One real pool per mode: workers match the serial shards and
        build their own activation encode tables, published plan or
        not."""
        sc = tiny_network(phase_length=16)
        config = RuntimeConfig(workers=2, backend="process", shard_size=2,
                               shm=mode)
        serial = RuntimeConfig(shard_size=2)
        x = np.random.default_rng(3).uniform(0, 1, (5,) + SHAPE)
        with WorkerPool(ExecutionPlan(sc, SHAPE), serial,
                        RuntimeMetrics()) as pool:
            expected = pool.run_batch(x)
        # Forked workers would otherwise inherit the tables the serial
        # run just built and read zero misses.
        ENCODE_CACHE.clear()
        metrics = RuntimeMetrics()
        with WorkerPool(ExecutionPlan(sc, SHAPE), config, metrics,
                        name="e2e") as pool:
            assert np.array_equal(pool.run_batch(x), expected)
            stats = pool.shm_stats()
        assert stats["enabled"] == (mode == "always")
        if mode == "always":
            assert stats["warm"]["attached"] == 2
        assert metrics.act_cache_misses > 0

    def test_process_pool_under_spawn(self):
        """Under ``spawn`` a worker unpickles the plan itself unless it
        attaches the published one; with either, the logits equal the
        serial shards and every worker builds its own encode tables."""
        code = textwrap.dedent("""
            import json, multiprocessing
            import numpy as np
            multiprocessing.set_start_method("spawn")
            from repro.runtime import (ExecutionPlan, RuntimeConfig,
                                       RuntimeMetrics, WorkerPool)
            from tests.test_shm_cache import SHAPE, tiny_network

            sc = tiny_network(phase_length=16)
            x = np.random.default_rng(6).uniform(0, 1, (5,) + SHAPE)
            with WorkerPool(ExecutionPlan(sc, SHAPE),
                            RuntimeConfig(shard_size=2),
                            RuntimeMetrics()) as pool:
                expected = pool.run_batch(x)
            out = {"start_method": multiprocessing.get_start_method()}
            for mode in ("always", "never"):
                config = RuntimeConfig(workers=2, backend="process",
                                       shard_size=2, shm=mode)
                metrics = RuntimeMetrics()
                with WorkerPool(ExecutionPlan(sc, SHAPE), config, metrics,
                                name="spawn") as pool:
                    logits = pool.run_batch(x)
                    stats = pool.shm_stats()
                out[mode] = {
                    "equal": bool(np.array_equal(logits, expected)),
                    "enabled": stats["enabled"],
                    "attached": stats.get("warm", {}).get("attached"),
                    "misses": metrics.act_cache_misses,
                }
            print(json.dumps(out))
        """)
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              cwd=REPO_ROOT, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert out["start_method"] == "spawn"
        assert out["always"]["enabled"] and out["always"]["attached"] == 2
        assert not out["never"]["enabled"]
        for mode in ("always", "never"):
            assert out[mode]["equal"], mode
            assert out[mode]["misses"] > 0, mode


# Segment layouts: a handful of dtypes crossed with ragged shapes, so
# alignment padding and zero-length buffers both get exercised.
_DTYPES = st.sampled_from(["u1", "i4", "f8", "u8"])
_ARRAYS = st.lists(
    st.tuples(_DTYPES, st.integers(min_value=0, max_value=65)),
    min_size=0, max_size=6,
)


class TestLayoutRoundTrip:
    @given(specs=_ARRAYS)
    @settings(max_examples=30, deadline=None)
    def test_attach_detach_reattach(self, specs):
        arrays = [np.arange(n, dtype=dtype) for dtype, n in specs]
        ref = shm.publish_plan(("prop", "fp", 0), arrays)
        try:
            assert all(off % 64 == 0 for off, _ in ref.buffers)
            spans = sorted(ref.buffers)
            assert all(a + alen <= b for (a, alen), (b, _)
                       in zip(spans, spans[1:]))
            for _ in range(2):      # attach -> detach -> reattach
                out = shm.attach_plan(ref)
                assert len(out) == len(arrays)
                for got, want in zip(out, arrays):
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want)
                    del got, want
                del out
                assert shm.detach_plan(ref.segment)
            assert ref.segment not in shm.attached_segments()
        finally:
            shm.unlink_segment(ref.segment)

    def test_attach_is_idempotent(self):
        ref = shm.publish_plan(("idem", "fp", 0), np.arange(10))
        try:
            first = shm.attach_plan(ref)
            second = shm.attach_plan(ref)
            assert first is second
            assert shm.attached_segments().count(ref.segment) == 1
        finally:
            del first, second
            drop_and_detach(ref)


class TestLifecycle:
    def test_refcount_unlinks_on_last_release(self):
        registry = shm.SharedPlanRegistry()
        key = ("model", "fp", 0)
        build = lambda: np.arange(32)
        ref = registry.acquire(key, build)
        assert registry.acquire(key, build) is ref
        assert registry.refcount(key) == 2
        assert not registry.release(key)
        assert ref.segment in shm.list_repro_segments()
        assert registry.release(key)
        assert ref.segment not in shm.list_repro_segments()
        assert registry.refcount(key) == 0

    def test_two_pools_share_one_publication(self):
        sc = tiny_network(phase_length=16)
        plan = ExecutionPlan(sc, SHAPE)
        config = RuntimeConfig(workers=1, backend="process", shard_size=2,
                               shm="always")
        x = np.random.default_rng(4).uniform(0, 1, (2,) + SHAPE)
        a = WorkerPool(plan, config, RuntimeMetrics(), name="shared")
        b = WorkerPool(plan, config, RuntimeMetrics(), name="shared")
        try:
            out_a = a.run_batch(x)
            out_b = b.run_batch(x)
            assert np.array_equal(out_a, out_b)
            seg_a = a.shm_stats()["segment"]
            assert seg_a == b.shm_stats()["segment"]
            key = ("shared", plan.fingerprint(), 0)
            assert shm.SHARED_PLANS.refcount(key) == 2
            a.close()
            assert seg_a in shm.list_repro_segments()   # b still holds it
        finally:
            a.close()
            b.close()
        assert seg_a not in shm.list_repro_segments()

    def test_detach_refuses_under_live_views(self):
        ref = shm.publish_plan(("live", "fp", 0), np.arange(128.0))
        view = shm.attach_plan(ref)
        try:
            with pytest.raises(BufferError):
                shm.detach_plan(ref.segment)
            # The attachment survives a refused detach; the data stays
            # readable and a retry succeeds once the views are gone.
            assert ref.segment in shm.attached_segments()
            assert view[5] == 5.0
            del view
            assert shm.detach_plan(ref.segment)
        finally:
            shm.unlink_segment(ref.segment)

    def test_pool_close_leaves_no_segments(self):
        sc = tiny_network(phase_length=16)
        config = RuntimeConfig(workers=1, backend="process", shard_size=2,
                               shm="always")
        before = set(shm.list_repro_segments())
        with WorkerPool(ExecutionPlan(sc, SHAPE), config,
                        RuntimeMetrics(), name="leak") as pool:
            pool.run_batch(np.random.default_rng(5).uniform(
                0, 1, (2,) + SHAPE))
            segment = pool.shm_stats()["segment"]
            assert segment in shm.list_repro_segments()
        after = set(shm.list_repro_segments())
        assert segment not in after
        assert after <= before

    def test_orphan_cleanup_reclaims_dead_owner(self):
        """A SIGKILL'd publisher's segment is reclaimable by anyone."""
        code = (
            "import sys, time\n"
            "import numpy as np\n"
            "from multiprocessing import resource_tracker\n"
            "from repro.runtime import shm\n"
            "ref = shm.publish_plan(('orphan', 'fp', 0), np.arange(8))\n"
            # Drop the child's own tracker registration: this test kills
            # the child and reclaims via cleanup_orphan_segments, so the
            # surviving tracker process would otherwise warn about a
            # 'leaked' segment it can no longer find.
            "resource_tracker.unregister('/' + ref.segment,"
            " 'shared_memory')\n"
            "print(ref.segment, flush=True)\n"
            "time.sleep(60)\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen([sys.executable, "-c", code], env=env,
                                stdout=subprocess.PIPE, text=True,
                                cwd=REPO_ROOT)
        try:
            segment = proc.stdout.readline().strip()
            assert segment in shm.list_repro_segments()
            # A live owner's segment must never be reclaimed.
            assert segment not in shm.cleanup_orphan_segments()
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 10
            reclaimed = []
            while time.monotonic() < deadline:
                reclaimed = shm.cleanup_orphan_segments()
                if segment in reclaimed:
                    break
            assert segment in reclaimed
            assert segment not in shm.list_repro_segments()
        finally:
            proc.kill()
            proc.wait()

    def test_shm_info_reports_publications(self):
        registry = shm.SharedPlanRegistry()
        ref = registry.acquire(("info", "fp", 3),
                               lambda: np.arange(16))
        try:
            stats = registry.stats()
            assert stats["supported"]
            pub = next(p for p in stats["publications"]
                       if p["segment"] == ref.segment)
            assert pub["model"] == "info"
            assert pub["bit_offset"] == 3
            assert pub["refcount"] == 1
            assert stats["bytes"] >= pub["bytes"] > 0
        finally:
            registry.release(("info", "fp", 3))


class TestEncodeCacheEviction:
    """REPRO_ENCODE_CACHE_MB byte-budget behaviour of the activation
    encode cache."""

    def _filler(self, cache, seed, lanes=4, length=32):
        return cache.table("lfsr", 8, seed, lanes, length)

    def test_huge_insert_evicts_lru(self):
        probe = ActivationEncodeCache(max_bytes=1 << 30)
        one = self._filler(probe, seed=1).nbytes
        cache = ActivationEncodeCache(max_bytes=3 * one)
        self._filler(cache, seed=1)
        self._filler(cache, seed=2)
        self._filler(cache, seed=3)
        assert len(cache) == 3
        # Touch seed=1 so seed=2 is now least recently used.
        self._filler(cache, seed=1)
        hits, misses = cache.counters()
        assert (hits, misses) == (1, 3)
        # A table bigger than a third of the budget forces eviction.
        cache.table("lfsr", 8, 99, lanes=8, length=64)
        assert cache.info()["bytes"] <= cache.max_bytes
        self._filler(cache, seed=1)          # survived (recently used)
        self._filler(cache, seed=2)          # evicted: rebuild misses
        hits, misses = cache.counters()
        assert hits == 2 and misses == 5

    def test_single_over_budget_table_still_serves(self):
        cache = ActivationEncodeCache(max_bytes=1)
        table = self._filler(cache, seed=7)
        assert table.nbytes > cache.max_bytes
        assert len(cache) == 1
        self._filler(cache, seed=7)
        assert cache.counters() == (1, 1)

    def test_offset_keys_do_not_alias(self):
        cache = ActivationEncodeCache(max_bytes=1 << 30)
        base = cache.table("lfsr", 8, 11, 4, 32, offset=0)
        shifted = cache.table("lfsr", 8, 11, 4, 32, offset=7)
        assert cache.counters() == (0, 2)          # two distinct keys
        assert not np.array_equal(base, shifted)
        assert cache.table("lfsr", 8, 11, 4, 32, offset=0) is base
        assert cache.table("lfsr", 8, 11, 4, 32, offset=7) is shifted
        assert cache.counters() == (2, 2)

    def test_counters_and_info_stay_consistent(self):
        cache = ActivationEncodeCache(max_bytes=1 << 30)
        for seed in (1, 2, 1, 3, 2):
            self._filler(cache, seed=seed)
        info = cache.info()
        assert (info["hits"], info["misses"]) == cache.counters() == (2, 3)
        assert info["entries"] == 3
        assert info["bytes"] > 0
        cache.clear()
        info = cache.info()
        assert info["entries"] == info["bytes"] == 0
        assert cache.counters() == (0, 0)
