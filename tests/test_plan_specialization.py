"""Bit-equivalence and behavior of the planned word kernel.

The planned matmuls (gather plans, zero-lane skipping, retiled block
schedules, phase packing) are the only word kernel: every forward runs
them, and the generic matmuls build one.  So the reference they are
checked against is the gate-level oracle
(:func:`~repro.simulator.reference.reference_counts`, and
:func:`~repro.simulator.reference.reference_step` for whole networks) —
across every zoo graph, both representations, every accumulator, and
adversarial weight sparsity patterns.  Any deviation is a correctness
bug: both simulate the same gates on the same streams.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.ir.passes import group_facts, lower
from repro.runtime import (BENCH_NETWORKS, ExecutionPlan, InferenceRuntime,
                           RuntimeConfig, clear_specialization_cache,
                           specialization_cache_info,
                           specialization_fingerprint)
from repro.runtime.specialize import GatherPlan
from repro.simulator import SCConfig, SCNetwork
from repro.simulator import jit as scjit
from repro.core.bitstream import unpack_words
from repro.simulator.engine import (ActivationEncodeCache, BipolarMatmulPlan,
                                    SplitMatmulPlan)
from repro.simulator.reference import reference_counts, reference_step
from repro.training.im2col import im2col


def _network(name, phase_length=8, **cfg):
    builder, shape = BENCH_NETWORKS[name]
    sc = SCNetwork.from_trained(builder(seed=0),
                                SCConfig(phase_length=phase_length, **cfg))
    return sc, shape


# --------------------------------------------------------------------
# Engine-level planned matmuls vs the gate-level oracle
# --------------------------------------------------------------------

class TestPlannedMatmuls:
    @pytest.mark.parametrize("length", [7, 64, 100, 129])
    @pytest.mark.parametrize("accumulator", ["or", "apc", "mux"])
    def test_split_plan_matches_generic(self, length, accumulator):
        rng = np.random.default_rng(length)
        acts = rng.random((9, 11))
        weights = rng.uniform(-1.0, 1.0, (5, 11))
        weights[2] = 0.0        # all-zero channel
        weights[:, 3] = 0.0     # dead fan-in lane
        kwargs = dict(length=length, bits=8, scheme="lfsr", seed=3,
                      accumulator=accumulator, chunk_positions=4)
        ref = reference_counts(acts, weights, **kwargs)
        plan = SplitMatmulPlan(weights, **kwargs)
        assert np.array_equal(ref, plan.execute(acts))

    @pytest.mark.parametrize("block_bytes", [1, 1024, 65536, None])
    def test_retile_is_value_neutral(self, block_bytes):
        rng = np.random.default_rng(7)
        acts = rng.random((17, 23))
        weights = rng.uniform(-1.0, 1.0, (13, 23))
        plan = SplitMatmulPlan(weights, length=100, bits=8, scheme="lfsr",
                               seed=9)
        baseline = plan.execute(acts)
        assert np.array_equal(
            baseline, plan.retile(block_bytes).execute(acts))

    @pytest.mark.parametrize("length", [7, 64, 100])
    def test_bipolar_plan_matches_generic(self, length):
        rng = np.random.default_rng(length + 1)
        acts = rng.random((9, 11))
        weights = rng.uniform(-1.0, 1.0, (5, 11))
        weights[:, 3] = 0.0
        kwargs = dict(length=length, bits=8, scheme="lfsr", seed=3,
                      chunk_positions=4)
        ref = reference_counts(acts, weights, representation="bipolar",
                               **kwargs)
        plan = BipolarMatmulPlan(weights, **kwargs)
        assert np.array_equal(ref, plan.execute(acts))
        assert np.array_equal(ref, plan.retile(256).execute(acts))

    def test_all_zero_weights(self):
        acts = np.random.default_rng(0).random((6, 8))
        plan = SplitMatmulPlan(np.zeros((4, 8)), length=64, bits=8,
                               scheme="lfsr", seed=1)
        assert np.array_equal(plan.execute(acts),
                              np.zeros((6, 4), dtype=np.int64))
        assert plan.encode_lanes_skipped == 2 * 8
        assert plan.lanes_skipped_fraction == 1.0

    def test_skip_accounting(self):
        # Half the lanes exactly zero -> at least half the (phase, lane)
        # products skipped; no-zero-lane weights skip only the opposite
        # phase's sign-gated lanes.
        weights = np.full((4, 10), 0.5)
        weights[:, ::2] = 0.0
        plan = SplitMatmulPlan(weights, length=64, bits=8, scheme="lfsr",
                               seed=1)
        # Up phase keeps 5 lanes, down phase keeps none.
        assert plan.encode_lanes_skipped == 5 + 10
        assert plan.lanes_skipped_fraction == 0.75

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_sparse_weight_property(self, seed, zero_fraction):
        """Random sparsity patterns, incl. the all-zero-lane and
        no-zero-lane edges, never change a single output bit."""
        rng = np.random.default_rng(seed)
        acts = rng.random((5, 13))
        weights = rng.uniform(-1.0, 1.0, (3, 13))
        weights[rng.random(weights.shape) < zero_fraction] = 0.0
        kwargs = dict(length=36, bits=8, scheme="lfsr", seed=11,
                      chunk_positions=3)
        for accumulator in ("or", "apc", "mux"):
            ref = reference_counts(acts, weights, accumulator=accumulator,
                                   **kwargs)
            plan = SplitMatmulPlan(weights, accumulator=accumulator,
                                   **kwargs)
            assert np.array_equal(ref, plan.execute(acts))


# --------------------------------------------------------------------
# Row x channel tiler
# --------------------------------------------------------------------

def _zero_lanes(weights, pattern, groups, rng):
    """Apply one zero-weight pattern to a ``(C, K)`` weight plane."""
    n_chan, fan_in = weights.shape
    if pattern == "group_spans":
        # Block-diagonal: each channel group keeps only its own
        # contiguous span of fan-in lanes (a lowered grouped conv).
        span, per = fan_in // groups, n_chan // groups
        mask = np.zeros_like(weights, dtype=bool)
        for g in range(groups):
            mask[g * per:(g + 1) * per, g * span:(g + 1) * span] = True
        return np.where(mask, weights, 0.0)
    if pattern == "scattered":
        return np.where(rng.random(weights.shape) < 0.7, 0.0, weights)
    if pattern == "all_zero":
        return np.zeros_like(weights)
    if pattern == "one_signed":
        # Every third lane carries positive weights only: it is encoded
        # for the up phase and skipped for the down phase.
        weights = weights.copy()
        weights[:, ::3] = np.abs(weights[:, ::3])
        return weights
    return weights


def _traced_counters(run) -> dict:
    """Counters of the one ``kernel:plan:*`` span ``run()`` records."""
    was_enabled = obs.enabled()
    obs.reset()
    obs.enable()
    try:
        with obs.span("test") as root:
            run()
    finally:
        if not was_enabled:
            obs.disable()
        obs.reset()
    spans = [sp for sp in obs.walk_spans([root])
             if sp.name.startswith("kernel:plan:")]
    assert len(spans) == 1
    return spans[0].counters


class TestRowChannelTiler:
    @given(seed=st.integers(0, 2**32 - 1),
           n_rows=st.integers(1, 19),
           length=st.sampled_from([7, 65, 100, 130]),
           groups=st.sampled_from([1, 2, 3]),
           pattern=st.sampled_from(["none", "group_spans", "scattered",
                                    "all_zero"]),
           block_bytes=st.integers(0, 24).map(lambda e: 1 << e),
           variant=st.sampled_from(["or", "apc", "mux", "bipolar"]))
    @settings(max_examples=60, deadline=None)
    def test_tiles_match_generic(self, seed, n_rows, length, groups,
                                 pattern, block_bytes, variant):
        """``execute`` and ``execute_rows`` equal the oracle for
        1 row up to more than two chunks (a ragged last chunk and
        tile), any budget from one byte to 16 MiB, channel groups and
        every zero-lane pattern."""
        rng = np.random.default_rng(seed)
        chunk = 8
        n_chan, fan_in = 3 * groups, 5 * groups
        acts = rng.random((n_rows, fan_in))
        weights = _zero_lanes(rng.uniform(-1.0, 1.0, (n_chan, fan_in)),
                              pattern, groups, rng)
        kwargs = dict(length=length, bits=8, scheme="lfsr", seed=5,
                      chunk_positions=chunk)
        if variant == "bipolar":
            ref = reference_counts(acts, weights, representation="bipolar",
                                   **kwargs)
            plan = BipolarMatmulPlan(weights, block_bytes=block_bytes,
                                     channel_groups=groups, **kwargs)
        else:
            ref = reference_counts(acts, weights, accumulator=variant,
                                   **kwargs)
            plan = SplitMatmulPlan(weights, accumulator=variant,
                                   block_bytes=block_bytes,
                                   channel_groups=groups, **kwargs)
        assert np.array_equal(ref, plan.execute(acts))
        rows = np.flatnonzero(rng.random(n_rows) < 0.6)
        assert np.array_equal(ref[rows],
                              plan.execute_rows(acts[rows], rows))

    def test_small_call_runs_few_wide_tiles(self):
        # mnist_mlp's 784 -> 256 layer at its served phase length: both
        # 16-clock phases share one packed plane, and a 2-row call fits
        # it in at most 4 tiles at the default budget (a full-chunk
        # schedule would cut each phase into 128 blocks).
        sc, shape = _network("mnist_mlp", phase_length=16)
        plan = ExecutionPlan(sc, shape, autotune_budget_s=0)
        kp = plan.specialization.plans[1]
        assert (kp.matmul.n_chan, kp.matmul.fan_in) == (256, 784)
        assert kp.block_kib == SCConfig().block_kib
        acts = np.random.default_rng(0).random((2, 784))
        counters = _traced_counters(lambda: kp.matmul.execute(acts))
        planes = sum(1 for ph in kp.matmul.phases if ph.blocks)
        assert planes == 1
        assert 0 < counters["tiles"] <= 4 * planes
        assert counters["tiles"] == kp.matmul.tile_count(2)

    def test_execute_rows_records_skipped_bits(self):
        weights = np.full((4, 10), 0.5)
        weights[:, ::2] = 0.0
        plan = SplitMatmulPlan(weights, length=64, bits=8, scheme="lfsr",
                               seed=1)
        rows = np.array([0, 3, 300])
        acts = np.random.default_rng(1).random((3, 10))
        counters = _traced_counters(
            lambda: plan.execute_rows(acts, rows))
        assert counters["product_bits"] == \
            3 * plan.active_product_lanes * 64
        assert counters["product_bits_skipped"] == \
            3 * (plan.dense_product_lanes - plan.active_product_lanes) * 64

    def test_dense_blocks_and_their_whole_union(self):
        # Random-sign dense weights: every wide block spans its plane's
        # union (one packed plane at L=32 counts for both phases), so
        # the only skipped pairs are never-encoded lanes.
        weights = np.random.default_rng(2).uniform(-1.0, 1.0, (64, 576))
        plan = SplitMatmulPlan(weights, length=32, bits=8, scheme="lfsr",
                               seed=1)
        assert plan.active_product_lanes == sum(
            len(ph.windows) * plan.n_chan * ph.union.size
            for ph in plan.phases)

    @pytest.mark.parametrize("groups", [1, 2])
    def test_zero_channel_plans_return_empty_counts(self, groups):
        weights = np.zeros((0, 6))
        acts = np.random.default_rng(4).random((3, 6))
        kwargs = dict(length=64, bits=8, scheme="lfsr", seed=1,
                      channel_groups=groups)
        for plan in (SplitMatmulPlan(weights, **kwargs),
                     BipolarMatmulPlan(weights, **kwargs)):
            assert plan.tile_count(3) == 0
            assert plan.execute(acts).shape == (3, 0)
            assert plan.execute_rows(acts[:2], np.array([0, 5])).shape \
                == (2, 0)


# --------------------------------------------------------------------
# Phase packing
# --------------------------------------------------------------------

class TestPhasePacking:
    @given(seed=st.integers(0, 2**32 - 1),
           n_rows=st.integers(1, 19),
           length=st.sampled_from([1, 7, 16, 31, 32, 33, 64, 65, 96, 100,
                                   130]),
           bit_offset=st.sampled_from([0, 5, 64]),
           bits=st.sampled_from([8, 10]),
           scheme=st.sampled_from(["lfsr", "vdc"]),
           groups=st.sampled_from([1, 2]),
           pattern=st.sampled_from(["none", "group_spans", "scattered",
                                    "all_zero", "one_signed"]),
           accumulator=st.sampled_from(["or", "apc", "mux"]))
    @settings(max_examples=80, deadline=None)
    def test_planes_match_generic(self, seed, n_rows, length, bit_offset,
                                  bits, scheme, groups, pattern,
                                  accumulator):
        """Packed or not, ``execute`` and ``execute_rows`` equal the
        per-phase gate-level oracle: every phase length around the word
        and half-word edges, offset windows, table (bits <= 8) and
        comparator (bits > 8) encodes, row subsets across chunks,
        channel groups and zero-lane patterns.  Both phases share one
        plane exactly when they encode the same lanes and
        ``1 <= L mod 64 <= 32``."""
        rng = np.random.default_rng(seed)
        n_chan, fan_in = 3 * groups, 5 * groups
        acts = rng.random((n_rows, fan_in))
        weights = _zero_lanes(rng.uniform(-1.0, 1.0, (n_chan, fan_in)),
                              pattern, groups, rng)
        kwargs = dict(length=length, bits=bits, scheme=scheme, seed=5,
                      accumulator=accumulator, chunk_positions=8,
                      bit_offset=bit_offset)
        ref = reference_counts(acts, weights, **kwargs)
        plan = SplitMatmulPlan(weights, channel_groups=groups, **kwargs)
        up, down = (np.flatnonzero((sign * weights > 0).any(axis=0))
                    for sign in (1, -1))
        packed = 1 <= length % 64 <= 32 and np.array_equal(up, down)
        assert [ph.windows for ph in plan.phases] == \
            ([(0, 1)] if packed else [(0,), (1,)])
        if pattern == "one_signed":
            assert len(plan.phases) == 2
        assert np.array_equal(ref, plan.execute(acts))
        rows = np.flatnonzero(rng.random(n_rows) < 0.6)
        assert np.array_equal(ref[rows],
                              plan.execute_rows(acts[rows], rows))

    @pytest.mark.parametrize("length", [7, 32, 33, 100])
    @pytest.mark.parametrize("offset", [0, 5])
    def test_pair_table_concatenates_seed_tables(self, length, offset):
        # The table a packed plane gathers from, keyed by its two phase
        # seeds, holds each seed's window laid end to end along time.
        cache = ActivationEncodeCache()
        seeds = (11, 29)
        pair = cache.table("lfsr", 8, seeds, 5, length, offset=offset)
        assert pair.shape == (5, 257, (2 * length + 63) // 64)
        parts = [unpack_words(cache.table("lfsr", 8, s, 5, length,
                                          offset=offset), length)
                 for s in seeds]
        bits = unpack_words(pair, 64 * pair.shape[-1])
        assert np.array_equal(bits[..., :2 * length],
                              np.concatenate(parts, axis=-1))
        assert not bits[..., 2 * length:].any()
        assert cache.counters() == (0, 3)
        assert cache.table("lfsr", 8, seeds, 5, length,
                           offset=offset) is pair

    def test_dense_pair_runs_one_plane_and_one_encode_per_chunk(self):
        # Random-sign dense weights at L=32: both phases share one plane
        # of one word, so a call gathers each chunk's activations once.
        rng = np.random.default_rng(3)
        weights = rng.uniform(-1.0, 1.0, (16, 40))
        plan = SplitMatmulPlan(weights, length=32, bits=8, scheme="lfsr",
                               seed=1, chunk_positions=8)
        assert len(plan.phases) == 1
        assert plan.phases[0].w_words.shape == (16, 1, 40)
        assert plan.lanes_skipped_fraction == 0.0
        acts = rng.random((20, 40))                 # three chunks
        with obs.KERNEL_COUNTERS.scope() as scope:
            plan.execute(acts)
        assert scope.delta()["encode:act"][0] == 3


# --------------------------------------------------------------------
# Gather plans
# --------------------------------------------------------------------

class TestGatherPlan:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0),
                                                (2, 2), (3, 1)])
    def test_matches_im2col(self, stride, padding):
        rng = np.random.default_rng(stride * 10 + padding)
        x = rng.random((3, 2, 12, 11))
        kh, kw = 3, 2
        plan = GatherPlan(x.shape[1:], kh, kw, stride, padding)
        ref = im2col(x, kh, kw, stride, padding)
        got = plan.take(x)
        assert got.shape == (ref.shape[0] * ref.shape[1] * ref.shape[2],
                             ref.shape[3])
        assert np.array_equal(ref.reshape(-1, ref.shape[3]), got)
        assert plan.out_hw == ref.shape[1:3]

    def test_quantize_commutes_with_gather(self):
        from repro.core.sng import quantize_probability
        rng = np.random.default_rng(5)
        x = rng.random((2, 3, 9, 9))
        plan = GatherPlan(x.shape[1:], 3, 3, 1, 1)
        a = plan.take(quantize_probability(x, 8))
        b = quantize_probability(plan.take(x), 8)
        assert np.array_equal(a, b)


# --------------------------------------------------------------------
# Full plans across the zoo
# --------------------------------------------------------------------

class TestPlanEquivalence:
    """Compiled plans against the same network walked with the oracle's
    counts step."""

    @staticmethod
    def _check(name, x, **cfg):
        sc, shape = _network(name, **cfg)
        want = sc.forward(x, counts=reference_step)
        plan = ExecutionPlan(sc, shape)
        assert np.array_equal(plan.run(x), want)
        assert np.array_equal(sc.forward(x), want)
        return plan

    @pytest.mark.parametrize("name", sorted(BENCH_NETWORKS))
    def test_specialized_matches_generic_forward(self, name):
        shape = BENCH_NETWORKS[name][1]
        self._check(name, np.random.default_rng(1).uniform(0, 1, (3,) + shape))

    @pytest.mark.parametrize("name", ["lenet5", "tiny_resnet"])
    def test_bipolar_scheme(self, name):
        shape = BENCH_NETWORKS[name][1]
        self._check(name, np.random.default_rng(2).uniform(0, 1, (2,) + shape),
                    representation="bipolar")

    @pytest.mark.parametrize("accumulator", ["mux", "apc"])
    def test_other_accumulators(self, accumulator):
        x = np.random.default_rng(3).uniform(0, 1, (2, 1, 28, 28))
        self._check("lenet5", x, accumulator=accumulator)

    def test_no_computation_skipping(self):
        x = np.random.default_rng(4).uniform(0, 1, (2, 1, 28, 28))
        self._check("lenet5", x, computation_skipping=False)

    def test_plan_pickles_and_stays_identical(self):
        sc, shape = _network("lenet5")
        x = np.random.default_rng(5).uniform(0, 1, (2,) + shape)
        plan = ExecutionPlan(sc, shape)
        clone = pickle.loads(pickle.dumps(plan))
        assert np.array_equal(plan.run(x), clone.run(x))

    @staticmethod
    def _pruned_lenet():
        """lenet5 with 70% of each layer's weights zeroed by assignment."""
        sc, shape = _network("lenet5")
        for layer in sc.layers:
            weight = getattr(layer, "weight", None)
            if weight is not None:
                cut = np.quantile(np.abs(weight), 0.7)
                layer.weight = np.where(np.abs(weight) < cut, 0.0, weight)
        return sc, shape

    def test_pruned_weights_skip_lanes(self):
        # Magnitude-prune the conv weights: the plan must skip the dead
        # lanes and still match the oracle bit for bit.
        sc, shape = self._pruned_lenet()
        x = np.random.default_rng(6).uniform(0, 1, (2,) + shape)
        plan = ExecutionPlan(sc, shape)
        totals = plan.specialization.summary()["totals"]
        assert totals["lanes_skipped_pct"] > 15.0
        assert np.array_equal(sc.forward(x, counts=reference_step),
                              plan.run(x))

    def test_compile_reads_assigned_weights(self):
        # The graph a compile walks is derived from the live layers, so
        # its sparsity facts describe the weights the plans encode, not
        # the arrays the network was built with.
        sc, shape = self._pruned_lenet()
        rows = ExecutionPlan(sc, shape).specialization_summary()["layers"]
        assert [row["kind"] for row in rows] == ["conv", "conv", "linear"]
        for row in rows:
            weight = sc.layers[row["index"]].weight
            dead = (weight.reshape(weight.shape[0], -1) == 0).all(axis=0)
            assert row["zero_weight_lanes"] == int(dead.sum())
            assert row["sparsity"] == pytest.approx(0.7, abs=0.01)
        assert sum(row["zero_weight_lanes"] for row in rows) > 0
        graph_weights = [node.params["weight"]
                         for node in sc.to_graph().nodes if node.params]
        assert all(w is sc.layers[row["index"]].weight
                   for w, row in zip(graph_weights, rows))

    def test_describe_reports_decisions(self):
        sc, shape = _network("lenet5")
        text = ExecutionPlan(sc, shape).describe()
        assert "variant" in text and "split-or" in text
        assert "block KiB" in text and "specialized" in text

    def test_runtime_matches_byte_kernel_forward(self):
        # Named for the byte kernel it was first checked against; the
        # reference is the oracle-walked forward.
        sc, shape = _network("mnist_mlp")
        x = np.random.default_rng(7).uniform(0, 1, (4,) + shape)
        want = sc.forward(x, counts=reference_step)
        with InferenceRuntime(sc, shape, config=RuntimeConfig(
                backend="serial", shard_size=4)) as runtime:
            assert np.array_equal(runtime.infer(x), want)


# --------------------------------------------------------------------
# Artifact cache + pass-pipeline facts
# --------------------------------------------------------------------

class TestSpecializationCache:
    def test_value_based_fingerprint(self):
        sc1, shape = _network("mnist_mlp")
        sc2, _ = _network("mnist_mlp")     # fresh arrays, same values
        assert (specialization_fingerprint(sc1, shape, sc1.config)
                == specialization_fingerprint(sc2, shape, sc2.config))
        sc3, _ = _network("mnist_mlp", phase_length=16)
        assert (specialization_fingerprint(sc1, shape, sc1.config)
                != specialization_fingerprint(sc3, shape, sc3.config))

    def test_weight_mutation_changes_fingerprint(self):
        sc, shape = _network("mnist_mlp")
        before = specialization_fingerprint(sc, shape, sc.config)
        layer = next(l for l in sc.layers if hasattr(l, "weight"))
        layer.weight = layer.weight * 0.5
        assert specialization_fingerprint(sc, shape, sc.config) != before

    def test_rebuild_hits_cache(self):
        clear_specialization_cache()
        sc, shape = _network("mnist_mlp")
        plan1 = ExecutionPlan(sc, shape)
        assert not plan1.specialization.from_cache
        sc2, _ = _network("mnist_mlp")
        plan2 = ExecutionPlan(sc2, shape)
        assert plan2.specialization.from_cache
        info = specialization_cache_info()
        assert info["hits"] >= 1 and info["entries"] >= 1
        # Cached artifacts are the same objects — no recompiled tables —
        # and the fresh network's layers run them.
        k1 = plan1.specialization.plans
        k2 = plan2.specialization.plans
        assert all(k1[i] is k2[i] for i in k1)
        assert all(sc2.layers[i].plans.get(k1[i].key) is k1[i].matmul
                   for i in k1)

    def test_cold_compile_installs_tuned_plans(self):
        clear_specialization_cache()
        sc, shape = _network("cifar10_cnn")
        plan = ExecutionPlan(sc, shape, autotune_budget_s=2.0)
        kernel_plans = plan.specialization.plans.values()
        assert any(kp.autotuned for kp in kernel_plans)
        for kp in kernel_plans:
            assert sc.layers[kp.index].plans.get(kp.key) is kp.matmul
            assert kp.matmul.block_bytes == kp.block_kib * 1024

    def test_compile_never_retiles_an_installed_plan(self):
        # A forward leaves the layers' plans installed, where other
        # threads may be running them: a later compile reuses them as
        # they are instead of autotuning them in place.
        clear_specialization_cache()
        sc, shape = _network("cifar10_cnn")
        sc.forward(np.random.default_rng(8).uniform(0, 1, (1,) + shape))
        blocks = {id(p): [ph.blocks for ph in p.phases]
                  for layer in sc.layers if hasattr(layer, "plans")
                  for p in layer.plans.values() if hasattr(p, "phases")}
        plan = ExecutionPlan(sc, shape, autotune_budget_s=2.0)
        for kp in plan.specialization.plans.values():
            assert not kp.autotuned
            assert all(a is b for a, b in zip(
                blocks[id(kp.matmul)], [ph.blocks for ph in kp.matmul.phases]))

    def test_group_facts_expose_sparsity(self):
        sc, shape = _network("lenet5")
        for layer in sc.layers:
            if hasattr(layer, "weight") and layer.weight.ndim == 4:
                layer.weight[:, :, 0, 0] = 0.0    # kill one lane per conv
        result = lower(sc.to_graph(), input_shape=shape, exact_pool=True)
        facts = group_facts(result)
        convs = [f for f in facts if f.kind == "conv"]
        assert convs and all(f.zero_weight_lanes >= 1 for f in convs)
        assert all(f.sparsity > 0 for f in convs)
        assert all(f.positions > 0 for f in convs)


# --------------------------------------------------------------------
# Optional jit layer
# --------------------------------------------------------------------

class TestJitLayer:
    def test_status_reports_resolution(self):
        status = scjit.status()
        assert set(status) == {"env_enabled", "numba_available", "active",
                               "reason"}
        if not status["numba_available"]:
            assert status["active"] is False

    def test_env_gate_pins_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_SC_JIT", "0")
        scjit._reset_for_tests()
        try:
            assert scjit.or_popcount_loop() is None
            assert scjit.status()["reason"] == "disabled via REPRO_SC_JIT"
        finally:
            monkeypatch.undo()
            scjit._reset_for_tests()

    def test_jit_or_none_falls_back(self):
        # execute(jit_or=None) is the canonical path; passing an
        # explicit fused loop must be bit-identical (here: the numpy
        # reference itself stands in for a compiled loop).
        rng = np.random.default_rng(8)
        acts = rng.random((7, 9))
        weights = rng.uniform(-1.0, 1.0, (4, 9))
        plan = SplitMatmulPlan(weights, length=70, bits=8, scheme="lfsr",
                               seed=2)
        ref = plan.execute(acts)
        assert np.array_equal(
            ref, plan.execute(acts, jit_or=scjit._reference_or_popcount))
        # Every lane carrying both signs, L=70 packs both phases into
        # one plane (the fused loop applies the down-phase flip); L=100
        # keeps one plane per phase.
        mixed = np.abs(weights)
        mixed[1::2] *= -1.0
        for length, windows in ((70, [(0, 1)]), (100, [(0,), (1,)])):
            plan = SplitMatmulPlan(mixed, length=length, bits=8,
                                   scheme="lfsr", seed=2)
            assert [ph.windows for ph in plan.phases] == windows
            assert np.array_equal(
                plan.execute(acts),
                plan.execute(acts, jit_or=scjit._reference_or_popcount))

    @pytest.mark.parametrize("length,one_signed,fused", [
        (4, False, False), (16, False, False), (32, True, False),
        (32, False, True), (70, False, True)])
    def test_fused_loop_sees_only_64_bit_words(self, length, one_signed,
                                               fused):
        # The fused loop is 64-bit only.  Every lane carrying both signs
        # packs both phases: L=4 and L=16 into one 8- and one 32-bit
        # word, which keep the numpy path, L=32 and L=70 into 64-bit
        # words.  A one-signed lane keeps two 32-clock planes at L=32.
        rng = np.random.default_rng(9)
        acts = rng.random((5, 9))
        weights = np.abs(rng.uniform(-1.0, 1.0, (4, 9)))
        weights[1::2] *= -1.0
        if one_signed:
            weights[:, 0] = np.abs(weights[:, 0])
        plan = SplitMatmulPlan(weights, length=length, bits=8,
                               scheme="lfsr", seed=2)
        assert len(plan.phases) == (2 if one_signed else 1)
        seen = []

        def loop(aw, ww, flip):
            seen.append((aw.dtype, ww.dtype, flip.dtype))
            return scjit._reference_or_popcount(aw, ww, flip)

        assert np.array_equal(plan.execute(acts),
                              plan.execute(acts, jit_or=loop))
        assert bool(seen) == fused
        assert all(d == np.uint64 for dtypes in seen for d in dtypes)
