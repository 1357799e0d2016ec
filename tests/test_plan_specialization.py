"""Bit-equivalence and behavior of the plan-specialization stage.

The specialized execution path (gather plans, zero-lane skipping,
retiled block schedules, planned matmuls) must be *bit-identical* to
the generic kernels — across every zoo graph, both representations,
every accumulator, and adversarial weight sparsity patterns.  Any
deviation is a correctness bug: both paths simulate the same gates on
the same streams.
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
from repro.simulator.engine import (BipolarMatmulPlan, SplitMatmulPlan,
                                    bipolar_mux_matmul_counts,
                                    split_or_matmul_counts)
from repro.training.im2col import im2col


def _network(name, phase_length=8, **cfg):
    builder, shape = BENCH_NETWORKS[name]
    sc = SCNetwork.from_trained(builder(seed=0),
                                SCConfig(phase_length=phase_length, **cfg))
    return sc, shape


# --------------------------------------------------------------------
# Engine-level planned matmuls vs the generic word kernel
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
        ref = split_or_matmul_counts(acts, weights, kernel="word", **kwargs)
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
        ref = bipolar_mux_matmul_counts(acts, weights, kernel="word",
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
            ref = split_or_matmul_counts(acts, weights, kernel="word",
                                         accumulator=accumulator, **kwargs)
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
        """``execute`` and ``execute_rows`` equal the generic kernels for
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
            ref = bipolar_mux_matmul_counts(acts, weights, kernel="word",
                                            **kwargs)
            plan = BipolarMatmulPlan(weights, block_bytes=block_bytes,
                                     channel_groups=groups, **kwargs)
        else:
            ref = split_or_matmul_counts(acts, weights, kernel="word",
                                         accumulator=variant, **kwargs)
            plan = SplitMatmulPlan(weights, accumulator=variant,
                                   block_bytes=block_bytes,
                                   channel_groups=groups, **kwargs)
        assert np.array_equal(ref, plan.execute(acts))
        rows = np.flatnonzero(rng.random(n_rows) < 0.6)
        assert np.array_equal(ref[rows],
                              plan.execute_rows(acts[rows], rows))

    def test_small_call_runs_few_wide_tiles(self):
        # mnist_mlp's 784 -> 256 layer at its served phase length: a
        # 2-row call fits each phase in at most 4 tiles at the default
        # budget (a full-chunk schedule would cut it into 128 blocks).
        sc, shape = _network("mnist_mlp", phase_length=16)
        plan = ExecutionPlan(sc, shape, autotune_budget_s=0)
        kp = plan.specialization.plans[1]
        assert (kp.matmul.n_chan, kp.matmul.fan_in) == (256, 784)
        assert kp.block_kib == SCConfig().block_kib
        acts = np.random.default_rng(0).random((2, 784))
        counters = _traced_counters(lambda: kp.matmul.execute(acts))
        phases = sum(1 for ph in kp.matmul.phases if ph.blocks)
        assert phases == 2
        assert 0 < counters["tiles"] <= 4 * phases
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
        # Random-sign dense weights: every wide block spans its phase
        # union, so the only skipped pairs are never-encoded lanes.
        weights = np.random.default_rng(2).uniform(-1.0, 1.0, (64, 576))
        plan = SplitMatmulPlan(weights, length=32, bits=8, scheme="lfsr",
                               seed=1)
        assert plan.active_product_lanes == sum(
            plan.n_chan * ph.union.size for ph in plan.phases)

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
    @pytest.mark.parametrize("name", sorted(BENCH_NETWORKS))
    def test_specialized_matches_generic_forward(self, name):
        sc, shape = _network(name)
        x = np.random.default_rng(1).uniform(0, 1, (3,) + shape)
        plan = ExecutionPlan(sc, shape)
        assert plan.specialization is not None
        assert np.array_equal(sc.forward(x), plan.run(x))

    @pytest.mark.parametrize("name", ["lenet5", "tiny_resnet"])
    def test_bipolar_scheme(self, name):
        sc, shape = _network(name, representation="bipolar")
        x = np.random.default_rng(2).uniform(0, 1, (2,) + shape)
        plan = ExecutionPlan(sc, shape)
        assert np.array_equal(sc.forward(x), plan.run(x))

    @pytest.mark.parametrize("accumulator", ["mux", "apc"])
    def test_other_accumulators(self, accumulator):
        sc, shape = _network("lenet5", accumulator=accumulator)
        x = np.random.default_rng(3).uniform(0, 1, (2,) + shape)
        plan = ExecutionPlan(sc, shape)
        assert np.array_equal(sc.forward(x), plan.run(x))

    def test_no_computation_skipping(self):
        sc, shape = _network("lenet5", computation_skipping=False)
        x = np.random.default_rng(4).uniform(0, 1, (2,) + shape)
        plan = ExecutionPlan(sc, shape)
        assert np.array_equal(sc.forward(x), plan.run(x))

    def test_specialize_false_pins_generic(self):
        sc, shape = _network("mnist_mlp")
        plan = ExecutionPlan(sc, shape, specialize=False)
        assert plan.specialization is None
        assert plan.specialization_summary() == {"enabled": False,
                                                 "kernel": plan.kernel}

    def test_byte_kernel_stays_generic(self):
        sc, shape = _network("mnist_mlp", kernel="byte")
        plan = ExecutionPlan(sc, shape)
        assert plan.specialization is None

    def test_plan_pickles_and_stays_identical(self):
        sc, shape = _network("lenet5")
        x = np.random.default_rng(5).uniform(0, 1, (2,) + shape)
        plan = ExecutionPlan(sc, shape)
        clone = pickle.loads(pickle.dumps(plan))
        assert np.array_equal(plan.run(x), clone.run(x))

    def test_pruned_weights_skip_lanes(self):
        # Magnitude-prune the conv weights: the plan must skip the dead
        # lanes and still match the generic forward bit for bit.
        sc, shape = _network("lenet5")
        for layer in sc.layers:
            weight = getattr(layer, "weight", None)
            if weight is not None:
                cut = np.quantile(np.abs(weight), 0.7)
                layer.weight = np.where(np.abs(weight) < cut, 0.0, weight)
        x = np.random.default_rng(6).uniform(0, 1, (2,) + shape)
        plan = ExecutionPlan(sc, shape)
        totals = plan.specialization.summary()["totals"]
        assert totals["lanes_skipped_pct"] > 15.0
        assert np.array_equal(sc.forward(x), plan.run(x))

    def test_describe_reports_decisions(self):
        sc, shape = _network("lenet5")
        text = ExecutionPlan(sc, shape).describe()
        assert "variant" in text and "split-or" in text
        assert "block KiB" in text and "specialized" in text

    def test_runtime_identical_across_specialize_toggle(self):
        sc, shape = _network("mnist_mlp")
        x = np.random.default_rng(7).uniform(0, 1, (4,) + shape)
        with InferenceRuntime(sc, shape, config=RuntimeConfig(
                backend="serial", specialize=True)) as on:
            a = on.infer(x)
        with InferenceRuntime(sc, shape, config=RuntimeConfig(
                backend="serial", specialize=False)) as off:
            b = off.infer(x)
        assert np.array_equal(a, b)


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
        # Cached artifacts are the same objects — no recompiled tables.
        k1 = plan1.specialization.plans
        k2 = plan2.specialization.plans
        assert all(k1[i] is k2[i] for i in k1)

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
