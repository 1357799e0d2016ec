"""Resumable-popcount (progressive) evaluation — PR 8.

Three levels, matching the refactor's layering:

- **Engine**: ``bit_offset`` segment plans sum to the one-shot count
  over the union window, and ``execute_rows`` matches a row slice of
  the full execute — the two primitives resumption is built from.
- **Simulator**: ``forward_partial(...).extend(...)`` is bit-identical
  to a one-shot forward at the final length, across the zoo, both
  representations and every accumulator (golden cases + a Hypothesis
  sweep), and the non-resumable configurations are rejected loudly.
- **Runtime**: the confidence-gated policy loop, its outcome metadata,
  the runtime metrics counters, and the worker pool running each
  progressive request as one shard on every backend.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import decision_margin_bound
from repro.networks import lenet5, mnist_mlp, tiny_resnet
from repro.runtime import (InferenceRuntime, ProgressivePolicy,
                           RuntimeConfig, run_progressive, top2_margin)
from repro.simulator import SCConfig, SCNetwork
from repro.simulator.engine import (BipolarMatmulPlan, SplitMatmulPlan,
                                    encode_split_weight_streams)
from repro.simulator.progressive import ProgressiveExecutor

BUILDERS = {"mnist_mlp": mnist_mlp, "lenet5": lenet5,
            "tiny_resnet": tiny_resnet}
SHAPES = {"mnist_mlp": (1, 28, 28), "lenet5": (1, 28, 28),
          "tiny_resnet": (3, 32, 32)}

#: (accumulator, representation, scheme) stream modes under test.
MODES = [("or", "split-unipolar", "lfsr"),
         ("apc", "split-unipolar", "vdc"),
         ("mux", "split-unipolar", "lfsr"),
         ("or", "bipolar", "lfsr")]


def _network(name, *, phase_length, mode=("or", "split-unipolar", "lfsr"),
             seed=0, **extra):
    accumulator, representation, scheme = mode
    return SCNetwork.from_trained(
        BUILDERS[name](seed=seed),
        SCConfig(phase_length=phase_length, accumulator=accumulator,
                 representation=representation, scheme=scheme, **extra))


def _x(name, n=2, seed=3):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, (n,) + SHAPES[name])


class TestSegmentAdditivity:
    """Engine level: windows [0, a) + [a, a+b) == [0, a+b)."""

    @pytest.fixture
    def workload(self):
        rng = np.random.default_rng(11)
        weights = rng.uniform(-1.0, 1.0, (6, 40))
        acts = rng.random((24, 40))
        return weights, acts

    @pytest.mark.parametrize("accumulator", ["or", "apc", "mux"])
    @pytest.mark.parametrize("scheme", ["lfsr", "vdc"])
    @pytest.mark.parametrize("split", [(40, 24), (64, 32), (1, 95)])
    def test_split_plan_segments_sum(self, workload, accumulator, scheme,
                                     split, a=None):
        weights, acts = workload
        a, b = split
        common = dict(bits=8, scheme=scheme, seed=5,
                      accumulator=accumulator)
        full = SplitMatmulPlan(weights, length=a + b, **common)
        head = SplitMatmulPlan(weights, length=a, **common)
        tail = SplitMatmulPlan(weights, length=b, bit_offset=a, **common)
        np.testing.assert_array_equal(
            head.execute(acts) + tail.execute(acts), full.execute(acts))

    def test_precomputed_streams_must_match_offset(self, workload):
        weights, _ = workload
        streams = encode_split_weight_streams(weights, length=8, bits=8,
                                              scheme="lfsr", seed=5,
                                              offset=0)
        zero = SplitMatmulPlan(weights, length=8, bits=8, scheme="lfsr",
                               seed=5, weight_streams=streams)
        shifted = SplitMatmulPlan(weights, length=8, bits=8, scheme="lfsr",
                                  seed=5, bit_offset=8)
        acts = np.random.default_rng(0).random((4, weights.shape[1]))
        # Different windows of the same conceptual stream count
        # different bits — offset must reach the weight encoder too.
        assert not np.array_equal(zero.execute(acts),
                                  shifted.execute(acts))

    def test_bipolar_plan_segments_sum(self, workload):
        weights, acts = workload
        common = dict(bits=8, scheme="lfsr", seed=5)
        full = BipolarMatmulPlan(weights, length=96, **common)
        head = BipolarMatmulPlan(weights, length=40, **common)
        tail = BipolarMatmulPlan(weights, length=56, bit_offset=40,
                                 **common)
        np.testing.assert_array_equal(
            head.execute(acts) + tail.execute(acts), full.execute(acts))

    @pytest.mark.parametrize("accumulator", ["or", "mux"])
    def test_execute_rows_matches_slice(self, workload, accumulator):
        weights, acts = workload
        plan = SplitMatmulPlan(weights, length=32, bits=8, scheme="lfsr",
                               seed=5, accumulator=accumulator,
                               bit_offset=32)
        rows = np.array([0, 3, 7, 22])
        np.testing.assert_array_equal(
            plan.execute_rows(acts[rows], rows), plan.execute(acts)[rows])

    def test_bipolar_execute_rows_matches_slice(self, workload):
        weights, acts = workload
        plan = BipolarMatmulPlan(weights, length=32, bits=8, scheme="lfsr",
                                 seed=5, bit_offset=16)
        rows = np.array([1, 2, 23])
        np.testing.assert_array_equal(
            plan.execute_rows(acts[rows], rows), plan.execute(acts)[rows])


class TestLayerPhaseLengthOverrides:
    """SCConfig.layer_phase_lengths normalization (satellite 1)."""

    def test_numpy_ints_coerce(self):
        config = SCConfig(layer_phase_lengths={np.int64(2): np.int32(16)})
        assert config.layer_phase_lengths == {2: 16}
        assert all(type(k) is int and type(v) is int
                   for k, v in config.layer_phase_lengths.items())

    def test_copied_on_construct(self):
        overrides = {1: 8}
        config = SCConfig(layer_phase_lengths=overrides)
        overrides[1] = 999
        assert config.layer_phase_lengths[1] == 8

    @pytest.mark.parametrize("bad", [{True: 8}, {0: True}])
    def test_bool_rejected(self, bad):
        with pytest.raises(TypeError, match="bool"):
            SCConfig(layer_phase_lengths=bad)

    def test_float_value_rejected(self):
        with pytest.raises(TypeError, match="not an int"):
            SCConfig(layer_phase_lengths={0: 8.0})

    def test_string_key_rejected(self):
        with pytest.raises(TypeError, match="not an int"):
            SCConfig(layer_phase_lengths={"0": 8})

    def test_non_mapping_rejected(self):
        with pytest.raises(TypeError, match="mapping"):
            SCConfig(layer_phase_lengths=[(0, 8)])

    def test_negative_key_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            SCConfig(layer_phase_lengths={-1: 8})

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            SCConfig(layer_phase_lengths={0: 0})


class TestForwardPartialIdentity:
    """Simulator level: extension == one-shot, bit for bit."""

    @pytest.mark.parametrize("mode", MODES,
                             ids=[f"{a}-{r}-{s}" for a, r, s in MODES])
    @pytest.mark.parametrize("network", sorted(BUILDERS))
    def test_golden_schedule(self, network, mode):
        x = _x(network)
        result = _network(network, phase_length=4, mode=mode) \
            .forward_partial(x, 4)
        for length in (8, 16):
            result.extend(length)
            one_shot = _network(network, phase_length=length,
                                mode=mode).forward(x)
            np.testing.assert_array_equal(result.logits, one_shot)
        assert result.history == [4, 8, 16]
        assert result.extensions == 2

    def test_pinned_override_does_not_grow(self):
        # A layer_phase_lengths override stays pinned while the base
        # length extends — exactly the one-shot semantics.
        x = _x("mnist_mlp")
        overrides = {2: 8}
        result = _network("mnist_mlp", phase_length=4,
                          layer_phase_lengths=overrides) \
            .forward_partial(x, 4).extend(16)
        one_shot = _network("mnist_mlp", phase_length=16,
                            layer_phase_lengths=overrides).forward(x)
        np.testing.assert_array_equal(result.logits, one_shot)

    def test_specialized_gathers_identical(self):
        # The runtime's compile installs gather plans in the conv layers,
        # which the executor's walk then uses; the patch matrices (and
        # hence every bit) must match im2col.
        x = _x("lenet5")
        sc = _network("lenet5", phase_length=4)
        with InferenceRuntime(sc, SHAPES["lenet5"]) as rt:
            outcome = rt.infer_progressive(
                x, ProgressivePolicy(start_phase_length=4,
                                     max_phase_length=16, margin_z=None))
        plain = _network("lenet5", phase_length=4) \
            .forward_partial(x, 4).extend(16)
        np.testing.assert_array_equal(outcome.logits, plain.logits)

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_property_extension_equals_one_shot(self, data):
        network = data.draw(st.sampled_from(sorted(BUILDERS)),
                            label="network")
        mode = data.draw(st.sampled_from(MODES), label="mode")
        lengths = data.draw(
            st.lists(st.integers(1, 12), min_size=2, max_size=3,
                     unique=True).map(sorted), label="schedule")
        seed = data.draw(st.integers(0, 3), label="input_seed")
        x = _x(network, n=1, seed=seed)
        result = _network(network, phase_length=lengths[0], mode=mode) \
            .forward_partial(x, lengths[0])
        for length in lengths[1:]:
            result.extend(length)
        one_shot = _network(network, phase_length=lengths[-1],
                            mode=mode).forward(x)
        np.testing.assert_array_equal(result.logits, one_shot)


class TestResumableSemantics:
    def test_shrink_raises(self):
        result = _network("mnist_mlp", phase_length=8).forward_partial(
            _x("mnist_mlp"), 8)
        with pytest.raises(ValueError, match="shrink"):
            result.extend(4)

    def test_same_length_is_noop(self):
        result = _network("mnist_mlp", phase_length=8).forward_partial(
            _x("mnist_mlp"), 8)
        logits = result.logits.copy()
        assert result.extend(8) is result
        assert result.extensions == 0
        np.testing.assert_array_equal(result.logits, logits)

    def test_random_scheme_rejected(self):
        sc = _network("mnist_mlp", phase_length=8,
                      mode=("or", "split-unipolar", "random"))
        with pytest.raises(ValueError, match="prefix-stable"):
            ProgressiveExecutor(sc)


class TestProgressivePolicy:
    def test_defaults_validate(self):
        policy = ProgressivePolicy()
        assert policy.start_phase_length == 16
        assert policy.resolved_max(128) == 128

    @pytest.mark.parametrize("kwargs", [
        dict(start_phase_length=0),
        dict(start_phase_length=32, max_phase_length=16),
        dict(growth=1.0),
        dict(margin_z=0.0),
        dict(target_rms=-0.1),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ProgressivePolicy(**kwargs)

    def test_from_request_bool_and_none(self):
        default = ProgressivePolicy(start_phase_length=4)
        assert ProgressivePolicy.from_request(None, default) is None
        assert ProgressivePolicy.from_request(False, default) is None
        assert ProgressivePolicy.from_request(True, default) is default

    def test_from_request_dict_merges_over_default(self):
        default = ProgressivePolicy(start_phase_length=4, margin_z=1.0)
        merged = ProgressivePolicy.from_request({"margin_z": None},
                                                default)
        assert merged.start_phase_length == 4
        assert merged.margin_z is None

    def test_from_request_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ProgressivePolicy.from_request({"bogus": 1}, None)

    def test_from_request_non_dict_rejected(self):
        with pytest.raises(ValueError, match="boolean or an object"):
            ProgressivePolicy.from_request("yes", None)

    def test_top2_margin(self):
        logits = np.array([[0.1, 0.5, 0.3], [1.0, 1.0, 0.2]])
        np.testing.assert_allclose(top2_margin(logits), [0.2, 0.0])
        assert np.all(np.isinf(top2_margin(np.array([[3.0]]))))


class _FakeResult:
    """Scripted ProgressiveResult: logits per length, from a table."""

    def __init__(self, table, length):
        self.table = table
        self.phase_length = length
        self.extensions = 0
        self.history = [length]

    @property
    def logits(self):
        return self.table[self.phase_length]

    def extend(self, length):
        assert length > self.phase_length
        self.phase_length = length
        self.history.append(length)
        self.extensions += 1
        return self


class TestRunProgressive:
    def _table(self, margin, lengths=(8, 16, 32, 64)):
        return {n: np.array([[0.5 + margin, 0.5]]) for n in lengths}

    def test_margin_gate_accepts_when_bound_cleared(self):
        # margin 0.6 clears z/sqrt(8) = 0.707 only at n >= 16 for z=2.
        outcome = run_progressive(
            lambda n: _FakeResult(self._table(0.6), n),
            ProgressivePolicy(start_phase_length=8, margin_z=2.0),
            reference_length=64)
        assert outcome.phase_length == 16
        assert outcome.early_exit
        assert outcome.margin == pytest.approx(0.6)
        assert outcome.margin_bound == pytest.approx(
            float(decision_margin_bound(16, z=2.0)))

    def test_disabled_gates_extend_to_max(self):
        outcome = run_progressive(
            lambda n: _FakeResult(self._table(100.0), n),
            ProgressivePolicy(start_phase_length=8, margin_z=None),
            reference_length=64)
        assert outcome.phase_length == 64
        assert not outcome.early_exit
        assert outcome.history == [8, 16, 32, 64]

    def test_rms_floor_defers_acceptance(self):
        # target_rms 0.12 needs n >= 18 at worst case: the huge margin
        # may not accept below the floor.
        outcome = run_progressive(
            lambda n: _FakeResult(self._table(100.0), n),
            ProgressivePolicy(start_phase_length=8, margin_z=0.5,
                              target_rms=0.12),
            reference_length=64)
        assert outcome.phase_length == 32
        assert outcome.early_exit

    def test_max_reached_returns_regardless(self):
        outcome = run_progressive(
            lambda n: _FakeResult(self._table(0.0), n),
            ProgressivePolicy(start_phase_length=8, margin_z=2.0),
            reference_length=64)
        assert outcome.phase_length == 64
        assert not outcome.early_exit

    def test_start_clamped_to_max(self):
        outcome = run_progressive(
            lambda n: _FakeResult(self._table(0.0, lengths=(16,)), n),
            ProgressivePolicy(start_phase_length=64, max_phase_length=None,
                              margin_z=None),
            reference_length=16)
        assert outcome.phase_length == 16
        assert outcome.extensions == 0


class TestRuntimeProgressive:
    @pytest.mark.parametrize("backend,workers", [
        ("serial", 1), ("thread", 2), ("process", 2)])
    def test_every_backend_matches_the_serial_evaluation(self, backend,
                                                        workers):
        # The pool runs a progressive request as one shard wherever it
        # runs; the outcome is the plan's own caller-thread evaluation.
        sc = _network("lenet5", phase_length=64)
        x = _x("lenet5")
        policy = ProgressivePolicy(start_phase_length=8, max_phase_length=64)
        config = RuntimeConfig(workers=workers, backend=backend,
                               shard_size=1)
        with InferenceRuntime(sc, SHAPES["lenet5"], config=config) as rt:
            expected = rt.plan.run_progressive(x, policy)
            outcomes = [rt.infer_progressive(x, policy),
                        rt.submit(x, policy).result(timeout=120)]
            snapshot = rt.snapshot()
        for outcome in outcomes:
            np.testing.assert_array_equal(outcome.logits, expected.logits)
            assert outcome.phase_length == expected.phase_length
            assert outcome.history == expected.history
        # Never cut into shards, whatever shard_size says.
        assert snapshot.shards == 2 and snapshot.samples == 2 * len(x)

    def test_gate_off_matches_fixed_inference(self):
        sc = _network("lenet5", phase_length=16)
        x = _x("lenet5")
        with InferenceRuntime(sc, SHAPES["lenet5"]) as rt:
            fixed = rt.infer(x)
            outcome = rt.infer_progressive(
                x, ProgressivePolicy(start_phase_length=4, margin_z=None))
        np.testing.assert_array_equal(outcome.logits, fixed)
        assert outcome.phase_length == 16
        assert not outcome.early_exit

    def test_metrics_counters(self):
        # A submitted progressive request is queued and counted like a
        # predict, and clocks no product bits.
        sc = _network("mnist_mlp", phase_length=8)
        x = _x("mnist_mlp")
        policy = ProgressivePolicy(start_phase_length=2, margin_z=None)
        with InferenceRuntime(sc, SHAPES["mnist_mlp"]) as rt:
            rt.infer_progressive(x, policy)
            rt.submit(x, policy).result(timeout=60)
            snapshot = rt.snapshot()
        assert snapshot.progressive_requests == 2
        assert snapshot.progressive_extensions == 4
        assert snapshot.progressive_early_exits == 0
        assert snapshot.progressive_mean_final_length == 8.0
        assert snapshot.progressive_early_exit_rate == 0.0
        assert "progressive" in snapshot.render()
        assert snapshot.requests == 2 and snapshot.samples == 2 * len(x)
        assert snapshot.bits_simulated == 0
        assert snapshot.queue_depth == 0 and snapshot.max_queue_depth == 1
        assert 0 <= snapshot.stage_seconds["queue"] < snapshot.elapsed_s

    def test_non_resumable_config_raises(self):
        # Raised at the call, before the pool does any work: no request
        # is counted and no executor starts.
        sc = SCNetwork.from_trained(
            mnist_mlp(seed=0), SCConfig(phase_length=8, scheme="random"))
        x = _x("mnist_mlp")
        with InferenceRuntime(sc, SHAPES["mnist_mlp"]) as rt:
            with pytest.raises(ValueError, match="prefix-stable"):
                rt.infer_progressive(x)
            with pytest.raises(ValueError, match="prefix-stable"):
                rt.submit(x, ProgressivePolicy())
            assert rt.snapshot().requests == 0
            assert rt.pool._executor is None


@pytest.mark.slow
class TestMatchedAccuracy:
    def test_early_exit_keeps_fixed_length_decisions(self, trained_lenet):
        # On trained margins the gate exits early on easy inputs, yet
        # the decision stays the one the full fixed-length run makes.
        net, x_test, _ = trained_lenet
        sc = SCNetwork.from_trained(net, SCConfig(phase_length=256))
        policy = ProgressivePolicy(start_phase_length=32, margin_z=1.0)
        agree = exits = settled = 0
        requests = x_test[:24]
        with InferenceRuntime(sc, SHAPES["lenet5"],
                              config=RuntimeConfig(backend="serial")) as rt:
            for x in requests:
                x = x[None]
                fixed = rt.infer(x)
                outcome = rt.infer_progressive(x, policy)
                agree += int(np.argmax(outcome.logits)
                             == np.argmax(fixed))
                exits += int(outcome.early_exit)
                settled += outcome.phase_length
        assert agree / len(requests) >= 0.75
        assert exits >= 1
        assert settled / len(requests) < 256
