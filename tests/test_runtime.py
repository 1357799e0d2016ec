"""Tests for the inference runtime (repro.runtime)."""

import threading

import numpy as np
import pytest

from repro import obs
from repro.runtime import (BENCH_NETWORKS, ExecutionPlan, InferenceRuntime,
                           RuntimeConfig, clear_specialization_cache,
                           format_bench, run_bench)
from repro.simulator import SCConfig, SCNetwork
from repro.training import (Flatten, ReLU, Sequential, SplitOrConv2d,
                            SplitOrLinear)

SHAPE = (1, 8, 8)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def tiny_network(seed=0, **config_kwargs):
    rng = np.random.default_rng(seed)
    net = Sequential([
        SplitOrConv2d(1, 3, 3, rng=rng), ReLU(),
        Flatten(),
        SplitOrLinear(3 * 6 * 6, 4, rng=rng),
    ])
    sc = SCNetwork.from_trained(net, SCConfig(phase_length=8,
                                              **config_kwargs))
    return net, sc


class TestRuntimeConfig:
    def test_defaults_valid(self):
        RuntimeConfig()

    @pytest.mark.parametrize("kwargs", [
        {"workers": 0}, {"backend": "gpu"}, {"shard_size": 0},
        {"fallback": "retry"}, {"autotune_budget_s": -1},
        {"shm": "sometimes"},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            RuntimeConfig(**kwargs)


class TestExecutionPlan:
    def test_shapes_and_costs(self):
        _, sc = tiny_network()
        plan = ExecutionPlan(sc, SHAPE)
        assert plan.output_shape == (4,)
        kinds = [p.kind for p in plan.layer_plans]
        assert kinds == ["conv", "relu", "flatten", "linear"]
        assert plan.bits_per_sample > 0
        assert plan.weight_lanes == 3 * 9 + 4 * 108
        assert "Execution plan" in plan.describe()

    def test_compile_warms_caches(self):
        # A cold compile encodes each conv/linear layer's weight streams
        # exactly once, into the plan it installs in the layer.  Running
        # the plan, and compiling a freshly built identical network (a
        # fingerprint-cache hit) and running that, encode none.
        def weight_encodes(run):
            with obs.KERNEL_COUNTERS.scope() as scope:
                run()
            return scope.delta().get("encode:weights", (0, 0.0))[0]

        clear_specialization_cache()
        x = np.random.default_rng(1).uniform(0, 1, (2,) + SHAPE)
        _, sc = tiny_network()
        plans = []
        assert weight_encodes(
            lambda: plans.append(ExecutionPlan(sc, SHAPE))) == 2
        assert weight_encodes(lambda: plans[0].run(x)) == 0
        _, fresh = tiny_network()
        assert weight_encodes(
            lambda: plans.append(ExecutionPlan(fresh, SHAPE))) == 0
        assert plans[1].specialization.from_cache
        assert weight_encodes(lambda: plans[1].run(x)) == 0
        assert np.array_equal(plans[0].run(x), plans[1].run(x))

    def test_run_matches_plain_forward(self, rng):
        _, sc = tiny_network()
        plan = ExecutionPlan(sc, SHAPE)
        x = rng.uniform(0, 1, (3,) + SHAPE)
        assert np.array_equal(plan.run(x), sc.forward(x))

    def test_shape_mismatch_rejected(self):
        _, sc = tiny_network()
        with pytest.raises(ValueError):
            ExecutionPlan(sc, (2, 8, 8))     # wrong channel count
        with pytest.raises(ValueError):
            ExecutionPlan(sc, (1, 2, 2))     # conv output collapses

    def test_residual_plan(self, rng):
        from repro.networks import tiny_resnet
        sc = SCNetwork.from_trained(tiny_resnet(seed=0),
                                    SCConfig(phase_length=4))
        plan = ExecutionPlan(sc, (3, 32, 32))
        assert plan.output_shape == (10,)
        x = rng.uniform(0, 1, (1, 3, 32, 32))
        assert np.array_equal(plan.run(x), sc.forward(x))


class TestDeterminism:
    """Logits are a pure function of (input, config, shard size)."""

    def _infer(self, x, **config_kwargs):
        _, sc = tiny_network()
        config = RuntimeConfig(shard_size=2, **config_kwargs)
        with InferenceRuntime(sc, SHAPE, config=config) as runtime:
            return runtime.infer(x)

    def test_backends_bit_identical(self, rng):
        x = rng.uniform(0, 1, (5,) + SHAPE)
        serial = self._infer(x, workers=1, backend="serial")
        thread = self._infer(x, workers=3, backend="thread")
        assert np.array_equal(serial, thread)

    def test_process_backend_bit_identical(self, rng):
        x = rng.uniform(0, 1, (5,) + SHAPE)
        serial = self._infer(x, workers=1, backend="serial")
        process = self._infer(x, workers=2, backend="process")
        assert np.array_equal(serial, process)

    def test_worker_count_irrelevant(self, rng):
        x = rng.uniform(0, 1, (6,) + SHAPE)
        assert np.array_equal(
            self._infer(x, workers=2, backend="thread"),
            self._infer(x, workers=5, backend="thread"),
        )

    def test_coalescing_does_not_change_bits(self, rng, compute_gate):
        """A request's logits are independent of concurrent traffic."""
        _, sc = tiny_network()
        a = rng.uniform(0, 1, (3,) + SHAPE)
        b = rng.uniform(0, 1, (2,) + SHAPE)
        config = RuntimeConfig(workers=2, shard_size=2)
        with InferenceRuntime(sc, SHAPE, config=config) as runtime:
            gate = compute_gate(runtime.plan)
            fa, fb = runtime.submit(a), runtime.submit(b)
            assert gate.wait_for(2)    # both workers hold shards
            assert not fa.done() and not fb.done()
            gate.open()
            served_a = fa.result(timeout=30)
            served_b = fb.result(timeout=30)
            alone_a = runtime.infer(a)
            alone_b = runtime.infer(b)
        assert np.array_equal(served_a, alone_a)
        assert np.array_equal(served_b, alone_b)


class TestInferenceRuntime:
    def test_empty_batch(self):
        _, sc = tiny_network()
        with InferenceRuntime(sc, SHAPE) as runtime:
            out = runtime.infer(np.zeros((0,) + SHAPE))
            assert out.shape == (0, 4)
            preds = runtime.predict(np.zeros((0,) + SHAPE))
            assert preds.shape == (0,)

    def test_predict_matches_network(self, rng):
        _, sc = tiny_network()
        x = rng.uniform(0, 1, (4,) + SHAPE)
        with InferenceRuntime(
            sc, SHAPE, config=RuntimeConfig(shard_size=8)
        ) as runtime:
            preds = runtime.predict(x)
        assert np.array_equal(preds, np.argmax(sc.forward(x), axis=-1))

    def test_input_shape_validated(self, rng):
        _, sc = tiny_network()
        with InferenceRuntime(sc, SHAPE) as runtime:
            with pytest.raises(ValueError):
                runtime.infer(rng.uniform(0, 1, SHAPE))      # no batch dim
            with pytest.raises(ValueError):
                runtime.infer(rng.uniform(0, 1, (2, 1, 4, 4)))
        with pytest.raises(RuntimeError):
            runtime.infer(rng.uniform(0, 1, (1,) + SHAPE))   # closed

    def test_non_finite_input_rejected(self, rng):
        # A NaN pixel used to reach the encode-table gather and fail as
        # an IndexError; every entry point now rejects it up front.
        builder, shape = BENCH_NETWORKS["mnist_mlp"]
        sc = SCNetwork.from_trained(builder(seed=0),
                                    SCConfig(phase_length=8))
        x = rng.uniform(0, 1, (2,) + shape)
        x[1, 0, 5, 5] = np.nan
        with InferenceRuntime(sc, shape) as runtime:
            for entry in (runtime.infer, runtime.submit,
                          runtime.infer_progressive):
                with pytest.raises(ValueError, match="1 non-finite"):
                    entry(x)
            x[0, 0, 0, :3] = [np.inf, -np.inf, np.nan]
            with pytest.raises(ValueError, match="4 non-finite"):
                runtime.infer(x)
            assert runtime.snapshot().requests == 0

    def test_metrics_snapshot(self, rng):
        _, sc = tiny_network()
        x = rng.uniform(0, 1, (4,) + SHAPE)
        with InferenceRuntime(
            sc, SHAPE, config=RuntimeConfig(workers=2, shard_size=2)
        ) as runtime:
            runtime.infer(x)
            snap = runtime.snapshot()
        assert snap.samples == 4
        assert snap.shards == 2
        assert snap.fallbacks == 0
        assert snap.bits_simulated == 4 * runtime.plan.bits_per_sample
        assert 0.0 <= snap.act_cache_hit_rate <= 1.0
        assert snap.stage_seconds["compute"] > 0
        assert "act-encode-cache hit rate" in snap.render()

    def test_fixedpoint_fallback_requires_reference(self):
        _, sc = tiny_network()
        with pytest.raises(ValueError):
            InferenceRuntime(sc, SHAPE,
                             config=RuntimeConfig(fallback="fixedpoint"))


class TestGracefulDegradation:
    def _failing_runtime(self, fallback, fail_on=None):
        net, sc = tiny_network()
        config = RuntimeConfig(workers=1, backend="serial", shard_size=2,
                               fallback=fallback)
        runtime = InferenceRuntime(
            sc, SHAPE, config=config,
            reference=net if fallback == "fixedpoint" else None,
        )
        original = runtime.plan.run

        def run(x):
            if fail_on is None or np.any(x >= fail_on):
                raise RuntimeError("injected shard failure")
            return original(x)

        runtime.plan.run = run
        return runtime

    def test_all_shards_fall_back(self, rng):
        runtime = self._failing_runtime("fixedpoint")
        x = rng.uniform(0, 1, (4,) + SHAPE)
        with runtime:
            out = runtime.infer(x)
            snap = runtime.snapshot()
        assert out.shape == (4, 4)
        assert snap.fallbacks == 2 and snap.errors == 2
        assert snap.stage_seconds["fallback"] > 0

    def test_partial_fallback_merges_both_paths(self, rng):
        # Shards [0:2] are poisoned (contain 2.0); shard [2:4] is clean.
        runtime = self._failing_runtime("fixedpoint", fail_on=2.0)
        x = rng.uniform(0, 1, (4,) + SHAPE)
        x[0] = 2.0
        clean = x[2:4]
        with runtime:
            out = runtime.infer(x)
            snap = runtime.snapshot()
        assert snap.fallbacks == 1
        _, sc = tiny_network()
        assert np.array_equal(out[2:4], sc.forward(clean))

    def test_submit_falls_back_like_infer(self, rng):
        runtime = self._failing_runtime("fixedpoint", fail_on=2.0)
        x = rng.uniform(0, 1, (4,) + SHAPE)
        x[0] = 2.0
        with runtime:
            served = runtime.submit(x).result(timeout=30)
            assert np.array_equal(served, runtime.infer(x))
            assert runtime.snapshot().fallbacks == 2

    def test_no_fallback_propagates(self, rng):
        runtime = self._failing_runtime("none")
        with runtime:
            with pytest.raises(RuntimeError, match="injected"):
                runtime.infer(rng.uniform(0, 1, (2,) + SHAPE))
            assert runtime.snapshot().errors == 1


class TestDispatch:
    """``submit`` hands each request straight to the worker pool."""

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_submit_matches_infer(self, rng, backend):
        _, sc = tiny_network()
        config = RuntimeConfig(workers=2, backend=backend, shard_size=2)
        requests = [rng.uniform(0, 1, (n,) + SHAPE) for n in (1, 4, 3, 2)]
        with InferenceRuntime(sc, SHAPE, config=config) as runtime:
            futures = [runtime.submit(x) for x in requests]
            served = [f.result(timeout=30) for f in futures]
            for x, logits in zip(requests, served):
                assert np.array_equal(logits, runtime.infer(x))

    def test_serial_submit_runs_on_one_pool_thread_in_order(
            self, rng, compute_gate):
        # serve's event loop calls submit, so the serial backend must
        # not compute there; infer still computes inline.
        _, sc = tiny_network()
        config = RuntimeConfig(backend="serial", shard_size=2)
        requests = [rng.uniform(0, 1, (n,) + SHAPE) for n in (3, 1, 2)]
        with InferenceRuntime(sc, SHAPE, config=config) as runtime:
            gate = compute_gate(runtime.plan)
            futures = [runtime.submit(x) for x in requests]
            gate.open()
            for future in futures:
                future.result(timeout=30)
            runtime.infer(requests[0])
        submitted = gate.threads[:-2]
        assert len(set(submitted)) == 1
        assert submitted[0] is not threading.current_thread()
        assert gate.threads[-2:] == [threading.current_thread()] * 2
        shards = [x[s:s + 2] for x in requests for s in range(0, len(x), 2)]
        for seen, shard in zip(gate.shards, shards):
            assert np.array_equal(seen, shard)

    def test_queue_metrics(self, rng, compute_gate):
        _, sc = tiny_network()
        config = RuntimeConfig(workers=2, shard_size=2)
        with InferenceRuntime(sc, SHAPE, config=config) as runtime:
            gate = compute_gate(runtime.plan)
            future = runtime.submit(rng.uniform(0, 1, (3,) + SHAPE))
            assert gate.wait_for(2)
            held = runtime.snapshot()
            gate.open()
            future.result(timeout=30)
            snap = runtime.snapshot()
        assert held.queue_depth == 1
        assert snap.queue_depth == 0 and snap.max_queue_depth == 1
        assert snap.requests == 1 and snap.batches == 1
        assert snap.shards == 2 and snap.samples == 3
        assert 0 <= snap.stage_seconds["queue"] < snap.elapsed_s


class TestBench:
    def test_registry_networks_exist(self):
        assert set(BENCH_NETWORKS) == {
            "mnist_mlp", "lenet5", "cifar10_cnn", "svhn_cnn", "tiny_resnet",
            "mobilenet_mini",
        }

    def test_tiny_bench_run(self):
        result = run_bench("lenet5", batch=2, repeats=1, workers=2,
                           backend="thread", shard_size=1, phase_length=4)
        assert result.identical
        assert result.planned_s > 0 and result.parallel_s > 0
        text = format_bench(result)
        assert "bit-identical" in text
        assert "Runtime metrics" in text

    def test_cli_bench_command(self, capsys):
        from repro.cli import main
        rc = main(["bench", "mnist_mlp", "--batch", "2", "--repeats", "1",
                   "--workers", "2", "--shard", "1",
                   "--phase-length", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "bit-identical" in out
        assert "encode-cache hit rate" in out
