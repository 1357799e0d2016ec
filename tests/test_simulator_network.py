"""Tests for the functional SC simulator layers and network conversion."""

import numpy as np
import pytest

from repro import obs
from repro.networks import mnist_mlp
from repro.runtime import ExecutionPlan
from repro.simulator import (FixedPointNetwork, SCAvgPool, SCConfig, SCConv2d,
                             SCFlatten, SCLinear, SCNetwork, SCReLU)
from repro.training import (AvgPool2d, Conv2d, Flatten, Linear, MaxPool2d,
                            ReLU, Sequential, SplitOrConv2d, SplitOrLinear)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestSCConfig:
    def test_total_length(self):
        assert SCConfig(phase_length=128).total_length == 256

    def test_validation(self):
        with pytest.raises(ValueError):
            SCConfig(phase_length=0)
        with pytest.raises(ValueError):
            SCConfig(accumulator="tree")

    def test_layer_seeds_distinct(self):
        cfg = SCConfig(seed=7)
        seeds = {cfg.layer_seed(i, p) for i in range(10) for p in range(2)}
        assert len(seeds) == 20


class TestSCLayers:
    def test_conv_weight_validation(self):
        with pytest.raises(ValueError):
            SCConv2d(np.full((2, 1, 3, 3), 2.0))
        with pytest.raises(ValueError):
            SCConv2d(np.zeros((2, 3, 3)))

    def test_linear_weight_validation(self):
        with pytest.raises(ValueError):
            SCLinear(np.zeros((2, 2, 2)))

    def test_conv_output_shape(self, rng):
        w = rng.uniform(-0.5, 0.5, (4, 2, 3, 3))
        layer = SCConv2d(w, padding=1)
        out = layer.forward(rng.uniform(0, 1, (2, 2, 8, 8)),
                            SCConfig(phase_length=32), 0)
        assert out.shape == (2, 4, 8, 8)

    def test_conv_statistics(self, rng):
        w = rng.uniform(-0.3, 0.3, (2, 1, 3, 3))
        layer = SCConv2d(w)
        x = rng.uniform(0, 1, (1, 1, 6, 6))
        cfg = SCConfig(phase_length=4096, scheme="random")
        out = layer.forward(x, cfg, 0)
        # Long streams converge to the exact OR expectation.
        from repro.training.im2col import im2col
        cols = im2col(x, 3, 3)
        w_flat = w.reshape(2, -1)
        pos = 1 - np.prod(1 - cols[..., None, :] * np.maximum(w_flat, 0),
                          axis=-1)
        neg = 1 - np.prod(1 - cols[..., None, :] * np.maximum(-w_flat, 0),
                          axis=-1)
        expected = (pos - neg).transpose(0, 3, 1, 2)
        assert np.abs(out - expected).max() < 0.05

    def test_fused_pool_shape(self, rng):
        w = rng.uniform(-0.5, 0.5, (3, 1, 3, 3))
        layer = SCConv2d(w, padding=1, pool_size=2)
        out = layer.forward(rng.uniform(0, 1, (1, 1, 8, 8)),
                            SCConfig(phase_length=64), 0)
        assert out.shape == (1, 3, 4, 4)

    def test_skipping_shortens_passes(self, rng):
        w = rng.uniform(-0.5, 0.5, (1, 1, 3, 3))
        cfg_skip = SCConfig(phase_length=64, computation_skipping=True)
        cfg_full = SCConfig(phase_length=64, computation_skipping=False)
        layer = SCConv2d(w, padding=1, pool_size=2)
        assert layer.phase_length(cfg_skip) == 16
        assert layer.phase_length(cfg_full) == 64

    def test_skipped_pool_accuracy_matches_full(self, rng):
        # The headline Sec. II-C result: skipping computes 4x fewer bits
        # yet pooled outputs agree with the full-length MUX-style path.
        w = rng.uniform(-0.4, 0.4, (2, 1, 3, 3))
        x = rng.uniform(0, 1, (1, 1, 8, 8))
        outs = {}
        for skip in (True, False):
            cfg = SCConfig(phase_length=1024, scheme="random",
                           computation_skipping=skip)
            outs[skip] = SCConv2d(w, padding=1, pool_size=2).forward(x, cfg, 0)
        assert np.abs(outs[True] - outs[False]).max() < 0.08

    def test_pool_window_must_tile(self, rng):
        w = rng.uniform(-0.5, 0.5, (1, 1, 3, 3))
        layer = SCConv2d(w, pool_size=4)  # 8x8 -> 6x6 output, 4 doesn't tile
        with pytest.raises(ValueError):
            layer.forward(rng.uniform(0, 1, (1, 1, 8, 8)),
                          SCConfig(phase_length=64), 0)

    def test_relu_clips_and_quantizes(self):
        layer = SCReLU()
        x = np.array([-0.5, 0.1234567, 1.5])
        out = layer.forward(x, SCConfig(), 0)
        assert out[0] == 0.0
        assert out[2] == 1.0
        assert out[1] * 256 == np.round(out[1] * 256)

    def test_standalone_avg_pool(self):
        layer = SCAvgPool(2)
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = layer.forward(x, SCConfig(), 0)
        assert out[0, 0, 0, 0] == pytest.approx(2.5)

    def test_flatten(self):
        out = SCFlatten().forward(np.zeros((2, 3, 4, 4)), SCConfig(), 0)
        assert out.shape == (2, 48)


class TestFromTrained:
    def make_net(self, rng):
        return Sequential([
            SplitOrConv2d(1, 4, 3, rng=rng), AvgPool2d(2), ReLU(),
            Flatten(),
            SplitOrLinear(4 * 3 * 3, 5, rng=rng),
        ])

    def test_conversion_structure(self, rng):
        sc = SCNetwork.from_trained(self.make_net(rng), SCConfig())
        kinds = [type(l).__name__ for l in sc.layers]
        assert kinds == ["SCConv2d", "SCReLU", "SCFlatten", "SCLinear"]
        assert sc.layers[0].pool_size == 2  # fused

    def test_unfused_pool_kept_standalone(self, rng):
        net = Sequential([Flatten()])
        net.layers.insert(0, AvgPool2d(2))
        sc = SCNetwork.from_trained(net, SCConfig())
        assert type(sc.layers[0]).__name__ == "SCAvgPool"

    def test_plain_conv_accepted_without_bias(self, rng):
        net = Sequential([Conv2d(1, 2, 3, bias=False, rng=rng)])
        net.layers[0].weight[...] = np.clip(net.layers[0].weight, -1, 1)
        sc = SCNetwork.from_trained(net, SCConfig())
        assert type(sc.layers[0]).__name__ == "SCConv2d"

    def test_bias_rejected(self, rng):
        net = Sequential([Conv2d(1, 2, 3, bias=True, rng=rng)])
        net.layers[0].bias[...] = 1.0
        with pytest.raises(ValueError):
            SCNetwork.from_trained(net, SCConfig())

    def test_zero_bias_still_rejected(self, rng):
        # A bias term left at zero is still a bias term: the ACOUSTIC
        # datapath has no additive-constant path, so conversion must fail
        # loudly rather than silently drop the parameter.
        net = Sequential([Conv2d(1, 2, 3, bias=True, rng=rng)])
        net.layers[0].bias[...] = 0.0
        with pytest.raises(ValueError, match="bias"):
            SCNetwork.from_trained(net, SCConfig())

    def test_linear_bias_rejected(self, rng):
        net = Sequential([Flatten(), Linear(4, 2, bias=True, rng=rng)])
        with pytest.raises(ValueError, match="bias"):
            SCNetwork.from_trained(net, SCConfig())

    def test_from_graph_bias_rejected(self, rng):
        from repro import ir
        node = ir.conv(1, 2, 3, bias=True,
                       weight=rng.uniform(-0.4, 0.4, (2, 1, 3, 3)))
        node.params["bias"] = np.zeros(2)
        graph = ir.NetworkGraph("biased", (1, 8, 8), [node])
        with pytest.raises(ValueError, match="bias"):
            SCNetwork.from_graph(graph, SCConfig())

    def test_unsupported_layer_rejected(self, rng):
        net = Sequential([MaxPool2d(2)])
        with pytest.raises(TypeError):
            SCNetwork.from_trained(net, SCConfig())

    def test_forward_shape_and_accuracy_api(self, rng):
        net = self.make_net(rng)
        sc = SCNetwork.from_trained(net, SCConfig(phase_length=32))
        x = rng.uniform(0, 1, (4, 1, 8, 8))
        logits = sc.forward(x)
        assert logits.shape == (4, 5)
        y = rng.integers(0, 5, 4)
        acc = sc.accuracy(x, y, batch_size=2)
        assert 0.0 <= acc <= 1.0

    def test_sc_tracks_float_forward(self, rng):
        # With long streams the SC network's logits track the trained
        # (approx-OR) float forward closely enough to preserve argmax.
        net = self.make_net(rng)
        for layer in net.layers:
            if hasattr(layer, "weight"):
                layer.weight[...] = rng.uniform(-0.4, 0.4, layer.weight.shape)
        x = rng.uniform(0, 1, (3, 1, 8, 8))
        float_logits = net.forward(x, training=False)
        sc = SCNetwork.from_trained(
            net, SCConfig(phase_length=4096, scheme="random")
        )
        sc_logits = sc.forward(x)
        assert np.abs(sc_logits - float_logits).max() < 0.1


class TestFixedPointNetwork:
    def test_quantized_weights_used(self, rng):
        net = Sequential([Linear(4, 2, bias=False, rng=rng)])
        net.layers[0].weight[...] = 0.12345
        fp = FixedPointNetwork(net, bits=4)
        out = fp.forward(np.eye(4)[:2])
        # 0.12345 on the 4-bit symmetric grid is 1/8; the activation path
        # then requantizes the result to the 4-bit unsigned grid.
        from repro.training.quantize import quantize_unsigned
        assert out[0, 0] == pytest.approx(
            float(quantize_unsigned(np.array([1 / 8]), bits=4)[0]), abs=1e-9
        )

    def test_original_weights_untouched(self, rng):
        net = Sequential([Linear(4, 2, bias=False, rng=rng)])
        original = net.layers[0].weight.copy()
        fp = FixedPointNetwork(net, bits=2)
        fp.forward(np.zeros((1, 4)))
        assert np.array_equal(net.layers[0].weight, original)

    def test_accuracy_api(self, rng):
        net = Sequential([Linear(2, 2, bias=False, rng=rng)])
        net.layers[0].weight[...] = np.eye(2)
        fp = FixedPointNetwork(net)
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert fp.accuracy(x, np.array([0, 1])) == 1.0


class TestForwardIntermediates:
    def test_intermediates_returned(self, rng):
        from repro.training import (AvgPool2d, Flatten, ReLU, Sequential,
                                    SplitOrConv2d, SplitOrLinear)
        net = Sequential([
            SplitOrConv2d(1, 4, 3, rng=rng), AvgPool2d(2), ReLU(),
            Flatten(),
            SplitOrLinear(4 * 3 * 3, 5, rng=rng),
        ])
        sc = SCNetwork.from_trained(net, SCConfig(phase_length=16))
        x = rng.uniform(0, 1, (2, 1, 8, 8))
        logits, intermediates = sc.forward(x, return_intermediates=True)
        assert len(intermediates) == len(sc.layers)
        assert np.array_equal(intermediates[-1], logits)
        # Post-ReLU activations are valid scratchpad contents.
        relu_out = intermediates[1]
        assert relu_out.min() >= 0 and relu_out.max() <= 1


class TestEmptyPredict:
    def _tiny_sc(self, rng):
        from repro.training import Flatten, Sequential, SplitOrLinear
        net = Sequential([Flatten(), SplitOrLinear(16, 3, rng=rng)])
        return net, SCNetwork.from_trained(net, SCConfig(phase_length=8))

    def test_sc_predict_empty(self, rng):
        _, sc = self._tiny_sc(rng)
        preds = sc.predict(np.zeros((0, 1, 4, 4)))
        assert preds.shape == (0,)
        assert preds.dtype == np.int64

    def test_fixedpoint_predict_empty(self, rng):
        net, _ = self._tiny_sc(rng)
        preds = FixedPointNetwork(net).predict(np.zeros((0, 1, 4, 4)))
        assert preds.shape == (0,)
        assert preds.dtype == np.int64


class TestWeightStreamCaching:
    """Layer plan caches: each conv/linear layer keeps the engine plans
    (and so the packed weight streams) its forwards run."""

    def _network(self, rng, **config_kwargs):
        from repro.training import (Flatten, ReLU, Sequential,
                                    SplitOrConv2d, SplitOrLinear)
        net = Sequential([
            SplitOrConv2d(1, 3, 3, rng=rng), ReLU(),
            Flatten(),
            SplitOrLinear(3 * 6 * 6, 4, rng=rng),
        ])
        return SCNetwork.from_trained(
            net, SCConfig(phase_length=16, **config_kwargs)
        )

    @staticmethod
    def _plans(sc) -> list:
        return [layer.plans.values() for layer in sc.layers
                if hasattr(layer, "plans")]

    def test_repeated_forward_hits_cache(self, rng):
        sc = self._network(rng)
        x = rng.uniform(0, 1, (2, 1, 8, 8))
        with obs.KERNEL_COUNTERS.scope() as scope:
            sc.forward(x)
        assert scope.delta()["encode:weights"][0] == 2
        plans = self._plans(sc)
        assert len(plans) == 2 and all(plans)
        with obs.KERNEL_COUNTERS.scope() as scope:
            sc.forward(x)
        assert "encode:weights" not in scope.delta()
        assert self._plans(sc) == plans     # the same plan objects

    def test_logits_bit_identical_cold_vs_warm(self, rng):
        sc = self._network(rng)
        x = rng.uniform(0, 1, (3, 1, 8, 8))
        cold = sc.forward(x)        # populates the caches
        warm = sc.forward(x)        # reruns the cached plans
        assert np.array_equal(cold, warm)
        # And against a fresh network with untouched caches.
        fresh = self._network(np.random.default_rng(0))
        assert np.array_equal(cold, fresh.forward(x))

    def test_bipolar_cache_bit_identical(self, rng):
        sc = self._network(rng, representation="bipolar")
        x = rng.uniform(0, 1, (2, 1, 8, 8))
        cold = sc.forward(x)
        assert np.array_equal(cold, sc.forward(x))

    def test_distinct_configs_get_distinct_entries(self, rng):
        sc = self._network(rng)
        x = rng.uniform(0, 1, (1, 1, 8, 8))
        sc.forward(x)
        sc.config = SCConfig(phase_length=32)
        sc.forward(x)
        linear = sc.layers[-1]
        assert len(linear.plans) == 2
        assert {plan.length for plan in linear.plans.values()} == {16, 32}

    def test_cache_lru_eviction(self, rng):
        from repro.simulator import LayerPlanCache
        cache = LayerPlanCache(max_entries=2)
        for key in ("a", "b", "c"):
            cache.get_or_build(key, lambda: key.upper())
        assert len(cache) == 2
        assert cache.get_or_build("c", lambda: "?") == "C"   # hit
        assert cache.get_or_build("a", lambda: "A2") == "A2"  # evicted


class TestWeightReassignment:
    """Assigning ``layer.weight`` drops the layer's cached plans, so the
    next forward runs the new weights."""

    def test_pruned_linear_weights_take_effect(self):
        from repro.datasets import synthetic_mnist
        (_, _), (x, _) = synthetic_mnist(n_train=0, n_test=2, seed=1)

        def network():
            return SCNetwork.from_trained(mnist_mlp(seed=0),
                                          SCConfig(phase_length=16))

        sc = network()
        before = sc.forward(x)
        first = next(l for l in sc.layers if isinstance(l, SCLinear))
        cut = np.quantile(np.abs(first.weight), 0.5)
        pruned = np.where(np.abs(first.weight) < cut, 0.0, first.weight)
        first.weight = pruned
        after = sc.forward(x)
        fresh = network()
        next(l for l in fresh.layers
             if isinstance(l, SCLinear)).weight = pruned
        assert np.array_equal(after, fresh.forward(x))
        assert not np.array_equal(after, before)

    def test_grouped_conv_drops_its_expanded_plane(self, rng):
        config = SCConfig(phase_length=16)
        x = rng.uniform(0, 1, (2, 4, 6, 6))
        layer = SCConv2d(rng.uniform(-1, 1, (4, 2, 3, 3)), padding=1,
                         groups=2)
        layer.forward(x, config, 0)
        new = rng.uniform(-1, 1, (4, 2, 3, 3))
        layer.weight = new
        want = SCConv2d(new, padding=1, groups=2)
        assert np.array_equal(layer.weight_2d, want.weight_2d)
        assert np.array_equal(layer.forward(x, config, 0),
                              want.forward(x, config, 0))

    def test_assignment_is_validated(self):
        layer = SCLinear(np.zeros((2, 3)))
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            layer.weight = np.full((2, 3), 2.0)
        with pytest.raises(ValueError, match="groups=2"):
            SCConv2d(np.zeros((2, 1, 3, 3)), groups=2).weight = \
                np.zeros((3, 1, 3, 3))


class TestNaNInput:
    """A NaN pixel fails the engine's [0, 1] range check on every path
    below the runtime's input boundary, instead of being cast to an
    out-of-range encode-table index."""

    @pytest.mark.parametrize("path", ["forward", "forward_partial", "plan"])
    def test_nan_pixel_raises_value_error(self, path):
        sc = SCNetwork.from_trained(mnist_mlp(seed=0),
                                    SCConfig(phase_length=4))
        x = np.random.default_rng(0).uniform(0, 1, (2, 1, 28, 28))
        x[1, 0, 5, 5] = np.nan
        run = {
            "forward": lambda: sc.forward(x),
            "forward_partial": lambda: sc.forward_partial(x, 2),
            "plan": lambda: ExecutionPlan(sc, (1, 28, 28)).run(x),
        }[path]
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            run()
