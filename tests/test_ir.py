"""Tests for the graph IR (repro.ir) and its cross-layer conversions."""

import subprocess
import sys
import pathlib

import numpy as np
import pytest

from repro import ir
from repro.ir import LayerNode, NetworkGraph, lower_to_spec
from repro.networks import zoo
from repro.simulator import SCConfig, SCNetwork
from repro.training import Sequential, graph_of

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def small_graph(**conv_kwargs):
    return NetworkGraph("small", (1, 8, 8), [
        ir.conv(1, 4, 3, **conv_kwargs), ir.avgpool(2), ir.relu(),
        ir.flatten(),
        ir.linear(4 * 3 * 3, 5),
    ])


class TestLayerNode:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            LayerNode("softmax")

    def test_kernel_hw(self):
        assert ir.conv(1, 1, 3).kernel_hw == (3, 3)
        assert ir.conv(1, 1, (3, 5)).kernel_hw == (3, 5)

    def test_fan_in_and_weight_count(self):
        node = ir.conv(6, 16, 5)
        assert node.fan_in == 6 * 25
        assert node.weight_count == 16 * 6 * 25
        grouped = ir.conv(96, 256, 5, groups=2)
        assert grouped.fan_in == 48 * 25
        fc = ir.linear(256, 10)
        assert fc.fan_in == 256
        assert fc.weight_count == 2560
        assert ir.relu().fan_in == 0

    def test_dict_roundtrip(self):
        node = ir.conv(3, 16, 5, stride=2, padding=1, or_mode="approx",
                       stream_length=64)
        clone = LayerNode.from_dict(node.to_dict())
        assert clone == node

    def test_to_dict_omits_defaults_and_params(self, rng):
        node = ir.conv(1, 2, 3, weight=rng.uniform(size=(2, 1, 3, 3)))
        d = node.to_dict()
        assert "params" not in d
        assert "groups" not in d      # default value
        assert d["kind"] == "conv"

    def test_residual_dict_roundtrip(self):
        node = ir.residual([ir.conv(4, 4, 3, padding=1), ir.relu()],
                           shortcut=[ir.conv(4, 4, 1)])
        clone = LayerNode.from_dict(node.to_dict())
        assert clone == node


class TestShapeInference:
    def test_shapes(self):
        infos = small_graph().infer_shapes()
        assert [i.out_shape for i in infos] == [
            (4, 6, 6), (4, 3, 3), (4, 3, 3), (36,), (5,)]

    def test_channel_mismatch(self):
        graph = small_graph()
        with pytest.raises(ValueError, match="channels"):
            graph.infer_shapes(input_shape=(2, 8, 8))

    def test_conv_collapse(self):
        graph = small_graph()
        with pytest.raises(ValueError, match="collapses"):
            graph.infer_shapes(input_shape=(1, 2, 2))

    def test_linear_feature_mismatch(self):
        graph = NetworkGraph("bad", (4,), [ir.linear(8, 2)])
        with pytest.raises(ValueError, match="features"):
            graph.validate()

    def test_exact_pool_requires_tiling(self):
        graph = NetworkGraph("ragged", (1, 7, 7),
                             [ir.conv(1, 2, 3), ir.avgpool(2)])
        graph.validate(exact_pool=False)          # floor: fine
        with pytest.raises(ValueError, match="tile"):
            graph.validate(exact_pool=True)

    def test_fused_pool_shapes(self):
        graph = NetworkGraph("fused", (1, 8, 8),
                             [ir.conv(1, 2, 3, padding=1, pool=2)])
        assert graph.output_shape() == (2, 4, 4)

    def test_residual_shape_preserved(self):
        graph = NetworkGraph("res", (4, 8, 8), [
            ir.residual([ir.conv(4, 4, 3, padding=1), ir.relu()]),
        ])
        assert graph.output_shape() == (4, 8, 8)

    def test_residual_body_mismatch_rejected(self):
        graph = NetworkGraph("res", (4, 8, 8), [
            ir.residual([ir.conv(4, 8, 3, padding=1)]),
        ])
        with pytest.raises(ValueError, match="residual"):
            graph.validate()

    def test_residual_projection_shortcut(self):
        graph = NetworkGraph("res", (4, 8, 8), [
            ir.residual([ir.conv(4, 8, 3, padding=1, stride=2)],
                        shortcut=[ir.conv(4, 8, 1, stride=2)]),
        ])
        assert graph.output_shape() == (8, 4, 4)

    def test_missing_input_shape(self):
        graph = NetworkGraph("anon", None, [ir.relu()])
        with pytest.raises(ValueError, match="input shape"):
            graph.infer_shapes()
        assert graph.infer_shapes(input_shape=(1, 4, 4))


class TestGraphSerialization:
    def test_roundtrip(self):
        graph = zoo.resnet18_graph()
        clone = NetworkGraph.from_dict(graph.to_dict())
        assert clone.name == graph.name
        assert clone.input_shape == graph.input_shape
        assert clone.nodes == graph.nodes

    def test_state_dict_keys_match_sequential(self, rng):
        net = zoo.tiny_resnet(seed=0)
        graph = graph_of(net)
        assert set(graph.state_dict()) == set(net.state_dict())

    def test_picklable(self):
        import pickle
        graph = zoo.tiny_resnet_graph()
        clone = pickle.loads(pickle.dumps(graph))
        assert clone.nodes == graph.nodes


class TestSequentialFromGraph:
    def test_weights_deterministic(self):
        a = Sequential.from_graph(zoo.lenet5_graph(), seed=5).state_dict()
        b = Sequential.from_graph(zoo.lenet5_graph(), seed=5).state_dict()
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_graph_attached(self):
        net = Sequential.from_graph(zoo.lenet5_graph())
        assert net.graph is not None
        assert net.graph.name == "lenet5"

    def test_grouped_conv_lowered(self):
        # Grouped convs lower end-to-end now; only an illegal (non-divisor)
        # group count is rejected, by the centralized legality check.
        graph = NetworkGraph("g", (4, 8, 8), [ir.conv(4, 4, 3, groups=2)])
        net = Sequential.from_graph(graph)
        assert net.layers[0].groups == 2
        bad = NetworkGraph("g", (4, 8, 8), [ir.conv(4, 4, 3, groups=3)])
        with pytest.raises(ValueError, match="groups=3"):
            Sequential.from_graph(bad)

    def test_fused_pool_rejected(self):
        graph = NetworkGraph("g", (1, 8, 8), [ir.conv(1, 2, 3, pool=2)])
        with pytest.raises(ValueError, match="fused"):
            Sequential.from_graph(graph)

    def test_projection_shortcut_rejected(self):
        graph = NetworkGraph("g", (4, 8, 8), [
            ir.residual([ir.conv(4, 8, 3, padding=1, stride=2)],
                        shortcut=[ir.conv(4, 8, 1, stride=2)]),
        ])
        with pytest.raises(ValueError, match="shortcut"):
            Sequential.from_graph(graph)

    def test_params_loaded_from_graph(self, rng):
        weight = rng.uniform(-0.4, 0.4, (5, 16))
        graph = NetworkGraph("g", (16,), [
            ir.linear(16, 5, or_mode="approx", weight=weight)])
        net = Sequential.from_graph(graph)
        assert np.array_equal(net.layers[0].weight, weight)


class TestGraphOf:
    def test_reconstructs_hand_built_network(self, rng):
        from repro.training import Flatten, Linear, ReLU
        net = Sequential([Flatten(), Linear(16, 8, bias=False, rng=rng),
                          ReLU(), Linear(8, 2, bias=False, rng=rng)])
        graph = graph_of(net, name="hand", input_shape=(1, 4, 4))
        assert [n.kind for n in graph.nodes] == ["flatten", "linear",
                                                 "relu", "linear"]
        assert graph.output_shape() == (2,)
        assert np.shares_memory(graph.nodes[1].params["weight"],
                                net.layers[1].weight)

    def test_roundtrip_preserves_forward(self, rng):
        net = zoo.cifar10_cnn(seed=2)
        rebuilt = Sequential.from_graph(graph_of(net), seed=99)
        x = rng.uniform(0, 1, (2, 3, 32, 32))
        assert np.array_equal(net.forward(x, training=False),
                              rebuilt.forward(x, training=False))


class TestSpecLowering:
    def test_conv_pool_fusion(self):
        spec = lower_to_spec(small_graph())
        assert [l.kind for l in spec.layers] == ["conv", "fc"]
        assert spec.layers[0].pool == 2

    def test_unfused_pool_dropped(self):
        graph = NetworkGraph("g", (1, 9, 9), [
            ir.conv(1, 2, 3), ir.relu(), ir.avgpool(7),
            ir.flatten(), ir.linear(2, 2),
        ])
        spec = lower_to_spec(graph)
        assert [l.kind for l in spec.layers] == ["conv", "fc"]
        assert spec.layers[0].pool == 1   # relu blocks the fusion

    def test_as_spec_passthrough(self):
        spec = zoo.lenet5_spec()
        assert ir.as_spec(spec) is spec
        lowered = ir.as_spec(zoo.lenet5_reference_graph())
        assert lowered.total_macs == spec.total_macs


class TestDescribeRows:
    def test_headers_and_rows(self):
        graph = zoo.lenet5_graph(stream_length=128)
        rows = ir.describe_rows(graph)
        assert len(rows) == len(graph.nodes)
        conv_row = rows[0]
        assert conv_row[1] == "conv"
        assert conv_row[2] == "6x24x24"
        assert conv_row[3] == 1                     # groups (dense conv)
        assert conv_row[7] == 128                   # phase length
        assert "lenet5" in ir.describe_title(graph)

    def test_residual_rows_nested(self):
        rows = ir.describe_rows(zoo.tiny_resnet_graph())
        indices = [r[0] for r in rows]
        assert "3.0" in indices                     # residual body rows
        kinds = dict(zip(indices, (r[1] for r in rows)))
        assert kinds["3"] == "residual"


class TestAcceptance:
    """ISSUE acceptance: a trained model is compiled and costed through
    its NetworkGraph alone — no hand-written spec involved."""

    def test_trained_model_compiles_and_costs_via_graph(self, rng):
        from repro.arch import (LP_CONFIG, AcousticCostModel,
                                compile_network, simulate_network)
        net = zoo.lenet5(seed=0)
        graph = graph_of(net)
        program = compile_network(graph, LP_CONFIG)
        assert len(program) > 0
        result = simulate_network(graph, LP_CONFIG,
                                  cost_model=AcousticCostModel(LP_CONFIG))
        assert result.latency_s > 0
        assert result.energy_j > 0
        # And the bitstream-exact simulator runs from the same graph.
        sc = SCNetwork.from_graph(graph, SCConfig(phase_length=8))
        logits = sc.forward(rng.uniform(0, 1, (1, 1, 28, 28)))
        assert logits.shape == (1, 10)


class TestLayering:
    def test_check_layering_passes(self):
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts/check_layering.py")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_check_catches_violation(self, tmp_path):
        # The AST walker flags both absolute and relative subsystem imports.
        sys.path.insert(0, str(REPO_ROOT / "scripts"))
        try:
            from check_layering import check
        finally:
            sys.path.pop(0)
        bad = tmp_path / "bad.py"
        bad.write_text("from ..training import Sequential\n"
                       "import repro.arch.perfsim\n")
        violations = check(tmp_path)
        assert len(violations) == 2
        assert "repro.training" in violations[0]
        assert "repro.arch" in violations[1]

    def test_runtime_is_a_top_layer(self, tmp_path):
        # The simulator may not import the runtime; serve and the CLI
        # may.
        sys.path.insert(0, str(REPO_ROOT / "scripts"))
        try:
            from check_layering import check_top_layers
        finally:
            sys.path.pop(0)
        for rel, text in [
                ("simulator/engine.py", "from ..runtime import plan\n"),
                ("simulator/layers.py", "import repro.runtime.workers\n"),
                ("serve/registry.py", "from ..runtime import plan\n"),
                ("cli.py", "from .runtime import RuntimeConfig\n")]:
            path = tmp_path / rel
            path.parent.mkdir(exist_ok=True)
            path.write_text(text)
        violations = check_top_layers(tmp_path)
        assert len(violations) == 2
        assert all("simulator" in v and "repro.runtime" in v
                   for v in violations)
