"""Grouped/depthwise convolution lowering: bit-identity and legality.

The grouped-conv contract is a single sentence: **a grouped conv is the
dense conv whose weight matrix is block-diagonal**, so every execution
path — generic forward, specialized kernel plans, the jit inner loop,
shm-attached plans, and progressive (resumable) evaluation — must
produce bit-identical counters for a grouped layer and its expanded
dense twin, for every accumulator and representation.  Efficiency comes
afterwards, from the zero-lane skipping the specializer already does:
cross-group lanes are exactly zero, so group-aligned channel tiling
skips at least ``1 - 1/groups`` of the product lanes.

Legality is centralized in :func:`repro.ir.passes.check_conv_groups`;
the training and simulator lowerings both route through it, which the
error-path tests pin.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ir
from repro.core.sng import quantize_probability
from repro.ir import passes
from repro.ir.spec import lower_to_spec
from repro.networks import zoo
from repro.runtime import ExecutionPlan, shm_supported
from repro.runtime import shm
from repro.simulator import SCConfig, SCNetwork
from repro.simulator.config import SCConfig as _SCConfig
from repro.simulator.engine import _group_channel_bounds
from repro.simulator.jit import _reference_or_popcount
from repro.simulator.layers import SCConv2d
from repro.training.im2col import (collapse_grouped_grad,
                                  expand_grouped_weight, im2col)
from repro.training.network import Sequential

SHAPE = (8, 6, 6)
GROUPS = 4


def grouped_weight(rng, c_out=8, c_in=8, k=3, groups=GROUPS):
    return rng.uniform(-1.0, 1.0, size=(c_out, c_in // groups, k, k))


def dense_twin(w_grouped, groups, c_in):
    """The block-diagonal dense 4-D weight of a grouped weight."""
    c_out = w_grouped.shape[0]
    k = w_grouped.shape[2]
    return expand_grouped_weight(w_grouped, groups).reshape(c_out, c_in, k, k)


def graph_pair(rng, groups=GROUPS):
    """(grouped graph, dense block-diagonal graph) with shared weights."""
    w_g = grouped_weight(rng, groups=groups)
    w_d = dense_twin(w_g, groups, SHAPE[0])
    w_lin = rng.uniform(-1.0, 1.0, size=(10, 8 * 3 * 3))

    def build(weight, g):
        return ir.NetworkGraph("g", SHAPE, [
            ir.conv(8, 8, 3, padding=1, groups=g, weight=weight),
            ir.relu(), ir.avgpool(2), ir.flatten(),
            ir.linear(8 * 3 * 3, 10, weight=w_lin),
        ])

    return build(w_g, groups), build(w_d, 1)


# --------------------------------------------------------------------------
# Bit-identity: grouped == dense block-diagonal on every path
# --------------------------------------------------------------------------

@pytest.mark.parametrize("accumulator", ["or", "apc", "mux"])
@pytest.mark.parametrize("representation", ["split-unipolar", "bipolar"])
class TestGenericForwardBitIdentity:
    def test_layer_forward(self, accumulator, representation):
        rng = np.random.default_rng(0)
        w_g = grouped_weight(rng)
        w_d = dense_twin(w_g, GROUPS, SHAPE[0])
        x = rng.uniform(0, 1, size=(2,) + SHAPE)
        config = SCConfig(phase_length=32, accumulator=accumulator,
                          representation=representation)
        got = SCConv2d(w_g, padding=1, groups=GROUPS).forward(x, config, 0)
        want = SCConv2d(w_d, padding=1).forward(x, config, 0)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("accumulator", ["or", "apc", "mux"])
class TestCompiledPathsBitIdentity:
    """Specialized, jit-loop, progressive, and shm paths all agree."""

    def _plans(self, accumulator, rng):
        config = SCConfig(phase_length=32, accumulator=accumulator)
        gg, gd = graph_pair(rng)
        ng = SCNetwork.from_graph(gg, config)
        nd = SCNetwork.from_graph(gd, config)
        return (ExecutionPlan(ng, SHAPE), ExecutionPlan(nd, SHAPE), ng, nd)

    def test_specialized_and_generic(self, accumulator):
        rng = np.random.default_rng(1)
        pg, pd, ng, nd = self._plans(accumulator, rng)
        x = rng.uniform(0, 1, size=(3,) + SHAPE)
        want = pd.run(x)
        assert np.array_equal(pg.run(x), want)
        assert np.array_equal(ng.forward(x), want)
        assert pg.specialization.plans[0].groups == GROUPS

    def test_jit_reference_loop(self, accumulator):
        if accumulator == "apc":
            pytest.skip("the fused jit loop serves the OR/MUX variants")
        rng = np.random.default_rng(2)
        pg, pd, _, _ = self._plans(accumulator, rng)
        kp_g = pg.specialization.plans[0]
        kp_d = pd.specialization.plans[0]
        x = rng.uniform(0, 1, size=(2,) + SHAPE)
        bits = pg.config.bits
        cols_g = kp_g.gather.take(quantize_probability(x, bits))
        cols_d = kp_d.gather.take(quantize_probability(x, bits))
        got = kp_g.matmul.execute(cols_g, jit_or=_reference_or_popcount)
        plain = kp_g.matmul.execute(cols_g, jit_or=None)
        want = kp_d.matmul.execute(cols_d, jit_or=None)
        assert np.array_equal(got, plain)
        assert np.array_equal(got, want)

    def test_progressive_extend(self, accumulator):
        rng = np.random.default_rng(3)
        _, _, ng, nd = self._plans(accumulator, rng)
        x = rng.uniform(0, 1, size=(2,) + SHAPE)
        rg = ng.forward_partial(x, 16)
        rd = nd.forward_partial(x, 16)
        assert np.array_equal(rg.logits, rd.logits)
        rg.extend(32)
        rd.extend(32)
        assert np.array_equal(rg.logits, rd.logits)
        assert np.array_equal(rg.logits, ng.forward(x))

    @pytest.mark.skipif(not shm_supported(),
                        reason="no shared memory on this host")
    def test_shm_attached(self, accumulator):
        rng = np.random.default_rng(4)
        pg, pd, _, _ = self._plans(accumulator, rng)
        x = rng.uniform(0, 1, size=(2,) + SHAPE)
        want = pd.run(x)
        ref = shm.publish_plan(("grouped", accumulator, 0), pg)
        attached = shm.attach_plan(ref)
        try:
            assert np.array_equal(attached.run(x), want)
        finally:
            del attached
            shm.detach_plan(ref.segment)
            shm.unlink_segment(ref.segment)


# --------------------------------------------------------------------------
# Group-aligned tiling and zero-lane skipping
# --------------------------------------------------------------------------

class TestGroupAlignedTiling:
    def test_channel_bounds_partition(self):
        assert _group_channel_bounds(8, 1) == [(0, 8)]
        assert _group_channel_bounds(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_retile_blocks_stay_inside_groups(self):
        rng = np.random.default_rng(5)
        pg, _, _, _ = TestCompiledPathsBitIdentity()._plans("or", rng)
        matmul = pg.specialization.plans[0].matmul
        bounds = _group_channel_bounds(matmul.n_chan, matmul.channel_groups)
        assert matmul.channel_groups == GROUPS
        for ph in matmul.phases:
            for c0, c1, *_ in ph.blocks:
                assert any(g0 <= c0 and c1 <= g1 for g0, g1 in bounds), \
                    f"block [{c0}, {c1}) crosses a group boundary"

    @pytest.mark.parametrize("block_kib", [4096, 16384, 65536])
    def test_depthwise_skips_cross_group_lanes(self, block_kib):
        # groups == channels: at least 1 - 1/g of the product lanes are
        # cross-group zeros.  Group-aligned blocks keep the skip above
        # that floor at every block budget; the dense block-diagonal
        # twin's blocks span several groups, so its skip falls below.
        rng = np.random.default_rng(6)
        g = 8
        w = rng.uniform(0.2, 1.0, size=(8, 1, 3, 3))   # no accidental zeros

        def plan(weight, groups):
            # No head: a linear layer over 288 saturated lanes reads the
            # same logit for every input, which would compare nothing.
            graph = ir.NetworkGraph("dw", SHAPE, [
                ir.conv(8, 8, 3, padding=1, groups=groups, weight=weight),
            ])
            config = SCConfig(phase_length=16, block_kib=block_kib)
            # Autotune off: the block budget is the parameter under test.
            return ExecutionPlan(SCNetwork.from_graph(graph, config), SHAPE,
                                 autotune_budget_s=0)

        grouped, dense = plan(w, g), plan(dense_twin(w, g, SHAPE[0]), 1)
        x = rng.uniform(0, 1, (2,) + SHAPE)
        np.testing.assert_array_equal(grouped.run(x), dense.run(x))
        floor = 1.0 - 1.0 / g
        assert grouped.specialization.plans[0].lanes_skipped_fraction >= floor
        assert dense.specialization.plans[0].lanes_skipped_fraction < floor


class TestOrSaturation:
    def test_error_follows_fan_in(self):
        # The OR gate's union bound saturates as more product lanes feed
        # it: at matched stream lengths a depthwise 3x3 conv (fan-in 9)
        # tracks the exact float conv more closely than a dense 3x3 conv
        # over the same channels (fan-in 288).  Both weights sit at their
        # trained scale, 1/sqrt(fan_in).
        rng = np.random.default_rng(0)
        c, k, pad = 32, 3, 1
        w_dw = rng.uniform(-1, 1, size=(c, 1, k, k)) / np.sqrt(k * k)
        w_dense = rng.uniform(-1, 1, size=(c, c, k, k)) / np.sqrt(c * k * k)
        x = rng.uniform(0, 1, size=(2, c, 8, 8))
        cols = im2col(x, k, k, pad=pad)

        def rel_rmse(layer, weight_2d, length):
            want = np.einsum("nhwk,ok->nohw", cols, weight_2d)
            got = layer.forward(x, SCConfig(phase_length=length), 0)
            return np.sqrt(np.mean((got - want) ** 2)
                           / np.mean(want ** 2))

        for length in (16, 64):
            depthwise = rel_rmse(SCConv2d(w_dw, padding=pad, groups=c),
                                 expand_grouped_weight(w_dw, c), length)
            dense = rel_rmse(SCConv2d(w_dense, padding=pad),
                             w_dense.reshape(c, -1), length)
            assert depthwise < dense, (length, depthwise, dense)


# --------------------------------------------------------------------------
# Centralized legality (ir.passes.check_conv_groups)
# --------------------------------------------------------------------------

class TestGroupLegality:
    def test_rejects_non_divisor(self):
        node = ir.conv(8, 8, 3, groups=3)
        with pytest.raises(ValueError, match="groups=3"):
            passes.check_conv_groups(node)

    def test_rejects_nonpositive(self):
        node = ir.conv(8, 8, 3, groups=0)
        with pytest.raises(ValueError, match="groups=0"):
            passes.check_conv_groups(node)

    def test_rejects_groups_on_non_conv(self):
        node = ir.linear(8, 4)
        node.groups = 2
        with pytest.raises(ValueError, match="only legal on conv"):
            passes.check_conv_groups(node)

    def _bad_graph(self):
        return ir.NetworkGraph("bad", (8, 6, 6), [
            ir.conv(8, 8, 3, padding=1, groups=3,
                    weight=np.zeros((8, 2, 3, 3))),
        ])

    def test_training_lowering_routes_through_check(self):
        with pytest.raises(ValueError, match="groups=3"):
            Sequential.from_graph(self._bad_graph())

    def test_simulator_lowering_routes_through_check(self):
        with pytest.raises(ValueError, match="groups=3"):
            SCNetwork.from_graph(self._bad_graph())

    def test_group_facts_carry_group_metadata(self):
        graph, _ = graph_pair(np.random.default_rng(7))
        result = passes.lower(graph, exact_pool=True)
        facts = passes.group_facts(result)
        conv = facts[0]
        assert conv.groups == GROUPS
        lanes_g = (SHAPE[0] // GROUPS) * 3 * 3
        assert conv.dense_fan_in == SHAPE[0] * 3 * 3
        assert conv.group_lane_spans == tuple(
            (g * lanes_g, (g + 1) * lanes_g) for g in range(GROUPS))


# --------------------------------------------------------------------------
# Weight expansion round-trip
# --------------------------------------------------------------------------

class TestWeightExpansion:
    def test_round_trip(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(6, 2, 3, 3))
        dense = expand_grouped_weight(w, 3)
        assert dense.shape == (6, 6 * 9)
        back = collapse_grouped_grad(dense, w.shape, 3)
        assert np.array_equal(back, w)

    def test_cross_group_entries_are_zero(self):
        rng = np.random.default_rng(9)
        w = rng.uniform(0.5, 1.0, size=(4, 1, 3, 3))   # depthwise, nonzero
        dense = expand_grouped_weight(w, 4).reshape(4, 4, 9)
        for c_out in range(4):
            for c_in in range(4):
                if c_out != c_in:
                    assert np.all(dense[c_out, c_in] == 0.0)


# --------------------------------------------------------------------------
# Property tests: shape algebra for random groups divisors (Hypothesis)
# --------------------------------------------------------------------------

@st.composite
def grouped_conv_cases(draw):
    groups = draw(st.sampled_from([1, 2, 3, 4, 6, 12]))
    cpg_in = draw(st.integers(1, 3))       # input channels per group
    cpg_out = draw(st.integers(1, 3))      # output channels per group
    k = draw(st.sampled_from([1, 3]))
    size = draw(st.sampled_from([6, 8]))
    return groups, cpg_in * groups, cpg_out * groups, k, size


class TestGroupedShapeProperties:
    @given(case=grouped_conv_cases())
    @settings(max_examples=40, deadline=None)
    def test_spec_fan_in_macs_and_shapes(self, case):
        groups, c_in, c_out, k, size = case
        pad = k // 2
        graph = ir.NetworkGraph("prop", (c_in, size, size), [
            ir.conv(c_in, c_out, k, padding=pad, groups=groups),
            ir.avgpool(2), ir.relu(), ir.flatten(),
        ])
        node = graph.nodes[0]
        # LayerSpec fan-in / MACs follow the per-group fan-in.
        spec = lower_to_spec(graph)
        layer = spec.layers[0]
        assert layer.fan_in == (c_in // groups) * k * k
        assert node.fan_in == layer.fan_in
        assert layer.macs == layer.fan_in * c_out * size * size
        assert graph.total_macs == spec.total_macs
        assert node.weight_count == c_out * layer.fan_in
        # The pass pipeline's shapes match the dense block-diagonal twin.
        rng = np.random.default_rng(groups * 1000 + c_in)
        w_g = rng.uniform(-1, 1, size=(c_out, c_in // groups, k, k))
        node.params["weight"] = w_g
        dense = ir.NetworkGraph("prop_dense", (c_in, size, size), [
            ir.conv(c_in, c_out, k, padding=pad,
                    weight=dense_twin(w_g, groups, c_in)),
            ir.avgpool(2), ir.relu(), ir.flatten(),
        ])
        got = passes.lower(graph, exact_pool=True,
                           input_shape=(c_in, size, size))
        want = passes.lower(dense, exact_pool=True,
                            input_shape=(c_in, size, size))
        assert [i.out_shape for i in got.infos] == \
            [i.out_shape for i in want.infos]

    @given(case=grouped_conv_cases())
    @settings(max_examples=10, deadline=None)
    def test_grouped_forward_matches_dense(self, case):
        groups, c_in, c_out, k, size = case
        rng = np.random.default_rng(groups * 31 + c_in)
        w_g = rng.uniform(-1, 1, size=(c_out, c_in // groups, k, k))
        w_d = dense_twin(w_g, groups, c_in)
        x = rng.uniform(0, 1, size=(1, c_in, size, size))
        config = _SCConfig(phase_length=16)
        got = SCConv2d(w_g, groups=groups).forward(x, config, 0)
        want = SCConv2d(w_d).forward(x, config, 0)
        assert np.array_equal(got, want)


# --------------------------------------------------------------------------
# The MobileNet-class workload
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained_mobilenet_mini():
    from repro.datasets import synthetic_cifar10
    from repro.training import Adam, CrossEntropyLoss, Trainer

    (x_train, y_train), (x_test, y_test) = synthetic_cifar10(
        n_train=600, n_test=150, seed=0)
    net = zoo.mobilenet_mini(or_mode="approx", seed=1, stream_length=64)
    trainer = Trainer(net, Adam(net.layers, lr=3e-3),
                      loss=CrossEntropyLoss(logit_gain=8.0))
    trainer.fit(x_train, y_train, epochs=3, batch_size=64)
    return net, x_test, y_test


class TestMobileNetMini:
    def test_registered_in_zoo(self):
        assert "mobilenet_mini" in zoo.NETWORK_GRAPHS
        assert "mobilenet_mini" in zoo.TRAINABLE_GRAPHS
        graph = zoo.mobilenet_mini_graph()
        graph.validate(exact_pool=True)
        depthwise = [n for n in graph.nodes
                     if n.kind == "conv" and n.groups > 1]
        assert len(depthwise) == 3
        assert all(n.groups == n.in_channels for n in depthwise)
        assert all(n.fan_in == 9 for n in depthwise)

    def test_trains_above_chance(self, trained_mobilenet_mini):
        net, x_test, y_test = trained_mobilenet_mini
        assert net.accuracy(x_test, y_test) >= 0.30   # chance is 0.10

    def test_sc_lowering_tracks_float(self, trained_mobilenet_mini):
        net, x_test, y_test = trained_mobilenet_mini
        sc = SCNetwork.from_trained(net, SCConfig(phase_length=64))
        assert sc.accuracy(x_test[:40], y_test[:40]) >= 0.25


class TestAlexNetSc:
    def test_exact_pool_legal(self):
        graph = zoo.alexnet_sc_graph()
        graph.validate(exact_pool=True)
        grouped = [n for n in graph.nodes
                   if n.kind == "conv" and n.groups == 2]
        assert len(grouped) == 3

    @pytest.mark.slow
    def test_simulable_end_to_end(self):
        # ~75M float64 weights: lowering + one forward is minutes of
        # work and ~1 GiB of arrays, so this stays out of tier 1.
        rng = np.random.default_rng(0)
        graph = zoo.alexnet_sc_graph()
        net = Sequential.from_graph(graph, seed=0)
        sc = SCNetwork.from_trained(net, SCConfig(phase_length=8))
        x = rng.uniform(0, 1, size=(1, 3, 231, 231))
        logits = sc.forward(x)
        assert logits.shape == (1, 1000)
        assert np.all(np.isfinite(logits))
