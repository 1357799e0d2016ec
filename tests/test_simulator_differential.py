"""Differential tests: the engine vs the gate-level reference simulator.

:func:`~repro.simulator.reference.reference_counts` keeps one boolean
per gate output per clock and shares only the threshold sources, the
lane rotation and the seed formulas with the engine.  The production
paths must agree with it *bit-exactly* on identical seeds: the generic
matmuls, the engine plans (``execute`` and row-subset ``execute_rows``,
packed and unpacked phases, offset windows, chunk boundaries) and whole
networks through ``forward``, a compiled ``ExecutionPlan`` and a
resumed progressive evaluation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitstream import word_type
from repro.runtime import ExecutionPlan
from repro.simulator import (SCConfig, SCConv2d, SCFlatten, SCLinear,
                             SCNetwork, SCReLU, SCResidual)
from repro.simulator.engine import (BipolarMatmulPlan, SplitMatmulPlan,
                                    split_or_matmul_counts)
from repro.simulator.reference import reference_counts, reference_step


def engine_counts(acts, weights, length, seed, scheme="lfsr"):
    return split_or_matmul_counts(acts, weights, length=length, bits=8,
                                  scheme=scheme, seed=seed)


def oracle_counts(acts, weights, length, seed, scheme="lfsr", **kwargs):
    return reference_counts(acts, weights, length=length, bits=8,
                            scheme=scheme, seed=seed, **kwargs)


class TestDifferential:
    def test_known_small_case(self):
        acts = np.array([[0.75, 0.25], [0.5, 0.5]])
        weights = np.array([[0.5, -0.5]])
        assert np.array_equal(
            oracle_counts(acts, weights, 32, 3),
            engine_counts(acts, weights, 32, 3),
        )

    @pytest.mark.parametrize("scheme", ["lfsr", "vdc"])
    def test_schemes_match(self, scheme):
        rng = np.random.default_rng(0)
        acts = rng.uniform(0, 1, (3, 4))
        weights = rng.uniform(-1, 1, (2, 4))
        assert np.array_equal(
            oracle_counts(acts, weights, 24, 5, scheme=scheme),
            engine_counts(acts, weights, 24, 5, scheme=scheme),
        )

    @pytest.mark.parametrize("length", [7, 8, 9, 16, 33])
    def test_partial_byte_lengths(self, length):
        # Bit packing pads the final byte and word; padding must never
        # leak into the counts.
        rng = np.random.default_rng(1)
        acts = rng.uniform(0, 1, (2, 3))
        weights = rng.uniform(-1, 1, (2, 3))
        assert np.array_equal(
            oracle_counts(acts, weights, length, 9),
            engine_counts(acts, weights, length, 9),
        )

    def test_chunk_boundary(self):
        # Positions split across engine chunks must reproduce the same
        # lane seeding as the reference walking the same chunk size.
        rng = np.random.default_rng(2)
        acts = rng.uniform(0, 1, (5, 2))
        weights = rng.uniform(-1, 1, (1, 2))
        expected = oracle_counts(acts, weights, 16, 4, chunk_positions=2)
        measured = split_or_matmul_counts(acts, weights, length=16, bits=8,
                                          scheme="lfsr", seed=4,
                                          chunk_positions=2)
        assert np.array_equal(expected, measured)

    @given(
        st.integers(1, 4),   # positions
        st.integers(1, 5),   # fan-in
        st.integers(0, 100),  # seed
    )
    @settings(max_examples=15, deadline=None)
    def test_randomized_agreement(self, n_pos, fan_in, seed):
        rng = np.random.default_rng(seed)
        acts = rng.uniform(0, 1, (n_pos, fan_in))
        weights = rng.uniform(-1, 1, (2, fan_in))
        assert np.array_equal(
            oracle_counts(acts, weights, 16, seed + 1),
            engine_counts(acts, weights, 16, seed + 1),
        )


# --------------------------------------------------------------------
# Engine plans vs the oracle
# --------------------------------------------------------------------

def _plan(weights, variant, **kwargs):
    if variant == "bipolar":
        return BipolarMatmulPlan(weights, **kwargs)
    return SplitMatmulPlan(weights, accumulator=variant, **kwargs)


def _oracle(acts, weights, variant, **kwargs):
    if variant == "bipolar":
        return reference_counts(acts, weights, representation="bipolar",
                                **kwargs)
    return reference_counts(acts, weights, accumulator=variant, **kwargs)


def _check_plan(acts, weights, variant, rows, **kwargs):
    """``execute`` and ``execute_rows`` against the oracle."""
    want = _oracle(acts, weights, variant, **kwargs)
    plan = _plan(weights, variant, **kwargs)
    assert np.array_equal(plan.execute(acts), want)
    assert np.array_equal(plan.execute_rows(acts[rows], rows), want[rows])
    return plan


class TestPlansMatchOracle:
    @pytest.mark.parametrize("length", [4, 7, 8, 16, 32, 33, 64, 65])
    @pytest.mark.parametrize("bit_offset", [0, 5, 64])
    @pytest.mark.parametrize("variant", ["or", "apc", "mux", "bipolar"])
    def test_grid(self, variant, bit_offset, length):
        """Every accumulator and bipolar, offset windows, lengths around
        the word and half-word edges, lfsr and vdc, and rows spread over
        chunks of 3 and 8.  Lanes carrying both signs let both split
        phases share one packed plane where the length allows it; a
        one-signed lane keeps them apart.  Each plane's words are of the
        word type of its clocks: the packed planes of lengths 4, 8 and
        16 take 8-, 16- and 32-bit words, the unpacked planes of lengths
        16 and 32 take 16- and 32-bit words."""
        rng = np.random.default_rng(length * 100 + bit_offset)
        acts = rng.random((19, 6))
        rows = np.flatnonzero(rng.random(19) < 0.6)
        dense = rng.uniform(-1.0, 1.0, (4, 6))
        dense[0], dense[1] = np.abs(dense[0]), -np.abs(dense[1])
        dense[2] = 0.0                 # all-zero channel
        dense[:, 3] = 0.0              # dead fan-in lane
        one_signed = dense.copy()
        one_signed[:, 1] = np.abs(one_signed[:, 1])
        packs = 1 <= length % 64 <= 32
        for weights in (dense, one_signed):
            for scheme in ("lfsr", "vdc"):
                for chunk in (3, 8):
                    plan = _check_plan(
                        acts, weights, variant, rows, length=length, bits=8,
                        scheme=scheme, seed=7, chunk_positions=chunk,
                        bit_offset=bit_offset)
                    if variant != "bipolar":
                        assert len(plan.phases) == (
                            1 if packs and weights is dense else 2)
                    for ph in plan.phases:
                        assert ph.w_words.dtype == word_type(
                            len(ph.windows) * length)

    @given(seed=st.integers(0, 2**32 - 1),
           n_rows=st.integers(1, 19),
           n_chan=st.integers(1, 5),
           fan_in=st.integers(1, 9),
           zero_fraction=st.floats(0.0, 1.0),
           length=st.sampled_from([1, 4, 7, 8, 16, 32, 33, 64, 65, 100]),
           bit_offset=st.sampled_from([0, 5, 64]),
           bits=st.sampled_from([6, 8, 10]),
           scheme=st.sampled_from(["lfsr", "vdc", "random"]),
           chunk=st.sampled_from([3, 8, 256]),
           variant=st.sampled_from(["or", "apc", "mux", "bipolar"]))
    @settings(max_examples=40, deadline=None)
    def test_random_operands(self, seed, n_rows, n_chan, fan_in,
                             zero_fraction, length, bit_offset, bits,
                             scheme, chunk, variant):
        rng = np.random.default_rng(seed)
        acts = rng.random((n_rows, fan_in))
        weights = rng.uniform(-1.0, 1.0, (n_chan, fan_in))
        weights[rng.random(weights.shape) < zero_fraction] = 0.0
        rows = np.flatnonzero(rng.random(n_rows) < 0.6)
        _check_plan(acts, weights, variant, rows, length=length, bits=bits,
                    scheme=scheme, seed=int(rng.integers(0, 1000)),
                    chunk_positions=chunk, bit_offset=bit_offset)


# --------------------------------------------------------------------
# Generated graphs: every execution path vs the oracle
# --------------------------------------------------------------------

@st.composite
def sc_stacks(draw):
    """A tiny SC stack and its per-sample input shape: a conv (channel
    groups, padding, an optional fused 2x2 pool, partly zeroed
    weights) and ReLU, an optional identity residual, then flatten and
    linear."""
    groups = draw(st.sampled_from([1, 2]))
    c_in = groups * draw(st.integers(1, 2))
    c_out = groups * draw(st.integers(1, 2))
    size = draw(st.sampled_from([4, 6]))
    kernel = draw(st.sampled_from([1, 3]))
    padding = draw(st.integers(0, 1))
    pool = draw(st.sampled_from([1, 2]))
    zero_fraction = draw(st.floats(0.0, 0.9))
    residual = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def weight(*shape):
        w = rng.uniform(-1.0, 1.0, shape)
        w[rng.random(shape) < zero_fraction] = 0.0
        return w

    # An even size and an odd kernel leave an even conv output, which a
    # 2x2 pool tiles.
    layers = [SCConv2d(weight(c_out, c_in // groups, kernel, kernel),
                       padding=padding, pool_size=pool, groups=groups),
              SCReLU()]
    if residual:
        body = [SCConv2d(weight(c_out, c_out // groups, 3, 3), padding=1,
                         groups=groups), SCReLU()]
        layers += [SCResidual(body), SCReLU()]
    side = (size + 2 * padding - kernel + 1) // pool
    layers += [SCFlatten(), SCLinear(weight(3, c_out * side * side))]
    return layers, (c_in, size, size)


class TestGeneratedGraphs:
    @given(stack=sc_stacks(),
           variant=st.sampled_from(["or", "apc", "mux", "bipolar"]),
           scheme=st.sampled_from(["lfsr", "vdc"]),
           length=st.sampled_from([7, 16, 32, 33, 64, 65]),
           samples=st.integers(1, 3),
           seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_every_path_matches_oracle(self, stack, variant, scheme,
                                       length, samples, seed):
        """``forward``, a compiled plan and a resumed progressive run
        all equal the network walked with the oracle's counts step."""
        layers, shape = stack
        config = SCConfig(
            phase_length=length, scheme=scheme, seed=seed,
            accumulator="or" if variant == "bipolar" else variant,
            representation=("bipolar" if variant == "bipolar"
                            else "split-unipolar"))
        sc = SCNetwork(layers, config)
        x = np.random.default_rng(seed).random((samples,) + shape)
        want = sc.forward(x, counts=reference_step)
        assert np.array_equal(sc.forward(x), want)
        plan = ExecutionPlan(sc, shape, autotune_budget_s=0)
        assert np.array_equal(plan.run(x), want)
        resumed = sc.forward_partial(x, length // 2).extend(length)
        assert np.array_equal(resumed.logits, want)
