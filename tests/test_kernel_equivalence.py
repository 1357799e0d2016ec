"""Golden bit-exactness tests: the word kernel vs the gate-level oracle.

The generic uint64 matmuls (a transient engine plan: channel-blocked
broadcast, encode-table gather) must return *identical* ``(P, C)``
counts to :func:`~repro.simulator.reference.reference_counts`, which
keeps one boolean per gate output per clock, for every accumulator,
both representations, odd stream lengths (pad-bit handling), and
degenerate operands.  Any deviation is a correctness bug, not a
tolerance question — both simulate the same gates on the same streams.
"""

import numpy as np
import pytest

from repro.simulator import SCConfig, SCNetwork
from repro.simulator.engine import (ENCODE_CACHE, KERNEL_STATS,
                                    ActivationEncodeCache, KernelStats,
                                    bipolar_mux_matmul_counts,
                                    encode_split_weight_streams,
                                    split_or_matmul_counts)
from repro.simulator.reference import reference_counts, reference_step

#: Non-multiples of 64 exercise partial final words; 64/128 exercise
#: exact word boundaries; 7 fits inside a single byte.
LENGTHS = [7, 64, 100, 128, 129]


def _operands(seed, n_pos=9, n_chan=5, fan_in=11):
    rng = np.random.default_rng(seed)
    acts = rng.random((n_pos, fan_in))
    weights = rng.uniform(-1.0, 1.0, (n_chan, fan_in))
    weights[2] = 0.0        # all-zero channel
    weights[:, 3] = 0.0     # dead fan-in lane
    weights[4] = np.abs(weights[4])   # one channel with no down phase
    return acts, weights


class TestSplitUnipolarEquivalence:
    @pytest.mark.parametrize("length", LENGTHS)
    @pytest.mark.parametrize("accumulator", ["or", "apc", "mux"])
    def test_word_matches_byte(self, length, accumulator):
        # Named for the byte kernel it was first checked against; the
        # name is kept so the test id stays stable across history.
        acts, weights = _operands(length)
        kwargs = dict(length=length, bits=8, scheme="lfsr", seed=3,
                      accumulator=accumulator, chunk_positions=4)
        ref = reference_counts(acts, weights, **kwargs)
        word = split_or_matmul_counts(acts, weights, **kwargs)
        assert np.array_equal(ref, word)

    @pytest.mark.parametrize("block_bytes", [1, 4096, None])
    def test_channel_blocking_is_bit_identical(self, block_bytes):
        # block_bytes=1 forces one channel per block; None the default
        # budget; results must not depend on the tiling.
        acts, weights = _operands(2, n_chan=7)
        kwargs = dict(length=128, bits=8, scheme="lfsr", seed=7,
                      accumulator="or", chunk_positions=4)
        ref = reference_counts(acts, weights, **kwargs)
        word = split_or_matmul_counts(acts, weights,
                                      block_bytes=block_bytes, **kwargs)
        assert np.array_equal(ref, word)

    @pytest.mark.parametrize("scheme", ["lfsr", "random", "vdc"])
    def test_all_rng_schemes(self, scheme):
        acts, weights = _operands(3)
        kwargs = dict(length=65, bits=6, scheme=scheme, seed=11,
                      accumulator="or", chunk_positions=3)
        ref = reference_counts(acts, weights, **kwargs)
        word = split_or_matmul_counts(acts, weights, **kwargs)
        assert np.array_equal(ref, word)

    def test_precomputed_weight_streams_match(self):
        acts, weights = _operands(4)
        kwargs = dict(length=33, bits=8, scheme="lfsr", seed=13,
                      accumulator="or")
        streams = encode_split_weight_streams(weights, length=33, bits=8,
                                              scheme="lfsr", seed=13)
        inline = split_or_matmul_counts(acts, weights, **kwargs)
        reused = split_or_matmul_counts(acts, weights,
                                        weight_streams=streams, **kwargs)
        assert np.array_equal(inline, reused)

    def test_empty_operands(self):
        kwargs = dict(length=16, bits=8, scheme="lfsr", seed=1)
        for matmul in (split_or_matmul_counts, reference_counts):
            out = matmul(np.zeros((0, 3)), np.zeros((2, 3)),
                         accumulator="or", **kwargs)
            assert out.shape == (0, 2)
            # Zero fan-in must not crash the MUX select generator.
            out = matmul(np.zeros((2, 0)), np.zeros((3, 0)),
                         accumulator="mux", **kwargs)
            assert out.shape == (2, 3) and not out.any()

    def test_all_zero_weights_give_zero_counts(self):
        acts = np.random.default_rng(0).random((4, 6))
        weights = np.zeros((3, 6))
        out = split_or_matmul_counts(acts, weights, length=128, bits=8,
                                     scheme="lfsr", seed=2, accumulator="or")
        assert not out.any()


class TestBipolarEquivalence:
    @pytest.mark.parametrize("length", LENGTHS)
    def test_word_matches_byte(self, length):
        # Test id kept stable (see the split-unipolar twin).
        acts, weights = _operands(length + 100)
        kwargs = dict(length=length, bits=8, scheme="lfsr", seed=5,
                      chunk_positions=4)
        ref = reference_counts(acts, weights, representation="bipolar",
                               **kwargs)
        word = bipolar_mux_matmul_counts(acts, weights, **kwargs)
        assert np.array_equal(ref, word)

    def test_blocking_and_cache_invariance(self):
        # Test id kept stable; the encode-cache switch it also checked
        # is gone (bits > 8 comparator encodes are checked against the
        # oracle in test_simulator_differential.py).
        acts, weights = _operands(9)
        kwargs = dict(length=129, bits=8, scheme="lfsr", seed=17,
                      chunk_positions=4)
        base = bipolar_mux_matmul_counts(acts, weights, **kwargs)
        assert np.array_equal(base, bipolar_mux_matmul_counts(
            acts, weights, block_bytes=1, **kwargs))

    def test_empty_fan_in(self):
        kwargs = dict(length=16, bits=8, scheme="lfsr", seed=1)
        for out in (bipolar_mux_matmul_counts(np.zeros((2, 0)),
                                              np.zeros((3, 0)), **kwargs),
                    reference_counts(np.zeros((2, 0)), np.zeros((3, 0)),
                                     representation="bipolar", **kwargs)):
            assert out.shape == (2, 3) and not out.any()


class TestNetworkLevelEquivalence:
    """The layers' plans must never change a network's logits."""

    @pytest.mark.parametrize("representation", ["split-unipolar", "bipolar"])
    def test_forward_bit_identical(self, representation):
        from repro.networks import lenet5
        net = lenet5(seed=0)
        x = np.random.default_rng(1).uniform(0, 1, (2, 1, 28, 28))
        sc = SCNetwork.from_trained(net, SCConfig(
            phase_length=16, representation=representation))
        assert np.array_equal(sc.forward(x, counts=reference_step),
                              sc.forward(x))


class TestActivationEncodeCache:
    def test_hit_miss_counters(self):
        cache = ActivationEncodeCache(max_bytes=1 << 30)
        a = cache.table("lfsr", 4, 1, 3, 40)
        b = cache.table("lfsr", 4, 1, 3, 40)
        assert a is b
        assert cache.counters() == (1, 1)
        cache.table("lfsr", 4, 2, 3, 40)  # different seed -> new entry
        assert cache.counters() == (1, 2)
        assert len(cache) == 2

    def test_byte_budget_eviction(self):
        probe = ActivationEncodeCache(max_bytes=1 << 30)
        entry_bytes = probe.table("lfsr", 4, 1, 3, 40).nbytes
        cache = ActivationEncodeCache(max_bytes=2 * entry_bytes)
        for seed in range(4):
            cache.table("lfsr", 4, seed, 3, 40)
        assert len(cache) <= 2
        # An over-budget single entry is still served (never wedge).
        tiny = ActivationEncodeCache(max_bytes=1)
        assert tiny.table("lfsr", 4, 1, 3, 40) is not None
        assert len(tiny) == 1

    def test_clear(self):
        cache = ActivationEncodeCache(max_bytes=1 << 30)
        cache.table("lfsr", 4, 1, 3, 40)
        cache.clear()
        assert len(cache) == 0
        assert cache.counters() == (0, 0)

    def test_table_rows_match_direct_encode(self):
        from repro.core.bitstream import unpack_words
        from repro.core.sng import StochasticNumberGenerator
        cache = ActivationEncodeCache(max_bytes=1 << 30)
        bits, lanes, length, seed = 4, 5, 40, 21
        table = cache.table("lfsr", bits, seed, lanes, length)
        levels = 1 << bits
        sng = StochasticNumberGenerator(length, bits=bits, scheme="lfsr",
                                        seed=seed)
        for v in (0, 1, levels // 2, levels):
            streams = sng.generate(np.full(lanes, v / levels))
            assert np.array_equal(unpack_words(table[:, v], length), streams)


class TestKernelStats:
    def test_records_calls_and_time(self):
        stats = KernelStats()
        stats.record("word:or", 0.5)
        stats.record("word:or", 0.25)
        stats.record("plan:or", 0.1)
        snap = stats.snapshot()
        assert snap["word:or"] == (2, 0.75)
        assert snap["plan:or"] == (1, 0.1)
        stats.reset()
        assert stats.snapshot() == {}

    def test_matmul_populates_global_stats(self):
        KERNEL_STATS.reset()
        acts, weights = _operands(6)
        split_or_matmul_counts(acts, weights, length=64, bits=8,
                               scheme="lfsr", seed=1, accumulator="or")
        snap = KERNEL_STATS.snapshot()
        assert "word:or" in snap and snap["word:or"][0] == 1
        assert any(name.startswith("encode:") for name in snap)
