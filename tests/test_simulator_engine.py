"""Tests for the bitstream simulation engine."""

import numpy as np
import pytest

from repro.simulator.engine import (ActivationEncodeCache,
                                    bipolar_mux_matmul_counts,
                                    encode_bipolar_weight_stream,
                                    encode_packed,
                                    encode_split_weight_streams,
                                    popcount_packed, split_or_matmul_counts)


class TestPopcountPacked:
    def test_known_bytes(self):
        packed = np.array([0xFF, 0x00, 0x0F], dtype=np.uint8)
        assert popcount_packed(packed) == 12

    def test_axis(self):
        packed = np.array([[0xFF, 0xFF], [0x01, 0x00]], dtype=np.uint8)
        assert popcount_packed(packed, axis=-1).tolist() == [16, 1]


class TestEncodePacked:
    def test_shape(self):
        out = encode_packed(np.full((3, 4), 0.5), 128, 8, "lfsr", seed=1)
        assert out.shape == (3, 4, 16)

    def test_density(self):
        out = encode_packed(np.full(100, 0.25), 256, 8, "lfsr", seed=1)
        densities = popcount_packed(out, axis=-1) / 256
        assert abs(densities.mean() - 0.25) < 0.02

    def test_deterministic(self):
        a = encode_packed(np.array([0.3]), 64, 8, "lfsr", seed=5)
        b = encode_packed(np.array([0.3]), 64, 8, "lfsr", seed=5)
        assert np.array_equal(a, b)


class TestSplitOrMatmulCounts:
    def test_shapes_and_types(self):
        acts = np.full((10, 8), 0.5)
        weights = np.full((3, 8), 0.25)
        counts = split_or_matmul_counts(acts, weights, length=64, bits=8,
                                        scheme="lfsr", seed=1)
        assert counts.shape == (10, 3)
        assert counts.dtype == np.int64

    def test_positive_weights_give_positive_counts(self):
        acts = np.full((4, 4), 0.8)
        weights = np.full((2, 4), 0.5)
        counts = split_or_matmul_counts(acts, weights, length=256, bits=8,
                                        scheme="lfsr", seed=1)
        assert np.all(counts > 0)

    def test_negative_weights_give_negative_counts(self):
        acts = np.full((4, 4), 0.8)
        weights = np.full((2, 4), -0.5)
        counts = split_or_matmul_counts(acts, weights, length=256, bits=8,
                                        scheme="lfsr", seed=1)
        assert np.all(counts < 0)

    def test_or_matches_expectation(self):
        rng = np.random.default_rng(0)
        acts = rng.uniform(0, 1, (20, 16))
        weights = rng.uniform(-1, 1, (4, 16))
        length = 2048
        counts = split_or_matmul_counts(acts, weights, length=length, bits=8,
                                        scheme="random", seed=1)
        measured = counts / length
        pos = 1 - np.prod(1 - acts[:, None, :] * np.maximum(weights, 0)[None],
                          axis=-1)
        neg = 1 - np.prod(1 - acts[:, None, :] * np.maximum(-weights, 0)[None],
                          axis=-1)
        assert np.abs(measured - (pos - neg)).max() < 0.06

    def test_apc_matches_linear_sum(self):
        rng = np.random.default_rng(1)
        acts = rng.uniform(0, 1, (10, 8))
        weights = rng.uniform(-1, 1, (3, 8))
        length = 4096
        counts = split_or_matmul_counts(acts, weights, length=length, bits=8,
                                        scheme="random", seed=2,
                                        accumulator="apc")
        measured = counts / length
        assert np.abs(measured - acts @ weights.T).max() < 0.15

    def test_mux_matches_scaled_sum(self):
        rng = np.random.default_rng(2)
        acts = rng.uniform(0.2, 1, (10, 8))
        weights = rng.uniform(0.2, 1, (3, 8))
        length = 1 << 14
        counts = split_or_matmul_counts(acts, weights, length=length, bits=8,
                                        scheme="random", seed=3,
                                        accumulator="mux")
        measured = counts / length * acts.shape[1]
        assert np.abs(measured - acts @ weights.T).max() < 0.6

    def test_unknown_accumulator_rejected(self):
        with pytest.raises(ValueError):
            split_or_matmul_counts(np.zeros((1, 2)), np.zeros((1, 2)),
                                   length=8, bits=8, scheme="lfsr", seed=1,
                                   accumulator="parallel")

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            split_or_matmul_counts(np.zeros((2, 3)), np.zeros((2, 4)),
                                   length=8, bits=8, scheme="lfsr", seed=1)

    def test_chunking_invariance(self):
        rng = np.random.default_rng(3)
        acts = rng.uniform(0, 1, (50, 8))
        weights = rng.uniform(-1, 1, (2, 8))
        kwargs = dict(length=64, bits=8, scheme="lfsr", seed=9)
        a = split_or_matmul_counts(acts, weights, chunk_positions=7, **kwargs)
        b = split_or_matmul_counts(acts, weights, chunk_positions=50, **kwargs)
        # Different chunking re-seeds activation lanes differently, so the
        # bitstreams differ, but decoded values must agree statistically.
        assert np.abs(a - b).max() / 64 < 0.25


class TestPopcountNumpyFallback:
    """The table-lookup path taken when numpy lacks ``bitwise_count``."""

    def test_table_matches_bitwise_count(self, monkeypatch):
        if not hasattr(np, "bitwise_count"):
            pytest.skip("numpy < 2.0 already exercises the table path")
        rng = np.random.default_rng(11)
        packed = rng.integers(0, 256, size=(5, 7, 16), dtype=np.uint8)
        fast = popcount_packed(packed, axis=-1)
        monkeypatch.delattr(np, "bitwise_count")
        table = popcount_packed(packed, axis=-1)
        assert table.dtype == np.int64
        assert np.array_equal(fast, table)

    def test_fallback_axis_tuple(self, monkeypatch):
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        packed = np.array([[0xFF, 0x01], [0x00, 0xF0]], dtype=np.uint8)
        assert popcount_packed(packed, axis=(-2, -1)) == 13


class TestPreEncodedWeightStreams:
    """Pre-encoded weight streams must be bit-identical to inline encoding."""

    def test_split_unipolar_identical(self):
        rng = np.random.default_rng(4)
        acts = rng.uniform(0, 1, (9, 6))
        weights = rng.uniform(-1, 1, (3, 6))
        kwargs = dict(length=48, bits=8, scheme="lfsr", seed=21)
        streams = encode_split_weight_streams(weights, **kwargs)
        assert len(streams) == 2
        for accumulator in ("or", "apc", "mux"):
            inline = split_or_matmul_counts(acts, weights,
                                            accumulator=accumulator, **kwargs)
            cached = split_or_matmul_counts(acts, weights,
                                            accumulator=accumulator,
                                            weight_streams=streams, **kwargs)
            assert np.array_equal(inline, cached)

    def test_bipolar_identical(self):
        rng = np.random.default_rng(5)
        acts = rng.uniform(0, 1, (7, 5))
        weights = rng.uniform(-1, 1, (2, 5))
        kwargs = dict(length=64, bits=8, scheme="lfsr", seed=33)
        stream = encode_bipolar_weight_stream(weights, **kwargs)
        inline = bipolar_mux_matmul_counts(acts, weights, **kwargs)
        cached = bipolar_mux_matmul_counts(acts, weights,
                                           weight_stream=stream, **kwargs)
        assert np.array_equal(inline, cached)

    def test_mismatched_streams_rejected(self):
        weights = np.zeros((2, 4))
        kwargs = dict(length=16, bits=8, scheme="lfsr", seed=1)
        streams = encode_split_weight_streams(np.zeros((3, 4)), **kwargs)
        with pytest.raises(ValueError):
            split_or_matmul_counts(np.zeros((1, 4)), weights,
                                   weight_streams=streams, **kwargs)
        with pytest.raises(ValueError):
            bipolar_mux_matmul_counts(
                np.zeros((1, 4)), weights,
                weight_stream=encode_bipolar_weight_stream(
                    np.zeros((3, 4)), **kwargs),
                **kwargs)


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
