"""Unit + property tests for repro.core.bitstream."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitstream import (
    Bitstream,
    pack_stream,
    pack_words,
    packed_popcount,
    popcount_bytes,
    popcount_words,
    scc,
    scc_matrix,
    unpack_stream,
    unpack_words,
    word_type,
    words_from_bytes,
)

bit_arrays = st.lists(st.integers(0, 1), min_size=1, max_size=200).map(
    lambda bits: np.array(bits, dtype=np.uint8)
)

WORD_TYPES = [np.uint8, np.uint16, np.uint32, np.uint64]


class TestPacking:
    @given(bit_arrays)
    @settings(max_examples=50, deadline=None)
    def test_pack_unpack_roundtrip(self, bits):
        packed = pack_stream(bits)
        assert np.array_equal(unpack_stream(packed, bits.shape[-1]), bits)

    @given(bit_arrays)
    @settings(max_examples=50, deadline=None)
    def test_packed_popcount_matches_sum(self, bits):
        assert packed_popcount(pack_stream(bits)) == bits.sum()

    def test_popcount_bytes_table(self):
        packed = np.array([0x00, 0xFF, 0x0F, 0x01], dtype=np.uint8)
        assert popcount_bytes(packed).tolist() == [0, 8, 4, 1]

    def test_pack_multidimensional(self):
        bits = np.ones((3, 4, 16), dtype=np.uint8)
        packed = pack_stream(bits)
        assert packed.shape == (3, 4, 2)
        assert packed_popcount(packed, axis=-1).tolist() == [[16] * 4] * 3


class TestBitstream:
    def test_value(self):
        assert Bitstream.from_bits([1, 0, 1, 1]).value == 0.75

    def test_constant_streams(self):
        assert Bitstream.constant(0, 8).value == 0.0
        assert Bitstream.constant(1, 8).value == 1.0

    def test_and_is_multiplication_shape(self):
        a = Bitstream.from_bits([1, 1, 0, 0])
        b = Bitstream.from_bits([1, 0, 1, 0])
        assert (a & b).bits.tolist() == [1, 0, 0, 0]

    def test_or_saturates(self):
        a = Bitstream.from_bits([1, 1, 0, 0])
        b = Bitstream.from_bits([1, 0, 1, 0])
        assert (a | b).bits.tolist() == [1, 1, 1, 0]

    def test_invert_is_complement(self):
        a = Bitstream.from_bits([1, 0, 1, 1])
        assert (~a).value == pytest.approx(0.25)

    def test_xor(self):
        a = Bitstream.from_bits([1, 1, 0, 0])
        b = Bitstream.from_bits([1, 0, 1, 0])
        assert (a ^ b).bits.tolist() == [0, 1, 1, 0]

    def test_concat_averages(self):
        a = Bitstream.from_bits([1, 1, 1, 1])
        b = Bitstream.from_bits([0, 0, 0, 0])
        assert a.concat(b).value == 0.5

    def test_nonbinary_rejected(self):
        with pytest.raises(ValueError):
            Bitstream(np.array([0, 2], dtype=np.uint8))

    def test_len_and_eq(self):
        a = Bitstream.from_bits([1, 0])
        assert len(a) == 2
        assert a == Bitstream.from_bits([1, 0])
        assert a != Bitstream.from_bits([0, 1])

    def test_values_batch(self):
        b = Bitstream(np.array([[1, 1, 0, 0], [1, 1, 1, 1]], dtype=np.uint8))
        assert b.values().tolist() == [0.5, 1.0]

    def test_repr_short_stream(self):
        assert "0.7500" in repr(Bitstream.from_bits([1, 0, 1, 1]))

    @given(bit_arrays)
    @settings(max_examples=30, deadline=None)
    def test_demorgan(self, bits):
        a = Bitstream(bits)
        b = Bitstream(np.roll(bits, 3))
        assert ~(a & b) == (~a | ~b)


class TestScc:
    def test_identical_streams_fully_correlated(self):
        rng = np.random.default_rng(0)
        a = (rng.random(4096) < 0.5).astype(np.uint8)
        assert scc(a, a) == pytest.approx(1.0, abs=0.05)

    def test_disjoint_streams_anticorrelated(self):
        a = np.array([1, 1, 0, 0] * 256, dtype=np.uint8)
        b = 1 - a
        assert scc(a, b) == pytest.approx(-1.0, abs=0.05)

    def test_independent_streams_near_zero(self):
        rng = np.random.default_rng(1)
        a = (rng.random(1 << 16) < 0.5).astype(np.uint8)
        b = (rng.random(1 << 16) < 0.5).astype(np.uint8)
        assert abs(scc(a, b)) < 0.05

    def test_constant_stream_defined(self):
        a = np.ones(64, dtype=np.uint8)
        b = np.zeros(64, dtype=np.uint8)
        assert scc(a, b) == 0.0


class TestWordPacking:
    """Word layouts: views of the np.packbits byte layout."""

    @pytest.mark.parametrize("clocks,dtype,n_words", [
        (1, np.uint8, 1), (8, np.uint8, 1), (9, np.uint16, 1),
        (16, np.uint16, 1), (17, np.uint32, 1), (32, np.uint32, 1),
        (33, np.uint64, 1), (64, np.uint64, 1), (65, np.uint64, 2)])
    def test_word_type_rule(self, clocks, dtype, n_words):
        # One word of the narrowest type that holds a stream of at most
        # 32 clocks; 64-bit words beyond.
        assert word_type(clocks) == dtype
        words = pack_words(np.ones(clocks, dtype=np.uint8),
                           word_type(clocks))
        assert words.dtype == dtype and words.shape == (n_words,)
        assert popcount_words(words) == clocks

    @given(bit_arrays, st.sampled_from(WORD_TYPES))
    @settings(max_examples=60, deadline=None)
    def test_word_types_round_trip(self, bits, dtype):
        words = pack_words(bits, dtype)
        per_word = 8 * np.dtype(dtype).itemsize
        assert words.dtype == dtype
        assert words.shape == (-(-bits.size // per_word),)
        assert np.array_equal(unpack_words(words, bits.size), bits)
        assert popcount_words(words) == bits.sum()
        assert np.array_equal(words_from_bytes(pack_stream(bits), dtype),
                              words)

    @pytest.mark.parametrize("length", [1, 7, 63, 64, 65, 100, 128, 200])
    def test_pack_unpack_words_roundtrip(self, length):
        rng = np.random.default_rng(length)
        bits = rng.integers(0, 2, (3, length), dtype=np.uint8)
        words = pack_words(bits)
        assert words.dtype == np.uint64
        assert words.shape == (3, (length + 63) // 64)
        assert np.array_equal(unpack_words(words, length), bits)

    @pytest.mark.parametrize("length", [1, 7, 64, 100, 129])
    def test_words_match_byte_view(self, length):
        rng = np.random.default_rng(length + 1)
        bits = rng.integers(0, 2, (2, 5, length), dtype=np.uint8)
        assert np.array_equal(words_from_bytes(pack_stream(bits)),
                              pack_words(bits))

    @pytest.mark.parametrize("length", [3, 64, 65, 130])
    def test_pad_bits_are_zero(self, length):
        words = pack_words(np.ones((4, length), dtype=np.uint8))
        assert popcount_words(words).tolist() == [length] * 4

    @pytest.mark.parametrize("length", [1, 7, 63, 64, 65, 100, 128, 200])
    def test_popcount_words_matches_sum(self, length):
        rng = np.random.default_rng(length + 2)
        bits = rng.integers(0, 2, (3, 4, length), dtype=np.uint8)
        words = pack_words(bits)
        assert np.array_equal(popcount_words(words, axis=-1),
                              bits.sum(axis=-1))
        assert np.array_equal(popcount_words(words, axis=(-2, -1)),
                              bits.sum(axis=(-2, -1)))

    def test_popcount_words_numpy_fallback(self, monkeypatch):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, (5, 150), dtype=np.uint8)
        want = bits.sum(axis=-1)
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        for dtype in WORD_TYPES:
            words = pack_words(bits, dtype)
            assert np.array_equal(popcount_words(words), want)
            assert np.array_equal(popcount_words(words, axis=(-2, -1)),
                                  want.sum())


class TestSccMatrixVectorized:
    """Batched scc_matrix must match the scalar scc reference pairwise."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_scc(self, seed):
        rng = np.random.default_rng(seed)
        streams = rng.integers(0, 2, (8, 96), dtype=np.uint8)
        streams[0] = 1  # constant lane: denominator edge case
        streams[1] = 0
        streams[2] = streams[3]  # perfectly correlated pair
        got = scc_matrix(streams)
        for i in range(8):
            for j in range(8):
                want = 1.0 if i == j else scc(streams[i], streams[j])
                assert got[i, j] == pytest.approx(want, abs=1e-12)
