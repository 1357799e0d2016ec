"""Executable specifications of the SNG threshold sources and encoders.

The engine and the gate-level oracle both read their streams from
``make_source(...).thresholds``, so the oracle cannot catch a change in
the sources themselves.  These tests pin each source and encoder to a
plain construction written from its documented definition: per lane and
per clock, in Python ints, with no tables, gathers or slabs.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.bitstream import pack_words
from repro.core.rng import Lfsr, LfsrSource, VanDerCorputSource, make_source
from repro.simulator import engine
from repro.simulator.engine import (_build_encode_table,
                                    encode_bipolar_weight_stream,
                                    encode_packed,
                                    encode_split_weight_streams)

U64 = 1 << 64


def lfsr_spec(bits, width, seed, lanes, length, offset):
    """Lane ``k``: the register cycle from phase ``(seed + k) * stride mod
    period``, each word rotated left by ``(seed + k) mod bits`` and XORed
    with the lane mask, all in 64-bit wrapping arithmetic."""
    lfsr = Lfsr(width)
    period = lfsr.period
    cycle = [int(s) >> (width - bits) for s in lfsr.sequence(period)]
    stride = max(1, int(round(period * 0.6180339887)))
    mask = (1 << bits) - 1
    out = np.empty((lanes, length), dtype=np.uint32)
    for k in range(lanes):
        lane = (seed + k) % U64
        phase = lane * stride % U64 % period
        rot = lane % bits
        xor = (lane * 0xBF58476D1CE4E5B9 % U64 >> 43) & mask
        for t in range(length):
            v = cycle[(phase + offset + t) % period]
            out[k, t] = (((v << rot) | (v >> (bits - rot))) & mask) ^ xor
    return out


def vdc_spec(bits, seed, lanes, length, offset):
    """Lane ``k``: the radical inverse of ``stride * t + start`` mod
    ``2**bits``, with the lane's odd stride and start."""
    out = np.empty((lanes, length), dtype=np.uint32)
    for k in range(lanes):
        lane = (seed + k) % U64
        stride = (lane * 0x9E3779B97F4A7C15 % U64 >> 33) | 1
        start = lane * 0xD1B54A32D192ED03 % U64 >> 40
        for t in range(length):
            index = (stride * (offset + t) + start) % (1 << bits)
            out[k, t] = int(format(index, f"0{bits}b")[::-1], 2)
    return out


def unslabbed_encode(values, length, bits, scheme, seed, offset):
    """One threshold bank for the whole plane: lane ``i`` encodes
    element ``i``."""
    targets = np.round(values.reshape(-1) * (1 << bits)).astype(np.uint32)
    thresholds = make_source(scheme, bits=bits, seed=seed).thresholds(
        targets.size, length, offset=offset)
    return np.packbits(thresholds < targets[:, None], axis=-1).reshape(
        values.shape + (-1,))


class TestLfsrSourceSpec:
    @given(bits=st.integers(3, 12), extra=st.integers(0, 3),
           seed=st.integers(1, U64 - 1), lanes=st.integers(0, 3),
           length=st.sampled_from([1, 254, 255, 256, 600]),
           offset=st.sampled_from([0, 5, 300]))
    @example(bits=3, extra=0, seed=1, lanes=3, length=1, offset=0)
    @example(bits=8, extra=0, seed=7, lanes=0, length=255, offset=5)
    @example(bits=8, extra=2, seed=2**64 - 2, lanes=3, length=256,
             offset=300)
    @example(bits=12, extra=1, seed=12345, lanes=2, length=600, offset=300)
    @example(bits=5, extra=3, seed=99, lanes=1, length=254, offset=5)
    @settings(max_examples=40, deadline=None)
    def test_matches_per_lane_construction(self, bits, extra, seed, lanes,
                                           length, offset):
        width = bits + extra
        got = LfsrSource(bits=bits, width=width, seed=seed).thresholds(
            lanes, length, offset=offset)
        assert got.dtype == np.uint32
        assert np.array_equal(
            got, lfsr_spec(bits, width, seed, lanes, length, offset))


class TestVanDerCorputSourceSpec:
    @given(bits=st.integers(3, 12), seed=st.integers(0, U64 - 1),
           lanes=st.integers(0, 3), length=st.integers(1, 300),
           offset=st.sampled_from([0, 5, 300]))
    @settings(max_examples=40, deadline=None)
    def test_matches_radical_inverse(self, bits, seed, lanes, length,
                                     offset):
        got = VanDerCorputSource(bits=bits, seed=seed).thresholds(
            lanes, length, offset=offset)
        assert got.dtype == np.uint32
        assert np.array_equal(got,
                              vdc_spec(bits, seed, lanes, length, offset))


class TestEncodeTableSpec:
    @given(scheme=st.sampled_from(["lfsr", "vdc"]), bits=st.integers(3, 8),
           seed=st.one_of(st.integers(0, 10**6),
                          st.tuples(st.integers(0, 10**6),
                                    st.integers(0, 10**6))),
           lanes=st.integers(0, 5), length=st.integers(1, 140),
           offset=st.sampled_from([0, 5, 300]))
    @example(scheme="lfsr", bits=8, seed=(3, 4), lanes=5, length=128,
             offset=300)
    @example(scheme="vdc", bits=8, seed=(0, 9), lanes=4, length=33,
             offset=5)
    @settings(max_examples=40, deadline=None)
    def test_row_is_comparator_stream(self, scheme, bits, seed, lanes,
                                      length, offset):
        table = _build_encode_table(scheme, bits, seed, lanes, length,
                                    offset)
        seeds = seed if isinstance(seed, tuple) else (seed,)
        thresholds = np.concatenate(
            [make_source(scheme, bits=bits, seed=s).thresholds(
                lanes, length, offset=offset) for s in seeds], axis=-1)
        levels = np.arange((1 << bits) + 1)
        expected = pack_words(thresholds[:, None, :] < levels[None, :, None])
        assert table.shape == expected.shape
        assert np.array_equal(table, expected)


class TestSlabbedWeightEncoders:
    @pytest.mark.parametrize("scheme", ["lfsr", "vdc", "random"])
    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("slab_clocks", [1, 100, 1000])
    def test_slabs_match_one_bank(self, monkeypatch, scheme, seed,
                                  slab_clocks):
        # 13 x 17 = 221 lanes at 40 clocks: several slabs and a ragged
        # last one at every slab size tried.
        monkeypatch.setattr(engine, "_WEIGHT_SLAB_CLOCKS", slab_clocks)
        weights = np.random.default_rng(seed).uniform(-1, 1, (13, 17))
        kwargs = dict(length=40, bits=8, scheme=scheme, seed=seed, offset=5)
        phases = encode_split_weight_streams(weights, **kwargs)
        for phase, (part, packed) in enumerate(phases):
            assert np.array_equal(part, np.maximum((1 - 2 * phase) * weights,
                                                   0.0))
            assert np.array_equal(packed, unslabbed_encode(
                part, 40, 8, scheme, seed + 7_368_787 * (phase + 1), 5))
        bipolar = encode_bipolar_weight_stream(weights, **kwargs)
        assert np.array_equal(bipolar, unslabbed_encode(
            (weights + 1.0) / 2.0, 40, 8, scheme, seed + 7_368_787, 5))
        # The encoders offset their seeds; seed 0 reaches make_source's
        # lfsr clamp only directly.
        direct = encode_packed(np.abs(weights), 40, 8, scheme, seed, offset=5)
        assert np.array_equal(direct, unslabbed_encode(
            np.abs(weights), 40, 8, scheme, seed, 5))


class TestWeightEncodeMemory:
    def test_peak_stays_bounded(self):
        # A 2048 x 2048 plane at L=8 returns 64 MiB of phase values and
        # 8 MiB of streams; one bank over the whole plane peaked at
        # 788 MiB.
        weights = np.random.default_rng(0).uniform(-1, 1, (2048, 2048))
        tracemalloc.start()
        try:
            encode_split_weight_streams(weights, length=8, bits=8,
                                        scheme="lfsr", seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 192 << 20
