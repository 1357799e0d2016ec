"""Unit tests for repro.core.sng — stochastic number generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitstream import scc
from repro.core.errors import rms_error_unipolar
from repro.core.mac import SplitUnipolarMac
from repro.core.sng import StochasticNumberGenerator, quantize_probability


class TestQuantizeProbability:
    def test_grid(self):
        q = quantize_probability(np.array([0.1, 0.5, 0.999]), bits=4)
        assert np.allclose(q * 16, np.round(q * 16))

    def test_clipping(self):
        q = quantize_probability(np.array([-0.5, 1.5]))
        assert q.tolist() == [0.0, 1.0]

    def test_exact_values_preserved(self):
        q = quantize_probability(np.array([0.0, 0.5, 1.0]), bits=8)
        assert q.tolist() == [0.0, 0.5, 1.0]

    @given(st.floats(0, 1), st.integers(2, 10))
    @settings(max_examples=50, deadline=None)
    def test_quantization_error_bound(self, p, bits):
        q = float(quantize_probability(np.array([p]), bits=bits)[0])
        assert abs(q - p) <= 0.5 / (1 << bits) + 1e-12


class TestStochasticNumberGenerator:
    @pytest.mark.parametrize("scheme", ["lfsr", "random", "vdc"])
    def test_output_shape(self, scheme):
        sng = StochasticNumberGenerator(64, scheme=scheme, seed=1)
        out = sng.generate(np.zeros((2, 3)))
        assert out.shape == (2, 3, 64)
        assert out.dtype == np.uint8

    @pytest.mark.parametrize("scheme", ["lfsr", "random", "vdc"])
    def test_extreme_values_exact(self, scheme):
        sng = StochasticNumberGenerator(128, scheme=scheme, seed=1)
        out = sng.generate(np.array([0.0, 1.0]))
        assert out[0].sum() == 0
        assert out[1].sum() == 128

    @pytest.mark.parametrize("scheme", ["lfsr", "random", "vdc"])
    def test_encoding_accuracy(self, scheme):
        sng = StochasticNumberGenerator(256, scheme=scheme, seed=1)
        values = np.linspace(0.05, 0.95, 50)
        est = sng.generate(values).mean(axis=-1)
        # Allow 4 sigma of the unipolar sampling error plus quantization.
        bound = 4 * rms_error_unipolar(values, 256) + 1 / 256
        assert np.all(np.abs(est - values) <= bound)

    def test_lfsr_full_period_is_quasi_exact(self):
        # A full-period stream from a width-8 LFSR enumerates every
        # non-zero 8-bit threshold exactly once, so encoding error
        # collapses to the quantization floor.
        from repro.core.rng import LfsrSource

        source = LfsrSource(bits=8, width=8, seed=1)
        sng = StochasticNumberGenerator(255, scheme="lfsr", seed=1, source=source)
        values = np.array([0.25, 0.5, 0.75])
        est = sng.generate(values).mean(axis=-1)
        assert np.all(np.abs(est - values) < 0.01)

    def test_determinism(self):
        a = StochasticNumberGenerator(64, seed=3).generate(np.array([0.3]))
        b = StochasticNumberGenerator(64, seed=3).generate(np.array([0.3]))
        assert np.array_equal(a, b)

    def test_shared_lanes_are_correlated(self):
        sng = StochasticNumberGenerator(256, scheme="lfsr", seed=1)
        out = sng.generate(np.array([0.5, 0.5]), lanes="shared")
        assert scc(out[0], out[1]) == pytest.approx(1.0, abs=0.05)

    def test_per_element_lanes_are_decorrelated(self):
        sng = StochasticNumberGenerator(1024, scheme="lfsr", seed=1)
        out = sng.generate(np.array([0.5, 0.5]))
        assert abs(scc(out[0], out[1])) < 0.3

    def test_out_of_range_rejected(self):
        sng = StochasticNumberGenerator(16)
        with pytest.raises(ValueError):
            sng.generate(np.array([1.2]))
        with pytest.raises(ValueError):
            sng.generate(np.array([-0.1]))
        # NaN is out of range too, also where a MAC encodes through the
        # SNG (it once encoded as an all-zero stream).
        with pytest.raises(ValueError):
            sng.generate(np.array([np.nan, 0.5]))
        with pytest.raises(ValueError):
            SplitUnipolarMac(length=16).compute([np.nan, 0.5], [0.5, 0.5])

    def test_bad_lane_mode_rejected(self):
        sng = StochasticNumberGenerator(16)
        with pytest.raises(ValueError):
            sng.generate(np.array([0.5]), lanes="chaos")

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError):
            StochasticNumberGenerator(0)

    def test_generate_one(self):
        sng = StochasticNumberGenerator(128, seed=1)
        s = sng.generate_one(0.5)
        assert s.shape == (128,)
        assert abs(s.mean() - 0.5) < 0.15

    def test_multiplication_via_independent_banks(self):
        # AND of streams from two independently seeded banks estimates
        # the product — the property every SC MAC relies on.
        a_bank = StochasticNumberGenerator(512, scheme="lfsr", seed=1)
        b_bank = StochasticNumberGenerator(512, scheme="lfsr", seed=50021)
        a = a_bank.generate(np.full(100, 0.6))
        b = b_bank.generate(np.full(100, 0.7))
        products = (a & b).mean(axis=-1)
        assert abs(products.mean() - 0.42) < 0.02
