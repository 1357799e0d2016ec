"""Unit tests for repro.core.errors — analytic SC error models."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.errors import (
    bipolar_length_multiplier,
    decision_margin_bound,
    empirical_rms,
    length_for_rms_bipolar,
    length_for_rms_unipolar,
    rms_error_bipolar,
    rms_error_unipolar,
)
from repro.core.sng import StochasticNumberGenerator


class TestAnalyticFormulas:
    def test_unipolar_formula(self):
        assert rms_error_unipolar(0.5, 100) == pytest.approx(np.sqrt(0.25 / 100))

    def test_bipolar_formula(self):
        assert rms_error_bipolar(0.5, 100) == pytest.approx(np.sqrt(0.75 / 100))

    def test_unipolar_error_vanishes_at_extremes(self):
        assert rms_error_unipolar(0.0, 64) == 0
        assert rms_error_unipolar(1.0, 64) == 0

    def test_error_shrinks_with_length(self):
        assert rms_error_unipolar(0.5, 400) == rms_error_unipolar(0.5, 100) / 2

    @given(st.floats(0.01, 0.99), st.integers(8, 4096))
    @settings(max_examples=50, deadline=None)
    def test_bipolar_always_worse_for_positive_values(self, v, n):
        # Both errors vanish at v = 1 (the only equality point on (0, 1]).
        assert rms_error_bipolar(v, n) > rms_error_unipolar(v, n)


class TestLengthMultiplier:
    @given(st.floats(0.001, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_at_least_two(self, v):
        # The paper's ">= 2X shorter streams" claim: the multiplier
        # (1 + v) / v is >= 2 everywhere on (0, 1].
        assert bipolar_length_multiplier(v) >= 2.0

    def test_exactly_two_at_one(self):
        assert bipolar_length_multiplier(1.0) == pytest.approx(2.0)

    def test_explodes_near_zero(self):
        assert bipolar_length_multiplier(0.01) > 100


class TestLengthForRms:
    def test_consistency_unipolar(self):
        n = int(length_for_rms_unipolar(0.5, 0.02))
        assert rms_error_unipolar(0.5, n) <= 0.02

    def test_consistency_bipolar(self):
        n = int(length_for_rms_bipolar(0.5, 0.02))
        assert rms_error_bipolar(0.5, n) <= 0.02

    def test_bipolar_needs_longer_streams(self):
        v, target = 0.5, 0.05
        assert length_for_rms_bipolar(v, target) >= 2 * length_for_rms_unipolar(
            v, target
        )

    def test_exact_endpoints_clamp_to_one_bit(self):
        # Variance vanishes at the representable endpoints, but a
        # zero-length stream cannot be clocked.
        assert length_for_rms_unipolar(0.0, 0.01) == 1
        assert length_for_rms_unipolar(1.0, 0.01) == 1
        assert length_for_rms_bipolar(1.0, 0.01) == 1
        assert length_for_rms_bipolar(-1.0, 0.01) == 1

    def test_near_endpoint_still_positive(self):
        n = length_for_rms_unipolar(1e-9, 0.05)
        assert n >= 1
        assert rms_error_unipolar(1e-9, int(n)) <= 0.05

    def test_vectorized(self):
        n = length_for_rms_unipolar(np.array([0.0, 0.5, 1.0]), 0.05)
        assert n.shape == (3,)
        assert n[0] == n[2] == 1
        assert n[1] == 100

    def test_integer_dtype(self):
        assert np.issubdtype(
            np.asarray(length_for_rms_unipolar(0.5, 0.1)).dtype,
            np.integer)

    @given(st.floats(0.01, 0.99), st.floats(0.005, 0.2))
    @example(0.1, 0.005)    # float ceil of 0.09 / 2.5e-5 gave 3601
    @settings(max_examples=50, deadline=None)
    def test_returned_length_always_suffices(self, v, target):
        n = int(length_for_rms_unipolar(v, target))
        assert rms_error_unipolar(v, n) <= target
        # Minimality: one bit less would miss the target (unless
        # already at the 1-bit clamp).
        if n > 1:
            assert rms_error_unipolar(v, n - 1) > target

    @pytest.mark.parametrize("target", [0.0, -0.1, float("nan")])
    def test_rejects_non_positive_target(self, target):
        with pytest.raises(ValueError, match="target_rms"):
            length_for_rms_unipolar(0.5, target)
        with pytest.raises(ValueError, match="target_rms"):
            length_for_rms_bipolar(0.5, target)

    @given(st.floats(-0.99, 0.99), st.floats(0.005, 0.2))
    @example(0.83, 0.01)    # float ceil gave 3112; 3111 meets the target
    @settings(max_examples=50, deadline=None)
    def test_returned_bipolar_length_always_suffices(self, v, target):
        n = int(length_for_rms_bipolar(v, target))
        assert rms_error_bipolar(v, n) <= target
        if n > 1:
            assert rms_error_bipolar(v, n - 1) > target


class TestDecisionMarginBound:
    def test_value(self):
        assert decision_margin_bound(64) == pytest.approx(2.0 / 8.0)
        assert decision_margin_bound(64, z=1.0) == pytest.approx(1.0 / 8.0)

    def test_bipolar_same_scale(self):
        assert decision_margin_bound(64, representation="bipolar") == \
            pytest.approx(decision_margin_bound(64))

    def test_shrinks_with_length(self):
        assert decision_margin_bound(256) == \
            pytest.approx(decision_margin_bound(64) / 2)

    def test_vectorized(self):
        bounds = decision_margin_bound(np.array([16, 64]))
        np.testing.assert_allclose(bounds, [0.5, 0.25])

    def test_validation(self):
        with pytest.raises(ValueError, match="z must be positive"):
            decision_margin_bound(16, z=0.0)
        with pytest.raises(ValueError, match="at least 1"):
            decision_margin_bound(0)
        with pytest.raises(ValueError, match="representation"):
            decision_margin_bound(16, representation="ternary")


class TestEmpiricalRms:
    def test_zero_for_exact(self):
        assert empirical_rms(np.array([0.5, 0.5]), 0.5) == 0.0

    def test_known_value(self):
        assert empirical_rms(np.array([0.4, 0.6]), 0.5) == pytest.approx(0.1)

    def test_analytic_model_predicts_measurement(self):
        # The measured encoding RMS of an ideal-random SNG should track
        # sqrt(v(1-v)/n) closely.
        v, n, trials = 0.3, 64, 4000
        sng = StochasticNumberGenerator(n, scheme="random", seed=0)
        estimates = sng.generate(np.full(trials, v)).mean(axis=-1)
        measured = empirical_rms(estimates, v)
        predicted = float(rms_error_unipolar(v, n))
        assert measured == pytest.approx(predicted, rel=0.15)
