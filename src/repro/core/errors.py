"""Analytical error models for stochastic representations (Sec. II-A).

For a stream of length ``n`` encoding value ``v``:

- unipolar RMS error:  ``sqrt(v * (1 - v) / n)``
- bipolar RMS error:   ``sqrt((1 - v**2) / n)``

The bipolar variance is strictly >= 2x the unipolar variance for the same
``v`` in [0, 1] (equality only at v = 0), which is the paper's
justification for split-unipolar: ">= 2X shorter streams" at equal error.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "rms_error_unipolar",
    "rms_error_bipolar",
    "bipolar_length_multiplier",
    "length_for_rms_unipolar",
    "length_for_rms_bipolar",
    "decision_margin_bound",
    "empirical_rms",
]


def rms_error_unipolar(v, n):
    """RMS representational error of a length-``n`` unipolar stream."""
    v = np.asarray(v, dtype=np.float64)
    return np.sqrt(v * (1.0 - v) / n)


def rms_error_bipolar(v, n):
    """RMS representational error of a length-``n`` bipolar stream."""
    v = np.asarray(v, dtype=np.float64)
    return np.sqrt((1.0 - v * v) / n)


def bipolar_length_multiplier(v):
    """Stream-length factor bipolar needs over unipolar at equal error.

    Equal RMS error requires ``n_b / n_u = (1 - v**2) / (v * (1 - v))
    = (1 + v) / v`` which is >= 2 for all v in (0, 1].
    """
    v = np.asarray(v, dtype=np.float64)
    return (1.0 + v) / v


def _minimal_length(variance, target_rms, rms_error):
    """Smallest integer ``n >= 1`` with ``rms_error(n) <= target_rms``.

    ``ceil(variance / target_rms**2)`` rounds twice, so it can land one
    off the true minimum (``0.09 / 2.5e-5`` evaluates just above 3600).
    The RMS error is monotone in ``n``, so stepping that estimate up
    while it misses the target and down while one bit less still meets
    it ends at the minimum.  Non-finite estimates (NaN values) are left
    to the clamp.
    """
    if not np.all(np.asarray(target_rms) > 0):
        raise ValueError("target_rms must be positive")
    estimate = variance / np.square(target_rms)
    finite = np.isfinite(estimate)
    n = np.ceil(np.where(finite, estimate, 1.0)).clip(min=1)
    n = n.astype(np.int64)
    while True:
        up = finite & (rms_error(n) > target_rms)
        if not up.any():
            break
        n = n + up
    while True:
        down = finite & (n > 1) & (
            rms_error(np.maximum(n - 1, 1)) <= target_rms)
        if not down.any():
            return n
        n = n - down


def length_for_rms_unipolar(v, target_rms):
    """Minimum unipolar stream length for a target RMS error.

    The smallest ``n`` with ``rms_error_unipolar(v, n) <= target_rms``.
    Clamped to at least 1: the variance vanishes at ``v = 0`` and
    ``v = 1`` (the stream is constant), but a zero-length stream cannot
    be clocked, so the exactly-representable endpoints still need one
    bit.
    """
    v = np.asarray(v, dtype=np.float64)
    return _minimal_length(v * (1.0 - v), target_rms,
                           lambda n: rms_error_unipolar(v, n))


def length_for_rms_bipolar(v, target_rms):
    """Minimum bipolar stream length for a target RMS error.

    The smallest ``n`` with ``rms_error_bipolar(v, n) <= target_rms``,
    clamped to at least 1 (the variance vanishes at ``v = +-1``, cf.
    :func:`length_for_rms_unipolar`).
    """
    v = np.asarray(v, dtype=np.float64)
    return _minimal_length(1.0 - v * v, target_rms,
                           lambda n: rms_error_bipolar(v, n))


def decision_margin_bound(phase_length, z: float = 2.0,
                          representation: str = "split-unipolar"):
    """Worst-case ``z``-sigma bound on a top-1/top-2 logit margin.

    Used by the progressive early-exit gate: a classification decided at
    phase length ``n`` is trusted when the observed margin between the
    two largest logits exceeds this bound, i.e. the margin is unlikely
    to be an artifact of stream noise.

    Split-unipolar logits decode as ``up/n - down/n``; each phase count
    has worst-case variance ``0.25 / n`` (at ``v = 0.5``), so one logit
    carries variance ``<= 0.5 / n`` and a difference of two independent
    logits ``<= 1 / n`` — worst-case margin RMS ``1 / sqrt(n)``.  A
    bipolar stream of total length ``2 n`` has per-value variance
    ``<= 1 / (2 n)``, giving the same ``1 / sqrt(n)`` margin RMS.  The
    bound is deliberately conservative (real logit densities sit far
    from 0.5, and OR/APC accumulation correlates the counts downward);
    ``z`` tunes how conservative.
    """
    if z <= 0:
        raise ValueError("z must be positive")
    n = np.asarray(phase_length, dtype=np.float64)
    if np.any(n < 1):
        raise ValueError("phase_length must be at least 1")
    if representation not in ("split-unipolar", "bipolar"):
        raise ValueError(f"unknown representation: {representation!r}")
    return z / np.sqrt(n)


def empirical_rms(estimates: np.ndarray, truth) -> float:
    """Root-mean-square error of a batch of decoded estimates."""
    estimates = np.asarray(estimates, dtype=np.float64)
    return float(np.sqrt(np.mean((estimates - np.asarray(truth)) ** 2)))
