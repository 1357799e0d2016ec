"""Stochastic number generators (SNGs).

An SNG converts a fixed-point binary value into a stochastic bitstream by
comparing the value against a pseudo-random threshold every clock: the
output bit is 1 when ``threshold < value``.  Over ``n`` clocks the density
of ones approaches ``value / 2**bits``.

The generator is vectorized: it encodes whole numpy arrays of
probabilities at once, assigning each requested *lane* its own threshold
sequence so that operand pairs fed to AND multipliers stay decorrelated
(see :func:`repro.core.bitstream.scc`).
"""

from __future__ import annotations

import numpy as np

from .rng import make_source

__all__ = ["quantize_probability", "StochasticNumberGenerator"]


def quantize_probability(p: np.ndarray, bits: int = 8) -> np.ndarray:
    """Round probabilities to the ``bits``-bit grid an SNG can represent.

    Hardware compares against an integer threshold, so only multiples of
    ``1 / 2**bits`` are representable.  Values are clipped to [0, 1].
    """
    levels = 1 << bits
    return np.clip(np.round(np.asarray(p, dtype=np.float64) * levels), 0, levels) / levels


class StochasticNumberGenerator:
    """Vectorized comparator-based SNG bank.

    Parameters
    ----------
    length:
        Stream length in clocks.
    bits:
        Comparator resolution (8 in all ACOUSTIC configurations).
    scheme:
        Threshold source: ``"lfsr"`` (hardware-faithful), ``"random"``
        (ideal), or ``"vdc"`` (low discrepancy).
    seed:
        Base seed; distinct seeds give statistically independent banks.
    """

    def __init__(self, length: int, bits: int = 8, scheme: str = "lfsr",
                 seed: int = 1, source=None):
        if length < 1:
            raise ValueError("stream length must be positive")
        self.length = length
        self.bits = bits
        self.scheme = scheme
        self.seed = seed
        # A custom threshold source (anything with .thresholds(lanes, n))
        # overrides the named scheme, e.g. an LfsrSource with a specific
        # register width.
        self._source = source if source is not None else make_source(
            scheme, bits=bits, seed=seed
        )

    def generate(self, p: np.ndarray, lanes: str = "per-element",
                 offset: int = 0) -> np.ndarray:
        """Encode probabilities ``p`` (any shape, values in [0, 1]).

        Returns a uint8 array of shape ``p.shape + (length,)``.

        ``lanes`` controls threshold sharing:

        - ``"per-element"``: every element gets its own threshold lane
          (decorrelated streams; matches one SNG per value).
        - ``"shared"``: all elements share a single lane.  The streams
          are then maximally correlated — useful to demonstrate why RNG
          sharing between multiplier operands is forbidden.

        ``offset`` encodes the window of clocks ``[offset, offset +
        length)`` instead of ``[0, length)``; with a prefix-stable
        threshold source this is exactly the continuation of the shorter
        stream (see :func:`repro.core.rng.prefix_stable_scheme`).
        """
        p = np.asarray(p, dtype=np.float64)
        # Written so NaN fails it: every comparison with NaN is False.
        if p.size and not (p.min() >= 0 and p.max() <= 1):
            raise ValueError("probabilities must lie in [0, 1]")
        flat = p.reshape(-1)
        levels = 1 << self.bits
        targets = np.round(flat * levels).astype(np.uint32)[:, None]
        if lanes == "per-element":
            thresholds = self._source.thresholds(flat.size, self.length,
                                                 offset=offset)
        elif lanes == "shared":
            thresholds = np.broadcast_to(
                self._source.thresholds(1, self.length, offset=offset),
                (flat.size, self.length)
            )
        else:
            raise ValueError(f"unknown lane mode: {lanes!r}")
        bits = (thresholds < targets).astype(np.uint8)
        return bits.reshape(p.shape + (self.length,))

    def generate_one(self, p: float) -> np.ndarray:
        """Encode a scalar probability; returns a 1-D uint8 stream."""
        return self.generate(np.asarray([p]))[0]
