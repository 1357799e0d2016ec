"""Random number sources for stochastic number generation.

Stochastic computing accuracy is dominated by the quality and correlation
of the random sequences that drive the stochastic number generators (SNGs).
ACOUSTIC uses LFSR-based SNGs (Sec. IV-A of the paper); this module
implements maximal-length Fibonacci LFSRs plus an ideal (numpy) source and
a low-discrepancy (van der Corput) source used in the RNG-scheme ablation.

All sources produce integer *thresholds* in ``[0, 2**bits)``.  An SNG turns
a probability ``p`` into a bitstream by emitting ``1`` whenever the
threshold is below ``p * 2**bits`` (see :mod:`repro.core.sng`).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "MAXIMAL_TAPS",
    "Lfsr",
    "LfsrSource",
    "NumpyRandomSource",
    "VanDerCorputSource",
    "make_source",
    "prefix_stable_scheme",
]

#: Feedback tap positions (1-indexed bit numbers; tap ``k`` reads register
#: bit ``k-1``) yielding maximal-length sequences, per the standard
#: Xilinx XAPP052 polynomial table.
MAXIMAL_TAPS = {
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 6, 4, 1),
    13: (13, 4, 3, 1),
    14: (14, 5, 3, 1),
    15: (15, 14),
    16: (16, 15, 13, 4),
    17: (17, 14),
    18: (18, 11),
    19: (19, 6, 2, 1),
    20: (20, 17),
    21: (21, 19),
    22: (22, 21),
    23: (23, 18),
    24: (24, 23, 22, 17),
}


class Lfsr:
    """Maximal-length Fibonacci linear feedback shift register.

    The register holds ``width`` bits and cycles through all
    ``2**width - 1`` non-zero states.  Reading the register state as an
    integer gives a pseudo-random sequence that hardware SNGs use as the
    comparison threshold.

    Parameters
    ----------
    width:
        Register width in bits (3..24 supported).
    seed:
        Initial non-zero state.  Defaults to 1.
    taps:
        Optional override of the feedback tap positions (1-indexed from
        the MSB).  Defaults to a maximal-length configuration.
    """

    def __init__(self, width: int, seed: int = 1, taps: tuple = None):
        if width not in MAXIMAL_TAPS and taps is None:
            raise ValueError(
                f"no maximal-length taps known for width {width}; "
                f"supported widths: {sorted(MAXIMAL_TAPS)}"
            )
        if not 0 < seed < (1 << width):
            raise ValueError(f"seed must be a non-zero {width}-bit value, got {seed}")
        self.width = width
        self.taps = tuple(taps) if taps is not None else MAXIMAL_TAPS[width]
        self.state = seed
        self._seed = seed

    @property
    def period(self) -> int:
        """Length of the state cycle for a maximal-length configuration."""
        return (1 << self.width) - 1

    def reset(self) -> None:
        """Return the register to its seed state."""
        self.state = self._seed

    def step(self) -> int:
        """Advance one clock and return the new state."""
        fb = 0
        for tap in self.taps:
            fb ^= (self.state >> (tap - 1)) & 1
        self.state = ((self.state << 1) | fb) & ((1 << self.width) - 1)
        return self.state

    def sequence(self, n: int) -> np.ndarray:
        """Return the next ``n`` states as a uint32 array (advances state)."""
        out = np.empty(n, dtype=np.uint32)
        state = self.state
        width = self.width
        mask = (1 << width) - 1
        shifts = [tap - 1 for tap in self.taps]
        for i in range(n):
            fb = 0
            for sh in shifts:
                fb ^= (state >> sh) & 1
            state = ((state << 1) | fb) & mask
            out[i] = state
        self.state = state
        return out


class LfsrSource:
    """Threshold source backed by one shared LFSR per stream *lane*.

    Hardware shares a single RNG across many SNGs (the paper notes "RNG
    sharing across multiple stochastic number generators, as is common
    practice").  Sharing the same sequence between the two operands of an
    AND multiplier would correlate them and destroy the product, so this
    source hands out *lanes*: each lane is the same LFSR architecture
    seeded differently (equivalently, a rotated copy of the shared
    sequence), which is how real designs decorrelate operands cheaply.

    A lane's phase, bit rotation and XOR mask are wiring in hardware, so
    its thresholds are a fixed row of one small table: the ``bits``
    rotated copies of the register cycle (:meth:`_rotations`), cached
    per ``(width, bits)``.  :meth:`thresholds` gathers one window per
    lane from that table and XORs the lane masks in.

    Parameters
    ----------
    bits:
        Threshold resolution; thresholds lie in ``[0, 2**bits)``.
    width:
        LFSR register width; must be >= bits.  Defaults to ``bits``.
    seed:
        Base seed; lane ``k`` uses ``seed + k`` (mod ``2**64``).
    """

    #: Cached rotation tables keyed by (width, bits); see :meth:`_rotations`.
    _table_cache: dict = {}

    #: Threshold column ``t`` depends only on the absolute clock index,
    #: never on the requested window length, so streams can be extended
    #: bit-exactly (see :meth:`thresholds` ``offset``).
    prefix_stable = True

    def __init__(self, bits: int = 8, width: int = None, seed: int = 1):
        self.bits = bits
        # Width defaults to the comparator precision, as in hardware SNGs:
        # a width-8 register cycles through all 255 non-zero thresholds,
        # so a 128-bit window samples *without replacement* (finite-
        # population variance reduction) and a 255+ window is quasi-exact.
        # Wider registers look "more random" but their windows carry the
        # doubling-map serial correlation and measurably inflate both
        # encoding and product RMS (~1.4x at length 128).
        self.width = width if width is not None else bits
        if self.width < bits:
            raise ValueError("LFSR width must be at least the threshold bit-count")
        self.seed = seed

    def _rotations(self) -> np.ndarray:
        """The ``(bits, period)`` table of rotated threshold cycles.

        Row 0 is the full maximal-length state cycle reduced to
        thresholds; row ``r`` is that cycle with every threshold word
        rotated left by ``r`` bits.  All non-zero seeds of a maximal
        LFSR lie on this single cycle, so a lane seeded differently is
        exactly a phase-shifted view of one row: the table is all the
        thresholds any lane can read.
        """
        key = (self.width, self.bits)
        table = LfsrSource._table_cache.get(key)
        if table is None:
            lfsr = Lfsr(self.width, seed=1)
            cycle = lfsr.sequence(lfsr.period) >> np.uint32(self.width - self.bits)
            bits = self.bits
            mask = np.uint32((1 << bits) - 1)
            table = np.stack([
                ((cycle << np.uint32(r)) | (cycle >> np.uint32(bits - r))) & mask
                for r in range(bits)])
            table.setflags(write=False)
            LfsrSource._table_cache[key] = table
        return table

    def thresholds(self, lanes: int, length: int,
                   offset: int = 0) -> np.ndarray:
        """Return an ``(lanes, length)`` uint32 array of thresholds.

        Lane ``k`` reads the shared cycle starting at a golden-ratio phase
        stride (adjacent lanes land far apart on the cycle — a unit stride
        would make lane k+1 a one-step shift of lane k, i.e. maximally
        correlated), and additionally applies a per-lane bit rotation to
        the threshold word.  Rotations are free in hardware (wiring
        permutations of the shared LFSR taps) and are the standard way to
        decorrelate many SNGs fed from one register.  Streams longer than
        the LFSR period wrap, exactly as the hardware register would.

        With ``id = seed + k`` (uint64 arithmetic, wrapping), lane ``k``
        is row ``id % bits`` of :meth:`_rotations` read from clock
        ``(id * stride + offset) % period`` onwards, XORed with the mask
        ``(id * 0xBF58476D1CE4E5B9) >> 43``, cut to ``bits`` bits.  Each
        lane's window is one row of the rotation table, tiled past the
        period and viewed as all its ``length``-clock windows, so the
        whole bank is a single row gather.

        ``offset`` starts the window at absolute clock ``offset`` instead
        of 0: ``thresholds(l, a + b)`` equals ``thresholds(l, a)``
        concatenated with ``thresholds(l, b, offset=a)`` — the resumable
        kernels rely on this to extend streams without recomputing the
        prefix.
        """
        table = self._rotations()
        bits, period = table.shape
        # Golden-ratio stride spreads lane phases over the whole cycle.
        stride = max(1, int(round(period * 0.6180339887)))
        lane_ids = np.uint64(self.seed) + np.arange(lanes, dtype=np.uint64)
        starts = ((lane_ids * np.uint64(stride)) % np.uint64(period)
                  + np.uint64(offset % period)) % np.uint64(period)
        tiled = np.take(table, np.arange(period + length - 1) % period,
                        axis=1)
        windows = sliding_window_view(tiled, length, axis=1)
        # Per-lane decorrelation: a bit rotation followed by an XOR mask
        # of the threshold word.  Both are wiring/inverter tricks (free in
        # hardware) and both are bijections on the threshold space, so
        # every lane keeps the full-period equidistribution; together with
        # the phase offset they give ~500k distinct lane transforms, so
        # thousands of SNGs can share one small register without
        # identical-lane collisions.
        out = windows[(lane_ids % np.uint64(bits)).astype(np.intp),
                      starts.astype(np.intp)]
        out ^= ((lane_ids * np.uint64(0xBF58476D1CE4E5B9)) >> np.uint64(43)
                ).astype(np.uint32)[:, None] & np.uint32((1 << bits) - 1)
        return out


class NumpyRandomSource:
    """Ideal (software) random threshold source.

    Used as the reference point in the RNG-scheme ablation: it has no
    LFSR periodicity artifacts, so any accuracy delta against
    :class:`LfsrSource` isolates the cost of cheap hardware randomness.
    """

    #: Each ``thresholds`` call draws a fresh block from the stateful
    #: generator row-major, so column ``t`` of a length-``n`` window does
    #: NOT match column ``t`` of a longer window: this scheme cannot be
    #: extended bit-exactly and progressive evaluation rejects it.
    prefix_stable = False

    def __init__(self, bits: int = 8, seed: int = 0):
        self.bits = bits
        self._rng = np.random.default_rng(seed)

    def thresholds(self, lanes: int, length: int,
                   offset: int = 0) -> np.ndarray:
        # ``offset`` only skips columns within this one draw; it does not
        # make the stateful source resumable across calls.
        out = self._rng.integers(
            0, 1 << self.bits, size=(lanes, offset + length), dtype=np.uint32
        )
        return out[:, offset:]


class VanDerCorputSource:
    """Low-discrepancy threshold source (base-2 van der Corput sequence).

    Deterministic bit-streams built from low-discrepancy sequences remove
    random fluctuation entirely (cf. Faraji et al., DATE 2019, cited as
    [20] in the paper).  Lane ``k`` uses a different integer offset into
    the sequence so operand pairs stay decorrelated.
    """

    #: Column ``t`` is a pure function of the absolute index ``t`` (see
    #: :meth:`thresholds`), so windows extend bit-exactly.
    prefix_stable = True

    #: Cached bit-reversal tables keyed by ``bits``.
    _reverse_cache: dict = {}

    def __init__(self, bits: int = 8, seed: int = 0):
        self.bits = bits
        self.seed = seed

    @staticmethod
    def _bit_reverse(values: np.ndarray, bits: int) -> np.ndarray:
        """Reverse the ``bits``-bit binary digits of each value in
        ``[0, 2**bits)`` (the radical inverse), through a
        ``2**bits``-entry lookup table."""
        table = VanDerCorputSource._reverse_cache.get(bits)
        if table is None:
            table = np.zeros(1 << bits, dtype=np.uint32)
            v = np.arange(1 << bits, dtype=np.uint32)
            for _ in range(bits):
                table = (table << np.uint32(1)) | (v & np.uint32(1))
                v >>= np.uint32(1)
            table.setflags(write=False)
            VanDerCorputSource._reverse_cache[bits] = table
        return np.take(table, values)

    def thresholds(self, lanes: int, length: int,
                   offset: int = 0) -> np.ndarray:
        # Lane k walks the index space with its own odd stride (a
        # bijection mod 2**bits, so every lane is perfectly
        # equidistributed over one period) before the radical-inverse
        # bit reversal; distinct strides decorrelate lane pairs the way
        # deterministic-SC designs pair clock-divided streams.
        lane_ids = np.arange(lanes, dtype=np.uint64) + np.uint64(self.seed)
        strides = (
            (lane_ids * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(33)
        ).astype(np.uint32) | np.uint32(1)
        offsets = ((lane_ids * np.uint64(0xD1B54A32D192ED03)) >> np.uint64(40)).astype(
            np.uint32
        )
        # int64 holds stride * t exactly (both under 2**32), and the
        # lookup indexes with it without a conversion pass.
        t = np.arange(offset, offset + length, dtype=np.uint32)
        idx = np.multiply.outer(strides.astype(np.int64), t.astype(np.int64))
        idx += offsets[:, None]
        idx &= (1 << self.bits) - 1
        return self._bit_reverse(idx, self.bits)


def prefix_stable_scheme(scheme: str) -> bool:
    """Whether ``scheme``'s thresholds depend only on the absolute clock.

    Prefix-stable schemes (``lfsr``, ``vdc``) can extend an encoded
    stream bit-exactly via the ``offset`` argument of ``thresholds``;
    the stateful ``random`` scheme cannot, so resumable/progressive
    evaluation is gated on this predicate.
    """
    return getattr(make_source(scheme), "prefix_stable", False)


def make_source(scheme: str, bits: int = 8, seed: int = 1):
    """Construct a threshold source by name.

    ``scheme`` is one of ``"lfsr"``, ``"random"``, ``"vdc"``.
    """
    scheme = scheme.lower()
    if scheme == "lfsr":
        return LfsrSource(bits=bits, seed=max(seed, 1))
    if scheme == "random":
        return NumpyRandomSource(bits=bits, seed=seed)
    if scheme in ("vdc", "lowdiscrepancy", "van-der-corput"):
        return VanDerCorputSource(bits=bits, seed=seed)
    raise ValueError(f"unknown RNG scheme: {scheme!r}")
