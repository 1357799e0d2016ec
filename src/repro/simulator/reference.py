"""Gate-level reference simulator for differential testing.

The production engine (:mod:`repro.simulator.engine`) packs streams 64
clocks to a word, gathers activation streams from value -> stream
tables, tiles its products over rows x channels and, for short phases,
packs both split-unipolar phases into one word.  This module computes
the same counters the *obvious* way: one boolean per gate output per
clock, one output position at a time, one phase at a time.  It shares
only what defines the streams — the threshold sources
(:func:`repro.core.rng.make_source`), the activation lane rotation
``(p + k) % K`` and the seed formulas — so every packing, table, tiling
and phase-packing decision of the engine is checked against it.  It is
slow and meant for small operands.

:func:`reference_counts` is the oracle for one matmul, in every
accumulator and representation; :func:`reference_step` runs it as the
counts step of :meth:`~repro.simulator.network.SCNetwork.forward`
(``network.forward(x, counts=reference_step)``), so whole networks are
checked through the one network walker.
"""

from __future__ import annotations

import numpy as np

from ..core.rng import make_source

__all__ = ["reference_counts", "reference_step"]


def _targets(values: np.ndarray, bits: int) -> np.ndarray:
    """Comparator targets ``round(v * 2**bits)`` of probabilities."""
    # Written so NaN fails it: every comparison with NaN is False.
    if values.size and not (values.min() >= 0 and values.max() <= 1):
        raise ValueError("probabilities must lie in [0, 1]")
    return np.round(values * (1 << bits)).astype(np.uint32)


def reference_counts(acts, weights, *, length: int, bits: int, scheme: str,
                     seed: int, accumulator: str = "or",
                     representation: str = "split-unipolar",
                     chunk_positions: int = 256,
                     bit_offset: int = 0) -> np.ndarray:
    """Gate-level ``(P, C)`` counter values of one SC matmul.

    ``acts`` is ``(P, K)`` in [0, 1], ``weights`` ``(C, K)`` in
    [-1, 1]; the clocks counted are ``[bit_offset, bit_offset +
    length)``.  The streams:

    - a weight element ``(c, k)`` has its own SNG lane ``c * K + k``;
    - the activations of a chunk of ``chunk_positions`` output
      positions share one bank of ``K`` lanes, seeded by the chunk's
      first position, and position ``p`` of the chunk reads element
      ``k`` from lane ``(p + k) % K``;
    - MUX accumulation selects input ``sel[t]`` at clock ``t``, one
      seeded draw per phase.

    Split-unipolar (``representation="split-unipolar"``) runs an up
    phase on the positive weight parts and a down phase on the
    negative ones; each output clock of the ``accumulator`` (``"or"``:
    the wired OR of the AND gates; ``"apc"``: their parallel count;
    ``"mux"``: the selected AND gate) steps the counter up or down.
    Bipolar encodes ``(v + 1) / 2`` and counts the ones of the MUX over
    XNOR gates; ``accumulator`` is ignored.
    """
    acts = np.asarray(acts, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if acts.ndim != 2 or weights.ndim != 2 or acts.shape[1] != weights.shape[1]:
        raise ValueError("acts must be (P, K) and weights (C, K)")
    if accumulator not in ("or", "apc", "mux"):
        raise ValueError(f"unknown accumulator {accumulator!r}")
    if representation not in ("split-unipolar", "bipolar"):
        raise ValueError(f"unknown representation {representation!r}")
    n_pos, fan_in = acts.shape
    n_chan = weights.shape[0]
    counts = np.zeros((n_pos, n_chan), dtype=np.int64)
    if fan_in == 0:
        return counts

    def thresholds(lanes, lane_seed):
        return make_source(scheme, bits=bits, seed=lane_seed).thresholds(
            lanes, length, offset=bit_offset)

    def select(phase):
        draw = np.random.default_rng(seed + 104_729 * (phase + 1))
        return draw.integers(0, fan_in, size=bit_offset + length)[bit_offset:]

    if representation == "bipolar":
        # One phase: XNOR multipliers on (v + 1) / 2 streams, MUX adder.
        phases = [(0, 1, (weights + 1.0) / 2.0, (acts + 1.0) / 2.0, "xnor")]
    else:
        phases = [(0, 1, np.maximum(weights, 0.0), acts, accumulator),
                  (1, -1, np.maximum(-weights, 0.0), acts, accumulator)]
    clocks = np.arange(length)
    for phase, sign, w_values, a_values, gate in phases:
        # A comparator SNG emits 1 while its threshold is below the
        # target: one boolean per clock.
        w_bits = thresholds(n_chan * fan_in, seed + 7_368_787 * (phase + 1)
                            ).reshape(n_chan, fan_in, length) \
            < _targets(w_values, bits)[..., None]
        a_targets = _targets(a_values, bits)
        sel = select(phase) if gate in ("mux", "xnor") else None
        for start in range(0, n_pos, chunk_positions):
            bank = thresholds(fan_in,
                              seed + 15_485_863 * (phase + 1)
                              + 104_651 * start)
            for p in range(min(chunk_positions, n_pos - start)):
                lanes = (p + np.arange(fan_in)) % fan_in
                a_bits = bank[lanes] < a_targets[start + p][:, None]
                if gate == "xnor":
                    products = ~(a_bits[None] ^ w_bits)      # (C, K, L)
                else:
                    products = a_bits[None] & w_bits          # (C, K, L)
                if gate == "or":
                    out = products.any(axis=1)                # (C, L)
                    count = out.sum(axis=1)
                elif gate == "apc":
                    count = products.sum(axis=(1, 2))
                else:                                         # mux, xnor
                    out = products[:, sel, clocks]            # (C, L)
                    count = out.sum(axis=1)
                counts[start + p] += sign * count
    return counts


def reference_step(layer, acts, config, layer_index: int,
                   length: int) -> np.ndarray:
    """A counts step for :meth:`~repro.simulator.network.SCNetwork.
    forward` that runs :func:`reference_counts` on the layer's weight
    plane with the seed and length the layer's own plans use."""
    return reference_counts(
        acts, layer.weight_2d, length=length, bits=config.bits,
        scheme=config.scheme, seed=config.layer_seed(layer_index, 0),
        accumulator=config.accumulator,
        representation=config.representation)
