"""Resumable (anytime) SC evaluation built on popcount additivity.

A stochastic-computing inference at phase length ``n`` is a popcount
over ``n`` clocks of deterministic bitstreams.  With a *prefix-stable*
RNG scheme — the threshold a lane compares against at absolute clock
``t`` depends only on ``(seed, t)``, never on the window being generated
(``lfsr`` and ``vdc``; see :func:`repro.core.rng.prefix_stable_scheme`)
— the counts over the disjoint clock windows ``[0, a)`` and ``[a, a+b)``
sum to exactly the one-shot count over ``[0, a+b)``.  That additivity
makes partial evaluations *resumable*: run short, keep the per-layer
counts, and extend by another window without recomputing the prefix.

The catch is the layer boundary.  The hardware (and the simulator)
converts counts to fixed-point binary between layers, so extending an
upstream layer changes some of a downstream layer's *inputs* — and a
changed input invalidates that row's counts entirely.  The executor
therefore diffs each layer's quantized input matrix against the previous
round: unchanged rows add only the new window's counts
(:meth:`~repro.simulator.engine.SplitMatmulPlan.execute_rows` on a
``bit_offset`` segment plan), changed rows recompute their full window.
Early layers see few changed rows (the input image never changes), so
the work of an extension concentrates where the network actually moved.

The result is **bit-identical** to a one-shot run at the final length:
``network.forward_partial(x, 16).extend(64).logits`` equals
``forward(x)`` under ``replace(config, phase_length=64)`` exactly, for
every accumulator and both representations.  ``layer_phase_lengths``
overrides stay pinned (an override layer does not grow with the base
length — exactly as a one-shot run would treat it).

The executor walks the network with
:meth:`~repro.simulator.network.SCNetwork.forward` — the one network
walker, with its gathers, decoders and layer spans — and supplies only
the counts step: resume or execute, over bit-offset plans from each
layer's own plan cache (:meth:`~repro.simulator.layers.SCLinear.
window_counts`), so a one-shot run and every extension segment share
their plans.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..core.rng import prefix_stable_scheme
from .config import SCConfig

__all__ = ["ProgressiveExecutor", "ProgressiveResult", "check_resumable"]


def check_resumable(config: SCConfig) -> None:
    """Raise ``ValueError`` unless ``config`` can be evaluated
    progressively: its RNG scheme must be prefix-stable (``"random"``
    draws its thresholds statefully, so a longer window rewrites the
    prefix and nothing can be resumed)."""
    if not prefix_stable_scheme(config.scheme):
        raise ValueError(
            f"progressive evaluation needs a prefix-stable RNG "
            f"scheme; {config.scheme!r} regenerates its prefix "
            "at every length — use 'lfsr' or 'vdc'"
        )


class ProgressiveResult:
    """One resumable evaluation: logits now, more precision on demand.

    Returned by :meth:`ProgressiveExecutor.start` (or
    :meth:`SCNetwork.forward_partial`).  ``logits`` holds the counter
    readout at the current base ``phase_length``; :meth:`extend` grows
    the evaluation to a longer length in place — reusing every popcount
    bit the shorter run already paid for — and returns ``self``.
    """

    def __init__(self, executor: "ProgressiveExecutor", x: np.ndarray):
        self._executor = executor
        self._x = x
        self.logits = None
        #: Current base phase length (per-layer lengths derive from it
        #: exactly as in a one-shot run: pooling-fused convs divide by
        #: the pool area, bipolar doubles, overrides pin).
        self.phase_length = 0
        #: Number of :meth:`extend` calls that grew the evaluation.
        self.extensions = 0
        #: Base lengths evaluated so far, in order.
        self.history = []
        self._states = {}      # layer key -> {"acts", "counts", "length"}

    def extend(self, phase_length: int) -> "ProgressiveResult":
        """Grow the evaluation to base ``phase_length`` (monotone).

        Bit-identical to a one-shot run at ``phase_length``; extending
        to the current length is a no-op.  Returns ``self``.
        """
        phase_length = int(phase_length)
        if phase_length < 1:
            raise ValueError("phase_length must be positive")
        if phase_length < self.phase_length:
            raise ValueError(
                f"cannot shrink a resumable evaluation: at "
                f"{self.phase_length}, asked for {phase_length}"
            )
        if phase_length == self.phase_length:
            return self
        first = self.phase_length == 0
        self.logits = self._executor._evaluate(self._x, phase_length,
                                               self._states)
        self.phase_length = phase_length
        self.history.append(phase_length)
        if not first:
            self.extensions += 1
        return self


class ProgressiveExecutor:
    """Builds and extends resumable evaluations for one network.

    Parameters
    ----------
    network:
        The :class:`~repro.simulator.network.SCNetwork` to evaluate.
    config:
        Optional :class:`SCConfig` override (defaults to the
        network's).  ``phase_length`` acts as the *reference* length;
        each evaluation picks its own base length per round.

    Raises
    ------
    ValueError
        If the config is not resumable (:func:`check_resumable`).
    """

    def __init__(self, network, config: SCConfig = None):
        self.network = network
        self.config = config if config is not None else network.config
        check_resumable(self.config)

    def start(self, x: np.ndarray,
              phase_length: int = None) -> ProgressiveResult:
        """Begin a resumable evaluation of ``x`` at ``phase_length``
        (default: the config's reference length)."""
        if phase_length is None:
            phase_length = self.config.phase_length
        x = np.asarray(x, dtype=np.float64)
        return ProgressiveResult(self, x).extend(phase_length)

    def _evaluate(self, x, base_length: int, states: dict) -> np.ndarray:
        """One network walk at base ``base_length``, resuming from (and
        updating) ``states``."""
        def resume(layer, acts, config, key, length):
            return _resume_counts(states, layer, acts, config, key, length)

        return self.network.forward(
            x, config=replace(self.config, phase_length=base_length),
            counts=resume)


def _resume_counts(states: dict, layer, acts: np.ndarray, config: SCConfig,
                   key: int, length: int) -> np.ndarray:
    """Counter values of layer ``key`` at window ``[0, length)``,
    resuming the layer's previous window where its input rows held."""
    state = states.get(key)
    if (state is None or acts.shape != state["acts"].shape
            or length < state["length"]):
        # A shape change cannot happen on a fixed input; a shorter window
        # only via a pinned per-layer override, which keeps length equal
        # to the previous one.  Recompute from scratch.
        counts = layer.window_counts(acts, config, key, length)
    else:
        old_length, counts = state["length"], state["counts"]
        moved = np.any(acts != state["acts"], axis=1)
        if length > old_length:
            kept = np.flatnonzero(~moved)
            if kept.size:
                counts[kept] += layer.window_counts(
                    acts, config, key, length - old_length,
                    offset=old_length, rows=kept)
        changed = np.flatnonzero(moved)
        if changed.size:
            counts[changed] = layer.window_counts(acts, config, key, length,
                                                  rows=changed)
    states[key] = {"acts": acts, "counts": counts, "length": length}
    return counts
