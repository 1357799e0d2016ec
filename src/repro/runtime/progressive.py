"""Confidence-gated progressive (anytime) inference policy.

The simulator's resumable evaluation
(:mod:`repro.simulator.progressive`) makes stream length a *runtime*
knob: start short, look at the logits, and pay for more clocks only
when the decision is not yet trustworthy.  This module is the policy on
top — when to stop and when to extend:

- **Margin gate.**  A classification is accepted at base phase length
  ``n`` when the top-1/top-2 logit margin exceeds
  :func:`repro.core.errors.decision_margin_bound` (worst-case
  ``z / sqrt(n)`` stream-noise RMS on a logit difference).  For a batch,
  the *minimum* margin over the batch must clear the bound — one
  undecided sample keeps the whole request extending, preserving the
  single-batch execution shape.
- **RMS floor.**  ``target_rms`` translates into a minimum length via
  the Sec. II-A error model (worst-case value), so a caller can demand
  representational precision independent of the decision margin.
- **Growth schedule.**  Extensions grow geometrically (default 2x)
  toward ``max_phase_length``; popcount resumability means each round
  costs only the *new* window (plus rows invalidated by upstream value
  changes), so the total work of an early exit at length ``l`` is close
  to a one-shot run at ``l``, not the sum of the schedule.

A request that reaches ``max_phase_length`` returns those logits
regardless of margin, so the policy only ever *shortens* requests whose
decision the gate judged already stable — it never degrades a request
below what the fixed-length run at the maximum would produce for the
undecided ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ..core.errors import (decision_margin_bound, length_for_rms_bipolar,
                           length_for_rms_unipolar)

__all__ = ["ProgressivePolicy", "ProgressiveOutcome", "top2_margin",
           "run_progressive"]


@dataclass(frozen=True)
class ProgressivePolicy:
    """When to stop extending a resumable evaluation.

    ``max_phase_length=None`` resolves to the executing config's
    reference ``phase_length`` — "never worse than the fixed-length
    run, often cheaper".  Setting ``margin_z=None`` disables the margin
    gate (the run extends straight to the maximum, useful for measuring
    resumption overhead); ``target_rms=None`` disables the RMS floor.
    """

    start_phase_length: int = 16
    max_phase_length: int = None
    growth: float = 2.0
    margin_z: float = 2.0
    target_rms: float = None

    def __post_init__(self):
        if self.start_phase_length < 1:
            raise ValueError("start_phase_length must be positive")
        if self.max_phase_length is not None \
                and self.max_phase_length < self.start_phase_length:
            raise ValueError(
                "max_phase_length must be >= start_phase_length")
        if self.growth <= 1.0:
            raise ValueError("growth must exceed 1")
        if self.margin_z is not None and self.margin_z <= 0:
            raise ValueError("margin_z must be positive (or None)")
        if self.target_rms is not None and self.target_rms <= 0:
            raise ValueError("target_rms must be positive (or None)")

    @classmethod
    def from_request(cls, spec, default: "ProgressivePolicy" = None
                     ) -> "ProgressivePolicy":
        """Normalize a wire-format policy: ``True`` means the default
        policy; a mapping overrides individual fields (unknown keys
        rejected).  An absent or empty spec (``None``, ``False``,
        ``{}``) returns ``None``: a plain predict."""
        if not spec:
            return None
        base = default if default is not None else cls()
        if spec is True:
            return base
        if not isinstance(spec, dict):
            raise ValueError(
                "progressive must be a boolean or an object of policy "
                f"fields, got {type(spec).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(spec) - known
        if unknown:
            raise ValueError(
                f"unknown progressive policy fields: {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        merged = {f.name: getattr(base, f.name) for f in fields(cls)}
        merged.update(spec)
        return cls(**merged)

    def resolved_max(self, reference_length: int) -> int:
        return (self.max_phase_length if self.max_phase_length is not None
                else reference_length)

    def rms_floor(self, representation: str) -> int:
        """Minimum base phase length satisfying ``target_rms`` at the
        worst-case representable value (Sec. II-A error model)."""
        if self.target_rms is None:
            return 1
        if representation == "bipolar":
            # Worst case v = 0 at total length 2n.
            total = int(length_for_rms_bipolar(0.0, self.target_rms))
            return (total + 1) // 2
        return int(length_for_rms_unipolar(0.5, self.target_rms))


def top2_margin(logits: np.ndarray) -> np.ndarray:
    """Per-sample top-1 minus top-2 logit, ``(..., C) -> (...)``."""
    logits = np.asarray(logits)
    if logits.shape[-1] < 2:
        return np.full(logits.shape[:-1], np.inf)
    part = np.partition(logits, logits.shape[-1] - 2, axis=-1)
    return part[..., -1] - part[..., -2]


@dataclass
class ProgressiveOutcome:
    """What one progressive request settled on."""

    logits: np.ndarray
    #: Final base phase length the request was decided at.
    phase_length: int
    #: Extension rounds taken after the starting length.
    extensions: int
    #: True when the margin gate accepted before ``max_phase_length``.
    early_exit: bool
    #: Minimum top-1/top-2 margin over the batch at the final length.
    margin: float
    #: The gate's bound at the final length (0 with the gate disabled).
    margin_bound: float
    #: Base lengths evaluated, in order.
    history: list


def run_progressive(start_fn, policy: ProgressivePolicy, *,
                    reference_length: int,
                    representation: str = "split-unipolar"
                    ) -> ProgressiveOutcome:
    """Drive one resumable evaluation under ``policy``.

    ``start_fn(phase_length)`` begins the evaluation and returns a
    :class:`~repro.simulator.progressive.ProgressiveResult`; the loop
    extends it geometrically until the margin gate and RMS floor are
    both satisfied or the maximum length is reached.
    """
    max_length = policy.resolved_max(reference_length)
    floor = min(policy.rms_floor(representation), max_length)
    result = start_fn(min(policy.start_phase_length, max_length))
    early_exit = False
    while True:
        length = result.phase_length
        margin = float(np.min(top2_margin(result.logits))) \
            if result.logits.size else math.inf
        bound = 0.0
        if policy.margin_z is not None:
            bound = float(decision_margin_bound(
                length, z=policy.margin_z, representation=representation))
        if length >= max_length:
            break
        # A disabled gate can never accept; with both gates off the run
        # extends straight to the maximum.
        accepted = policy.margin_z is not None or policy.target_rms is not None
        if policy.margin_z is not None and margin < bound:
            accepted = False
        if policy.target_rms is not None and length < floor:
            accepted = False
        if accepted:
            early_exit = True
            break
        result.extend(min(max_length,
                          max(length + 1, int(length * policy.growth))))
    return ProgressiveOutcome(
        logits=result.logits, phase_length=result.phase_length,
        extensions=result.extensions, early_exit=early_exit,
        margin=margin, margin_bound=bound, history=list(result.history),
    )
