"""Configuration for the functional SC simulator."""

from __future__ import annotations

import operator
from dataclasses import dataclass

__all__ = ["SCConfig"]


@dataclass
class SCConfig:
    """Stochastic-computing simulation parameters.

    Attributes
    ----------
    phase_length:
        Bits per split-unipolar phase.  The paper counts both phases, so
        its "256-long streams" correspond to ``phase_length=128``.
    bits:
        SNG comparator resolution (8 everywhere in the paper).
    scheme:
        RNG scheme: ``"lfsr"`` (hardware-faithful), ``"random"``, ``"vdc"``.
    accumulator:
        ``"or"`` (ACOUSTIC), ``"mux"`` or ``"apc"`` baselines.
    computation_skipping:
        Fuse average pooling into the preceding convolution by shortening
        compute passes (paper Sec. II-C).  When off, pooling averages the
        already-converted binary activations instead.
    seed:
        Base seed; the simulator re-seeds every layer and phase, modelling
        ACOUSTIC's per-layer stream regeneration.
    """

    phase_length: int = 128
    bits: int = 8
    scheme: str = "lfsr"
    accumulator: str = "or"
    computation_skipping: bool = True
    seed: int = 1
    #: ``"split-unipolar"`` (ACOUSTIC) or ``"bipolar"`` (prior-work
    #: XNOR/MUX datapath; layer outputs carry the 1/fan-in MUX scaling).
    representation: str = "split-unipolar"
    #: Optional per-layer phase-length overrides, ``{layer_index: bits}``.
    #: Because every layer converts to binary, stream lengths are a free
    #: per-layer knob — the basis of the mixed-stream-precision
    #: allocation study.
    layer_phase_lengths: dict = None
    #: Working-set budget (KiB) for one product tile of the word
    #: kernel: ``rows x channels x words x lanes`` AND products in the
    #: plane's word type (8, 16, 32 or 64 bits, chosen by stream
    #: length), tiled so each stays inside it; ~L2/L3-sized keeps the
    #: broadcast AND/OR tiles cache-resident.  A compiled ExecutionPlan
    #: may autotune a per-layer budget instead.
    block_kib: int = 4096

    def __post_init__(self):
        if self.phase_length < 1:
            raise ValueError("phase_length must be positive")
        if self.accumulator not in ("or", "mux", "apc"):
            raise ValueError(f"unknown accumulator {self.accumulator!r}")
        if self.representation not in ("split-unipolar", "bipolar"):
            raise ValueError(
                f"unknown representation {self.representation!r}"
            )
        if self.block_kib < 1:
            raise ValueError("block_kib must be positive")
        if self.layer_phase_lengths is not None:
            self.layer_phase_lengths = self._normalized_overrides(
                self.layer_phase_lengths)

    @staticmethod
    def _normalized_overrides(overrides) -> dict:
        """Validate and copy ``layer_phase_lengths``.

        Keys must be layer indices and values positive phase lengths,
        both real ``int``s (``bool`` is rejected explicitly — it passes
        an ``isinstance`` check but is never a meaningful index or
        length).  The mapping is copied so later caller-side mutation
        cannot desynchronize a config from plans or caches keyed on it.
        """
        try:
            items = list(overrides.items())
        except AttributeError:
            raise TypeError(
                "layer_phase_lengths must be a mapping of "
                "{layer_index: phase_length}, got "
                f"{type(overrides).__name__}"
            ) from None
        normalized = {}
        for key, value in items:
            if isinstance(key, bool) or isinstance(value, bool):
                raise TypeError(
                    "layer_phase_lengths entries must be ints, got a "
                    f"bool in {key!r}: {value!r}"
                )
            try:
                key = operator.index(key)
            except TypeError:
                raise TypeError(
                    f"layer_phase_lengths key {key!r} is not an int "
                    "layer index"
                ) from None
            try:
                value = operator.index(value)
            except TypeError:
                raise TypeError(
                    f"layer_phase_lengths[{key}] = {value!r} is not an "
                    "int phase length"
                ) from None
            if key < 0:
                raise ValueError(
                    f"layer_phase_lengths key {key} is negative"
                )
            if value < 1:
                raise ValueError(
                    f"layer_phase_lengths[{key}] = {value} must be "
                    "positive"
                )
            normalized[key] = value
        return normalized

    @property
    def total_length(self) -> int:
        """Stream length in the paper's accounting (2 temporal phases)."""
        return 2 * self.phase_length

    def phase_length_for(self, layer_index: int) -> int:
        """Per-phase stream length for one layer (override-aware)."""
        if self.layer_phase_lengths:
            return self.layer_phase_lengths.get(layer_index,
                                                self.phase_length)
        return self.phase_length

    def layer_seed(self, layer_index: int, phase: int) -> int:
        """Per-layer, per-phase seed — streams are regenerated at every
        layer boundary, which is what removes pooling-induced correlation."""
        return self.seed + 1_000_003 * (layer_index + 1) + 524_287 * phase
