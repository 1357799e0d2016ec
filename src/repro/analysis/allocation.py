"""Mixed stream-precision allocation (extension study).

Because ACOUSTIC converts every layer's outputs to binary, the stream
length is a *per-layer* knob, not a global one.  Layers differ wildly in
how much latency they cost per stream bit (a compute-bound conv scales
linearly; the FC layers are DMA-shadowed) and in how noise-sensitive
they are, so a uniform stream length is generally not latency-optimal.

This module implements a greedy accuracy-aware allocator: starting from
a short uniform allocation, repeatedly double the stream length of the
layer with the worst measured SNR-per-latency-cost until the SC accuracy
reaches the target (or lengths cap out).  The result feeds
``SCConfig(layer_phase_lengths=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..simulator.config import SCConfig
from ..simulator.network import SCNetwork
from .snr import layer_snr_profile

__all__ = ["AllocationStep", "AllocationResult", "allocate_stream_lengths"]


@dataclass
class AllocationStep:
    """One greedy refinement step."""

    layer_index: int
    new_phase_length: int
    accuracy: float


@dataclass
class AllocationResult:
    """Final allocation plus its refinement history."""

    layer_phase_lengths: dict
    accuracy: float
    steps: list = field(default_factory=list)

    def mean_phase_length(self) -> float:
        lengths = list(self.layer_phase_lengths.values())
        return float(np.mean(lengths)) if lengths else 0.0


def _stochastic_layers(sc_net: SCNetwork):
    return [i for i, layer in enumerate(sc_net.layers)
            if type(layer).__name__ in ("SCConv2d", "SCLinear")]


def allocate_stream_lengths(network, x_calib, y_calib, *,
                            target_accuracy: float,
                            start_phase: int = 16,
                            max_phase: int = 256,
                            base_config: SCConfig = None,
                            max_steps: int = 16) -> AllocationResult:
    """Greedy per-layer stream-length allocation.

    Parameters
    ----------
    network:
        The trained :class:`~repro.training.network.Sequential`.
    x_calib, y_calib:
        A small calibration set (accuracy probe).
    target_accuracy:
        Stop once the SC accuracy on the calibration set reaches this.
    start_phase / max_phase:
        Initial and maximum per-layer phase length (powers of two).
    """
    base = base_config if base_config is not None else SCConfig()
    probe = SCNetwork.from_trained(network, base)
    stochastic = _stochastic_layers(probe)
    lengths = {i: start_phase for i in stochastic}

    def current_config():
        return replace(base, layer_phase_lengths=dict(lengths))

    def measure():
        sc = SCNetwork.from_trained(network, current_config())
        return sc.accuracy(x_calib, y_calib)

    steps = []
    accuracy = measure()
    while accuracy < target_accuracy and len(steps) < max_steps:
        upgradable = [i for i in stochastic if lengths[i] < max_phase]
        if not upgradable:
            break
        # Pick the layer whose own noise contribution is worst relative
        # to the latency cost of doubling it (cost ~ current length).
        profile = layer_snr_profile(network, x_calib[:4], current_config())
        def badness(i):
            noise = profile[i].noise_rms
            return noise / max(lengths[i], 1)
        worst = max(upgradable, key=badness)
        lengths[worst] *= 2
        accuracy = measure()
        steps.append(AllocationStep(layer_index=worst,
                                    new_phase_length=lengths[worst],
                                    accuracy=accuracy))
    return AllocationResult(layer_phase_lengths=dict(lengths),
                            accuracy=accuracy, steps=steps)
