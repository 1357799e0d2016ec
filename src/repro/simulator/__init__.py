"""Bitstream-exact functional simulator for SC CNN inference.

Mirrors the paper's "custom SC functional simulator": given a trained
model, a test set and an SC configuration (stream length, RNG scheme,
accumulator), it computes test accuracy by actually generating, ANDing,
OR-reducing and counting bitstreams.
"""

from .config import SCConfig
from .engine import (ENCODE_CACHE, KERNEL_STATS, ActivationEncodeCache,
                     KernelStats, bipolar_mux_matmul_counts,
                     encode_bipolar_weight_stream, encode_packed,
                     encode_split_weight_streams, popcount_packed,
                     split_or_matmul_counts)
from .fixedpoint import FixedPointNetwork
from .layers import (GatherPlan, LayerPlanCache, SCAvgPool, SCConv2d,
                     SCFlatten, SCLinear, SCReLU, SCResidual)
from .metrics import (confusion_matrix, evaluate_classifier,
                      per_class_accuracy, top_k_accuracy)
from .network import SCNetwork, sc_graph_of
from .progressive import ProgressiveExecutor, ProgressiveResult
from .reference import reference_counts, reference_step

__all__ = [
    "SCConfig",
    "ENCODE_CACHE", "KERNEL_STATS", "ActivationEncodeCache",
    "KernelStats", "bipolar_mux_matmul_counts",
    "encode_bipolar_weight_stream", "encode_packed",
    "encode_split_weight_streams", "popcount_packed",
    "split_or_matmul_counts",
    "FixedPointNetwork",
    "GatherPlan", "LayerPlanCache",
    "SCAvgPool", "SCConv2d", "SCFlatten", "SCLinear", "SCReLU", "SCResidual",
    "SCNetwork", "sc_graph_of",
    "ProgressiveExecutor", "ProgressiveResult",
    "confusion_matrix", "evaluate_classifier", "per_class_accuracy",
    "top_k_accuracy",
    "reference_counts", "reference_step",
]
