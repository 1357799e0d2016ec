"""Per-layer kernel specialization: compile once, skip forever.

While an :class:`~repro.runtime.plan.ExecutionPlan` makes its one
compile walk over the network, :func:`build_kernel_plan` turns the facts
the pass pipeline knows at compile time
(:func:`repro.ir.passes.group_facts`) into one :class:`KernelPlan` per
conv/linear layer, and the plan installs its engine plans in the
layer's own :class:`~repro.simulator.layers.LayerPlanCache` — where
:meth:`~repro.simulator.network.SCNetwork.forward`, the one network
walker, runs them:

- **Gather plans** — conv layers get their precomputed im2col index
  table (:class:`~repro.simulator.layers.GatherPlan`) for the compiled
  input shape.
- **Zero-lane skipping** — the engine's
  :class:`~repro.simulator.engine.SplitMatmulPlan` folds all-zero
  weight-lane masks into the plan: skipped lanes are never encoded,
  packed, ANDed, or popcounted (ACOUSTIC's or-unipolar *skipped* SC).
- **Fixed tile budgets** — every engine plan cuts its row x channel
  tiles once, when it is built, for the config's ``block_kib``; the
  compile reads the plan the layer's own cache holds or builds (the
  same get-or-build a first forward uses), so a compiled plan and a
  first-use plan are one object.  Tiling is value-neutral, and the
  schedule is a function of the network and config alone.

Compiled kernel plans are cached process-wide, keyed by a fingerprint
over the layer structure, the exact weight bytes, and the stream
parameters — so a serving registry that evicts and re-admits a model,
or any freshly built identical network, installs the cached plans
without encoding a single weight stream.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..simulator import jit as scjit
from ..simulator.layers import GatherPlan, SCConv2d, SCLinear, SCResidual

__all__ = [
    "GatherPlan",
    "KernelPlan",
    "Specialization",
    "build_kernel_plan",
    "clear_specialization_cache",
    "lookup_kernel_plans",
    "specialization_cache_info",
    "specialization_fingerprint",
    "store_kernel_plans",
]


@dataclass
class KernelPlan:
    """One specialized layer: engine plan + gather + decision record."""

    index: int
    kind: str                 # "conv" | "linear"
    variant: str              # "split-or" | "split-apc" | "split-mux" | "bipolar"
    #: The layer's plan-cache key the matmul plan is installed under.
    key: tuple
    matmul: object            # SplitMatmulPlan | BipolarMatmulPlan
    gather: GatherPlan        # None for linear layers
    phase_length: int
    block_kib: int
    lanes_skipped_fraction: float
    encode_lanes_skipped: int
    zero_weight_lanes: int
    sparsity: float
    #: Channel groups of a lowered grouped conv (1 elsewhere); the
    #: matmul plan's channel blocks never cross group boundaries.
    groups: int = 1


class Specialization:
    """The kernel plans one compile installed, and what it decided."""

    def __init__(self, plans: dict, *, from_cache: bool,
                 build_seconds: float):
        self.plans = plans
        self.from_cache = from_cache
        self.build_seconds = build_seconds

    def summary(self) -> dict:
        """JSON-ready decision record for describe/metrics/bench."""
        layers = []
        for index in sorted(self.plans):
            plan = self.plans[index]
            layers.append({
                "index": plan.index,
                "kind": plan.kind,
                "groups": plan.groups,
                "variant": plan.variant,
                "phase_length": plan.phase_length,
                "block_kib": plan.block_kib,
                "lanes_skipped_pct": round(
                    100.0 * plan.lanes_skipped_fraction, 2),
                "encode_lanes_skipped": plan.encode_lanes_skipped,
                "zero_weight_lanes": plan.zero_weight_lanes,
                "sparsity": round(plan.sparsity, 4),
            })
        dense = sum(p.matmul.dense_product_lanes for p in
                    self.plans.values())
        active = sum(p.matmul.active_product_lanes for p in
                     self.plans.values())
        return {
            "enabled": True,
            "from_cache": self.from_cache,
            "build_seconds": round(self.build_seconds, 6),
            "jit": scjit.status(),
            "layers": layers,
            "totals": {
                "specialized_layers": len(self.plans),
                "dense_product_lanes": dense,
                "active_product_lanes": active,
                "lanes_skipped_pct": round(
                    100.0 * (1.0 - active / dense), 2) if dense else 0.0,
            },
        }


# --------------------------------------------------------------------
# Fingerprint + artifact cache
# --------------------------------------------------------------------

def specialization_fingerprint(network, input_shape, config) -> str:
    """Content hash of everything a specialization depends on.

    Value-based over the weight *bytes* (not object identity), so a
    registry rebuilding the same model from its seed hits the cache
    even though the arrays are fresh objects.
    """
    digest = hashlib.sha1()
    digest.update(repr((
        tuple(int(d) for d in input_shape),
        config.representation, config.phase_length, config.bits,
        config.scheme, config.accumulator, config.seed,
        config.computation_skipping,
        sorted((config.layer_phase_lengths or {}).items()),
        config.block_kib,
    )).encode())

    def walk(layers, prefix):
        for i, layer in enumerate(layers):
            if isinstance(layer, SCResidual):
                digest.update(f"{prefix}{i}:residual".encode())
                walk(layer.body, f"{prefix}{i}.")
            elif isinstance(layer, (SCConv2d, SCLinear)):
                meta = (type(layer).__name__, layer.weight.shape,
                        getattr(layer, "stride", 0),
                        getattr(layer, "padding", 0),
                        getattr(layer, "pool_size", 1), layer.groups)
                digest.update(repr((prefix, i, meta)).encode())
                digest.update(np.ascontiguousarray(layer.weight).tobytes())
            else:
                digest.update(
                    f"{prefix}{i}:{type(layer).__name__}".encode())

    walk(network.layers, "")
    return digest.hexdigest()


_CACHE_LOCK = threading.Lock()
_ARTIFACT_CACHE = OrderedDict()       # fingerprint -> {index: KernelPlan}
_CACHE_STATS = {"hits": 0, "misses": 0}
_MAX_CACHED = 8


def lookup_kernel_plans(fingerprint: str):
    """The cached ``{index: KernelPlan}`` compiled under
    ``fingerprint`` (a hit), or ``None``."""
    with _CACHE_LOCK:
        plans = _ARTIFACT_CACHE.get(fingerprint)
        if plans is not None:
            _ARTIFACT_CACHE.move_to_end(fingerprint)
            _CACHE_STATS["hits"] += 1
        return plans


def store_kernel_plans(fingerprint: str, plans: dict) -> None:
    """Cache a compile's kernel plans (a miss), LRU beyond
    ``_MAX_CACHED`` fingerprints."""
    with _CACHE_LOCK:
        _CACHE_STATS["misses"] += 1
        _ARTIFACT_CACHE[fingerprint] = plans
        _ARTIFACT_CACHE.move_to_end(fingerprint)
        while len(_ARTIFACT_CACHE) > _MAX_CACHED:
            _ARTIFACT_CACHE.popitem(last=False)


def specialization_cache_info() -> dict:
    with _CACHE_LOCK:
        return {"entries": len(_ARTIFACT_CACHE),
                "hits": _CACHE_STATS["hits"],
                "misses": _CACHE_STATS["misses"]}


def clear_specialization_cache() -> None:
    with _CACHE_LOCK:
        _ARTIFACT_CACHE.clear()
        _CACHE_STATS["hits"] = _CACHE_STATS["misses"] = 0


# --------------------------------------------------------------------
# Compilation
# --------------------------------------------------------------------

def build_kernel_plan(layer, info, fact, index, config) -> KernelPlan:
    """Specialize one conv/linear layer at compile time.

    ``info``/``fact`` are the layer's node shape info and
    :class:`~repro.ir.passes.GroupFacts`.  The engine plan and a conv's
    gather come from the layer's own cache, built there on a miss
    (:meth:`~repro.simulator.layers.SCLinear.matmul_plan`), so a plan a
    forward already built is the one the compile records.
    """
    length = layer.stream_length(config, index)
    key = layer.plan_key(config, index, length)
    gather = (layer.gather_plan(info.in_shape) if info.node.kind == "conv"
              else None)
    matmul = layer.matmul_plan(config, index, length)
    return KernelPlan(
        index=index, kind=info.node.kind, variant=key[0], key=key,
        matmul=matmul, gather=gather, phase_length=length,
        block_kib=matmul.block_bytes // 1024,
        lanes_skipped_fraction=matmul.lanes_skipped_fraction,
        encode_lanes_skipped=matmul.encode_lanes_skipped,
        zero_weight_lanes=fact.zero_weight_lanes, sparsity=fact.sparsity,
        groups=layer.groups,
    )
