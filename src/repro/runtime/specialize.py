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
- **Autotuned tile budgets** — each layer's tile working set
  (``block_kib``, the budget the engine plans size their row x channel
  tiles from) is picked by a small compile-time measurement pass under
  :data:`AUTOTUNE_CANDIDATES_KIB` and a total time budget, replacing
  the single global ``SCConfig.block_kib``.  Tiling is value-neutral,
  so any choice is bit-identical, and a plan is tuned before it is
  installed, so no thread ever runs a plan while it is retiled.

Compiled kernel plans are cached process-wide, keyed by a fingerprint
over the layer structure, the exact weight bytes, and the stream
parameters — so a serving registry that evicts and re-admits a model,
or any freshly built identical network, installs the cached plans
without encoding a single weight stream.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..simulator import jit as scjit
from ..simulator.layers import GatherPlan, SCConv2d, SCLinear, SCResidual

__all__ = [
    "AUTOTUNE_CANDIDATES_KIB",
    "GatherPlan",
    "KernelPlan",
    "Specialization",
    "TuningBudget",
    "build_kernel_plan",
    "clear_specialization_cache",
    "lookup_kernel_plans",
    "specialization_cache_info",
    "specialization_fingerprint",
    "store_kernel_plans",
]

#: Working-set budgets (KiB) the compile-time measurement pass tries.
AUTOTUNE_CANDIDATES_KIB = (256, 1024, 4096, 16384)

#: Sample positions per autotune probe (one kernel chunk is 256).
_PROBE_POSITIONS = 64


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
    autotuned: bool
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
                 build_seconds: float, autotune_budget_s: float):
        self.plans = plans
        self.from_cache = from_cache
        self.build_seconds = build_seconds
        self.autotune_budget_s = autotune_budget_s

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
                "autotuned": plan.autotuned,
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
            "autotune_budget_s": self.autotune_budget_s,
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

class TuningBudget:
    """The measurement seconds one compile may still spend autotuning,
    across all its layers (building plans and encoding weight streams
    do not count)."""

    def __init__(self, seconds: float):
        self.left = max(0.0, seconds)


def build_kernel_plan(layer, info, fact, index, config,
                      budget: TuningBudget) -> KernelPlan:
    """Specialize one conv/linear layer at compile time.

    ``info``/``fact`` are the layer's node shape info and
    :class:`~repro.ir.passes.GroupFacts`.  The engine plan is the one
    the layer already caches for this configuration, if any, or a new
    one autotuned within ``budget`` *before* it is returned for
    installing — a plan other threads may be running is never retiled.
    """
    length = layer.stream_length(config, index)
    key = layer.plan_key(config, index, length)
    gather, positions = None, 1
    if info.node.kind == "conv":
        gather = layer.gather_plan(info.in_shape)
        positions = gather.positions
    matmul = layer.plans.get(key)
    autotuned = False
    if matmul is None:
        matmul = layer.build_plan(config, index, length)
        t0 = time.perf_counter()
        autotuned = _autotune(matmul, positions, config, t0 + budget.left)
        budget.left -= time.perf_counter() - t0
    return KernelPlan(
        index=index, kind=info.node.kind, variant=key[0], key=key,
        matmul=matmul, gather=gather, phase_length=length,
        block_kib=matmul.block_bytes // 1024, autotuned=autotuned,
        lanes_skipped_fraction=matmul.lanes_skipped_fraction,
        encode_lanes_skipped=matmul.encode_lanes_skipped,
        zero_weight_lanes=fact.zero_weight_lanes, sparsity=fact.sparsity,
        groups=layer.groups,
    )


def _autotune(matmul, positions, config, deadline) -> bool:
    """Retile ``matmul`` to the fastest candidate block budget; returns
    whether more than one budget was measured.

    Any tiling is bit-identical (tiles partition independent
    popcounts), so this is purely a throughput decision.  Probes run
    with ``record=False`` so they never pollute the kernel counters,
    and the whole pass is bounded by the caller's deadline.  Layers
    where every candidate cuts the probe into the same number of tiles
    (all small layers) skip measurement outright.
    """
    default_kib = config.block_kib
    if matmul.fan_in == 0 or matmul.n_chan == 0:
        return False
    rows = min(_PROBE_POSITIONS, max(1, positions))
    # Fast path: if the tiling is insensitive to the budget range,
    # there is nothing to tune.
    tiles = {matmul.retile(kib * 1024).tile_count(rows)
             for kib in (min(AUTOTUNE_CANDIDATES_KIB),
                         max(AUTOTUNE_CANDIDATES_KIB))}
    if len(tiles) == 1 or time.perf_counter() >= deadline:
        matmul.retile(default_kib * 1024)
        return False
    rng = np.random.default_rng(0xB10C)
    sample = rng.random((rows, matmul.fan_in))
    candidates = [default_kib] + [k for k in AUTOTUNE_CANDIDATES_KIB
                                  if k != default_kib]
    matmul.retile(candidates[0] * 1024)
    matmul.execute(sample, record=False)    # warm encode caches
    timings = {}
    for kib in candidates:
        if timings and time.perf_counter() >= deadline:
            break
        matmul.retile(kib * 1024)
        t0 = time.perf_counter()
        matmul.execute(sample, record=False)
        timings[kib] = time.perf_counter() - t0
    best = min(timings, key=timings.get)
    matmul.retile(best * 1024)
    return len(timings) > 1
