"""Per-graph kernel specialization: compile once, skip forever.

:func:`build_specialization` turns the facts the pass pipeline knows at
:class:`~repro.runtime.plan.ExecutionPlan` compile time
(:func:`repro.ir.passes.group_facts`) into per-layer
:class:`KernelPlan`\\ s:

- **Gather plans** — conv layers get a precomputed im2col index table
  (:class:`GatherPlan`), so the hot loop quantizes the *un-duplicated*
  input once and gathers patches with a single ``np.take`` instead of
  window-sliding and re-quantizing ``fan_in``-fold duplicated data.
- **Zero-lane skipping** — the engine's
  :class:`~repro.simulator.engine.SplitMatmulPlan` folds all-zero
  weight-lane masks into the plan: skipped lanes are never encoded,
  packed, ANDed, or popcounted (ACOUSTIC's or-unipolar *skipped* SC).
- **Autotuned tile budgets** — each layer's tile working set
  (``block_kib``, the budget the engine plans size their row x channel
  tiles from) is picked by a small compile-time measurement pass under
  :data:`AUTOTUNE_CANDIDATES_KIB` and a total time budget, replacing
  the single global ``SCConfig.block_kib``.  Tiling is value-neutral,
  so any choice is bit-identical.
- **Optional jit** — the OR/MUX inner loop can run through
  :mod:`repro.simulator.jit` when numba is installed and self-checks
  clean; the pure-numpy path stays canonical.

Everything here is bit-identical to the generic kernels by
construction, verified layer by layer in
``tests/test_plan_specialization.py`` and end-to-end by the runtime
benchmarks' logit comparisons.

Specialization artifacts are cached process-wide, keyed by a
fingerprint over the layer structure, the exact weight bytes, and the
stream parameters — so a serving registry that evicts and re-admits a
model reuses the gather tables and lane masks instead of recompiling
them.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..core.sng import quantize_probability
from ..simulator import jit as scjit
from ..simulator.engine import BipolarMatmulPlan, SplitMatmulPlan
from ..simulator.layers import (SCConv2d, SCLinear, SCResidual,
                                decode_bipolar_conv_counts,
                                decode_bipolar_linear_counts,
                                decode_split_conv_counts,
                                decode_split_linear_counts)
from ..training.im2col import conv_output_size

__all__ = [
    "AUTOTUNE_CANDIDATES_KIB",
    "GatherPlan",
    "KernelPlan",
    "Specialization",
    "build_specialization",
    "clear_specialization_cache",
    "specialization_cache_info",
    "specialization_fingerprint",
]

#: Working-set budgets (KiB) the compile-time measurement pass tries.
AUTOTUNE_CANDIDATES_KIB = (256, 1024, 4096, 16384)

#: Sample positions per autotune probe (one kernel chunk is 256).
_PROBE_POSITIONS = 64


class GatherPlan:
    """Precomputed im2col gather for one conv layer's input shape.

    ``take`` produces exactly ``im2col(x, ...).reshape(-1, fan_in)`` —
    same values, same row order — via one index-table gather.  The
    payoff is where the quantizer runs: the specialized path quantizes
    the ``(N, C, H, W)`` input once and gathers the quantized values,
    instead of quantizing the patch matrix in which every input pixel
    is duplicated up to ``kh * kw`` times.  (Quantization is
    elementwise and maps the 0.0 padding to 0.0, so
    quantize-then-gather equals gather-then-quantize bit for bit.)
    """

    def __init__(self, in_shape: tuple, kh: int, kw: int, stride: int,
                 padding: int):
        c, h, w = (int(d) for d in in_shape)
        oh = conv_output_size(h, kh, stride, padding)
        ow = conv_output_size(w, kw, stride, padding)
        hp, wp = h + 2 * padding, w + 2 * padding
        # Patch-relative flat offsets, ordered (C, kh, kw) to match the
        # weight reshape; window offsets stride over the padded image.
        base = ((np.arange(c)[:, None, None] * hp
                 + np.arange(kh)[None, :, None]) * wp
                + np.arange(kw)[None, None, :]).reshape(-1)
        offset = (np.arange(oh)[:, None] * stride * wp
                  + np.arange(ow)[None, :] * stride).reshape(-1)
        self.indices = np.ascontiguousarray(
            offset[:, None] + base[None, :])        # (oh*ow, C*kh*kw)
        self.in_shape = (c, h, w)
        self.out_hw = (oh, ow)
        self.fan_in = c * kh * kw
        self.padding = padding

    @property
    def positions(self) -> int:
        return self.out_hw[0] * self.out_hw[1]

    def take(self, x: np.ndarray) -> np.ndarray:
        """``(N, C, H, W)`` values -> ``(N * oh * ow, fan_in)`` patches."""
        n = x.shape[0]
        if self.padding:
            p = self.padding
            x = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        flat = np.ascontiguousarray(x).reshape(n, -1)
        cols = np.take(flat, self.indices.reshape(-1), axis=1)
        return cols.reshape(n * self.positions, self.fan_in)


@dataclass
class KernelPlan:
    """One specialized layer: matmul plan + gather + schedule record."""

    index: int
    kind: str                 # "conv" | "linear"
    variant: str              # "split-or" | "split-apc" | "split-mux" | "bipolar"
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
    """A compiled set of per-layer kernel plans plus their executor.

    ``run`` mirrors :meth:`SCNetwork.forward` exactly — same obs layer
    spans, same residual sub-index derivation, same pooling and
    decode arithmetic — but routes every specialized conv/linear
    through its precompiled :class:`KernelPlan`.  Layers without a plan
    fall back to their generic ``forward``.
    """

    def __init__(self, network, config, plans: dict, *,
                 from_cache: bool, build_seconds: float,
                 autotune_budget_s: float):
        self.network = network
        self.config = config
        self.plans = plans
        self.from_cache = from_cache
        self.build_seconds = build_seconds
        self.autotune_budget_s = autotune_budget_s

    # -- execution ---------------------------------------------------

    def run(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        traced = obs.enabled()
        names = self.network._layer_span_names() if traced else None
        for index, layer in enumerate(self.network.layers):
            if traced:
                with obs.span(names[index], category="layer") as span:
                    span.add_counter("samples", x.shape[0])
                    x = self._forward_layer(layer, x, index)
            else:
                x = self._forward_layer(layer, x, index)
        return x

    def _forward_layer(self, layer, x, index: int):
        plan = self.plans.get(index)
        if plan is not None:
            if plan.kind == "conv":
                return self._conv_forward(layer, plan, x)
            return self._linear_forward(layer, plan, x)
        if isinstance(layer, SCResidual):
            # Mirror SCResidual.forward's sub-index derivation so body
            # layers find their plans (and their per-layer seeds).
            out = x
            for offset, sub in enumerate(layer.body):
                out = self._forward_layer(sub, out,
                                          index * 131 + offset + 1)
            if out.shape != x.shape:
                raise ValueError(
                    f"residual body changed shape {x.shape} -> {out.shape}"
                )
            return x + out
        return layer.forward(x, self.config, index)

    def _conv_forward(self, layer, plan, x):
        config = self.config
        n = x.shape[0]
        oh, ow = plan.gather.out_hw
        cols = plan.gather.take(quantize_probability(x, config.bits))
        matmul = plan.matmul
        if plan.variant == "bipolar":
            return decode_bipolar_conv_counts(
                matmul.execute(cols), layer, matmul.length, n, oh, ow)
        counts = matmul.execute(cols, jit_or=_jit_or())
        return decode_split_conv_counts(counts, layer, config,
                                        matmul.length, n, oh, ow,
                                        plan.gather.fan_in)

    def _linear_forward(self, layer, plan, x):
        config = self.config
        matmul = plan.matmul
        values = quantize_probability(x, config.bits)
        if plan.variant == "bipolar":
            return decode_bipolar_linear_counts(matmul.execute(values),
                                                matmul.length)
        counts = matmul.execute(values, jit_or=_jit_or())
        return decode_split_linear_counts(counts, config, matmul.length,
                                          x.shape[-1])

    # -- introspection -----------------------------------------------

    def encode_table_keys(self, max_samples: int) -> list:
        """Every activation encode-table key a forward pass of up to
        ``max_samples`` rows will touch, across all specialized layers.

        Conv layers see ``samples * oh * ow`` activation positions (the
        gathered patch matrix), linear layers one per sample; the engine
        plans enumerate the per-chunk SNG seeds from there.  This is the
        publication manifest for :mod:`repro.runtime.shm`: the parent
        builds exactly these tables once and every pool worker attaches
        them instead of rebuilding.  Deduplicated, insertion-ordered.
        """
        keys = {}
        for index in sorted(self.plans):
            plan = self.plans[index]
            positions = max_samples
            if plan.gather is not None:
                positions = max_samples * plan.gather.positions
            for key in plan.matmul.encode_table_keys(positions):
                keys[key] = None
        return list(keys)

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


def _jit_or():
    """The process-wide fused OR inner loop, or ``None`` (pure numpy)."""
    return scjit.or_popcount_loop()


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
        config.block_kib, config.encode_cache,
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
                        getattr(layer, "pool_size", 1),
                        getattr(layer, "groups", 1))
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

def build_specialization(network, input_shape, infos, config, *, facts,
                         autotune_budget_s: float = 0.25) -> Specialization:
    """Compile (or fetch cached) per-layer kernel plans for a network.

    ``infos``/``facts`` come from the plan's lowering result
    (:func:`repro.ir.passes.group_facts`); the walk mirrors
    ``ExecutionPlan._compile_node`` including the residual sub-index
    derivation.  The returned object is picklable and shares the
    network's layer objects.
    """
    t0 = time.perf_counter()
    key = specialization_fingerprint(network, input_shape, config)
    with _CACHE_LOCK:
        cached = _ARTIFACT_CACHE.get(key)
        if cached is not None:
            _ARTIFACT_CACHE.move_to_end(key)
            _CACHE_STATS["hits"] += 1
    if cached is not None:
        return Specialization(
            network, config, cached, from_cache=True,
            build_seconds=time.perf_counter() - t0,
            autotune_budget_s=autotune_budget_s)

    plans = {}
    deadline = time.perf_counter() + max(0.0, autotune_budget_s)
    with obs.span("plan:specialize", category="plan") as span:
        for index, (info, fact, layer) in enumerate(
                zip(infos, facts, network.layers)):
            _build_node(plans, info, fact, layer, index, config, deadline)
        span.add_counter("specialized_layers", len(plans))
        span.add_counter("encode_lanes_skipped", sum(
            p.encode_lanes_skipped for p in plans.values()))
        span.add_counter("autotuned_layers", sum(
            1 for p in plans.values() if p.autotuned))
    with _CACHE_LOCK:
        _CACHE_STATS["misses"] += 1
        _ARTIFACT_CACHE[key] = plans
        _ARTIFACT_CACHE.move_to_end(key)
        while len(_ARTIFACT_CACHE) > _MAX_CACHED:
            _ARTIFACT_CACHE.popitem(last=False)
    return Specialization(network, config, plans, from_cache=False,
                          build_seconds=time.perf_counter() - t0,
                          autotune_budget_s=autotune_budget_s)


def _build_node(plans, info, fact, layer, index, config, deadline) -> None:
    if isinstance(layer, SCResidual):
        for offset, (sub_info, sub_fact, sub_layer) in enumerate(
                zip(info.body, fact.body, layer.body)):
            _build_node(plans, sub_info, sub_fact, sub_layer,
                        index * 131 + offset + 1, config, deadline)
        return
    # Exact types only: a subclass may override forward (fault
    # injection, experiments), and the specialized executor must never
    # silently bypass that override.
    if type(layer) is SCConv2d:
        plans[index] = _build_conv(layer, info, fact, index, config,
                                   deadline)
    elif type(layer) is SCLinear:
        plans[index] = _build_linear(layer, fact, index, config, deadline)


def _build_conv(layer, info, fact, index, config, deadline) -> KernelPlan:
    kh, kw = layer.weight.shape[2], layer.weight.shape[3]
    gather = GatherPlan(info.in_shape, kh, kw, layer.stride, layer.padding)
    # The dense block-diagonal weight plane: for grouped convs the
    # cross-group lanes are exact zeros, which the split plan's lane
    # skipping (group-aligned via channel_groups) never clocks.
    matmul, variant, length = _build_matmul(layer, layer.weight_2d, index,
                                            config)
    block_kib, autotuned = _autotune(matmul, gather.positions, config,
                                     deadline)
    return KernelPlan(
        index=index, kind="conv", variant=variant, matmul=matmul,
        gather=gather, phase_length=length, block_kib=block_kib,
        autotuned=autotuned,
        lanes_skipped_fraction=matmul.lanes_skipped_fraction,
        encode_lanes_skipped=matmul.encode_lanes_skipped,
        zero_weight_lanes=fact.zero_weight_lanes, sparsity=fact.sparsity,
        groups=layer.groups,
    )


def _build_linear(layer, fact, index, config, deadline) -> KernelPlan:
    matmul, variant, length = _build_matmul(layer, layer.weight, index,
                                            config)
    block_kib, autotuned = _autotune(matmul, 1, config, deadline)
    return KernelPlan(
        index=index, kind="linear", variant=variant, matmul=matmul,
        gather=None, phase_length=length, block_kib=block_kib,
        autotuned=autotuned,
        lanes_skipped_fraction=matmul.lanes_skipped_fraction,
        encode_lanes_skipped=matmul.encode_lanes_skipped,
        zero_weight_lanes=fact.zero_weight_lanes, sparsity=fact.sparsity,
    )


def _build_matmul(layer, weights_2d, index, config):
    """Engine matmul plan for one layer, reusing its warmed streams."""
    seed = config.layer_seed(index, 0)
    block_bytes = config.block_kib * 1024
    channel_groups = getattr(layer, "groups", 1)
    if config.representation == "bipolar":
        length = config.total_length
        stream = layer.packed_weight_streams(
            representation="bipolar", length=length, bits=config.bits,
            scheme=config.scheme, seed=seed)
        matmul = BipolarMatmulPlan(
            weights_2d, length=length, bits=config.bits,
            scheme=config.scheme, seed=seed, block_bytes=block_bytes,
            weight_stream=stream, encode_cache=config.encode_cache,
            channel_groups=channel_groups)
        return matmul, "bipolar", length
    if isinstance(layer, SCConv2d):
        length = layer.phase_length(config, index)
    else:
        length = config.phase_length_for(index)
    streams = layer.packed_weight_streams(
        representation="split-unipolar", length=length, bits=config.bits,
        scheme=config.scheme, seed=seed)
    matmul = SplitMatmulPlan(
        weights_2d, length=length, bits=config.bits, scheme=config.scheme,
        seed=seed, accumulator=config.accumulator,
        block_bytes=block_bytes, weight_streams=streams,
        encode_cache=config.encode_cache, channel_groups=channel_groups)
    return matmul, f"split-{config.accumulator}", length


def _autotune(matmul, positions, config, deadline) -> tuple:
    """Measure candidate block budgets; returns ``(block_kib, tuned)``.

    Any tiling is bit-identical (tiles partition independent
    popcounts), so this is purely a throughput decision.  Probes run
    with ``record=False`` so they never pollute the kernel counters,
    and the whole pass is bounded by the caller's deadline.  Layers
    where every candidate cuts the probe into the same number of tiles
    (all small layers) skip measurement outright.
    """
    default_kib = config.block_kib
    if matmul.fan_in == 0 or matmul.n_chan == 0:
        return default_kib, False
    rows = min(_PROBE_POSITIONS, max(1, positions))
    # Fast path: if the tiling is insensitive to the budget range,
    # there is nothing to tune.
    tiles = {matmul.retile(kib * 1024).tile_count(rows)
             for kib in (min(AUTOTUNE_CANDIDATES_KIB),
                         max(AUTOTUNE_CANDIDATES_KIB))}
    if len(tiles) == 1:
        matmul.retile(default_kib * 1024)
        return default_kib, False
    if time.perf_counter() >= deadline:
        matmul.retile(default_kib * 1024)
        return default_kib, False
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
    return best, len(timings) > 1
