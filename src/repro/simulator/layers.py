"""Functional-simulator layers (bitstream-exact SC inference).

Each layer consumes and produces binary *values* — exactly like the
hardware, which converts streams back to fixed-point at every layer
boundary (activation counters) and regenerates fresh streams for the next
layer.  Inside a layer, computation is bitstream-exact and runs one
datapath: a conv gathers its patches with a :class:`GatherPlan`, then
:class:`SCConv2d` and :class:`SCLinear` execute the engine's word kernel
— a :class:`~repro.simulator.engine.SplitMatmulPlan` or
:class:`~repro.simulator.engine.BipolarMatmulPlan` kept in the layer's
:class:`LayerPlanCache` — and decode the counters.  The network walker
(:meth:`~repro.simulator.network.SCNetwork.forward`), a compiled
:class:`~repro.runtime.ExecutionPlan` and the resumable
:class:`~repro.simulator.progressive.ProgressiveExecutor` all run these
forwards; only the counts step differs (progressive supplies one that
resumes earlier clock windows, and the tests the gate-level
:func:`~repro.simulator.reference.reference_step`).

Note the hardware operation order: pooling is accumulated by the output
*counters*, i.e. **before** the ReLU that happens at conversion.  SC
network definitions therefore place pooling between the convolution and
its ReLU.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from ..core.sng import quantize_probability
from ..training.im2col import conv_output_size, expand_grouped_weight
from .config import SCConfig
from .engine import BipolarMatmulPlan, SplitMatmulPlan
from .jit import or_popcount_loop

__all__ = ["SCConv2d", "SCLinear", "SCReLU", "SCAvgPool", "SCFlatten",
           "SCResidual", "GatherPlan", "LayerPlanCache", "run_layer"]


class GatherPlan:
    """Precomputed im2col gather for one conv layer's input shape.

    ``take`` produces exactly ``im2col(x, ...).reshape(-1, fan_in)`` —
    same values, same row order — via one index-table gather.  The
    payoff is where the quantizer runs: a conv quantizes the
    ``(N, C, H, W)`` input once and gathers the quantized values,
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


class LayerPlanCache:
    """Thread-safe, bounded LRU of one layer's compiled plans.

    Holds the layer's engine matmul plans, keyed by
    :meth:`SCLinear.plan_key` — everything a plan is a pure function of
    besides the layer's weights, which own the cache — and a conv's
    :class:`GatherPlan` per input shape.  Fixed-length inference uses one
    matmul plan per layer; a progressive schedule adds one per clock
    window, hence the default room for a geometric schedule beside the
    one-shot plan.  Installed plans are never modified, so concurrent
    forwards share them; two threads missing the same key at worst
    build the same plan twice.  The tile budget is not part of the key:
    tiling never changes a bit, so a compiled plan's autotuned tiles
    serve every forward with the layer's config.
    """

    def __init__(self, max_entries: int = 16):
        self.max_entries = max_entries
        self._entries = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        """The plan under ``key``, or ``None``."""
        with self._lock:
            plan = self._entries.get(key)
            if plan is not None:
                self._entries.move_to_end(key)
            return plan

    def install(self, key, plan):
        """Put ``plan`` under ``key`` (replacing any entry); returns it."""
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        return plan

    def get_or_build(self, key, build):
        """The plan under ``key``; ``build()`` makes and installs it on a
        miss, outside the lock (it is the slow part)."""
        plan = self.get(key)
        return plan if plan is not None else self.install(key, build())

    def values(self) -> list:
        with self._lock:
            return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    # Locks are not picklable; process-backed worker pools ship layers
    # (plans included, so workers start warm) and each worker recreates
    # its own lock.
    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()


class _MatmulLayer:
    """What :class:`SCConv2d` and :class:`SCLinear` share: the weight,
    the plan cache and the counts step."""

    groups = 1

    @property
    def weight(self) -> np.ndarray:
        """The layer's weight.  Assigning a new array drops the cached
        plans (and a grouped conv's expanded plane); mutating the array
        in place is not supported, because the cached plans keep the
        streams of the values they were built from."""
        return self._weight

    @weight.setter
    def weight(self, value) -> None:
        value = np.asarray(value, dtype=np.float64)
        self._check_weight(value)
        if value.size and np.abs(value).max() > 1:
            raise ValueError("SC weights must lie in [-1, 1]")
        self._weight = value
        self._weight_2d = None
        self.plans = LayerPlanCache()

    def plan_key(self, config: SCConfig, layer_index: int, length: int,
                 offset: int = 0) -> tuple:
        """Cache key of the plan counting clocks ``[offset, offset +
        length)`` of layer ``layer_index`` under ``config``."""
        variant = ("bipolar" if config.representation == "bipolar"
                   else f"split-{config.accumulator}")
        return (variant, length, config.bits, config.scheme,
                config.layer_seed(layer_index, 0), offset)

    def build_plan(self, config: SCConfig, layer_index: int, length: int,
                   offset: int = 0):
        """A new engine plan for :meth:`plan_key`'s window, tiled for
        ``config.block_kib`` and not installed."""
        common = dict(length=length, bits=config.bits, scheme=config.scheme,
                      seed=config.layer_seed(layer_index, 0),
                      block_bytes=config.block_kib * 1024,
                      bit_offset=offset, channel_groups=self.groups)
        if config.representation == "bipolar":
            return BipolarMatmulPlan(self.weight_2d, **common)
        return SplitMatmulPlan(self.weight_2d,
                               accumulator=config.accumulator, **common)

    def matmul_plan(self, config: SCConfig, layer_index: int, length: int,
                    offset: int = 0):
        """The cached plan for :meth:`plan_key`'s window (built on a
        miss)."""
        return self.plans.get_or_build(
            self.plan_key(config, layer_index, length, offset),
            lambda: self.build_plan(config, layer_index, length, offset))

    def install(self, kernel_plan) -> None:
        """Install a compiled
        :class:`~repro.runtime.specialize.KernelPlan`'s engine plan
        (and a conv's gather) in this layer's cache."""
        self.plans.install(kernel_plan.key, kernel_plan.matmul)
        if kernel_plan.gather is not None:
            self.plans.install(("gather", kernel_plan.gather.in_shape),
                               kernel_plan.gather)

    def window_counts(self, acts: np.ndarray, config: SCConfig,
                      layer_index: int, length: int, offset: int = 0,
                      rows: np.ndarray = None) -> np.ndarray:
        """Word-kernel counts of clocks ``[offset, offset + length)`` for
        every row of ``acts``, or only for the (sorted) ``rows``.  With
        the defaults this is the layers' counts step."""
        plan = self.matmul_plan(config, layer_index, length, offset)
        jit_or = or_popcount_loop()
        if rows is None or rows.size == acts.shape[0]:
            return plan.execute(acts, jit_or=jit_or)
        return plan.execute_rows(acts[rows], rows, jit_or=jit_or)


class SCConv2d(_MatmulLayer):
    """Stochastic convolution with optional fused average pooling.

    ``pool_size > 1`` enables computation skipping: every compute pass is
    shortened by the pooling area and the output counters accumulate the
    window without resetting (paper Sec. II-C), cutting the conv work by
    ``pool_size**2``.

    ``groups > 1`` lowers a grouped (``groups == in_channels``:
    depthwise) convolution.  The compact weight is stored as
    ``(C_out, C_in/groups, kh, kw)``; the kernels consume
    :attr:`weight_2d`, the dense block-diagonal ``(C_out, C_in*kh*kw)``
    expansion, so grouped forward passes are bit-identical to a dense
    conv with block-diagonal weights for every accumulator and
    representation.  OR/APC/MUX accumulation never mixes groups because
    the cross-group weight lanes are exact zeros (and the plans skip
    those all-zero operand lanes and cut their tiles within groups).

    Assign :attr:`weight` to change the weights; in-place mutation of
    the array is not supported (see :attr:`weight`).
    """

    def __init__(self, weight: np.ndarray, stride: int = 1, padding: int = 0,
                 pool_size: int = 1, groups: int = 1):
        self.groups = groups
        self.weight = weight
        self.stride = stride
        self.padding = padding
        self.pool_size = pool_size

    def _check_weight(self, weight: np.ndarray) -> None:
        if weight.ndim != 4:
            raise ValueError("conv weight must be (C_out, C_in/g, kh, kw)")
        if self.groups < 1 or weight.shape[0] % self.groups:
            raise ValueError(f"groups={self.groups} must divide "
                             f"out_channels={weight.shape[0]}")

    @property
    def in_channels(self) -> int:
        """Input channels of the convolution (all groups)."""
        return self.weight.shape[1] * self.groups

    @property
    def weight_2d(self) -> np.ndarray:
        """Dense block-diagonal ``(C_out, C_in*kh*kw)`` weight plane.

        The single weight view the plans encode and stream; a grouped
        conv's expansion is cached until :attr:`weight` is assigned.
        """
        if self.groups == 1:
            # A plain reshape view — never cached, so pickled layers
            # (process-pool shipping) carry the weight bytes only once.
            return self.weight.reshape(self.weight.shape[0], -1)
        if self._weight_2d is None:
            self._weight_2d = expand_grouped_weight(self.weight, self.groups)
        return self._weight_2d

    @property
    def pool_area(self) -> int:
        return self.pool_size * self.pool_size

    def phase_length(self, config: SCConfig, layer_index: int = None) -> int:
        """Per-pass stream length after computation skipping."""
        base = config.phase_length_for(layer_index) if layer_index \
            is not None else config.phase_length
        if self.pool_size > 1 and config.computation_skipping:
            return max(1, base // self.pool_area)
        return base

    def stream_length(self, config: SCConfig, layer_index: int) -> int:
        """Clocks one pass counts: the per-pass phase length, or the
        bipolar stream (both phases' clocks, no computation skipping)."""
        if config.representation == "bipolar":
            return config.total_length
        return self.phase_length(config, layer_index)

    def gather_plan(self, in_shape: tuple) -> GatherPlan:
        """The cached im2col gather for ``(C, H, W)`` inputs."""
        in_shape = tuple(int(d) for d in in_shape)
        kh, kw = self.weight.shape[2], self.weight.shape[3]
        return self.plans.get_or_build(
            ("gather", in_shape),
            lambda: GatherPlan(in_shape, kh, kw, self.stride, self.padding))

    def forward(self, x: np.ndarray, config: SCConfig, layer_index: int,
                counts=None) -> np.ndarray:
        """Gather, count, decode.  ``counts`` replaces the default
        counts step (:meth:`window_counts`) with ``counts(layer, acts,
        config, layer_index, length)``."""
        x = np.asarray(x, dtype=np.float64)
        gather = self.gather_plan(x.shape[1:])
        (oh, ow), p = gather.out_hw, self.pool_size
        if p > 1 and (oh % p or ow % p):
            raise ValueError(
                f"pool window {p} must tile conv output {oh}x{ow}")
        length = self.stream_length(config, layer_index)
        step = counts if counts is not None else type(self).window_counts
        raw = step(self, gather.take(quantize_probability(x, config.bits)),
                   config, layer_index, length)
        raw = raw.reshape(x.shape[0], oh, ow, raw.shape[-1])
        if config.representation == "bipolar":
            # Prior-work datapath: MUX ones-counts, pooling on converted
            # activations.
            return self._pooled(2.0 * raw / length - 1.0).transpose(
                0, 3, 1, 2)
        if p > 1 and config.computation_skipping:
            # Counters accumulate the window across shortened passes.
            values = self._windows(raw).sum(axis=(2, 4)) / (
                self.pool_area * length)
        else:
            # Full-length passes followed by stream-level scaled
            # addition; at the counter this is the window average.
            values = self._pooled(raw / length)
        out = values.transpose(0, 3, 1, 2)
        if config.accumulator == "mux":
            out = out * gather.fan_in  # undo the 1/k MUX scaling
        return out

    def _windows(self, values: np.ndarray) -> np.ndarray:
        """NHWC values split into ``(N, H/p, p, W/p, p, C)`` windows."""
        n, oh, ow, c = values.shape
        p = self.pool_size
        return values.reshape(n, oh // p, p, ow // p, p, c)

    def _pooled(self, values: np.ndarray) -> np.ndarray:
        """NHWC values averaged over the fused pooling window."""
        if self.pool_size > 1:
            return self._windows(values).mean(axis=(2, 4))
        return values


class SCLinear(_MatmulLayer):
    """Stochastic fully-connected layer.

    Assign :attr:`weight` to change the weights; in-place mutation of
    the array is not supported (see :attr:`weight`).
    """

    def __init__(self, weight: np.ndarray):
        self.weight = weight

    @staticmethod
    def _check_weight(weight: np.ndarray) -> None:
        if weight.ndim != 2:
            raise ValueError("linear weight must be (out, in)")

    @property
    def weight_2d(self) -> np.ndarray:
        return self.weight

    def stream_length(self, config: SCConfig, layer_index: int) -> int:
        """Clocks one pass counts: the (override-aware) phase length,
        or the bipolar stream."""
        if config.representation == "bipolar":
            return config.total_length
        return config.phase_length_for(layer_index)

    def forward(self, x: np.ndarray, config: SCConfig, layer_index: int,
                counts=None) -> np.ndarray:
        """Quantize, count, decode (``counts`` as in
        :meth:`SCConv2d.forward`)."""
        length = self.stream_length(config, layer_index)
        step = counts if counts is not None else type(self).window_counts
        raw = step(self, quantize_probability(x, config.bits), config,
                   layer_index, length)
        if config.representation == "bipolar":
            return 2.0 * raw / length - 1.0
        out = raw / length
        if config.accumulator == "mux":
            out = out * x.shape[-1]
        return out


class SCReLU:
    """Counter-side ReLU plus requantization to the activation grid.

    The counter value is fixed-point binary; ReLU clamps the sign and the
    result is stored back to the activation scratchpad at ``bits``
    precision — the value the next layer's SNGs will encode.
    """

    def forward(self, x: np.ndarray, config: SCConfig,
                layer_index: int) -> np.ndarray:
        return quantize_probability(np.clip(x, 0.0, 1.0), config.bits)


class SCAvgPool:
    """Standalone average pooling on converted (binary) activations.

    Present for network descriptions where pooling is not fused into the
    preceding convolution (e.g. pooling after a non-conv layer).
    """

    def __init__(self, pool_size: int):
        self.pool_size = pool_size

    def forward(self, x: np.ndarray, config: SCConfig,
                layer_index: int) -> np.ndarray:
        p = self.pool_size
        n, c, h, w = x.shape
        if h % p or w % p:
            raise ValueError(f"pool window {p} must tile input {h}x{w}")
        return x.reshape(n, c, h // p, p, w // p, p).mean(axis=(3, 5))


class SCFlatten:
    def forward(self, x: np.ndarray, config: SCConfig,
                layer_index: int) -> np.ndarray:
        return x.reshape(x.shape[0], -1)


class SCResidual:
    """Residual block on converted activations.

    The skip addition happens in the fixed-point binary domain (counter
    outputs), so it is exact; saturation to the representable activation
    range is handled by the following :class:`SCReLU`.
    """

    def __init__(self, body):
        self.body = list(body)

    def indexed_body(self, layer_index: int) -> list:
        """``(index, layer)`` of each body layer of the residual at
        ``layer_index``: distinct sub-indices keep per-layer stream
        regeneration (and every cache key and seed derived from it)."""
        return [(layer_index * 131 + offset + 1, layer)
                for offset, layer in enumerate(self.body)]

    def forward(self, x: np.ndarray, config: SCConfig, layer_index: int,
                counts=None) -> np.ndarray:
        out = x
        for index, layer in self.indexed_body(layer_index):
            out = run_layer(layer, out, config, index, counts)
        if out.shape != x.shape:
            raise ValueError(
                f"residual body changed shape {x.shape} -> {out.shape}"
            )
        return x + out


def run_layer(layer, x: np.ndarray, config: SCConfig, layer_index: int,
              counts=None) -> np.ndarray:
    """One layer's forward, handing a ``counts`` step (see
    :meth:`SCConv2d.forward`) to the exact conv, linear and residual
    types only: a subclass that overrides ``forward`` (fault injection,
    experiments) keeps its own behaviour and runs whole."""
    if counts is not None and type(layer) in (SCConv2d, SCLinear,
                                              SCResidual):
        return layer.forward(x, config, layer_index, counts=counts)
    return layer.forward(x, config, layer_index)
