"""Vectorized bitstream kernels for the functional simulator.

The hot path of SC simulation is: encode operands to bitstreams, AND the
pairs, reduce across the fan-in, and count.  The paper notes "SC is
extremely slow to accurately simulate in software"; everything here is
built to make it merely slow:

**Word packing.**  Streams are packed into kernel words sized to the
clocks a plane's streams carry
(:func:`repro.core.bitstream.word_type`): one ``uint8``, ``uint16`` or
``uint32`` word for at most 8, 16 or 32 clocks, else ``uint64`` words
of 64 clocks each.  One ALU op covers a whole word, and a short stream
(a pooled pass, a low-precision layer) moves no zero padding through
the AND/OR/popcount passes.  The tests check every count against the
gate-level oracle of :mod:`repro.simulator.reference`, which keeps one
boolean per gate output per clock.  A planned split-unipolar matmul
whose phase length ``L`` leaves a 64-bit word at most half full
(``1 <= L mod 64 <= 32``) and whose two phases encode the same lanes
lays both phases end to end in one stream of ``2L`` clocks
(:class:`SplitMatmulPlan`): one AND/OR/popcount pass and one encode
gather serve both, and the down phase's bits are counted negatively by
flipping them before the popcount.

**Shared-lane activation encoding.**  One SNG lane per fan-in element,
time-multiplexed across the output positions of a chunk — exactly how
the hardware shares its comparator SNGs across the positions a pass
sweeps.  Lanes are re-seeded per chunk and per phase, so operand pairs
stay decorrelated where it matters (activation lane vs weight lane).

**Activation-encode caching.**  Activations are quantized to ``bits``
(<= 8 everywhere in the paper), so a lane can only ever carry
``2**bits + 1`` distinct values.  :class:`ActivationEncodeCache` builds
a per-``(scheme, bits, seed, lanes, length)`` value -> packed-stream
table once and every later forward pass *gathers* packed words instead
of re-running the comparator and ``np.packbits`` over every position.

**One word kernel.**  The planned matmuls (:class:`SplitMatmulPlan`,
:class:`BipolarMatmulPlan`) are the only word-packed kernel.  They keep
their broadcast ``(rows, channels, words, lanes)`` product intermediate
inside a configurable working-set budget (``block_bytes``): each weight
plane is cut into channel blocks once and every call is tiled over the
rows it actually carries, forming products in per-call scratch.  The
simulator layers keep their plans in per-layer caches; the generic
:func:`split_or_matmul_counts` and :func:`bipolar_mux_matmul_counts`
build a transient plan and execute it.

Per-kernel wall time is recorded once, in the observability layer's
:data:`~repro.obs.KERNEL_COUNTERS` store (``KERNEL_STATS`` here is an
alias of it), and — when tracing is enabled — as ``kernel:*`` spans in
the :mod:`repro.obs` trace tree, timed from the identical clock
readings.  Both are surfaced through the runtime metrics,
``python -m repro bench``, and ``python -m repro profile``.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict

import numpy as np

from .. import obs
from ..core.bitstream import (packed_popcount, pack_words, popcount_words,
                              word_type, words_from_bytes)
from ..core.rng import NumpyRandomSource, make_source

__all__ = ["popcount_packed", "encode_packed", "split_or_matmul_counts",
           "bipolar_mux_matmul_counts", "encode_split_weight_streams",
           "encode_bipolar_weight_stream", "ActivationEncodeCache",
           "ENCODE_CACHE", "KernelStats", "KERNEL_STATS", "SplitMatmulPlan",
           "BipolarMatmulPlan"]

#: Default working-set budget for one product intermediate.
DEFAULT_BLOCK_BYTES = 4 << 20

#: Lane-clocks (lanes x stream length) :func:`encode_packed` encodes at
#: a time: its uint32 thresholds take 16 MiB per slab.
_WEIGHT_SLAB_CLOCKS = 1 << 22

# Consolidated popcount lives in repro.core.bitstream (bitwise_count
# fast path + numpy<2 table fallback in one place); re-exported here
# under the engine's historical name.
popcount_packed = packed_popcount


# Per-kernel accounting lives in repro.obs: KernelStats is the generic
# CounterStore and KERNEL_STATS the process-global instance (one per
# worker process).  Keys are "plan:<variant>" for the planned matmuls,
# "word:<variant>" for the generic ones (e.g. "word:or",
# "word:bipolar") and "encode:*" for the encode sub-stages.  Matmul
# timers are end-to-end, so the encode rows are a *breakdown* of (not
# additional to) the matmul rows.  The historical
# names are kept as aliases so existing consumers keep working.
KernelStats = obs.CounterStore
KERNEL_STATS = obs.KERNEL_COUNTERS

# Kernel sections record flat (calls, seconds) totals and, when tracing
# is enabled, an identical "kernel:<name>" span in the trace tree.
_Timed = obs.kernel_section


def _quantize_targets(values: np.ndarray, bits: int) -> np.ndarray:
    """Comparator targets (integer thresholds-to-beat) for ``values``."""
    values = np.asarray(values, dtype=np.float64)
    # Written so NaN fails it: every comparison with NaN is False.
    if values.size and not (values.min() >= 0 and values.max() <= 1):
        raise ValueError("probabilities must lie in [0, 1]")
    levels = 1 << bits
    return np.round(values * levels).astype(np.uint32)


def _build_encode_table(scheme: str, bits: int, seed, lanes: int,
                        length: int, offset: int = 0) -> np.ndarray:
    """Value -> word-packed stream table, ``(lanes, 2**bits + 1, W)``,
    in the :func:`~repro.core.bitstream.word_type` of its clocks.

    Row ``[k, v]`` is the packed stream a comparator SNG on lane ``k``
    emits for target ``v`` — identical bits to encoding ``v / 2**bits``
    directly, for every representable value at once.  ``offset`` builds
    the table for clock window ``[offset, offset + length)`` — the
    continuation segment of a resumable evaluation.  A tuple ``seed``
    builds the windows of its seeds end to end along time (see
    :func:`_act_thresholds`).

    Clock ``t`` of lane ``k`` is 1 exactly for the targets above its
    threshold, so the table is built by scatter and accumulate: set the
    clock's bit in row ``threshold + 1`` only, then OR every row into
    the next (``np.bitwise_or.accumulate`` along the value axis).  Each
    lane-clock is written once, instead of being compared against all
    ``2**bits + 1`` values.
    """
    with _Timed("encode:table"):
        thresholds = _act_thresholds(scheme, bits, seed, lanes, length,
                                     offset=offset)
        span = thresholds.shape[-1]
        levels = 1 << bits
        dtype = word_type(span)
        n_words = -(-span // (8 * dtype.itemsize))
        table = np.zeros((lanes, levels + 1, n_words), dtype=dtype)
        # The byte view is the np.packbits layout (pack_words): clock t
        # is bit 0x80 >> (t % 8) of byte t // 8.  Bit j of every byte
        # holds clocks j, j + 8, ...: one clock per (lane, byte), so no
        # scatter index repeats within a pass.
        as_bytes = table.reshape(lanes * (levels + 1), n_words).view(np.uint8)
        rows = (np.arange(lanes) * (levels + 1) + 1)[:, None] + thresholds
        for j in range(min(8, span)):
            as_bytes[rows[:, j::8], np.arange(j, span, 8) // 8] |= \
                np.uint8(0x80 >> j)
        np.bitwise_or.accumulate(table, axis=1, out=table)
        return table


class ActivationEncodeCache:
    """LRU cache of :func:`_build_encode_table` results.

    Keyed by ``(scheme, bits, seed, lanes, length, offset)`` —
    everything the table is a pure function of; ``seed`` is a tuple of
    phase seeds for the table of a packed split-unipolar plane, whose
    streams carry one ``length``-clock window per seed.  The clock-window
    ``offset`` in the key keeps a continuation segment of a resumable
    run from ever aliasing the table of a from-zero run with the same
    length.  The per-chunk activation seed is part of the key, so a
    steady-traffic runtime hits this cache on every chunk after the
    first pass over a given layer shape.  Eviction is by total byte
    budget (``REPRO_ENCODE_CACHE_MB``, default 128) so huge layers
    cannot wedge a worker.

    Every process owns its entries: whatever runs a plan builds the
    tables that plan touches on first use, and every entry counts
    against the budget.  A forked pool worker starts with copy-on-write
    copies of the entries its parent held at the fork.

    Safe for concurrent readers; a race at worst builds the same
    deterministic table twice.
    """

    def __init__(self, max_bytes: int = None):
        if max_bytes is None:
            max_bytes = int(float(os.environ.get("REPRO_ENCODE_CACHE_MB",
                                                 "128")) * (1 << 20))
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self._bytes = 0
        self._entries = OrderedDict()
        self._lock = threading.Lock()

    def table(self, scheme: str, bits: int, seed, lanes: int,
              length: int, offset: int = 0) -> np.ndarray:
        key = (scheme, bits, seed, lanes, length, offset)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
        built = _build_encode_table(scheme, bits, seed, lanes, length, offset)
        with self._lock:
            self.misses += 1
            if key not in self._entries:
                self._entries[key] = built
                self._bytes += built.nbytes
                self._evict_locked()
            return self._entries[key]

    def _evict_locked(self):
        """Drop the oldest entries beyond the byte budget (but always
        keep one, so a single over-budget table still serves)."""
        while self._bytes > self.max_bytes and len(self._entries) > 1:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted.nbytes

    def counters(self) -> tuple:
        """``(hits, misses)`` since construction (or :meth:`clear`)."""
        with self._lock:
            return self.hits, self.misses

    def info(self) -> dict:
        """Point-in-time cache accounting (entries, bytes)."""
        with self._lock:
            return {"entries": len(self._entries),
                    "bytes": self._bytes,
                    "max_bytes": self.max_bytes,
                    "hits": self.hits,
                    "misses": self.misses}

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)


#: Process-global activation-encode table cache.
ENCODE_CACHE = ActivationEncodeCache()


def _act_thresholds(scheme: str, bits: int, seed, lanes: int,
                    length: int, offset: int = 0) -> np.ndarray:
    """Comparator thresholds of the activation SNG bank, ``(lanes,
    n * length)``.

    ``seed`` is one seed (``n = 1``) or a tuple of ``n`` phase seeds,
    whose windows ``[offset, offset + length)`` are laid end to end
    along time: the streams of a packed split-unipolar plane.
    """
    seeds = seed if isinstance(seed, tuple) else (seed,)
    windows = [make_source(scheme, bits=bits, seed=s).thresholds(
        lanes, length, offset=offset) for s in seeds]
    return windows[0] if len(windows) == 1 else np.concatenate(windows,
                                                               axis=-1)


_ROTATION_MEMO = OrderedDict()
_ROTATION_LOCK = threading.Lock()


def _lane_rotation(n_pos: int, fan_in: int, scale: int = 1) -> np.ndarray:
    """Rotating SNG lane assignment: position ``p`` reads fan-in element
    ``k`` from lane ``(p + k) % fan_in``.

    A bank of ``fan_in`` shared SNGs serves every position of a chunk,
    but with a fixed assignment any residual correlation between an
    activation lane and the weight lane it meets becomes a *systematic*
    bias repeated at every position.  Rotating the assignment per
    position re-randomizes the pairing so the bias averages out — at
    zero hardware cost (a barrel shift on the SNG bus) and zero extra
    encode work (the per-lane value -> stream tables are unchanged;
    only the gather indices rotate).

    ``scale`` pre-multiplies the lane index (the encode-table gather
    wants flat rows ``lane * (levels + 1) + target``).  The arrays are
    shape-deterministic and read-only, so they are memoized — chunking
    makes every forward pass request the same few shapes.
    """
    key = (n_pos, fan_in, scale)
    with _ROTATION_LOCK:
        hit = _ROTATION_MEMO.get(key)
        if hit is not None:
            _ROTATION_MEMO.move_to_end(key)
            return hit
    p = np.arange(n_pos)[:, None]
    k = np.arange(fan_in)[None, :]
    rotation = ((p + k) % fan_in) * scale
    rotation.setflags(write=False)
    with _ROTATION_LOCK:
        _ROTATION_MEMO[key] = rotation
        while len(_ROTATION_MEMO) > 32:
            _ROTATION_MEMO.popitem(last=False)
    return rotation


def _lane_rotation_rows(positions: np.ndarray, fan_in: int,
                        scale: int = 1) -> np.ndarray:
    """:func:`_lane_rotation` rows for explicit chunk-local positions.

    A row-subset re-execution (resumable extension of only the changed
    output positions) must reproduce each position's original lane
    assignment, which depends on its place *within the chunk* — not on
    how many rows are being re-encoded.  Not memoized: subsets vary.
    """
    positions = np.asarray(positions)
    k = np.arange(fan_in)[None, :]
    return ((positions[:, None] + k) % fan_in) * scale


def _time_major(words: np.ndarray) -> np.ndarray:
    """Swap the last two axes to the kernels' time-major word layout.

    The matmul kernels hold word-packed streams as ``(..., W, K)`` —
    words outermost, lanes innermost — so the fan-in OR/popcount
    reduction runs over the *last* (contiguous) axis, which is the
    layout numpy's pairwise ufunc reduction is fast on (~6x over a
    middle-axis reduce at conv shapes).
    """
    return np.ascontiguousarray(np.swapaxes(words, -1, -2))


def _encode_chunk_words(values: np.ndarray, length: int, bits: int,
                        scheme: str, seed: int,
                        lane_subset: np.ndarray = None, offset: int = 0,
                        positions: np.ndarray = None) -> np.ndarray:
    """Shared-lane chunk encode, time-major: ``(P, K) -> (P, W, K)``.

    A bank of ``fan_in`` SNG lanes is time-multiplexed across the
    chunk's positions with the :func:`_lane_rotation` assignment; bit
    ``[p, t, k]`` is ``threshold[(p+k) % K, offset + t] <
    round(v[p, k] * 2**bits)``.  For ``bits <= 8`` this is a pure
    ``np.take`` gather from the :data:`ENCODE_CACHE` value -> stream
    table (one row per (lane, value) pair); wider comparators, whose
    tables would hold ``2**bits + 1`` rows per lane, compare against
    the thresholds directly.

    ``lane_subset`` (sorted fan-in indices) restricts the encode to the
    requested lanes, returning ``(P, W, len(lane_subset))`` — the same
    words a full encode would produce at those columns.  The SNG bank
    (thresholds, rotation, cache table) always spans the *full* fan-in,
    so a subset encode is a pure column selection, never a re-seeding:
    this is how precompiled plans skip all-zero weight lanes without
    perturbing a single bit of the lanes they keep.

    ``offset`` encodes the clock window ``[offset, offset + length)``
    (a resumable continuation segment); ``positions`` gives explicit
    chunk-local row positions for the lane rotation when ``values``
    holds only a subset of a chunk's rows — row ``i`` gets the exact
    lane assignment it would have at position ``positions[i]`` of a
    full-chunk encode.

    A tuple ``seed`` encodes one ``length``-clock window per seed, end
    to end along time (a packed split-unipolar plane; see
    :func:`_act_thresholds`), so ``W`` covers ``len(seed) * length``
    clocks.
    """
    lanes = values.shape[1]
    if lane_subset is not None and lane_subset.size == lanes:
        lane_subset = None
    if bits <= 8 and lanes > 0:
        traced = obs.enabled()
        if traced:
            h0, m0 = ENCODE_CACHE.counters()
        table = ENCODE_CACHE.table(scheme, bits, seed, lanes, length,
                                   offset=offset)
        with _Timed("encode:act") as section:
            if traced:
                h1, m1 = ENCODE_CACHE.counters()
                section.add_counter("encode_cache_hits", h1 - h0)
                section.add_counter("encode_cache_misses", m1 - m0)
            if positions is None:
                rotation = _lane_rotation(*values.shape,
                                          scale=table.shape[1])
            else:
                rotation = _lane_rotation_rows(positions, lanes,
                                               scale=table.shape[1])
            if lane_subset is not None:
                rotation = rotation[:, lane_subset]
                values = values[:, lane_subset]
            rows = rotation + _quantize_targets(values, bits)
            flat = table.reshape(-1, table.shape[-1])
            return _time_major(np.take(flat, rows, axis=0))
    with _Timed("encode:act"):
        thresholds = _act_thresholds(scheme, bits, seed, lanes, length,
                                     offset=offset)
        if positions is None:
            rotation = _lane_rotation(*values.shape)
        else:
            rotation = _lane_rotation_rows(positions, lanes)
        if lane_subset is not None:
            rotation = rotation[:, lane_subset]
            values = values[:, lane_subset]
        targets = _quantize_targets(values, bits)
        thr = thresholds[rotation]
        return _time_major(pack_words(thr < targets[:, :, None],
                                      word_type(thr.shape[-1])))


def _group_channel_bounds(n_chan: int, channel_groups: int) -> list:
    """``(start, stop)`` output-channel ranges, one per channel group.

    The group-aligned tiling constraint of a lowered grouped conv:
    channel blocks are carved within these bounds so no block mixes
    output channels from different groups (whose active fan-in lanes are
    disjoint under a block-diagonal weight plane).
    """
    if channel_groups <= 1:
        return [(0, n_chan)]
    size = n_chan // channel_groups
    return [(g * size, (g + 1) * size) for g in range(channel_groups)]


def encode_packed(values: np.ndarray, length: int, bits: int, scheme: str,
                  seed: int, offset: int = 0) -> np.ndarray:
    """Encode probabilities to bit-packed streams, one lane per element.

    Returns shape ``values.shape + (ceil(length / 8),)``.  This is the
    *weight* encoding path — every ``(channel, k)`` weight element keeps
    its own SNG lane; activations use the shared-lane chunk encoders.
    ``offset`` encodes clocks ``[offset, offset + length)``.

    Element ``i`` (row-major) is lane ``i`` of ``make_source(scheme,
    bits=bits, seed=seed)``.  The lanes are encoded in slabs of at most
    ``_WEIGHT_SLAB_CLOCKS`` lane-clocks, so the threshold and comparator
    temporaries stay bounded whatever the plane size.
    """
    if length < 1:
        raise ValueError("stream length must be positive")
    values = np.asarray(values, dtype=np.float64)
    flat = values.reshape(-1)
    out = np.empty((flat.size, (length + 7) // 8), dtype=np.uint8)
    first = make_source(scheme, bits=bits, seed=seed)
    slab = max(1, _WEIGHT_SLAB_CLOCKS // length)
    for start in range(0, flat.size, slab):
        targets = _quantize_targets(flat[start:start + slab], bits)
        # Lane k of an lfsr or vdc source depends only on seed + k
        # (``first.seed`` is the seed after make_source clamps an lfsr
        # seed of 0 to 1), so each slab re-seeds.  The stateful random
        # source keeps drawing from its one generator, in lane order.
        source = first if isinstance(first, NumpyRandomSource) else \
            make_source(scheme, bits=bits, seed=first.seed + start)
        thresholds = source.thresholds(targets.size, length, offset=offset)
        out[start:start + slab] = np.packbits(thresholds < targets[:, None],
                                              axis=-1)
    return out.reshape(values.shape + out.shape[-1:])


def encode_split_weight_streams(weights: np.ndarray, *, length: int,
                                bits: int, scheme: str, seed: int,
                                offset: int = 0) -> tuple:
    """Pre-encode the two split-unipolar weight phase streams.

    Weight streams are constant for a fixed ``(length, bits, scheme,
    seed, offset)``, so callers running many forward passes encode them
    once and pass the result to :func:`split_or_matmul_counts` via
    ``weight_streams``.  Returns a 2-tuple of ``(w_part, w_packed)``
    pairs — the up (positive) and down (negative) phase — bit-identical
    to what the matmul would generate internally.  ``offset`` encodes
    the continuation window ``[offset, offset + length)`` for resumable
    extension segments.
    """
    weights = np.asarray(weights, dtype=np.float64)
    with _Timed("encode:weights"):
        phases = []
        for phase, w_part in ((0, np.maximum(weights, 0.0)),
                              (1, np.maximum(-weights, 0.0))):
            w_packed = encode_packed(w_part, length, bits, scheme,
                                     seed=seed + 7_368_787 * (phase + 1),
                                     offset=offset)
            phases.append((w_part, w_packed))
        return tuple(phases)


def encode_bipolar_weight_stream(weights: np.ndarray, *, length: int,
                                 bits: int, scheme: str, seed: int,
                                 offset: int = 0) -> np.ndarray:
    """Pre-encode the bipolar weight streams for the XNOR/MUX datapath.

    Bit-identical to the encoding :func:`bipolar_mux_matmul_counts`
    performs internally; pass the result back via ``weight_stream``.
    """
    weights = np.asarray(weights, dtype=np.float64)
    with _Timed("encode:weights"):
        return encode_packed((weights + 1.0) / 2.0, length, bits, scheme,
                             seed=seed + 7_368_787, offset=offset)


def _mux_select_matrix(fan_in: int, length: int, seed: int,
                       offset: int = 0) -> np.ndarray:
    """One-hot (fan_in, length) selection for MUX accumulation, packed.

    The select draw at clock ``t`` depends only on ``(seed, t)`` — a
    seeded ``default_rng`` emits the same leading integers for any
    requested size — so ``offset`` slices the window ``[offset,
    offset + length)`` out of one longer draw and MUX accumulation
    stays prefix-stable like the threshold sources.
    """
    rng = np.random.default_rng(seed)
    select = rng.integers(0, fan_in, size=offset + length)[offset:]
    onehot = (np.arange(fan_in)[:, None] == select[None, :]).astype(np.uint8)
    return np.packbits(onehot, axis=-1)


def split_or_matmul_counts(acts: np.ndarray, weights: np.ndarray, *,
                           length: int, bits: int, scheme: str, seed: int,
                           accumulator: str = "or",
                           chunk_positions: int = 256,
                           weight_streams: tuple = None,
                           block_bytes: int = None,
                           start_bit: int = 0) -> np.ndarray:
    """Bitstream-exact split-unipolar matrix multiply.

    Parameters
    ----------
    acts:
        ``(P, K)`` activation values in [0, 1] (P output positions, K
        fan-in).
    weights:
        ``(C, K)`` signed weights in [-1, 1] (C output channels).
    length:
        Per-phase stream length in clocks.
    start_bit:
        Count the clock window ``[start_bit, start_bit + length)``
        instead of ``[0, length)``.  With a prefix-stable RNG scheme,
        counts over disjoint windows sum to the one-shot count over
        their union — the additivity the resumable evaluation path is
        built on.  Pre-encoded ``weight_streams`` must be encoded at
        the same ``start_bit``.
    accumulator:
        ``"or"`` — OR-reduce product streams (ACOUSTIC);
        ``"apc"`` — exact popcount across fan-in (binary accumulation);
        ``"mux"`` — stream-level k:1 multiplexing (scaled addition).
    weight_streams:
        Optional pre-encoded phase streams from
        :func:`encode_split_weight_streams` (same ``length``/``bits``/
        ``scheme``/``seed``); skips the per-call weight encoding.
    block_bytes:
        Working-set budget for one product tile (default
        :data:`DEFAULT_BLOCK_BYTES`).

    Returns
    -------
    ``(P, C)`` signed counter values: up-phase count minus down-phase
    count.  Divide by ``length`` to decode (for "mux", multiply by the
    fan-in as well to undo the scaling).  The matmul builds a transient
    :class:`SplitMatmulPlan` and executes it once.
    """
    acts, weights = _matmul_operands(acts, weights)
    if accumulator not in ("or", "apc", "mux"):
        raise ValueError(f"unknown accumulator {accumulator!r}")
    if weight_streams is None:
        # Weight streams: one lane per (channel, k) element, regenerated
        # per phase with an independent seed space.
        weight_streams = encode_split_weight_streams(
            weights, length=length, bits=bits, scheme=scheme, seed=seed,
            offset=start_bit
        )
    if any(w_packed.shape[:2] != weights.shape
           for _, w_packed in weight_streams):
        raise ValueError("weight_streams do not match the weight shape")
    n_pos, fan_in = acts.shape
    n_chan = weights.shape[0]
    counts = np.zeros((n_pos, n_chan), dtype=np.int64)
    if fan_in == 0 or n_pos == 0 or n_chan == 0:
        return counts
    with _Timed(f"word:{accumulator}") as section:
        section.add_counter("positions", n_pos)
        section.add_counter("channels", n_chan)
        # Upper bound, as in LayerPlan: operand gating skips the lanes
        # whose weight phase component is zero.
        section.add_counter("product_bits",
                            2 * n_pos * n_chan * fan_in * length)
        # record=False: this section already times the call.
        return SplitMatmulPlan(
            weights, length=length, bits=bits, scheme=scheme, seed=seed,
            accumulator=accumulator, block_bytes=block_bytes,
            chunk_positions=chunk_positions, weight_streams=weight_streams,
            bit_offset=start_bit,
        ).execute(acts, record=False)


def _matmul_operands(acts, weights) -> tuple:
    """``(acts, weights)`` as float64, checked to be ``(P, K)`` and
    ``(C, K)``."""
    acts = np.asarray(acts, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if acts.ndim != 2 or weights.ndim != 2 or acts.shape[1] != weights.shape[1]:
        raise ValueError("acts must be (P, K) and weights (C, K)")
    return acts, weights


class _NullSection:
    """Timing-section stand-in for unrecorded runs: the generic
    matmuls (:func:`split_or_matmul_counts`,
    :func:`bipolar_mux_matmul_counts`), which time the call in their own
    ``word:*`` section."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def add_counter(self, name, value=1):
        pass


_NULL_SECTION = _NullSection()


def _lane_span(active, c0: int, c1: int, n_lanes: int) -> tuple:
    """``(first, one past the last)`` lane any of channels ``c0:c1`` is
    active on; ``(0, n_lanes)`` when ``active`` is ``None``, ``(0, 0)``
    when none is."""
    if active is None:
        return 0, n_lanes
    used = np.flatnonzero(active[c0:c1].any(axis=0))
    if used.size == 0:
        return 0, 0
    return int(used[0]), int(used[-1]) + 1


def _plane_blocks(active, n_lanes: int, n_chan: int, lane_bytes: int,
                  block_bytes: int, channel_groups: int) -> list:
    """Cut one (channel, lane) weight plane into channel blocks.

    ``active`` is the ``(C, n_lanes)`` mask of nonzero weight words over
    the lanes the activation words carry, or ``None`` when every lane
    counts (the bipolar XNOR, where a zero weight is a half-density
    stream, not silence).  Blocks are cut inside each of
    ``channel_groups`` equal channel groups, in equal widths no wider
    than one activation row times the group's lane span fits
    ``block_bytes`` (``channels x lanes x lane_bytes``, ``lane_bytes``
    being one lane's stream: ``W`` words of the plane's word type); the
    rows a call carries are tiled at run time (:func:`_row_step`).  Each
    block ANDs a view of the span from its first to its last active
    lane: the whole union for a dense block, the group's span for a
    grouped conv.
    Inactive lanes inside the span hold all-zero weight words, exact
    no-ops for the OR and APC reductions.

    Returns ``[(c0, c1, lanes)]`` with ``lanes`` a ``slice``; the weight
    words are sliced at run time, so a plan never holds (or pickles) a
    second copy.  Blocks without an active lane contribute nothing and
    are dropped.
    """
    blocks = []
    for g0, g1 in _group_channel_bounds(n_chan, channel_groups):
        lo, hi = _lane_span(active, g0, g1, n_lanes)
        if g1 == g0 or hi == lo:
            continue
        width = _balanced(g1 - g0, _row_fit(lane_bytes * (hi - lo),
                                            block_bytes))
        for c0 in range(g0, g1, width):
            c1 = min(c0 + width, g1)
            b0, b1 = _lane_span(active, c0, c1, n_lanes)
            if b1 > b0:
                blocks.append((c0, c1, slice(b0, b1)))
    return blocks


def _row_fit(row_bytes: int, block_bytes: int) -> int:
    """How many ``row_bytes``-byte rows fit ``block_bytes`` (at least
    one)."""
    return max(1, block_bytes // row_bytes)


def _balanced(total: int, most: int) -> int:
    """Part size that splits ``total`` into the fewest parts of at most
    ``most``, as equal as possible (the last may be smaller)."""
    parts = -(-total // most)
    return -(-total // parts)


def _row_step(rows: int, row_bytes: int, block_bytes: int) -> int:
    """Rows per tile of a block whose one-row product is ``row_bytes``
    bytes: as many as fit the budget, balanced over ``rows``."""
    return _balanced(rows, _row_fit(row_bytes, block_bytes))


def _run_tiles(out, a_words, plane, *, op: str, block_bytes: int,
               scratch: np.ndarray, jit_or=None) -> int:
    """Accumulate one chunk's activation words into ``out`` (``(R, C)``).

    ``a_words`` is the chunk's ``(R, W, lanes)`` time-major activation
    words for ``plane`` (a :class:`_Plane`).  Every block is tiled over
    the chunk's rows (:func:`_row_step`) and each tile's products are
    formed in ``scratch`` (bytes, viewed as the plane's words;
    ``out=``), so no tile allocates its intermediate.  ``op`` is
    ``"or"`` (AND, OR over lanes, popcount),
    ``"apc"`` (AND, popcount over lanes and words) or ``"xnor"`` (the
    bipolar gated XNOR, formed as XOR against pre-inverted weights, then
    OR and popcount).  The counts enter ``out`` with the plane's
    ``sign``; a packed plane's ``flip`` clocks (its down phase) are
    inverted before the popcount instead, which then over-counts by
    ``bias`` per reduced word row (per lane for APC), subtracted per
    tile.  ``jit_or`` replaces the ``"or"`` reduction with a fused loop
    that applies ``flip`` itself (64-bit words only).  Returns the
    tiles run.
    """
    rows = a_words.shape[0]
    combine = np.bitwise_xor if op == "xnor" else np.bitwise_and
    flip, bias = plane.flip, plane.bias
    tiles = 0
    for c0, c1, lanes in plane.blocks:
        ww = plane.w_words[c0:c1, :, lanes]
        step = _row_step(rows, ww.nbytes, block_bytes)
        for r0 in range(0, rows, step):
            r1 = min(r0 + step, rows)
            aw = a_words[r0:r1, :, lanes]
            if jit_or is not None:
                counts = jit_or(aw, ww, flip)
            else:
                prods = scratch[:(r1 - r0) * ww.nbytes].view(
                    ww.dtype).reshape((r1 - r0,) + ww.shape)
                combine(aw[:, None], ww[None], out=prods)
                if op == "apc":
                    if bias:
                        np.bitwise_xor(prods, flip[:, None], out=prods)
                    counts = popcount_words(prods, axis=(-2, -1))
                else:
                    acc = np.bitwise_or.reduce(prods, axis=-1)
                    if bias:
                        np.bitwise_xor(acc, flip, out=acc)
                    counts = popcount_words(acc, axis=-1)
            if bias:
                counts -= bias * (ww.shape[-1] if op == "apc" else 1)
            if plane.sign > 0:
                out[r0:r1, c0:c1] += counts
            else:
                out[r0:r1, c0:c1] -= counts
            tiles += 1
    return tiles


def _window_words(packed: list, length: int) -> np.ndarray:
    """Word-pack byte-packed ``length``-clock streams laid end to end
    along time: stream ``i`` of ``packed`` fills clocks ``[i * length,
    (i + 1) * length)``, in the word type of all ``len(packed) *
    length`` clocks.  One stream, or streams of whole bytes, concatenate
    byte-wise; others bit by bit."""
    dtype = word_type(len(packed) * length)
    if len(packed) == 1 or length % 8 == 0:
        return words_from_bytes(np.concatenate(packed, axis=-1), dtype)
    return pack_words(np.concatenate(
        [np.unpackbits(p, axis=-1, count=length) for p in packed],
        axis=-1), dtype)


class _Plane:
    """One weight plane of a planned matmul: the phases it lays along
    time, its weight words and the channel blocks they are cut into.

    ``windows`` names the phases whose ``length``-clock windows the
    plane's streams carry end to end — ``(0,)`` or ``(1,)`` for one
    phase, ``(0, 1)`` for a packed split-unipolar pair.  A lone phase
    adds its counts with its ``sign`` (-1 for the down phase).  A packed
    pair counts its down phase negatively within the one popcount:
    ``flip`` (``(W,)`` words) marks the down-phase clocks, and with them
    inverted the popcount reads ``up - down + bias``, ``bias`` being the
    number of flipped clocks (``L``).  ``flip`` is all zero otherwise.
    Every word of the plane is of the word type of its
    ``len(windows) * L`` clocks.
    """

    __slots__ = ("windows", "active", "union", "w_words", "select_words",
                 "sign", "flip", "bias", "blocks")

    def __init__(self, windows, active, union, w_words, select_words,
                 length):
        self.windows = windows
        self.active = active          # (C, |union|) bool; None: all lanes
        self.union = union            # encoded fan-in lanes; None: all
        self.w_words = w_words        # (C, W, lanes) time-major
        self.select_words = select_words    # (W, lanes) MUX gate or None
        packed = len(windows) > 1
        self.sign = -1 if windows == (1,) else 1
        self.flip = pack_words(
            np.repeat([packed and phase == 1 for phase in windows], length),
            word_type(len(windows) * length))
        self.bias = length if packed else 0
        self.blocks = []

    def chunk_seed(self, seed: int, start: int):
        """Activation SNG seed of the chunk starting at row ``start``:
        one int per phase window, a tuple for a packed pair (the
        :data:`ENCODE_CACHE` key of its concatenated table)."""
        seeds = tuple(seed + 15_485_863 * (phase + 1) + 104_651 * start
                      for phase in self.windows)
        return seeds[0] if len(seeds) == 1 else seeds


class _TiledMatmulPlan:
    """Row x channel tiler and executor shared by the planned matmuls.

    A subclass fills ``phases`` with the weight planes it runs
    (:class:`_Plane`; one per phase, or one carrying both phases of a
    packed split-unipolar pass) and sets ``_op`` (see
    :func:`_run_tiles`) and ``_section`` (the kernel-counter name).
    Each call encodes its activations chunk by chunk
    (``chunk_positions`` rows share one SNG seed per phase) and runs
    every plane's channel blocks (:func:`_plane_blocks`) over the rows
    the chunk actually carries, so a 2-row call runs a few wide tiles
    where a full chunk runs many.
    """

    def __init__(self, shape: tuple, *, length, bits, scheme, seed,
                 chunk_positions, bit_offset, channel_groups):
        if len(shape) != 2:
            raise ValueError("weights must be (C, K)")
        if bit_offset < 0:
            raise ValueError("bit_offset must be non-negative")
        if channel_groups < 1 or shape[0] % channel_groups:
            raise ValueError(
                f"channel_groups={channel_groups} must divide "
                f"n_chan={shape[0]}")
        self.channel_groups = channel_groups
        self.length = length
        self.bits = bits
        self.scheme = scheme
        self.seed = seed
        self.chunk_positions = chunk_positions
        #: Absolute clock the plan's window starts at: the plan counts
        #: bits ``[bit_offset, bit_offset + length)`` of the conceptual
        #: streams.  A segment plan of a resumable evaluation; 0 for the
        #: ordinary from-zero case.  Pre-supplied weight streams must be
        #: encoded at the same offset.
        self.bit_offset = bit_offset
        self.n_chan, self.fan_in = shape

    # -- tiling -------------------------------------------------------

    def _cut_blocks(self, block_bytes) -> None:
        """Cut every plane's channel blocks, once, for the
        ``block_bytes`` budget (default :data:`DEFAULT_BLOCK_BYTES`).

        ``block_bytes`` bounds one tile's product intermediate
        (``rows x channels x W x lanes`` words of the planes' word type;
        a single row of a single channel may exceed it).  Tiling never
        changes an output bit — popcounts are exact integers and
        channels independent.  The subclass constructors call this last;
        the blocks are never re-cut, so threads share a plan freely.
        """
        self.block_bytes = (block_bytes if block_bytes is not None
                            else DEFAULT_BLOCK_BYTES)
        for ph in self.phases:
            ph.blocks = _plane_blocks(
                ph.active, ph.w_words.shape[-1], self.n_chan,
                ph.w_words.shape[1] * ph.w_words.itemsize, self.block_bytes,
                self.channel_groups)
        # A packed plane ANDs each (channel, lane) pair for both phases.
        self.active_product_lanes = sum(
            len(ph.windows) * (c1 - c0) * (lanes.stop - lanes.start)
            for ph in self.phases for c0, c1, lanes in ph.blocks)

    def _row_bytes(self) -> list:
        """One activation row's product bytes in each block, all
        planes."""
        return [(c1 - c0) * ph.w_words.shape[1] * ph.w_words.itemsize
                * (lanes.stop - lanes.start)
                for ph in self.phases for c0, c1, lanes in ph.blocks]

    # -- skip accounting ----------------------------------------------

    @property
    def encode_lanes_skipped(self) -> int:
        """Fan-in lanes never encoded, summed over phases."""
        return sum(len(ph.windows) * (self.fan_in - ph.union.size)
                   for ph in self.phases if ph.union is not None)

    @property
    def dense_product_lanes(self) -> int:
        """(phase, channel, lane) AND pairs a dense kernel would clock."""
        return (sum(len(ph.windows) for ph in self.phases)
                * self.n_chan * self.fan_in)

    @property
    def lanes_skipped_fraction(self) -> float:
        """Share of the dense (channel, lane) pairs the tiles never AND
        (``active_product_lanes``, set when the blocks are cut, counts
        the pairs they do)."""
        dense = self.dense_product_lanes
        if not dense:
            return 0.0
        return 1.0 - self.active_product_lanes / dense

    # -- execution ----------------------------------------------------

    def _values(self, acts: np.ndarray) -> np.ndarray:
        """Activation values as the SNGs encode them."""
        return acts

    def execute(self, acts: np.ndarray, *, jit_or=None,
                record: bool = True) -> np.ndarray:
        """Run the planned matmul over ``(P, fan_in)`` activations in
        [0, 1]; bit-identical to
        :func:`~repro.simulator.reference.reference_counts` on the same
        operands.

        ``jit_or`` is an optional ``(aw, ww, flip) -> (P, C)`` fused
        inner loop for the OR and MUX accumulators (the popcount of the
        fan-in OR, ``flip`` XORed in; see :mod:`repro.simulator.jit`);
        APC and bipolar plans ignore it.  ``record=False`` skips the
        kernel-counter accounting (the generic matmuls time the call in
        their own section).
        """
        acts = np.asarray(acts, dtype=np.float64)
        if acts.ndim != 2 or acts.shape[1] != self.fan_in:
            raise ValueError(
                f"acts must be (P, {self.fan_in}), got {acts.shape}")
        n_pos = acts.shape[0]
        chunks = [(slice(start, min(start + self.chunk_positions, n_pos)),
                   start, None)
                  for start in range(0, n_pos, self.chunk_positions)]
        return self._run(acts, chunks, self._jit(jit_or), record)

    def execute_rows(self, acts: np.ndarray, rows: np.ndarray, *,
                     jit_or=None, record: bool = True) -> np.ndarray:
        """Run the planned matmul for a *subset* of output positions.

        ``acts`` holds the activation rows at absolute positions
        ``rows`` (strictly increasing) of a conceptual ``(P, fan_in)``
        matrix; the result is bit-identical to
        ``self.execute(full_acts)[rows]``.  Each row is grouped back
        into its original chunk so it sees the exact per-chunk SNG seed
        and in-chunk lane rotation a full run would give it — this is
        what lets a resumable extension recompute only the rows whose
        inputs changed.
        """
        acts = np.asarray(acts, dtype=np.float64)
        rows = np.asarray(rows, dtype=np.int64)
        if acts.ndim != 2 or acts.shape[1] != self.fan_in:
            raise ValueError(
                f"acts must be (R, {self.fan_in}), got {acts.shape}")
        if rows.ndim != 1 or rows.shape[0] != acts.shape[0]:
            raise ValueError("rows must be 1-D and match acts rows")
        if rows.size and (rows[0] < 0 or np.any(np.diff(rows) <= 0)):
            raise ValueError("rows must be strictly increasing and >= 0")
        # Each row joins its original chunk, so it sees the exact
        # per-chunk SNG seed and in-chunk lane rotation a full run gives.
        chunk_ids = rows // self.chunk_positions
        bounds = [0, *(np.flatnonzero(np.diff(chunk_ids)) + 1), rows.size]
        chunks = []
        for i0, i1 in zip(bounds[:-1], bounds[1:]):
            if i1 > i0:
                start = int(chunk_ids[i0]) * self.chunk_positions
                chunks.append((slice(i0, i1), start, rows[i0:i1] - start))
        return self._run(acts, chunks, self._jit(jit_or), record)

    def _jit(self, jit_or):
        """The fused loop serves the OR reduction (OR and MUX plans) of
        64-bit words."""
        if self._op != "or" or any(ph.w_words.itemsize != 8
                                   for ph in self.phases):
            return None
        return jit_or

    def _scratch(self, rows: int) -> np.ndarray:
        """Product scratch bytes for one call: the largest tile any
        chunk of at most ``rows`` rows runs.  Per call, never stored on
        the plan, because thread workers share one plan object."""
        need = max((row_bytes * min(rows, _row_fit(row_bytes,
                                                   self.block_bytes))
                    for row_bytes in self._row_bytes()), default=0)
        return np.empty(need, dtype=np.uint8)

    def _run(self, acts, chunks, jit_or, record) -> np.ndarray:
        """Encode and tile ``chunks`` (``(rows of acts, chunk start,
        in-chunk positions or None)``) into ``(R, C)`` counts."""
        n_rows = acts.shape[0]
        counts = np.zeros((n_rows, self.n_chan), dtype=np.int64)
        if self.fan_in == 0 or n_rows == 0 or self.n_chan == 0:
            return counts
        values = self._values(acts)
        scratch = self._scratch(min(n_rows, self.chunk_positions))
        section = _Timed(self._section) if record else _NULL_SECTION
        with section:
            tiles = 0
            for ph in self.phases:
                if not ph.blocks:
                    continue
                subset = (ph.union if ph.union is not None
                          and ph.union.size < self.fan_in else None)
                for sel, start, positions in chunks:
                    a_words = _encode_chunk_words(
                        values[sel], self.length, self.bits, self.scheme,
                        seed=ph.chunk_seed(self.seed, start),
                        lane_subset=subset,
                        offset=self.bit_offset, positions=positions,
                    )
                    if ph.select_words is not None:
                        np.bitwise_and(a_words, ph.select_words,
                                       out=a_words)
                    tiles += _run_tiles(
                        counts[sel], a_words, ph, op=self._op,
                        block_bytes=self.block_bytes, scratch=scratch,
                        jit_or=jit_or)
            active = self.active_product_lanes
            section.add_counter("positions", n_rows)
            section.add_counter("channels", self.n_chan)
            section.add_counter("product_bits",
                                n_rows * active * self.length)
            section.add_counter(
                "product_bits_skipped",
                n_rows * (self.dense_product_lanes - active) * self.length)
            section.add_counter("tiles", tiles)
        return counts


class SplitMatmulPlan(_TiledMatmulPlan):
    """Precompiled split-unipolar matmul: lane masks and tiling baked in.

    The split-unipolar word kernel: time-major weight words,
    zero-weight lane masks and the channel blocks of each phase's weight
    plane, compiled once for one fixed ``(weights, length, bits, scheme,
    seed, accumulator)``.  :meth:`execute` is bit-identical to the
    gate-level :func:`~repro.simulator.reference.reference_counts`
    (asserted in ``tests/test_simulator_differential.py``) while doing
    strictly less work than a dense kernel:

    - lanes whose weight phase component is zero everywhere are dropped
      at *encode* time (``lane_subset``), not just at the AND: the
      "skipped" of ACOUSTIC's or-unipolar skipped SC;
    - each channel block ANDs a view of its active-lane span
      (:func:`_plane_blocks`); the zero-weight words a span keeps are
      exact no-ops for the OR, APC and MUX reductions;
    - tiles are sized from the rows a call carries, within the
      ``block_bytes`` budget the blocks are cut for once, at
      construction (a layer's plans use ``SCConfig.block_kib``);
    - when both phases encode the same lanes and the phase length
      leaves a word at most half full (``1 <= L mod 64 <= 32``, e.g. a
      pooled conv's 32-clock pass), the two phases share one plane:
      weight, MUX-select and activation words carry the up phase in
      clocks ``[0, L)`` and the down phase in ``[L, 2L)``, so each chunk
      is encoded with one gather (a table keyed by both phase seeds)
      and one tile pass ANDs and reduces both.  The signed OR count is
      ``popcount(acc ^ M) - L`` with ``M`` the down-phase clocks (APC:
      the products are flipped, and ``L`` is subtracted per span lane).
      Every other plan keeps one plane per phase, so lanes active in
      one phase only are still skipped for the other.  The layout
      follows from the weights and ``L`` alone; the counts are the same
      either way.

    The optional ``jit_or`` argument to :meth:`execute` is a drop-in
    fused AND/OR/popcount inner loop (see :mod:`repro.simulator.jit`);
    the pure-numpy path remains the canonical one.

    ``channel_groups > 1`` declares the weight plane block-diagonal over
    that many equal channel groups (a lowered grouped convolution): the
    channel blocks are then cut *within* group boundaries, so every
    block's lane span stays confined to its own group's fan-in lanes
    and the AND stage clocks at most ``1/groups`` of the dense lanes.
    Tiling is value-neutral — the grouping changes which channels share
    a block, never a single output bit.
    """

    def __init__(self, weights: np.ndarray, *, length: int, bits: int,
                 scheme: str, seed: int, accumulator: str = "or",
                 block_bytes: int = None, chunk_positions: int = 256,
                 weight_streams: tuple = None, bit_offset: int = 0,
                 channel_groups: int = 1):
        weights = np.asarray(weights, dtype=np.float64)
        if accumulator not in ("or", "apc", "mux"):
            raise ValueError(f"unknown accumulator {accumulator!r}")
        super().__init__(
            weights.shape, length=length, bits=bits, scheme=scheme,
            seed=seed, chunk_positions=chunk_positions,
            bit_offset=bit_offset, channel_groups=channel_groups)
        self.accumulator = accumulator
        self._op = "apc" if accumulator == "apc" else "or"
        self._section = f"plan:{accumulator}"
        if weight_streams is None:
            weight_streams = encode_split_weight_streams(
                weights, length=length, bits=bits, scheme=scheme, seed=seed,
                offset=bit_offset)
        actives = [w_part > 0 for w_part, _ in weight_streams]
        unions = [np.flatnonzero(a.any(axis=0)) for a in actives]
        # One plane for both phases when 2L clocks fit fewer words than
        # two L-clock windows and both phases encode the same lanes.
        packed = 1 <= length % 64 <= 32 and np.array_equal(*unions)
        self.phases = []
        for windows in ([(0, 1)] if packed else [(0,), (1,)]):
            active = np.logical_or.reduce([actives[p] for p in windows])
            union = unions[windows[0]]
            w_words = _time_major(_window_words(
                [weight_streams[p][1] for p in windows], length))
            select_words = None
            if accumulator == "mux":
                select_words = _time_major(_window_words(
                    [_mux_select_matrix(self.fan_in, length,
                                        seed + 104_729 * (p + 1),
                                        offset=bit_offset)
                     for p in windows], length))
            if union.size < self.fan_in:
                w_words = np.ascontiguousarray(w_words[:, :, union])
                active = np.ascontiguousarray(active[:, union])
                if select_words is not None:
                    select_words = np.ascontiguousarray(
                        select_words[:, union])
            self.phases.append(_Plane(windows, active, union, w_words,
                                      select_words, length))
        self._cut_blocks(block_bytes)


class BipolarMatmulPlan(_TiledMatmulPlan):
    """Precompiled bipolar XNOR/MUX matmul (prior-work datapath).

    Bakes the select-gated weight operand ``~w & sel`` and the channel
    blocks at compile time; no lane skipping — a zero bipolar weight
    encodes to a half-density stream, not silence — so every block
    spans every lane.  :meth:`execute` applies the ``(v + 1) / 2``
    bipolar encoding to its [0, 1] activations itself and is
    bit-identical to :func:`~repro.simulator.reference.reference_counts`
    with ``representation="bipolar"``.
    """

    _op = "xnor"
    _section = "plan:bipolar"

    def __init__(self, weights: np.ndarray, *, length: int, bits: int,
                 scheme: str, seed: int, block_bytes: int = None,
                 chunk_positions: int = 256,
                 weight_stream: np.ndarray = None, bit_offset: int = 0,
                 channel_groups: int = 1):
        weights = np.asarray(weights, dtype=np.float64)
        super().__init__(
            weights.shape, length=length, bits=bits, scheme=scheme,
            seed=seed, chunk_positions=chunk_positions,
            bit_offset=bit_offset, channel_groups=channel_groups)
        if weight_stream is None:
            weight_stream = encode_bipolar_weight_stream(
                weights, length=length, bits=bits, scheme=scheme, seed=seed,
                offset=bit_offset)
        select = _mux_select_matrix(self.fan_in, length, seed + 104_729,
                                    offset=bit_offset)
        select_words = _time_major(_window_words([select], length))
        w_sel = (~_time_major(_window_words([weight_stream], length))
                 & select_words[None, :, :])
        # One plane, seeded like the split plan's up phase: the bipolar
        # chunk seed is the split up-phase formula.
        self.phases = [_Plane((0,), None, None, w_sel, select_words,
                              length)]
        self._cut_blocks(block_bytes)

    def _values(self, acts: np.ndarray) -> np.ndarray:
        return (acts + 1.0) / 2.0


def bipolar_mux_matmul_counts(acts: np.ndarray, weights: np.ndarray, *,
                              length: int, bits: int, scheme: str, seed: int,
                              chunk_positions: int = 256,
                              weight_stream: np.ndarray = None,
                              block_bytes: int = None,
                              start_bit: int = 0) -> np.ndarray:
    """Bitstream-exact *bipolar* matrix multiply with MUX accumulation.

    This is the datapath of prior SC accelerators (SC-DCNN, HEIF, ...):
    operands encoded bipolar (``P(1) = (v+1)/2``), XNOR multipliers, and a
    k:1 multiplexer performing scaled addition.  The returned ``(P, C)``
    counts are ones-counts of the MUX output stream; decoding
    ``2*counts/length - 1`` estimates ``mean_i(a_i * w_i)`` — i.e. the
    sum *divided by the fan-in*, the scaling loss that motivates
    ACOUSTIC's OR-unipolar design.

    ``acts`` in [0, 1] (post-ReLU), ``weights`` in [-1, 1].
    ``block_bytes``/``start_bit`` as in
    :func:`split_or_matmul_counts` (the matmul is a transient
    :class:`BipolarMatmulPlan`; a pre-encoded ``weight_stream`` must
    match ``start_bit``).
    """
    acts, weights = _matmul_operands(acts, weights)
    if weight_stream is None:
        weight_stream = encode_bipolar_weight_stream(
            weights, length=length, bits=bits, scheme=scheme, seed=seed,
            offset=start_bit
        )
    if weight_stream.shape[:2] != weights.shape:
        raise ValueError("weight_stream does not match the weight shape")
    n_pos, fan_in = acts.shape
    n_chan = weights.shape[0]
    counts = np.zeros((n_pos, n_chan), dtype=np.int64)
    if fan_in == 0 or n_pos == 0 or n_chan == 0:
        return counts
    with _Timed("word:bipolar") as section:
        section.add_counter("positions", n_pos)
        section.add_counter("channels", n_chan)
        section.add_counter("product_bits", n_pos * n_chan * fan_in * length)
        return BipolarMatmulPlan(
            weights, length=length, bits=bits, scheme=scheme, seed=seed,
            block_bytes=block_bytes, chunk_positions=chunk_positions,
            weight_stream=weight_stream, bit_offset=start_bit,
        ).execute(acts, record=False)
