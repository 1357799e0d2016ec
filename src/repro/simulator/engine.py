"""Vectorized bitstream kernels for the functional simulator.

The hot path of SC simulation is: encode operands to bitstreams, AND the
pairs, reduce across the fan-in, and count.  The paper notes "SC is
extremely slow to accurately simulate in software"; everything here is
built to make it merely slow:

**Word packing.**  Streams are packed 64 clocks per ``uint64`` word
(:func:`repro.core.bitstream.pack_words`), so one ALU op covers 64
simulated clocks.  A byte-packed reference path (8 clocks per op, the
original implementation style) is kept selectable via ``kernel="byte"``
or the ``REPRO_SC_KERNEL`` environment variable; both paths are
bit-identical by construction and asserted so in tests.

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

**Tiling.**  The matmul kernels keep their broadcast ``(rows, channels,
words, lanes)`` product intermediate inside a configurable working-set
budget (``block_bytes``) instead of looping over channels one at a time
in Python.  The generic kernels block channels for a full chunk of
rows; the planned matmuls (:class:`SplitMatmulPlan`,
:class:`BipolarMatmulPlan`) cut each weight plane into channel blocks
once and tile every call over the rows it actually carries, forming
products in per-call scratch.

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
                              words_from_bytes)
from ..core.rng import make_source
from ..core.sng import StochasticNumberGenerator

__all__ = ["popcount_packed", "encode_packed", "split_or_matmul_counts",
           "bipolar_mux_matmul_counts", "encode_split_weight_streams",
           "encode_bipolar_weight_stream", "ActivationEncodeCache",
           "ENCODE_CACHE", "KernelStats", "KERNEL_STATS", "KERNELS",
           "default_kernel", "SplitMatmulPlan", "BipolarMatmulPlan"]

#: Selectable kernel implementations: ``"word"`` is the production
#: uint64 path, ``"byte"`` the uint8 per-channel-loop reference.
KERNELS = ("word", "byte")

#: Default working-set budget for one product intermediate.
DEFAULT_BLOCK_BYTES = 4 << 20

# Consolidated popcount lives in repro.core.bitstream (bitwise_count
# fast path + numpy<2 table fallback in one place); re-exported here
# under the engine's historical name.
popcount_packed = packed_popcount


def default_kernel() -> str:
    """The kernel used when a call does not specify one.

    ``REPRO_SC_KERNEL=byte`` forces the byte reference path globally
    (e.g. to time or debug against it); default is ``"word"``.
    """
    return os.environ.get("REPRO_SC_KERNEL", "").strip() or "word"


def _resolve_kernel(kernel: str) -> str:
    kernel = kernel if kernel else default_kernel()
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of "
                         f"{KERNELS}")
    return kernel


# Per-kernel accounting lives in repro.obs: KernelStats is the generic
# CounterStore and KERNEL_STATS the process-global instance (one per
# worker process).  Keys are "<kernel>:<accumulator>" for the matmuls
# (e.g. "word:or", "byte:bipolar") and "encode:*" for the encode
# sub-stages.  Matmul timers are end-to-end, so the encode rows are a
# *breakdown* of (not additional to) the matmul rows.  The historical
# names are kept as aliases so existing consumers keep working.
KernelStats = obs.CounterStore
KERNEL_STATS = obs.KERNEL_COUNTERS

# Kernel sections record flat (calls, seconds) totals and, when tracing
# is enabled, an identical "kernel:<name>" span in the trace tree.
_Timed = obs.kernel_section


def _quantize_targets(values: np.ndarray, bits: int) -> np.ndarray:
    """Comparator targets (integer thresholds-to-beat) for ``values``."""
    values = np.asarray(values, dtype=np.float64)
    if values.size and (values.min() < 0 or values.max() > 1):
        raise ValueError("probabilities must lie in [0, 1]")
    levels = 1 << bits
    return np.round(values * levels).astype(np.uint32)


def _build_encode_table(scheme: str, bits: int, seed: int, lanes: int,
                        length: int, offset: int = 0) -> np.ndarray:
    """Value -> word-packed stream table, ``(lanes, 2**bits + 1, W)``.

    Row ``[k, v]`` is the packed stream a comparator SNG on lane ``k``
    emits for target ``v`` — identical bits to encoding ``v / 2**bits``
    directly, for every representable value at once.  ``offset`` builds
    the table for clock window ``[offset, offset + length)`` — the
    continuation segment of a resumable evaluation.
    """
    with _Timed("encode:table"):
        source = make_source(scheme, bits=bits, seed=seed)
        thresholds = source.thresholds(lanes, length, offset=offset)
        levels = 1 << bits
        n_words = (length + 63) // 64
        table = np.empty((lanes, levels + 1, n_words), dtype=np.uint64)
        # Build in value slabs so the 0/1 temporary stays bounded.
        slab = max(1, (16 << 20) // max(1, lanes * length))
        for v0 in range(0, levels + 1, slab):
            v = np.arange(v0, min(v0 + slab, levels + 1), dtype=np.uint32)
            table[:, v0:v0 + v.size] = pack_words(
                thresholds[:, None, :] < v[None, :, None]
            )
        return table


class ActivationEncodeCache:
    """LRU cache of :func:`_build_encode_table` results.

    Keyed by ``(scheme, bits, seed, lanes, length, offset)`` —
    everything the table is a pure function of.  The clock-window
    ``offset`` in the key keeps a continuation segment of a resumable
    run from ever aliasing the table of a from-zero run with the same
    length.  The per-chunk activation seed is part of the key, so a
    steady-traffic runtime hits this cache on every chunk after the
    first pass over a given layer shape.  Eviction is by total byte
    budget (``REPRO_ENCODE_CACHE_MB``, default 128) so huge layers
    cannot wedge a worker.

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
        self._pinned = set()
        self._lock = threading.Lock()

    def table(self, scheme: str, bits: int, seed: int, lanes: int,
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

    def install(self, key, table: np.ndarray, *,
                pinned: bool = True) -> np.ndarray:
        """Install a pre-built table under ``key`` without encoding.

        This is the shared-memory attach path
        (:mod:`repro.runtime.shm`): a worker receives the parent's
        value -> stream tables as zero-copy read-only views and seeds
        its cache with them, so its first forward pass gathers instead
        of rebuilding.  ``pinned`` entries are excluded from the byte
        budget and never evicted — a shared segment's pages are not
        this process's private memory, so evicting the view would save
        nothing and force a rebuild.  If ``key`` is already present the
        existing entry wins (installs never clobber live tables).
        """
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                return existing
            self._entries[key] = table
            if pinned:
                self._pinned.add(key)
            else:
                self._bytes += table.nbytes
                self._evict_locked()
            return table

    def _evict_locked(self):
        """Drop oldest unpinned entries beyond the byte budget (but
        always keep at least one, so a single over-budget table still
        serves)."""
        while self._bytes > self.max_bytes:
            victims = [k for k in self._entries if k not in self._pinned]
            if len(victims) <= 1:
                break
            evicted = self._entries.pop(victims[0])
            self._bytes -= evicted.nbytes

    def counters(self) -> tuple:
        """``(hits, misses)`` since construction (or :meth:`clear`)."""
        with self._lock:
            return self.hits, self.misses

    def info(self) -> dict:
        """Point-in-time cache accounting (entries, pinned, bytes)."""
        with self._lock:
            return {"entries": len(self._entries),
                    "pinned": len(self._pinned),
                    "bytes": self._bytes,
                    "max_bytes": self.max_bytes,
                    "hits": self.hits,
                    "misses": self.misses}

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._pinned.clear()
            self._bytes = 0
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)


#: Process-global activation-encode table cache.
ENCODE_CACHE = ActivationEncodeCache()


def _act_thresholds(scheme: str, bits: int, seed: int, lanes: int,
                    length: int, offset: int = 0) -> np.ndarray:
    return make_source(scheme, bits=bits, seed=seed).thresholds(
        lanes, length, offset=offset)


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


def _encode_chunk_bytes(values: np.ndarray, length: int, bits: int,
                        scheme: str, seed: int, offset: int = 0) -> np.ndarray:
    """Shared-lane chunk encode, byte-packed: ``(P, K) -> (P, K, B)``.

    A bank of ``fan_in`` SNG lanes is time-multiplexed across the
    chunk's positions with the :func:`_lane_rotation` assignment; bit
    ``[p, k, t]`` is ``threshold[(p+k) % K, offset + t] <
    round(v[p, k] * 2**bits)``.
    """
    with _Timed("encode:act"):
        targets = _quantize_targets(values, bits)
        thresholds = _act_thresholds(scheme, bits, seed, values.shape[1],
                                     length, offset=offset)
        thr = thresholds[_lane_rotation(*values.shape)]
        return np.packbits(thr < targets[:, :, None], axis=-1)


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
                        scheme: str, seed: int, use_cache: bool,
                        lane_subset: np.ndarray = None, offset: int = 0,
                        positions: np.ndarray = None) -> np.ndarray:
    """Shared-lane chunk encode, time-major: ``(P, K) -> (P, W, K)``.

    Bit-identical streams to :func:`_encode_chunk_bytes`.  With the
    cache enabled this is a pure ``np.take`` gather from the
    value -> stream table (one row per (lane, value) pair).

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
    """
    lanes = values.shape[1]
    if lane_subset is not None and lane_subset.size == lanes:
        lane_subset = None
    if use_cache and bits <= 8 and lanes > 0:
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
        return _time_major(pack_words(thr < targets[:, :, None]))


def _channel_block(n_chan: int, n_pos: int, n_lanes: int, n_words: int,
                   block_bytes: int) -> int:
    """Channels per block so one intermediate fits the working set."""
    per_channel = max(1, n_pos * n_lanes * n_words * 8)
    return max(1, min(n_chan, block_bytes // per_channel))


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
    """
    sng = StochasticNumberGenerator(length, bits=bits, scheme=scheme, seed=seed)
    return np.packbits(sng.generate(values, offset=offset), axis=-1)


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
                           kernel: str = None,
                           block_bytes: int = None,
                           encode_cache: bool = True,
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
    kernel:
        ``"word"`` (uint64 bitplanes, channel-blocked; default) or
        ``"byte"`` (uint8 reference path).  Both return identical
        counts; ``None`` resolves via :func:`default_kernel`.
    block_bytes:
        Working-set budget for one channel-blocked intermediate of the
        word kernel (default :data:`DEFAULT_BLOCK_BYTES`).
    encode_cache:
        Use the global :data:`ENCODE_CACHE` value -> stream tables for
        activation encoding (word kernel only; bit-identical either
        way).

    Returns
    -------
    ``(P, C)`` signed counter values: up-phase count minus down-phase
    count.  Divide by ``length`` to decode (for "mux", multiply by the
    fan-in as well to undo the scaling).
    """
    acts = np.asarray(acts, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if acts.ndim != 2 or weights.ndim != 2 or acts.shape[1] != weights.shape[1]:
        raise ValueError("acts must be (P, K) and weights (C, K)")
    if accumulator not in ("or", "apc", "mux"):
        raise ValueError(f"unknown accumulator {accumulator!r}")
    kernel = _resolve_kernel(kernel)
    if block_bytes is None:
        block_bytes = DEFAULT_BLOCK_BYTES
    n_pos, fan_in = acts.shape
    n_chan = weights.shape[0]
    counts = np.zeros((n_pos, n_chan), dtype=np.int64)

    if weight_streams is None:
        # Weight streams: one lane per (channel, k) element, regenerated
        # per phase with an independent seed space.
        weight_streams = encode_split_weight_streams(
            weights, length=length, bits=bits, scheme=scheme, seed=seed,
            offset=start_bit
        )
    for _, (_, w_packed) in enumerate(weight_streams):
        if w_packed.shape[:2] != (n_chan, fan_in):
            raise ValueError("weight_streams do not match the weight shape")
    if fan_in == 0 or n_pos == 0 or n_chan == 0:
        return counts

    args = (counts, acts, weight_streams, length, bits, scheme, seed,
            accumulator, chunk_positions, start_bit)
    with _Timed(f"{kernel}:{accumulator}") as section:
        section.add_counter("positions", n_pos)
        section.add_counter("channels", n_chan)
        # Upper bound, as in LayerPlan: operand gating skips the lanes
        # whose weight phase component is zero.
        section.add_counter("product_bits",
                            2 * n_pos * n_chan * fan_in * length)
        if kernel == "word":
            _split_matmul_word(*args, block_bytes, encode_cache)
        else:
            _split_matmul_byte(*args)
    return counts


def _split_matmul_byte(counts, acts, weight_streams, length, bits, scheme,
                       seed, accumulator, chunk_positions,
                       start_bit) -> None:
    """Reference byte-path: uint8 packing, per-channel Python loops."""
    n_pos, fan_in = acts.shape
    n_chan = counts.shape[1]
    for phase, (w_part, w_packed) in enumerate(weight_streams):
        sign = 1 if phase == 0 else -1
        # Lanes whose weight component is zero (opposite sign, or a true
        # zero weight) carry all-zero streams and cannot set an OR output
        # bit, so they are skipped — the same operand gating that keeps
        # idle hardware lanes from switching.
        active_lanes = [np.flatnonzero(w_part[c] > 0) for c in range(n_chan)]
        if accumulator == "mux":
            select = _mux_select_matrix(fan_in, length,
                                        seed + 104_729 * (phase + 1),
                                        offset=start_bit)
        for start in range(0, n_pos, chunk_positions):
            sl = slice(start, min(start + chunk_positions, n_pos))
            a_packed = _encode_chunk_bytes(
                acts[sl], length, bits, scheme,
                seed=seed + 15_485_863 * (phase + 1) + 104_651 * start,
                offset=start_bit,
            )
            # a_packed: (p, K, B); w_packed: (C, K, B).
            if accumulator == "or":
                for c in range(n_chan):
                    lanes = active_lanes[c]
                    if lanes.size == 0:
                        continue
                    prods = a_packed[:, lanes, :] & w_packed[c, lanes, :]
                    acc = np.bitwise_or.reduce(prods, axis=1)
                    counts[sl, c] += sign * packed_popcount(acc, axis=-1)
            elif accumulator == "apc":
                for c in range(n_chan):
                    lanes = active_lanes[c]
                    if lanes.size == 0:
                        continue
                    prods = a_packed[:, lanes, :] & w_packed[c, lanes, :]
                    counts[sl, c] += sign * packed_popcount(
                        prods, axis=(-2, -1)
                    )
            else:  # mux
                # Select gating hoisted out of the channel loop:
                # (a & sel) & w == (a & w) & sel, one gating per chunk.
                gated_a = a_packed & select[None, :, :]
                for c in range(n_chan):
                    prods = gated_a & w_packed[c][None, :, :]
                    acc = np.bitwise_or.reduce(prods, axis=1)
                    counts[sl, c] += sign * packed_popcount(acc, axis=-1)


def _split_matmul_word(counts, acts, weight_streams, length, bits, scheme,
                       seed, accumulator, chunk_positions, start_bit,
                       block_bytes, encode_cache) -> None:
    """uint64 word path: channel-blocked broadcast kernels.

    Operands are held time-major (``(..., W, K)``, see
    :func:`_time_major`) so the fan-in reduction runs over the
    contiguous last axis.
    """
    n_pos, fan_in = acts.shape
    n_chan = counts.shape[1]
    n_words = (length + 63) // 64
    for phase, (w_part, w_packed) in enumerate(weight_streams):
        sign = 1 if phase == 0 else -1
        w_words = _time_major(words_from_bytes(w_packed))    # (C, W, K)
        active = w_part > 0                                  # (C, K)
        if accumulator == "mux":
            select_words = _time_major(words_from_bytes(_mux_select_matrix(
                fan_in, length, seed + 104_729 * (phase + 1),
                offset=start_bit)))                          # (W, K)
        for start in range(0, n_pos, chunk_positions):
            sl = slice(start, min(start + chunk_positions, n_pos))
            a_words = _encode_chunk_words(
                acts[sl], length, bits, scheme,
                seed=seed + 15_485_863 * (phase + 1) + 104_651 * start,
                use_cache=encode_cache, offset=start_bit,
            )                                                # (p, W, K)
            p = a_words.shape[0]
            cb = _channel_block(n_chan, p, fan_in, n_words, block_bytes)
            if accumulator == "mux":
                # Hoisted select gating: one AND per chunk, not per
                # channel; (a & sel) & w == (a & w) & sel.
                gated_a = a_words & select_words[None, :, :]
                for c0 in range(0, n_chan, cb):
                    ww = w_words[c0:c0 + cb]
                    prods = gated_a[:, None, :, :] & ww[None, :, :, :]
                    acc = np.bitwise_or.reduce(prods, axis=-1)
                    counts[sl, c0:c0 + cb] += sign * popcount_words(
                        acc, axis=-1)
            else:
                for c0 in range(0, n_chan, cb):
                    c1 = min(c0 + cb, n_chan)
                    # Operand gating, blocked: slice the union of the
                    # block's active lanes (all-zero weight streams can
                    # never set an OR bit or add to a popcount, so the
                    # union slice is exact).
                    lanes = np.flatnonzero(active[c0:c1].any(axis=0))
                    if lanes.size == 0:
                        continue
                    if lanes.size == fan_in:
                        aw, ww = a_words, w_words[c0:c1]
                    else:
                        aw = a_words[:, :, lanes]
                        ww = w_words[c0:c1][:, :, lanes]
                    prods = aw[:, None, :, :] & ww[None, :, :, :]
                    if accumulator == "or":
                        acc = np.bitwise_or.reduce(prods, axis=-1)
                        counts[sl, c0:c1] += sign * popcount_words(
                            acc, axis=-1)
                    else:  # apc
                        counts[sl, c0:c1] += sign * popcount_words(
                            prods, axis=(-2, -1))


class _NullSection:
    """Timing-section stand-in for unrecorded (autotune probe) runs."""

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


def _plane_blocks(active, n_lanes: int, n_chan: int, n_words: int,
                  block_bytes: int, channel_groups: int) -> list:
    """Cut one phase's (channel, lane) weight plane into channel blocks.

    ``active`` is the ``(C, n_lanes)`` mask of nonzero weight words over
    the lanes the activation words carry, or ``None`` when every lane
    counts (the bipolar XNOR, where a zero weight is a half-density
    stream, not silence).  Blocks are cut inside each of
    ``channel_groups`` equal channel groups, in equal widths no wider
    than one activation row times the group's lane span fits
    ``block_bytes`` (``channels x W x lanes x 8``); the rows a call
    carries are tiled at run time (:func:`_row_step`).  Each block ANDs
    a view of the span from its first to its last active lane: the
    whole union for a dense block, the group's span for a grouped conv.
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
        width = _balanced(g1 - g0, _row_fit(n_words * (hi - lo),
                                            block_bytes))
        for c0 in range(g0, g1, width):
            c1 = min(c0 + width, g1)
            b0, b1 = _lane_span(active, c0, c1, n_lanes)
            if b1 > b0:
                blocks.append((c0, c1, slice(b0, b1)))
    return blocks


def _row_fit(row_words: int, block_bytes: int) -> int:
    """How many ``row_words``-word rows fit ``block_bytes`` (at least
    one)."""
    return max(1, block_bytes // (8 * row_words))


def _balanced(total: int, most: int) -> int:
    """Part size that splits ``total`` into the fewest parts of at most
    ``most``, as equal as possible (the last may be smaller)."""
    parts = -(-total // most)
    return -(-total // parts)


def _row_step(rows: int, row_words: int, block_bytes: int) -> int:
    """Rows per tile of a block whose one-row product is ``row_words``
    words: as many as fit the budget, balanced over ``rows``."""
    return _balanced(rows, _row_fit(row_words, block_bytes))


def _run_tiles(out, a_words, w_words, blocks, *, op: str, sign: int,
               block_bytes: int, scratch: np.ndarray, jit_or=None) -> int:
    """Accumulate one chunk's activation words into ``out`` (``(R, C)``).

    ``a_words`` is the chunk's ``(R, W, lanes)`` time-major activation
    words and ``w_words`` the phase's ``(C, W, lanes)`` weight words.
    Every block is tiled over the chunk's rows (:func:`_row_step`) and
    each tile's products are formed in ``scratch`` (``out=``), so no
    tile allocates its intermediate.  ``op`` is ``"or"`` (AND, OR over
    lanes, popcount), ``"apc"`` (AND, popcount over lanes and words) or
    ``"xnor"`` (the bipolar gated XNOR, formed as XOR against
    pre-inverted weights, then OR and popcount).  ``jit_or`` replaces
    the ``"or"`` reduction with a fused loop.  Returns the tiles run.
    """
    rows = a_words.shape[0]
    combine = np.bitwise_xor if op == "xnor" else np.bitwise_and
    tiles = 0
    for c0, c1, lanes in blocks:
        ww = w_words[c0:c1, :, lanes]
        step = _row_step(rows, ww.size, block_bytes)
        for r0 in range(0, rows, step):
            r1 = min(r0 + step, rows)
            aw = a_words[r0:r1, :, lanes]
            if jit_or is not None:
                counts = jit_or(aw, ww)
            else:
                prods = scratch[:(r1 - r0) * ww.size].reshape(
                    (r1 - r0,) + ww.shape)
                combine(aw[:, None], ww[None], out=prods)
                if op == "apc":
                    counts = popcount_words(prods, axis=(-2, -1))
                else:
                    counts = popcount_words(
                        np.bitwise_or.reduce(prods, axis=-1), axis=-1)
            if sign > 0:
                out[r0:r1, c0:c1] += counts
            else:
                out[r0:r1, c0:c1] -= counts
            tiles += 1
    return tiles


class _Phase:
    """One temporal phase of a planned matmul: its weight plane and the
    channel blocks the plane is cut into."""

    __slots__ = ("phase", "sign", "active", "union", "w_words",
                 "select_words", "blocks")

    def __init__(self, phase, sign, active, union, w_words, select_words):
        self.phase = phase
        self.sign = sign
        self.active = active          # (C, |union|) bool; None: all lanes
        self.union = union            # encoded fan-in lanes; None: all
        self.w_words = w_words        # (C, W, lanes) time-major
        self.select_words = select_words    # (W, lanes) MUX gate or None
        self.blocks = []


class _TiledMatmulPlan:
    """Row x channel tiler and executor shared by the planned matmuls.

    A subclass fills ``phases`` and sets ``_op`` (see :func:`_run_tiles`)
    and ``_section`` (the kernel-counter name).  Each call encodes its
    activations chunk by chunk (``chunk_positions`` rows share one SNG
    seed) and runs every phase's channel blocks (:func:`_plane_blocks`)
    over the rows the chunk actually carries, so a 2-row call runs a
    few wide tiles where a full chunk runs many.
    """

    def __init__(self, shape: tuple, *, length, bits, scheme, seed,
                 chunk_positions, encode_cache, bit_offset,
                 channel_groups):
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
        self.encode_cache = encode_cache
        #: Absolute clock the plan's window starts at: the plan counts
        #: bits ``[bit_offset, bit_offset + length)`` of the conceptual
        #: streams.  A segment plan of a resumable evaluation; 0 for the
        #: ordinary from-zero case.  Pre-supplied weight streams must be
        #: encoded at the same offset.
        self.bit_offset = bit_offset
        self.n_chan, self.fan_in = shape
        self.n_words = (length + 63) // 64

    # -- tiling -------------------------------------------------------

    def retile(self, block_bytes: int = None):
        """(Re)cut the channel blocks for the ``block_bytes`` budget.

        ``block_bytes`` bounds one tile's product intermediate
        (``rows x channels x W x lanes x 8`` bytes; a single row of a
        single channel may exceed it).  Tiling never changes an output
        bit — popcounts are exact integers and channels independent —
        so the autotuner is free to measure any budget.  Returns
        ``self``.
        """
        self.block_bytes = (block_bytes if block_bytes is not None
                            else DEFAULT_BLOCK_BYTES)
        for ph in self.phases:
            ph.blocks = _plane_blocks(
                ph.active, ph.w_words.shape[-1], self.n_chan, self.n_words,
                self.block_bytes, self.channel_groups)
        self.active_product_lanes = sum(
            (c1 - c0) * (lanes.stop - lanes.start)
            for ph in self.phases for c0, c1, lanes in ph.blocks)
        return self

    def _row_words(self) -> list:
        """One activation row's product words in each block, all
        phases."""
        return [(c1 - c0) * self.n_words * (lanes.stop - lanes.start)
                for ph in self.phases for c0, c1, lanes in ph.blocks]

    def tile_count(self, rows: int) -> int:
        """Tiles a call of ``rows`` rows (one chunk) runs, all phases."""
        return sum(len(range(0, rows, _row_step(rows, words,
                                                self.block_bytes)))
                   for words in self._row_words())

    # -- skip accounting ----------------------------------------------

    @property
    def encode_lanes_skipped(self) -> int:
        """Fan-in lanes never encoded, summed over phases."""
        return sum(self.fan_in - ph.union.size for ph in self.phases
                   if ph.union is not None)

    @property
    def dense_product_lanes(self) -> int:
        """(channel, lane) AND pairs a dense kernel would clock."""
        return len(self.phases) * self.n_chan * self.fan_in

    @property
    def lanes_skipped_fraction(self) -> float:
        """Share of the dense (channel, lane) pairs the tiles never AND
        (``active_product_lanes``, set by :meth:`retile`, counts the
        pairs they do)."""
        dense = self.dense_product_lanes
        if not dense:
            return 0.0
        return 1.0 - self.active_product_lanes / dense

    # -- encode-table publication -------------------------------------

    def encode_table_keys(self, n_positions: int) -> list:
        """Every :data:`ENCODE_CACHE` key a call of up to ``n_positions``
        activation rows will touch.

        The per-chunk SNG seed is a pure function of (phase, chunk
        start), so the tables a worker would build are enumerable at
        compile time — this is what lets the parent pre-build them once
        and publish them through shared memory
        (:mod:`repro.runtime.shm`) instead of paying the build in every
        pool process.  Keys match the cache-eligibility conditions of
        ``_encode_chunk_words`` exactly (cache on, ``bits <= 8``,
        non-empty fan-in, a phase with blocks to run).
        """
        keys = []
        if not self.encode_cache or self.bits > 8 or self.fan_in == 0:
            return keys
        for ph in self.phases:
            if not ph.blocks:
                continue
            for start in range(0, n_positions, self.chunk_positions):
                keys.append((self.scheme, self.bits,
                             self.seed + 15_485_863 * (ph.phase + 1)
                             + 104_651 * start,
                             self.fan_in, self.length, self.bit_offset))
        return keys

    # -- execution ----------------------------------------------------

    def _values(self, acts: np.ndarray) -> np.ndarray:
        """Activation values as the SNGs encode them."""
        return acts

    def _execute(self, acts, jit_or, record) -> np.ndarray:
        acts = np.asarray(acts, dtype=np.float64)
        if acts.ndim != 2 or acts.shape[1] != self.fan_in:
            raise ValueError(
                f"acts must be (P, {self.fan_in}), got {acts.shape}")
        n_pos = acts.shape[0]
        chunks = [(slice(start, min(start + self.chunk_positions, n_pos)),
                   start, None)
                  for start in range(0, n_pos, self.chunk_positions)]
        return self._run(acts, chunks, jit_or, record)

    def _execute_rows(self, acts, rows, jit_or, record) -> np.ndarray:
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
        return self._run(acts, chunks, jit_or, record)

    def _scratch(self, rows: int) -> np.ndarray:
        """Product scratch for one call: the largest tile any chunk of
        at most ``rows`` rows runs.  Per call, never stored on the
        plan, because thread workers share one plan object."""
        need = max((words * min(rows, _row_fit(words, self.block_bytes))
                    for words in self._row_words()), default=0)
        return np.empty(need, dtype=np.uint64)

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
                        seed=(self.seed + 15_485_863 * (ph.phase + 1)
                              + 104_651 * start),
                        use_cache=self.encode_cache, lane_subset=subset,
                        offset=self.bit_offset, positions=positions,
                    )
                    if ph.select_words is not None:
                        np.bitwise_and(a_words, ph.select_words,
                                       out=a_words)
                    tiles += _run_tiles(
                        counts[sel], a_words, ph.w_words, ph.blocks,
                        op=self._op, sign=ph.sign,
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

    Compiles everything :func:`split_or_matmul_counts` re-derives on
    every call — time-major weight words, zero-weight lane masks, the
    channel blocks of each phase's weight plane — into a reusable plan
    for one fixed ``(weights, length, bits, scheme, seed, accumulator)``.
    :meth:`execute` is then bit-identical to the generic word kernel by
    construction (asserted across the zoo in
    ``tests/test_plan_specialization.py``) while doing strictly less
    work:

    - lanes whose weight phase component is zero everywhere are dropped
      at *encode* time (``lane_subset``), not just at the AND: the
      "skipped" of ACOUSTIC's or-unipolar skipped SC;
    - each channel block ANDs a view of its active-lane span
      (:func:`_plane_blocks`); the zero-weight words a span keeps are
      exact no-ops for the OR, APC and MUX reductions;
    - tiles are sized from the rows a call carries, within the
      ``block_bytes`` budget, which :meth:`retile` lets a per-layer
      autotuner pick from measurement.

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
                 weight_streams: tuple = None, encode_cache: bool = True,
                 bit_offset: int = 0, channel_groups: int = 1):
        weights = np.asarray(weights, dtype=np.float64)
        if accumulator not in ("or", "apc", "mux"):
            raise ValueError(f"unknown accumulator {accumulator!r}")
        super().__init__(
            weights.shape, length=length, bits=bits, scheme=scheme,
            seed=seed, chunk_positions=chunk_positions,
            encode_cache=encode_cache, bit_offset=bit_offset,
            channel_groups=channel_groups)
        self.accumulator = accumulator
        self._op = "apc" if accumulator == "apc" else "or"
        self._section = f"plan:{accumulator}"
        if weight_streams is None:
            weight_streams = encode_split_weight_streams(
                weights, length=length, bits=bits, scheme=scheme, seed=seed,
                offset=bit_offset)
        self.phases = []
        for phase, (w_part, w_packed) in enumerate(weight_streams):
            active = w_part > 0
            union = np.flatnonzero(active.any(axis=0))
            w_words = _time_major(words_from_bytes(w_packed))
            select_words = None
            if accumulator == "mux":
                select_words = _time_major(words_from_bytes(
                    _mux_select_matrix(self.fan_in, length,
                                       seed + 104_729 * (phase + 1),
                                       offset=bit_offset)))
            if union.size < self.fan_in:
                w_words = np.ascontiguousarray(w_words[:, :, union])
                active = np.ascontiguousarray(active[:, union])
                if select_words is not None:
                    select_words = np.ascontiguousarray(
                        select_words[:, union])
            self.phases.append(_Phase(
                phase, 1 if phase == 0 else -1, active, union, w_words,
                select_words))
        self.retile(block_bytes)

    def execute(self, acts: np.ndarray, *, jit_or=None,
                record: bool = True) -> np.ndarray:
        """Run the planned matmul; bit-identical to
        :func:`split_or_matmul_counts` on the same operands.

        ``jit_or`` is an optional ``(aw, ww) -> (P, C) popcount`` fused
        inner loop for the OR and MUX accumulators; ``record=False``
        skips the kernel-counter accounting (autotune probes must not
        pollute the serving metrics).
        """
        return self._execute(acts, self._jit(jit_or), record)

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
        return self._execute_rows(acts, rows, self._jit(jit_or), record)

    def _jit(self, jit_or):
        return None if self.accumulator == "apc" else jit_or


class BipolarMatmulPlan(_TiledMatmulPlan):
    """Precompiled bipolar XNOR/MUX matmul (prior-work datapath).

    Bakes the select-gated weight operand ``~w & sel`` and the channel
    blocks at compile time; no lane skipping — a zero bipolar weight
    encodes to a half-density stream, not silence — so every block
    spans every lane.  :meth:`execute` is bit-identical to
    :func:`bipolar_mux_matmul_counts`.
    """

    _op = "xnor"
    _section = "plan:bipolar"

    def __init__(self, weights: np.ndarray, *, length: int, bits: int,
                 scheme: str, seed: int, block_bytes: int = None,
                 chunk_positions: int = 256,
                 weight_stream: np.ndarray = None,
                 encode_cache: bool = True, bit_offset: int = 0,
                 channel_groups: int = 1):
        weights = np.asarray(weights, dtype=np.float64)
        super().__init__(
            weights.shape, length=length, bits=bits, scheme=scheme,
            seed=seed, chunk_positions=chunk_positions,
            encode_cache=encode_cache, bit_offset=bit_offset,
            channel_groups=channel_groups)
        if weight_stream is None:
            weight_stream = encode_bipolar_weight_stream(
                weights, length=length, bits=bits, scheme=scheme, seed=seed,
                offset=bit_offset)
        select = _mux_select_matrix(self.fan_in, length, seed + 104_729,
                                    offset=bit_offset)
        select_words = _time_major(words_from_bytes(select))
        w_sel = (~_time_major(words_from_bytes(weight_stream))
                 & select_words[None, :, :])
        # One phase, seeded like the split plan's first: the generic
        # kernel's bipolar chunk seed is the split up-phase formula.
        self.phases = [_Phase(0, 1, None, None, w_sel, select_words)]
        self.retile(block_bytes)

    def _values(self, acts: np.ndarray) -> np.ndarray:
        return (acts + 1.0) / 2.0

    def execute(self, acts: np.ndarray, *,
                record: bool = True) -> np.ndarray:
        """Planned bipolar matmul over ``acts`` in [0, 1] (the plan
        applies the ``(v + 1) / 2`` bipolar encoding itself, exactly
        like the generic kernel)."""
        return self._execute(acts, None, record)

    def execute_rows(self, acts: np.ndarray, rows: np.ndarray, *,
                     record: bool = True) -> np.ndarray:
        """Subset-of-positions variant of :meth:`execute`; bit-identical
        to ``self.execute(full_acts)[rows]`` (see
        :meth:`SplitMatmulPlan.execute_rows`)."""
        return self._execute_rows(acts, rows, None, record)


def bipolar_mux_matmul_counts(acts: np.ndarray, weights: np.ndarray, *,
                              length: int, bits: int, scheme: str, seed: int,
                              chunk_positions: int = 256,
                              weight_stream: np.ndarray = None,
                              kernel: str = None,
                              block_bytes: int = None,
                              encode_cache: bool = True,
                              start_bit: int = 0) -> np.ndarray:
    """Bitstream-exact *bipolar* matrix multiply with MUX accumulation.

    This is the datapath of prior SC accelerators (SC-DCNN, HEIF, ...):
    operands encoded bipolar (``P(1) = (v+1)/2``), XNOR multipliers, and a
    k:1 multiplexer performing scaled addition.  The returned ``(P, C)``
    counts are ones-counts of the MUX output stream; decoding
    ``2*counts/length - 1`` estimates ``mean_i(a_i * w_i)`` — i.e. the
    sum *divided by the fan-in*, the scaling loss that motivates
    ACOUSTIC's OR-unipolar design.

    ``acts`` in [0, 1] (post-ReLU), ``weights`` in [-1, 1].  ``kernel``/
    ``block_bytes``/``encode_cache``/``start_bit`` as in
    :func:`split_or_matmul_counts` (a pre-encoded ``weight_stream``
    must match ``start_bit``).
    """
    acts = np.asarray(acts, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if acts.ndim != 2 or weights.ndim != 2 or acts.shape[1] != weights.shape[1]:
        raise ValueError("acts must be (P, K) and weights (C, K)")
    kernel = _resolve_kernel(kernel)
    if block_bytes is None:
        block_bytes = DEFAULT_BLOCK_BYTES
    n_pos, fan_in = acts.shape
    n_chan = weights.shape[0]
    counts = np.zeros((n_pos, n_chan), dtype=np.int64)
    if weight_stream is None:
        weight_stream = encode_bipolar_weight_stream(
            weights, length=length, bits=bits, scheme=scheme, seed=seed,
            offset=start_bit
        )
    w_packed = weight_stream
    if w_packed.shape[:2] != (n_chan, fan_in):
        raise ValueError("weight_stream does not match the weight shape")
    if fan_in == 0 or n_pos == 0 or n_chan == 0:
        return counts
    # The select stream's zero pad bits also mask the XNOR's inverted
    # padding, so partial final words/bytes stay clean.  The XNOR+gate
    # is computed as (a & sel) ^ (~w & sel): ~(a ^ w) & sel distributes
    # over XOR, letting both kernels hoist the activation gating out of
    # the channel dimension and pre-gate the weights once per call.
    select = _mux_select_matrix(fan_in, length, seed + 104_729,
                                offset=start_bit)
    n_words = (length + 63) // 64
    with _Timed(f"{kernel}:bipolar") as section:
        section.add_counter("positions", n_pos)
        section.add_counter("channels", n_chan)
        section.add_counter("product_bits", n_pos * n_chan * fan_in * length)
        if kernel == "word":
            select_words = _time_major(words_from_bytes(select))  # (W, K)
            w_sel = ~_time_major(words_from_bytes(w_packed)) \
                & select_words[None, :, :]                        # (C, W, K)
            for start in range(0, n_pos, chunk_positions):
                sl = slice(start, min(start + chunk_positions, n_pos))
                a_words = _encode_chunk_words(
                    (acts[sl] + 1.0) / 2.0, length, bits, scheme,
                    seed=seed + 15_485_863 + 104_651 * start,
                    use_cache=encode_cache, offset=start_bit,
                )                                                 # (p, W, K)
                a_sel = a_words & select_words[None, :, :]
                p = a_sel.shape[0]
                cb = _channel_block(n_chan, p, fan_in, n_words, block_bytes)
                for c0 in range(0, n_chan, cb):
                    gated = a_sel[:, None, :, :] ^ w_sel[None, c0:c0 + cb]
                    acc = np.bitwise_or.reduce(gated, axis=-1)
                    counts[sl, c0:c0 + cb] += popcount_words(acc, axis=-1)
        else:
            w_sel = ~w_packed & select[None, :, :]
            for start in range(0, n_pos, chunk_positions):
                sl = slice(start, min(start + chunk_positions, n_pos))
                a_packed = _encode_chunk_bytes(
                    (acts[sl] + 1.0) / 2.0, length, bits, scheme,
                    seed=seed + 15_485_863 + 104_651 * start,
                    offset=start_bit,
                )
                a_sel = a_packed & select[None, :, :]
                for c in range(n_chan):
                    gated = a_sel ^ w_sel[c][None, :, :]
                    acc = np.bitwise_or.reduce(gated, axis=1)
                    counts[sl, c] += packed_popcount(acc, axis=-1)
    return counts
