"""Bitstream containers and packed-bit helpers.

A stochastic bitstream is a sequence of bits whose *density* (fraction of
ones) encodes a number.  Internally streams are numpy ``uint8`` arrays of
0/1 with time on the last axis; for bulk linear algebra the functional
simulator packs time steps into machine words — eight per byte
(``np.packbits``) for the encoded weight streams, and 8, 16, 32 or 64
per kernel word (:func:`pack_words`) — so AND/OR reductions run on a
fraction of the memory and one ALU op covers many clocks.  The kernel
word is sized to the stream (:func:`word_type`): a stream of at most 32
clocks fits one ``uint8``, ``uint16`` or ``uint32`` word, a longer one
takes ``uint64`` words.  Every word type is a view of the same
``np.packbits`` byte layout.

This module is the single home of the popcount implementation: the
``np.bitwise_count`` fast path (numpy >= 2.0) and the 256-entry
table fallback live here and nowhere else; the simulator engine
re-exports :func:`packed_popcount` as ``popcount_packed``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Bitstream",
    "pack_stream",
    "unpack_stream",
    "pack_words",
    "word_type",
    "words_from_bytes",
    "unpack_words",
    "popcount_bytes",
    "packed_popcount",
    "popcount_words",
    "scc",
    "scc_matrix",
]

_POPCOUNT_TABLE = np.array(
    [bin(i).count("1") for i in range(256)], dtype=np.uint16
)


def pack_stream(bits: np.ndarray) -> np.ndarray:
    """Pack a 0/1 array along its last axis into bytes (8 steps/byte)."""
    return np.packbits(bits.astype(np.uint8), axis=-1)


def unpack_stream(packed: np.ndarray, length: int) -> np.ndarray:
    """Inverse of :func:`pack_stream`; ``length`` trims pad bits."""
    return np.unpackbits(packed, axis=-1)[..., :length]


def word_type(clocks: int) -> np.dtype:
    """The kernel word type for a stream of ``clocks`` clocks.

    The narrowest of ``uint8``, ``uint16`` and ``uint32`` when the
    stream fits one such word, else ``uint64`` (as many words as the
    stream needs).
    """
    for dtype in (np.uint8, np.uint16, np.uint32):
        if clocks <= 8 * np.dtype(dtype).itemsize:
            return np.dtype(dtype)
    return np.dtype(np.uint64)


def words_from_bytes(packed: np.ndarray, dtype=np.uint64) -> np.ndarray:
    """Reinterpret byte-packed streams as word-packed streams.

    Pads the last axis with zero bytes to a whole number of ``dtype``
    words and views the result as ``dtype`` (``8 * itemsize`` clocks per
    word).  The word layout is *defined* as this view of the
    ``np.packbits`` byte layout, so the byte and word forms of a stream
    always describe the same bit sequence and pad bits are always zero.
    """
    packed = np.ascontiguousarray(packed, dtype=np.uint8)
    n_bytes = packed.shape[-1]
    pad = (-n_bytes) % np.dtype(dtype).itemsize
    if pad:
        packed = np.concatenate(
            [packed,
             np.zeros(packed.shape[:-1] + (pad,), dtype=np.uint8)],
            axis=-1,
        )
    return packed.view(dtype)


def pack_words(bits: np.ndarray, dtype=np.uint64) -> np.ndarray:
    """Pack a 0/1 array along its last axis into ``dtype`` words.

    ``8 * itemsize`` clocks per word; pad bits beyond the stream length
    are zero.
    """
    return words_from_bytes(np.packbits(bits.astype(np.uint8, copy=False),
                                        axis=-1), dtype)


def unpack_words(words: np.ndarray, length: int) -> np.ndarray:
    """Inverse of :func:`pack_words`; ``length`` trims pad bits."""
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1)[..., :length]


def popcount_bytes(packed: np.ndarray) -> np.ndarray:
    """Per-byte popcount (``np.bitwise_count`` when available, else a
    256-entry lookup table).  The ``hasattr`` check is at call time so
    tests can exercise the fallback by monkeypatching numpy."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(packed)
    return _POPCOUNT_TABLE[packed]


def packed_popcount(packed: np.ndarray, axis=-1) -> np.ndarray:
    """Total number of set bits along ``axis`` of a byte-packed array."""
    return popcount_bytes(packed).sum(axis=axis, dtype=np.int64)


def popcount_words(words: np.ndarray, axis=-1) -> np.ndarray:
    """Total number of set bits along ``axis`` of a word-packed array.

    ``axis`` may be an int or a tuple of ints (e.g. ``(-2, -1)`` for the
    APC accumulator's fan-in + time reduction).
    """
    if hasattr(np, "bitwise_count"):
        per_word = np.bitwise_count(words)
    else:  # numpy < 2.0: count the words one byte at a time.
        as_bytes = np.ascontiguousarray(words).view(np.uint8)
        per_word = _POPCOUNT_TABLE[as_bytes].reshape(
            words.shape + (words.itemsize,)
        ).sum(axis=-1)
    return per_word.sum(axis=axis, dtype=np.int64)


class Bitstream:
    """A stochastic bitstream with a friendly value-level API.

    Wraps an array of 0/1 bits (time on the last axis).  Bitwise operators
    implement the single-gate SC primitives: ``&`` is unipolar
    multiplication, ``|`` is OR-based saturating accumulation, ``~`` is
    ``1 - v`` complement.

    >>> a = Bitstream.from_bits([1, 0, 1, 1])
    >>> a.value
    0.75
    """

    __slots__ = ("bits",)

    def __init__(self, bits: np.ndarray):
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.size and bits.max() > 1:
            raise ValueError("bitstream entries must be 0 or 1")
        self.bits = bits

    @classmethod
    def from_bits(cls, bits) -> "Bitstream":
        return cls(np.asarray(bits, dtype=np.uint8))

    @classmethod
    def constant(cls, bit: int, length: int) -> "Bitstream":
        """All-zeros or all-ones stream (exactly represents 0.0 / 1.0)."""
        return cls(np.full(length, int(bool(bit)), dtype=np.uint8))

    @property
    def length(self) -> int:
        return self.bits.shape[-1]

    @property
    def value(self) -> float:
        """Decoded unipolar value: the density of ones."""
        return float(self.bits.mean(axis=-1)) if self.bits.ndim == 1 else None

    def values(self) -> np.ndarray:
        """Decoded unipolar values for a batch of streams."""
        return self.bits.mean(axis=-1)

    def popcount(self) -> int:
        return int(self.bits.sum(axis=-1)) if self.bits.ndim == 1 else None

    def __and__(self, other: "Bitstream") -> "Bitstream":
        return Bitstream(self.bits & other.bits)

    def __or__(self, other: "Bitstream") -> "Bitstream":
        return Bitstream(self.bits | other.bits)

    def __xor__(self, other: "Bitstream") -> "Bitstream":
        return Bitstream(self.bits ^ other.bits)

    def __invert__(self) -> "Bitstream":
        return Bitstream(1 - self.bits)

    def __len__(self) -> int:
        return self.length

    def __eq__(self, other) -> bool:
        return isinstance(other, Bitstream) and np.array_equal(self.bits, other.bits)

    def __hash__(self):
        return hash((self.bits.tobytes(), self.bits.shape))

    def concat(self, other: "Bitstream") -> "Bitstream":
        """Temporal concatenation — the scaled-addition trick behind
        computation-skipping average pooling (paper Sec. II-C): the value
        of ``a.concat(b)`` is the length-weighted average of the inputs."""
        return Bitstream(np.concatenate([self.bits, other.bits], axis=-1))

    def packed(self) -> np.ndarray:
        return pack_stream(self.bits)

    def __repr__(self) -> str:
        if self.bits.ndim == 1 and self.length <= 32:
            s = "".join(str(b) for b in self.bits)
            return f"Bitstream({s!r}, value={self.value:.4f})"
        return f"Bitstream(shape={self.bits.shape})"


def scc(a: np.ndarray, b: np.ndarray) -> float:
    """Stochastic cross-correlation (Alaghi & Hayes) between two streams.

    SCC is 0 for independent streams, +1 for maximally overlapped
    (correlated) streams and -1 for maximally disjoint ones.  SC
    multiplication via AND is only exact at SCC = 0, which is why SNG
    lanes must be decorrelated.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = a.shape[-1]
    pa = a.mean()
    pb = b.mean()
    pab = (a * b).mean()
    delta = pab - pa * pb
    if delta > 0:
        denom = min(pa, pb) - pa * pb
    else:
        denom = pa * pb - max(pa + pb - 1.0, 0.0)
    if denom <= 1.0 / (n * n) or denom <= 0:
        return 0.0
    return float(delta / denom)


def scc_matrix(streams: np.ndarray) -> np.ndarray:
    """Pairwise SCC matrix for a ``(k, n)`` batch of streams.

    The diagnostic behind SNG-bank design: off-diagonal magnitudes near
    zero certify that a shared-RNG lane assignment is safe for AND
    multiplication.

    Computed in one batched pass: all pair densities come from a single
    ``streams @ streams.T`` joint-density product and the numerator /
    denominator selection is applied matrix-wide.  Bit-for-bit the same
    values as the scalar :func:`scc` (the documented reference) applied
    to every pair.
    """
    streams = np.asarray(streams)
    if streams.ndim != 2:
        raise ValueError("expected a (k, n) array of streams")
    s = streams.astype(np.float64)
    k, n = s.shape
    p = s.mean(axis=-1)                      # per-stream densities
    pab = (s @ s.T) / n                      # joint densities, all pairs
    pi, pj = p[:, None], p[None, :]
    delta = pab - pi * pj
    # Positive-delta pairs normalize by the overlapped bound, negative
    # ones by the disjoint bound — same piecewise rule as scalar scc().
    denom = np.where(
        delta > 0,
        np.minimum(pi, pj) - pi * pj,
        pi * pj - np.maximum(pi + pj - 1.0, 0.0),
    )
    defined = denom > max(1.0 / (n * n), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(defined, delta / np.where(defined, denom, 1.0), 0.0)
    np.fill_diagonal(out, 1.0)
    return out
