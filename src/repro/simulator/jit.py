"""Optional numba-accelerated inner loops for the planned SC kernels.

The simulator layers (:mod:`repro.simulator.layers`) can swap the
engine plans' OR AND/OR-reduce/popcount inner loop for a fused
numba-compiled version.  Everything here is strictly optional:

- numba is an *extra* (``pip install .[jit]``), never a requirement —
  when it is missing, :func:`or_popcount_loop` returns ``None`` and the
  pure-numpy kernels (the canonical, bit-exactness-verified path) run
  unchanged;
- ``REPRO_SC_JIT=0`` pins the pure-numpy path even with numba present;
- the first resolution runs a self-check: the compiled loop is compared
  against the numpy reference on a seeded case and is *disabled for the
  process* on any mismatch or compile error.  A broken numba install
  can cost speed, never bits.

The fused loop computes, for time-major word operands ``aw: (P, W, K)``
and ``ww: (C, W, K)`` (both ``uint64``), the ``(P, C)`` popcount of the
fan-in OR of the lane-wise ANDs, XORed with the ``(W,)`` word mask
``flip`` first — one output element per (position, channel) without
materializing the ``(P, C, W, K)`` product tensor the numpy path
broadcasts.  ``flip`` marks the down-phase clocks of a plane that
packs both split-unipolar phases (all zero for any other plane; see
:class:`~repro.simulator.engine.SplitMatmulPlan`), which the caller
turns into a signed count by subtracting their number.

The loop serves 64-bit planes only.  The engine sizes a plane's words
to its clocks, and planes of 8-, 16- or 32-bit words (streams of at
most 32 clocks) keep the numpy path.
"""

from __future__ import annotations

import os

import numpy as np

from .engine import popcount_words

__all__ = ["jit_enabled", "numba_available", "or_popcount_loop", "status"]

#: Resolved once per process: {"fn": callable | None, "reason": str}.
_STATE = {"resolved": False, "fn": None, "reason": "unresolved"}


def jit_enabled() -> bool:
    """``REPRO_SC_JIT`` gate (default on; numba still has to exist)."""
    value = os.environ.get("REPRO_SC_JIT", "1").strip().lower()
    return value not in ("0", "false", "off", "no", "")


def numba_available() -> bool:
    """Whether numba imports at all (it is an optional extra)."""
    try:
        import numba  # noqa: F401
    except Exception:
        return False
    return True


def _reference_or_popcount(aw: np.ndarray, ww: np.ndarray,
                           flip: np.ndarray) -> np.ndarray:
    """The numpy inner loop the jitted one must reproduce bit for bit."""
    prods = aw[:, None, :, :] & ww[None, :, :, :]
    acc = np.bitwise_or.reduce(prods, axis=-1) ^ flip
    return popcount_words(acc, axis=-1)


def _build_or_popcount():
    """Compile the fused AND/OR/popcount loop (raises if numba can't)."""
    import numba

    m1 = np.uint64(0x5555555555555555)
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    h01 = np.uint64(0x0101010101010101)
    one = np.uint64(1)
    two = np.uint64(2)
    four = np.uint64(4)
    s56 = np.uint64(56)

    @numba.njit(cache=False, nogil=True)
    def _or_popcount(aw, ww, flip):  # pragma: no cover - needs numba
        n_pos, n_words, n_lanes = aw.shape
        n_chan = ww.shape[0]
        out = np.zeros((n_pos, n_chan), dtype=np.int64)
        for i in range(n_pos):
            for c in range(n_chan):
                total = 0
                for w in range(n_words):
                    acc = np.uint64(0)
                    for k in range(n_lanes):
                        acc |= aw[i, w, k] & ww[c, w, k]
                    acc ^= flip[w]
                    # SWAR popcount of one 64-bit word.
                    acc -= (acc >> one) & m1
                    acc = (acc & m2) + ((acc >> two) & m2)
                    acc = (acc + (acc >> four)) & m4
                    total += int((acc * h01) >> s56)
                out[i, c] = total
        return out

    return _or_popcount


def _self_check(fn) -> bool:
    """Seeded equivalence check against the numpy reference."""
    rng = np.random.default_rng(0x5EED)
    aw = rng.integers(0, 2**63, size=(5, 3, 17), dtype=np.uint64)
    ww = rng.integers(0, 2**63, size=(4, 3, 17), dtype=np.uint64)
    flip = rng.integers(0, 2**63, size=3, dtype=np.uint64)
    # Include an all-ones word so the popcount's high bits are exercised.
    aw[0, 0, :] = np.uint64(0xFFFFFFFFFFFFFFFF)
    ww[0, 0, :] = np.uint64(0xFFFFFFFFFFFFFFFF)
    return np.array_equal(fn(aw, ww, flip),
                          _reference_or_popcount(aw, ww, flip))


def or_popcount_loop():
    """The fused OR-accumulator inner loop, or ``None``.

    ``None`` means "use the pure-numpy path" — because numba is not
    installed, ``REPRO_SC_JIT`` disables it, compilation failed, or the
    self-check found a bit mismatch.  The resolution (and its reason)
    is cached for the process; see :func:`status`.
    """
    if _STATE["resolved"]:
        return _STATE["fn"]
    _STATE["resolved"] = True
    if not jit_enabled():
        _STATE["reason"] = "disabled via REPRO_SC_JIT"
        return None
    if not numba_available():
        _STATE["reason"] = "numba not installed (optional extra: .[jit])"
        return None
    try:
        fn = _build_or_popcount()
        if not _self_check(fn):
            _STATE["reason"] = "self-check mismatch vs numpy — disabled"
            return None
    except Exception as exc:  # pragma: no cover - needs broken numba
        _STATE["reason"] = f"compile failed: {exc!r} — disabled"
        return None
    _STATE["fn"] = fn
    _STATE["reason"] = "active"
    return fn


def status() -> dict:
    """Introspection for ``describe``/metrics: how jit resolved."""
    or_popcount_loop()
    return {
        "env_enabled": jit_enabled(),
        "numba_available": numba_available(),
        "active": _STATE["fn"] is not None,
        "reason": _STATE["reason"],
    }


def _reset_for_tests() -> None:
    """Clear the cached resolution (tests flip the env gate)."""
    _STATE["resolved"] = False
    _STATE["fn"] = None
    _STATE["reason"] = "unresolved"
