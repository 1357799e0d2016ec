"""Length-prefixed JSON wire protocol for the serving layer.

Every message — request or response — is one UTF-8 JSON object framed
by a 4-byte big-endian length prefix.  The framing is symmetric, so the
same two functions serve both sides of the connection, and a connection
carries a strict request/response alternation (pipelining is a client
concern: open more connections).

Request types (the ``type`` field):

``predict``
    ``{"type": "predict", "model": name, "x": array, "id": opt,
    "client": opt, "deadline_s": opt, "progressive": opt}``
    -> ``{"ok": true, "id": ..., "logits": array, "argmax": [...],
    "latency_s": ...}`` or a shed/error response (below).
    ``progressive`` opts into anytime inference: ``true`` for the
    server's default policy or an object overriding
    :class:`~repro.runtime.ProgressivePolicy` fields
    (``start_phase_length``, ``max_phase_length``, ``growth``,
    ``margin_z``, ``target_rms``); the success response then adds
    ``"progressive": {"phase_length", "extensions", "early_exit",
    "margin", "margin_bound", "history"}``.
``metrics``
    -> ``{"ok": true, "server": {...}, "models": {name: snapshot},
    "kernels": {name: [calls, seconds]}}`` — the ``/metrics``-style
    endpoint; see ``docs/serving.md`` for the schema.
``ping``
    -> ``{"ok": true, "type": "pong"}`` — liveness / drain probe.

Arrays travel as ``{"shape": [...], "b64": ...}`` (:func:`encode_array`):
the base64 text of the row-major little-endian float64 bytes.  A
request's ``x`` may instead be nested lists of numbers, the form to
write by hand; every response array uses the object form.  A malformed
array or frame raises :class:`ProtocolError`, which the server answers
with ``bad_request``.

Failure responses carry ``"ok": false`` plus ``"error"``: ``"shed"``
(with ``"reason"``: ``queue_full`` / ``quota`` / ``draining``),
``"deadline"``, ``"bad_request"``, or ``"internal"``.  Shed and
deadline responses are *protocol-level backpressure*: the connection
stays usable and the client is expected to back off.
"""

from __future__ import annotations

import asyncio
import base64
import json
import math
import struct

import numpy as np

__all__ = ["MAX_MESSAGE_BYTES", "ProtocolError", "decode_array",
           "encode_array", "read_message", "write_message"]

_HEADER = struct.Struct(">I")

#: Upper bound on one framed message; a peer announcing more is treated
#: as corrupt (or hostile) framing rather than an allocation request.
MAX_MESSAGE_BYTES = 32 << 20

#: Array shape limits: numpy 2's rank limit and its signed 64-bit
#: extent.  They also keep ``math.prod`` of a hostile shape, and the
#: error text that prints it, small.
_MAX_DIMS = 64
_MAX_EXTENT = 2**63 - 1


class ProtocolError(RuntimeError):
    """Malformed framing, JSON or array on the wire."""


def encode_array(x) -> dict:
    """JSON-encodable ``{"shape": [...], "b64": ...}`` form of ``x``.

    ``b64`` is the base64 text of the array's row-major little-endian
    float64 bytes: exact for every float64 (NaN payloads, -0.0 and
    subnormals included) and, unlike a JSON float list, cheap to
    produce and parse.  Other dtypes travel as their float64 values.
    """
    x = np.asarray(x, dtype="<f8")
    return {"shape": list(x.shape),
            "b64": base64.b64encode(x.tobytes()).decode("ascii")}


def decode_array(obj) -> np.ndarray:
    """Inverse of :func:`encode_array`; nested lists also accepted.

    Returns a writable C-contiguous float64 array.  Any malformed input
    raises :class:`ProtocolError`.
    """
    if isinstance(obj, dict):
        return _decode_array_object(obj)
    try:
        return np.asarray(obj, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"not an array: {exc}") from exc


def _decode_array_object(obj: dict) -> np.ndarray:
    shape, text = obj.get("shape"), obj.get("b64")
    if not (isinstance(shape, list) and len(shape) <= _MAX_DIMS and all(
            type(d) is int and 0 <= d <= _MAX_EXTENT for d in shape)):
        raise ProtocolError(
            f"array 'shape' must be a list of at most {_MAX_DIMS} "
            f"integers in [0, 2**63)")
    if not isinstance(text, str):
        raise ProtocolError("array object needs a base64 'b64' string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise ProtocolError(f"array 'b64' is not base64: {exc}") from exc
    count = math.prod(shape)
    if len(raw) != 8 * count:
        raise ProtocolError(
            f"array 'b64' holds {len(raw)} bytes; shape {shape} needs "
            f"{8 * count}")
    values = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    try:
        return values.reshape(shape)
    except ValueError as exc:
        raise ProtocolError(f"bad array shape {shape}: {exc}") from exc


async def read_message(reader: asyncio.StreamReader) -> dict:
    """Read one framed JSON message; raises ``IncompleteReadError`` on
    clean EOF at a frame boundary and :class:`ProtocolError` on junk."""
    header = await reader.readexactly(_HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte message bound"
        )
    payload = await reader.readexactly(length)
    try:
        message = json.loads(payload)
    except ValueError as exc:
        raise ProtocolError(f"invalid JSON frame: {exc}") from exc
    except RecursionError as exc:
        raise ProtocolError("JSON frame nests too deeply") from exc
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


async def write_message(writer: asyncio.StreamWriter, message: dict) -> None:
    """Frame and send one JSON message, draining the transport."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"refusing to send a {len(payload)}-byte frame"
        )
    writer.write(_HEADER.pack(len(payload)) + payload)
    await writer.drain()
