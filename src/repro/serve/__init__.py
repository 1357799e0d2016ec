"""Asyncio serving layer over the batched inference runtime.

``repro.serve`` is the top layer of the package: it turns the
in-process :class:`~repro.runtime.InferenceRuntime` library into a
network service that absorbs concurrent traffic.  The pieces:

- :mod:`~repro.serve.protocol` — length-prefixed JSON framing over TCP
  (stdlib ``asyncio`` streams, no dependencies);
- :class:`ModelRegistry` — warm-precompiled :class:`ExecutionPlan`s for
  a configured set of zoo networks, lazy load + LRU eviction for the
  rest;
- :mod:`~repro.serve.admission` — per-client token-bucket quotas and
  queue-depth admission control, so overload produces explicit *shed*
  responses instead of an unbounded queue;
- :class:`Server` — the asyncio front end: concurrent ``predict``
  requests with per-request deadlines and cancellation, a ``metrics``
  endpoint exporting every runtime :class:`MetricsSnapshot` plus the
  :data:`repro.obs.KERNEL_COUNTERS` delta since startup, and graceful
  drain (in-flight requests complete, new ones are refused);
- :class:`Client` — the matching asyncio client.

Layering: ``serve`` sits strictly above ``runtime``/``networks``/
``obs`` — nothing below may import it (enforced by
``scripts/check_layering.py``).  See ``docs/serving.md``.
"""

from .admission import AdmissionController, QuotaTable, TokenBucket
from .client import Client
from .config import ServeConfig
from .protocol import (MAX_MESSAGE_BYTES, ProtocolError, decode_array,
                       encode_array, read_message, write_message)
from .registry import ModelRegistry
from .server import Server

__all__ = [
    "AdmissionController", "QuotaTable", "TokenBucket",
    "Client",
    "ServeConfig",
    "MAX_MESSAGE_BYTES", "ProtocolError", "decode_array", "encode_array",
    "read_message", "write_message",
    "ModelRegistry",
    "Server",
]
