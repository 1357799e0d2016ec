"""The asyncio inference server.

One :class:`Server` owns a :class:`~repro.serve.registry.ModelRegistry`
(warm-compiled plans), an
:class:`~repro.serve.admission.AdmissionController` (quotas + queue
bound) and an ``asyncio.start_server`` front end speaking the
length-prefixed JSON protocol.  Request flow::

    conn -> read_message -> admission (draining/quota/depth)
         -> decode_array(x), ProgressivePolicy.from_request(progressive)
         -> registry.resident(model)                  [on the loop]
            | to_thread(registry.get(model))          [miss: compile]
         -> runtime.submit(x, policy)   [WorkerPool: shards dispatched now]
         -> await Future (deadline => cancel)
         -> write_message(encode_array(logits) [+ progressive] | shed | error)

Everything compute-bound stays on the runtime's workers — a progressive
request's resumable evaluation included, as one more shard — and a
plan compile (a registry miss) on a helper thread.  The event loop only
frames messages, converts base64 arrays, looks up resident models,
hands requests to the pool and awaits futures, so thousands of idle
connections are cheap.  Deadlines cancel the request's future: its
shards that have not started are never computed, and a shard already
running finishes with its result dropped (see
:meth:`~repro.runtime.WorkerPool.submit`).

Graceful drain (:meth:`Server.drain`): stop accepting connections, shed
every new ``predict`` with reason ``"draining"``, wait for the admitted
in-flight requests to finish, then close the registry (which drains
each runtime's pool).  ``ping`` keeps answering throughout, reporting
``draining: true``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time

import numpy as np

from .. import obs
from ..runtime import BatcherClosedError
from ..runtime.progressive import ProgressivePolicy
from .admission import AdmissionController
from .config import ServeConfig
from .protocol import (ProtocolError, decode_array, encode_array,
                       read_message, write_message)
from .registry import ModelRegistry

__all__ = ["Server", "snapshot_to_dict"]


def snapshot_to_dict(snapshot) -> dict:
    """A :class:`~repro.runtime.MetricsSnapshot` as JSON-encodable data,
    derived rates included."""
    data = dataclasses.asdict(snapshot)
    data["act_cache_hit_rate"] = snapshot.act_cache_hit_rate
    data["samples_per_s"] = snapshot.samples_per_s
    data["bits_per_s"] = snapshot.bits_per_s
    data["progressive_early_exit_rate"] = snapshot.progressive_early_exit_rate
    data["progressive_mean_final_length"] = \
        snapshot.progressive_mean_final_length
    return data


class Server:
    """Admission-controlled asyncio front end over the inference runtime.

    Use as an async context manager (``async with Server(cfg) as s:``)
    or call :meth:`start` / :meth:`drain` explicitly.  ``port=0`` in the
    config binds an ephemeral port, published as :attr:`port`.
    """

    def __init__(self, config: ServeConfig = None):
        self.config = config if config is not None else ServeConfig()
        self.registry = ModelRegistry(
            warm=self.config.models,
            max_loaded=self.config.max_loaded,
            phase_length=self.config.phase_length,
            seed=self.config.seed,
            runtime_config=self.config.runtime,
        )
        self.admission = AdmissionController(
            self.config.max_queue_depth,
            quota_rate=self.config.quota_rate,
            quota_burst=self.config.quota_burst,
        )
        self.counters = {
            "connections": 0, "requests": 0, "completed": 0,
            "shed_draining": 0, "shed_quota": 0, "shed_queue_full": 0,
            "deadline_expired": 0, "bad_requests": 0, "errors": 0,
        }
        self.port = None
        self._server = None
        self._kernel_scope = obs.KERNEL_COUNTERS.scope()
        self._started_at = None
        self._drained = asyncio.Event()
        self._request_seq = 0

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        """Warm the registry and start accepting connections."""
        # Plan compilation is CPU work; keep it off the event loop.
        await asyncio.to_thread(self.registry.warm_up)
        self._kernel_scope.rebase()   # warm-up kernels are not traffic
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.perf_counter()

    async def serve_forever(self) -> None:
        await self._server.serve_forever()

    async def drain(self) -> None:
        """Graceful shutdown; idempotent.

        In-flight (already admitted) requests run to completion — the
        registry is only closed after the last one resolves — while
        every newly arriving ``predict`` is shed with ``"draining"``.
        """
        if self._drained.is_set():
            return
        self.admission.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        while self.admission.in_flight > 0:
            await asyncio.sleep(0.002)
        await asyncio.to_thread(self.registry.close)
        self._drained.set()

    async def __aenter__(self):
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb):
        await self.drain()
        return False

    # -- connection handling -----------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        self.counters["connections"] += 1
        peer = writer.get_extra_info("peername")
        peer = f"{peer[0]}:{peer[1]}" if peer else "unknown"
        try:
            while True:
                try:
                    message = await read_message(reader)
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break
                except ProtocolError as exc:
                    self.counters["bad_requests"] += 1
                    await write_message(writer, {
                        "ok": False, "error": "bad_request",
                        "detail": str(exc),
                    })
                    break   # framing is lost; the connection is done
                response = await self._dispatch(message, peer)
                await write_message(writer, response)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, message: dict, peer: str) -> dict:
        kind = message.get("type")
        if kind == "predict":
            return await self._predict(message, peer)
        if kind == "metrics":
            return self._metrics_response()
        if kind == "ping":
            return {"ok": True, "type": "pong",
                    "draining": self.admission.draining,
                    "models": list(self.registry.loaded())}
        self.counters["bad_requests"] += 1
        return {"ok": False, "error": "bad_request",
                "detail": f"unknown message type {kind!r}"}

    # -- predict ------------------------------------------------------

    async def _predict(self, message: dict, peer: str) -> dict:
        t0 = time.perf_counter()
        self._request_seq += 1
        rid = message.get("id", self._request_seq)
        client = message.get("client") or peer
        self.counters["requests"] += 1
        reason = self.admission.admit(client)
        if reason is not None:
            self.counters["shed_" + reason] += 1
            return {"ok": False, "error": "shed", "reason": reason,
                    "id": rid}
        try:
            response = await self._run_admitted(message, rid, t0)
        finally:
            self.admission.release()
        return response

    async def _run_admitted(self, message: dict, rid, t0: float) -> dict:
        model = message.get("model")
        deadline_s = message.get("deadline_s",
                                 self.config.default_deadline_s)
        try:
            x = decode_array(message.get("x"))
            policy = ProgressivePolicy.from_request(
                message.get("progressive"), default=self.config.progressive)
        except (ProtocolError, TypeError, ValueError) as exc:
            self.counters["bad_requests"] += 1
            return {"ok": False, "error": "bad_request", "id": rid,
                    "detail": str(exc)}
        try:
            # A resident model is a dict lookup; only a miss compiles a
            # plan, which must stay off the event loop.
            runtime = self.registry.resident(model)
            if runtime is None:
                runtime = await asyncio.to_thread(self.registry.get, model)
        except (KeyError, TypeError) as exc:
            self.counters["bad_requests"] += 1
            return {"ok": False, "error": "bad_request", "id": rid,
                    "detail": str(exc)}
        except RuntimeError:
            # Registry closed under us: the server is draining.
            self.counters["shed_draining"] += 1
            return {"ok": False, "error": "shed", "reason": "draining",
                    "id": rid}
        if x.shape == tuple(runtime.plan.input_shape):
            x = x[None]   # single un-batched sample
        try:
            future = runtime.submit(x, policy)
        except BatcherClosedError:
            self.counters["shed_draining"] += 1
            return {"ok": False, "error": "shed", "reason": "draining",
                    "id": rid}
        except ValueError as exc:
            self.counters["bad_requests"] += 1
            return {"ok": False, "error": "bad_request", "id": rid,
                    "detail": str(exc)}
        remaining = (None if deadline_s is None
                     else deadline_s - (time.perf_counter() - t0))
        try:
            result = await asyncio.wait_for(asyncio.wrap_future(future),
                                            timeout=remaining)
        except asyncio.TimeoutError:
            # wait_for cancelled the future, an already expired deadline
            # included, so the pool skips the request's shards that have
            # not started.
            self.counters["deadline_expired"] += 1
            return {"ok": False, "error": "deadline", "id": rid,
                    "deadline_s": deadline_s}
        except BatcherClosedError:
            self.counters["shed_draining"] += 1
            return {"ok": False, "error": "shed", "reason": "draining",
                    "id": rid}
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self.counters["errors"] += 1
            return {"ok": False, "error": "internal", "id": rid,
                    "detail": f"{type(exc).__name__}: {exc}"}
        latency_s = time.perf_counter() - t0
        logits = result if policy is None else result.logits
        counters = {"samples": int(x.shape[0])}
        response = {
            "ok": True, "id": rid, "model": model,
            "logits": encode_array(logits),
            "argmax": np.argmax(logits, axis=-1).tolist(),
            "latency_s": latency_s,
        }
        if policy is not None:
            counters["phase_length"] = int(result.phase_length)
            response["progressive"] = {
                "phase_length": int(result.phase_length),
                "extensions": int(result.extensions),
                "early_exit": bool(result.early_exit),
                "margin": float(result.margin),
                "margin_bound": float(result.margin_bound),
                "history": [int(l) for l in result.history],
            }
        obs.tracer().record_span(f"request:{rid}", latency_s,
                                 category="request", counters=counters)
        self.counters["completed"] += 1
        return response

    # -- metrics ------------------------------------------------------

    def _metrics_response(self) -> dict:
        models = {name: snapshot_to_dict(snapshot) for name, snapshot
                  in self.registry.snapshots().items()}
        server = dict(self.counters)
        server.update(
            in_flight=self.admission.in_flight,
            peak_in_flight=self.admission.peak_in_flight,
            max_queue_depth=self.admission.max_depth,
            draining=self.admission.draining,
            quota_clients=len(self.admission.quotas),
            registry_loads=self.registry.loads,
            registry_evictions=self.registry.evictions,
            warm_models=list(self.registry.warm),
            loaded_models=list(self.registry.loaded()),
            uptime_s=(time.perf_counter() - self._started_at
                      if self._started_at is not None else 0.0),
        )
        kernels = {name: [calls, seconds] for name, (calls, seconds)
                   in sorted(self._kernel_scope.delta().items())}
        return {"ok": True, "server": server, "models": models,
                "kernels": kernels,
                "specialization": self.registry.specializations()}
