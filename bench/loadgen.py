"""Serving load: a ``python -m repro serve`` child and its clients.

The server runs in its own process, so the load generator (this
process: one asyncio loop on the main thread, at most two connections)
never shares an event loop or an interpreter lock with it.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import re
import select
import signal
import subprocess
import sys
import time

import numpy as np

from harness import ROOT, SRC, Call, child_guard, vm_hwm_mib
from repro import obs
from repro.serve import Client, decode_array

#: Seconds the server child may take to warm up and print its address.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0

_ADDRESS = re.compile(r" on ([0-9.]+):(\d+) ")


class ServerProcess:
    """One ``python -m repro serve`` child bound to an ephemeral port.

    ``args`` are the serve CLI's model and flags.  With ``trace`` the
    child runs with ``REPRO_TRACE=1``, so its ``metrics`` response
    carries per-IR-layer span totals.
    """

    def __init__(self, args: list, *, trace: bool = False):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        env.pop("REPRO_TRACE", None)
        if trace:
            env["REPRO_TRACE"] = "1"
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *args, "--port", "0"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            preexec_fn=child_guard())
        try:
            self.host, self.port = self._wait_for_address()
        except BaseException:
            self.close()
            raise

    def _wait_for_address(self) -> tuple:
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("server did not report its address")
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                       remaining)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server exited early (code {self.proc.wait()})")
            match = _ADDRESS.search(line)
            if match:
                return match.group(1), int(match.group(2))

    def peak_rss_mib(self) -> float:
        return vm_hwm_mib(self.proc.pid)

    def close(self) -> None:
        """Drain the server (SIGINT) and wait for it to exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


async def predict(client, model: str, payloads, key, start: float,
                  traced: bool) -> Call:
    """One ``predict_raw`` on ``client``; transport errors become a
    failed :class:`Call`.  ``start`` is when the latency clock began."""
    x = payloads[key]
    sent = time.perf_counter()
    try:
        response = await client.predict_raw(model, x)
    except (ConnectionError, asyncio.IncompleteReadError, OSError):
        response = None
    end = time.perf_counter()
    call = Call(key, x.shape[0], start, end)
    if response is None:
        return call
    call.info = {"sent": sent, "server_s": response.get("latency_s")}
    if response.get("ok"):
        call.logits = decode_array(response["logits"])
    if traced:
        # Recorded after the fact: the two connections interleave on one
        # thread, so context-managed spans would nest under each other.
        obs.tracer().record_span("bench:predict_raw", end - sent,
                                 category="bench")
        call.info["response_bytes"] = len(
            json.dumps(response, separators=(",", ":")))
    return call


async def closed_loop(host: str, port: int, model: str, payloads, keys,
                      seconds: float, *, connections: int = 2,
                      traced: bool = False) -> list:
    """Back-to-back requests on ``connections`` clients for ``seconds``.

    Requests in flight at the end complete and are kept.
    """
    calls = []
    t_end = time.perf_counter() + seconds

    async def connection(index: int) -> None:
        async with Client(host, port, client_id=f"bench-{index}") as client:
            while time.perf_counter() < t_end:
                start = time.perf_counter()
                calls.append(await predict(client, model, payloads,
                                           next(keys), start, traced))

    await asyncio.gather(*(connection(i) for i in range(connections)))
    return calls


def poisson_segments(rng: np.random.Generator, steps,
                     slice_s: float) -> list:
    """Open-loop arrival times for a ladder, cut into segments.

    ``steps`` is ``[(rate_rps, duration_s), ...]``.  Each step is cut
    into equal segments of at most ``slice_s``; each segment holds
    exactly ``round(rate * length)`` arrivals at uniformly random times
    (a Poisson process conditioned on its count), so every run offers
    the same load.  Returns ``[(step_index, length_s, offsets), ...]``.
    """
    segments = []
    for index, (rate, duration) in enumerate(steps):
        parts = max(1, math.ceil(duration / slice_s - 1e-9))
        length = duration / parts
        for _ in range(parts):
            count = max(1, round(rate * length))
            segments.append((index, length,
                             np.sort(rng.uniform(0.0, length, count))))
    return segments


async def open_loop(send, arrivals, connections: int) -> list:
    """Release ``arrivals`` on schedule to ``connections`` senders.

    ``send(connection_index, key, due)`` performs one request and
    returns its :class:`Call`.  Requests queue client-side until a
    connection is free, and each is timed from its due time, so a
    stalled request also charges the wait it imposes on the requests
    behind it.  Each call's ``info["late_s"]`` is how late the
    generator released it.  Returns ``(calls, t0)``, ``t0`` being the
    schedule's origin.
    """
    queue = asyncio.Queue()
    calls = []
    t0 = time.perf_counter()

    async def generator() -> None:
        for offset, key, step in arrivals:
            due = t0 + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((due, time.perf_counter() - due, key, step))
        for _ in range(connections):
            queue.put_nowait(None)

    async def worker(index: int) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            due, late, key, step = item
            call = await send(index, key, due)
            call.info.update(late_s=late, step=step)
            calls.append(call)

    await asyncio.gather(generator(),
                         *(worker(i) for i in range(connections)))
    return calls, t0
