"""Measurement helpers shared by the workloads.

Statistics (percentiles with the ten-beyond tail rule), bit-for-bit
reference checks, the host-speed probe, peak RSS, span self time, child
process lifetime and the host fingerprint.  Run as a script, this file
is the probe's child process.
"""

from __future__ import annotations

import asyncio
import base64
import ctypes
import functools
import hashlib
import json
import multiprocessing
import os
import pathlib
import platform
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = BENCH_DIR / "expected.json"

#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10

@dataclass(eq=False)
class Call:
    """One timed request: what was asked, when, and what came back."""

    key: object             # reference key (pool index, or (index, length))
    samples: int
    start: float            # send time (closed loop) or due time (open)
    end: float
    logits: np.ndarray = None     # None when the request failed
    info: dict = field(default_factory=dict)

    @property
    def latency(self) -> float:
        return self.end - self.start


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def load_expected() -> dict:
    """Committed sha256 of each workload's reference logits at seed 0."""
    if not EXPECTED_PATH.exists():
        return {}
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


# -- statistics --------------------------------------------------------

def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie beyond the ``pct`` percentile."""
    return int(n * (100.0 - pct) / 100.0 + 1e-9)


def tail(values, pct: float) -> tuple:
    """``(value, beyond)`` for the ``pct`` percentile of ``values``.

    ``beyond`` is the sample count past the percentile; fewer than
    :data:`MIN_BEYOND` makes the tail unreliable, which the caller
    reports rather than hides.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("no samples")
    return float(np.percentile(values, pct)), samples_beyond(values.size, pct)


def quartiles(values) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# -- correctness -------------------------------------------------------

def check_calls(calls, reference: dict) -> tuple:
    """``(verified, wrong)``: the calls whose logits equal
    ``reference[key]`` bit for bit, and how many returned other logits.

    A call that returned no logits (error, shed or deadline) is neither
    verified nor wrong; it is still a failure.
    """
    verified, wrong = [], 0
    for call in calls:
        if call.logits is None:
            continue
        if np.array_equal(call.logits, reference[call.key]):
            verified.append(call)
        else:
            wrong += 1
    return verified, wrong


def digest(arrays) -> str:
    """sha256 over the raw float64 bytes of ``arrays``, in order."""
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
    return h.hexdigest()


def balanced_keys(rng: np.random.Generator, n: int):
    """Endless stream of seeded permutations of ``range(n)``.

    Every full cycle uses each pool entry once, so the request mix a run
    sees depends on the seed only through order, not through which
    inputs happen to be drawn more often.
    """
    while True:
        yield from (int(i) for i in rng.permutation(n))


# -- host speed --------------------------------------------------------

#: Median seconds of the numpy probe kernel and of a control round trip
#: on the reference host (a 2-vCPU Xeon VM) when nothing else runs:
#: normalized metrics read as if measured there.
PROBE_REF_S = 0.045
CONTROL_REF_S = 0.0021
PROBE_THREADS = 2
#: Each numpy reading repeats the kernel for this long (at least three
#: times); each control reading runs round trips for ``CONTROL_SECONDS``.
PROBE_SECONDS = 0.1
CONTROL_SECONDS = 0.1
CONTROL_CONNECTIONS = 2

#: Longest stretch of measurement between two probes.
SLICE_S = 1.0


def _probe_kernel(words) -> int:
    """AND, OR-reduce and popcount over word-packed streams: the memory
    and ALU mix of the SC kernels, in plain numpy."""
    return int(np.bitwise_count(
        np.bitwise_or.reduce(words[:, None] & words[None, :8], axis=2)).sum())


def probe_seconds(words) -> float:
    """Median seconds of ``PROBE_THREADS`` probe kernels running at once."""
    times = []
    t_end = time.perf_counter() + PROBE_SECONDS
    while time.perf_counter() < t_end or len(times) < 3:
        pool = [threading.Thread(target=_probe_kernel, args=(words,))
                for _ in range(PROBE_THREADS)]
        t0 = time.perf_counter()
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        times.append(time.perf_counter() - t0)
    return float(statistics.median(times))


# The serving control: a request path shaped like ``repro.serve`` (an
# asyncio TCP server, length-prefixed JSON frames carrying a base64
# array, the work split over two executor threads) that runs none of
# the code under test.

def _frame(obj) -> bytes:
    body = json.dumps(obj, separators=(",", ":")).encode()
    return len(body).to_bytes(4, "big") + body


async def _read_frame(reader) -> dict:
    size = int.from_bytes(await reader.readexactly(4), "big")
    return json.loads(await reader.readexactly(size))


async def _control_server(words, announce) -> None:
    """Serve control requests until the process exits; ``announce`` gets
    the port."""
    loop = asyncio.get_running_loop()
    pool = ThreadPoolExecutor(max_workers=PROBE_THREADS)

    async def handle(reader, writer):
        try:
            while True:
                x = np.frombuffer(base64.b64decode(
                    (await _read_frame(reader))["x"]), dtype=np.float64)
                counts = await asyncio.gather(*(
                    loop.run_in_executor(pool, _probe_kernel, w)
                    for w in np.array_split(words, PROBE_THREADS)))
                writer.write(_frame({"y": base64.b64encode(
                    (x[:10] * sum(counts)).tobytes()).decode()}))
                await writer.drain()
        except asyncio.IncompleteReadError:
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    announce(server.sockets[0].getsockname()[1])
    await server.serve_forever()


async def _control_round_trips(port: int, request: bytes) -> float:
    """Median seconds of a control round trip, ``CONTROL_CONNECTIONS``
    closed-loop connections at once."""
    times = []
    t_end = time.perf_counter() + CONTROL_SECONDS

    async def connection():
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            while time.perf_counter() < t_end or len(times) < 10:
                t0 = time.perf_counter()
                writer.write(request)
                await writer.drain()
                await _read_frame(reader)
                times.append(time.perf_counter() - t0)
        finally:
            writer.close()
            await writer.wait_closed()

    await asyncio.gather(*(connection()
                           for _ in range(CONTROL_CONNECTIONS)))
    return float(statistics.median(times))


class HostProbe:
    """How slow the host runs right now, relative to the reference.

    Neighbours on a shared host slow this program by up to 2x for
    minutes at a time, and when the hypervisor takes the CPUs away for
    stretches, a request that waits on several wake-ups across processes
    and threads slows down more than a kernel that only computes.  So
    the probe measures two things, neither using the code under test:
    the numpy kernel, and round trips through the serving control.  A
    workload's slowness mixes the two by its ``control_share``; dividing
    a stretch's latencies by the slowness measured around it removes
    the host's drift and keeps the program's own changes.  Both run in a
    child process (``python3 bench/harness.py`` prints the control's
    port, then answers one kernel timing per input line), so their
    memory stays out of the program's peak RSS.  ``readings`` keeps
    every ``(numpy, control)`` slowness pair.
    """

    def __init__(self, control_share: float):
        self.control_share = control_share
        self.readings = []
        self.proc = subprocess.Popen(
            [sys.executable, str(pathlib.Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            preexec_fn=child_guard())
        try:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("host probe did not start")
            self.port = int(line)
        except BaseException:
            self.close()
            raise
        payload = np.random.default_rng(0).uniform(0.0, 1.0, (2, 784))
        self.request = _frame(
            {"x": base64.b64encode(payload.tobytes()).decode()})

    def read(self) -> tuple:
        """One ``(numpy, control)`` slowness reading."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("host probe exited")
        control_s = asyncio.run(_control_round_trips(self.port,
                                                     self.request))
        self.readings.append((float(line) / PROBE_REF_S,
                              control_s / CONTROL_REF_S))
        return self.readings[-1]

    def slowness(self) -> float:
        numpy_slow, control_slow = self.read()
        return ((1.0 - self.control_share) * numpy_slow
                + self.control_share * control_slow)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


# -- process lifetime --------------------------------------------------

_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36


@functools.lru_cache(maxsize=None)
def _libc_prctl():
    """libc's ``prctl``, or ``None`` (not Linux).  Looked up in the
    parent, so a freshly forked child calls it without loading a
    library."""
    try:
        return ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return None


def _prctl(option: int, value: int) -> bool:
    prctl = _libc_prctl()
    return prctl is not None and prctl(option, value, 0, 0, 0) == 0


def die_with_parent(parent: int = None) -> None:
    """Have the kernel kill this process when its parent ends.

    Runs in a child right after fork.  ``parent`` is the pid that must
    still be the parent; if it has already ended, so does the child.
    """
    _prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if parent is not None and os.getppid() != parent:
        os._exit(1)


def child_guard():
    """``preexec_fn`` for a child of this process: it dies with us."""
    _libc_prctl()
    return functools.partial(die_with_parent, os.getpid())


def adopt_descendants() -> None:
    """Keep every process this run starts from outliving it.

    This process becomes the reaper of its orphaned descendants, so the
    exit sweep in ``bench/run.py`` finds them, and every process it forks
    (the pool workers of ``repro.runtime``) is killed if it is killed.
    """
    _prctl(_PR_SET_CHILD_SUBREAPER, 1)
    os.register_at_fork(after_in_child=die_with_parent)


# -- memory ------------------------------------------------------------

def vm_hwm_mib(pid="self") -> float:
    """Peak resident set (``VmHWM``) of one process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def program_peak_rss_mib() -> float:
    """Peak RSS of this process plus its live pool children."""
    total = vm_hwm_mib()
    for child in multiprocessing.active_children():
        try:
            total += vm_hwm_mib(child.pid)
        except (FileNotFoundError, ProcessLookupError):
            pass
    return total


# -- spans -------------------------------------------------------------

def self_seconds(span, nested) -> float:
    """``span``'s duration minus the part its ``nested`` children cover.

    ``nested(child)`` selects which children count (for an IR layer,
    only nested IR layers, so its kernels stay in its time).  Children
    may run in parallel on other threads, so their intervals are merged
    before subtracting.
    """
    covered, reach = 0.0, span.start_s
    for lo, hi in sorted((c.start_s, c.end_s) for c in span.children
                         if nested(c)):
        lo, hi = max(lo, reach), min(hi, span.end_s)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.duration_s - covered


# -- host --------------------------------------------------------------

_ENV_PREFIXES = ("REPRO_", "OMP_", "OPENBLAS_", "MKL_", "BLIS_",
                 "VECLIB_", "NUMEXPR_")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def host_fingerprint() -> dict:
    """Where and with what a result was measured."""
    from repro.simulator import jit as scjit
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "jit": scjit.status(),
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith(_ENV_PREFIXES)},
        "commit": _git_commit(),
    }


if __name__ == "__main__":
    _rng = np.random.default_rng(0xC0FFEE)
    _words = _rng.integers(0, 2**63, (64, 4096, 2), dtype=np.uint64)
    _control_words = _rng.integers(0, 2**63, (16, 512, 2), dtype=np.uint64)
    _port = queue.Queue()

    def _serve_control():
        try:
            asyncio.run(_control_server(_control_words, _port.put))
        finally:
            _port.put(None)     # the server could not start

    # A daemon thread: the control server ends with the process, which
    # ends when the parent closes stdin.
    threading.Thread(target=_serve_control, daemon=True).start()
    _first = _port.get()
    if _first is None:
        sys.exit(1)
    print(_first, flush=True)
    for _ in sys.stdin:
        print(probe_seconds(_words), flush=True)
