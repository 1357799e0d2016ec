"""Shared-memory publication of compiled plans.

Without it, each process-pool worker gets the warm plan through the
pool initializer: a copy-on-write copy of the parent's under ``fork``,
its own unpickled copy under ``spawn`` and ``forkserver``.  This module
moves the compiled plan into one ``multiprocessing.shared_memory``
segment instead:

- :func:`publish_plan` pickles the
  :class:`~repro.runtime.plan.ExecutionPlan` with its layers' warm
  :class:`~repro.simulator.layers.LayerPlanCache` contents (engine
  plans: weight words and channel blocks; gather tables) with pickle
  protocol 5, hoisting every contiguous numpy buffer out of band, and
  lays the pickle stream and the buffers into one segment.
- :func:`attach_plan` maps the segment read-only in a worker and
  reconstructs the plan **zero-copy**: every hoisted array is a
  read-only numpy view directly onto the shared pages, so N workers
  share one physical copy of the weights.  Activation encode tables are
  not published: each worker builds the ones its shards touch in its
  own :data:`~repro.simulator.engine.ENCODE_CACHE`, like every other
  process that runs a plan.
- :data:`SHARED_PLANS` refcounts publications keyed by
  ``(model, specialization_fingerprint, bit_offset)``: pools serving
  the same compiled model share one segment, and the segment is
  unlinked when the last owner releases it
  (:meth:`~repro.runtime.workers.WorkerPool.close` / serve registry
  eviction) or at interpreter exit.
- :func:`cleanup_orphan_segments` reclaims segments whose owning
  process died without releasing (SIGKILL, crash): segment names embed
  the owner pid, so liveness is checkable from any process.

Platform notes: POSIX shared memory lives in ``/dev/shm`` (size the
tmpfs accordingly); CPython's ``resource_tracker`` registers a segment
on *attach* as well as create, which would make the first exiting
worker unlink a segment it does not own — attachers therefore suppress
tracker registration entirely and ownership stays with the registry
(with :func:`cleanup_orphan_segments` as the crash backstop).  When shared
memory is unavailable the worker pool falls back to shipping pickled
plans per worker — the canonical, bit-identical path.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
import uuid
from dataclasses import dataclass

try:  # pragma: no cover - present on every supported platform
    from multiprocessing import resource_tracker, shared_memory
    _HAVE_SHM = True
except ImportError:  # pragma: no cover
    resource_tracker = shared_memory = None
    _HAVE_SHM = False

__all__ = [
    "PlanRef",
    "SharedPlanRegistry",
    "SHARED_PLANS",
    "attach_plan",
    "attached_segments",
    "cleanup_orphan_segments",
    "detach_plan",
    "list_repro_segments",
    "publish_plan",
    "shm_info",
    "shm_supported",
    "unlink_segment",
]

#: Segment names are ``repro-shm-<owner pid>-<token>`` so any process
#: can tell whether a segment's owner is still alive.
SEGMENT_PREFIX = "repro-shm"

#: Out-of-band buffers are laid out on 64-byte boundaries (cache-line
#: aligned, and a multiple of every numpy itemsize in use).
_ALIGN = 64

_SUPPORTED = None


def shm_supported() -> bool:
    """Whether this platform can create + attach shared segments.

    Probed once per process with a tiny create/attach/unlink cycle;
    platforms without ``/dev/shm`` (or with the module missing) report
    ``False`` and the pool falls back to per-process plan shipping.
    """
    global _SUPPORTED
    if _SUPPORTED is not None:
        return _SUPPORTED
    if not _HAVE_SHM:
        _SUPPORTED = False
        return False
    try:
        probe = shared_memory.SharedMemory(
            name=_segment_name(), create=True, size=_ALIGN)
        probe.close()
        probe.unlink()
        _SUPPORTED = True
    except (OSError, ValueError):
        _SUPPORTED = False
    return _SUPPORTED


def _segment_name() -> str:
    return f"{SEGMENT_PREFIX}-{os.getpid()}-{uuid.uuid4().hex[:12]}"


def _aligned(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


# --------------------------------------------------------------------
# Publication
# --------------------------------------------------------------------

@dataclass(frozen=True)
class PlanRef:
    """Picklable reference to one published segment.

    This is what actually crosses the process boundary: a few ints and
    strings describing where in the segment the pickle payload and each
    out-of-band array buffer live.  ``key`` is the registry identity
    ``(model, specialization_fingerprint, bit_offset)``.
    """

    key: tuple
    segment: str
    owner_pid: int
    payload: tuple          # (offset, length) of the pickle stream
    buffers: tuple          # ((offset, length), ...) hoisted arrays
    total_bytes: int
    weight_bytes: int


def _pack(obj) -> tuple:
    """Pickle ``obj`` with out-of-band buffers; returns the layout.

    The buffer callback must return a *false* value: per the pickle
    docs, a truthy return tells the pickler to serialize the buffer
    in-band after all, which would silently duplicate every array into
    the payload and defeat zero-copy on attach.
    """
    buffers = []

    def hoist(buf):
        buffers.append(buf)

    payload = pickle.dumps(obj, protocol=5, buffer_callback=hoist)
    raws, spans = [], []
    offset = _aligned(len(payload))
    for buf in buffers:
        raw = buf.raw()
        raws.append(raw)
        spans.append((offset, raw.nbytes))
        offset = _aligned(offset + raw.nbytes)
    return payload, raws, spans, offset


def publish_plan(key, plan) -> PlanRef:
    """Write ``plan`` into a new segment.

    Returns the :class:`PlanRef` a worker needs to :func:`attach_plan`.
    Prefer :meth:`SharedPlanRegistry.acquire` for refcounted lifetime.
    """
    if not shm_supported():
        raise RuntimeError("shared memory is not supported on this host")
    payload, raws, spans, total = _pack(plan)
    with _TRACKER_LOCK:
        segment = shared_memory.SharedMemory(
            name=_segment_name(), create=True, size=max(total, _ALIGN))
    try:
        segment.buf[:len(payload)] = payload
        for (off, length), raw in zip(spans, raws):
            segment.buf[off:off + length] = raw
    except BaseException:
        segment.close()
        segment.unlink()
        raise
    ref = PlanRef(
        key=tuple(key), segment=segment.name, owner_pid=os.getpid(),
        payload=(0, len(payload)), buffers=tuple(spans),
        total_bytes=total, weight_bytes=_weight_bytes(plan),
    )
    # The creating SharedMemory object is handed to the registry (or the
    # caller) for lifetime management; attach-side objects are tracked
    # separately in _ATTACHED.
    _OWNED[ref.segment] = segment
    return ref


_OWNED = {}      # segment name -> owner-side SharedMemory


def _weight_bytes(plan) -> int:
    """Weight words the plan's installed engine plans hold (0 for a
    payload that is not an :class:`~repro.runtime.ExecutionPlan`)."""
    specialization = getattr(plan, "specialization", None)
    if specialization is None:
        return 0
    return sum(ph.w_words.nbytes for kp in specialization.plans.values()
               for ph in kp.matmul.phases)


# --------------------------------------------------------------------
# Attach / detach (worker side)
# --------------------------------------------------------------------

_ATTACHED = {}   # segment name -> [SharedMemory, plan or None]
_ATTACH_LOCK = threading.Lock()
_ATTACH_EXIT_HOOKED = False


def attach_plan(ref: PlanRef):
    """Map ``ref``'s segment and reconstruct its plan zero-copy.

    Every hoisted array in the returned plan is a read-only view onto
    the shared pages.  Idempotent per segment.
    """
    global _ATTACH_EXIT_HOOKED
    with _ATTACH_LOCK:
        entry = _ATTACHED.get(ref.segment)
        if entry is not None and entry[1] is not None:
            plan = entry[1]
        else:
            # Either a fresh attach or a re-read after a detach that
            # failed under live views (which keeps the mapping but
            # drops the cached plan).
            segment = entry[0] if entry is not None \
                else _attach_segment(ref.segment)
            views = [segment.buf[off:off + length].toreadonly()
                     for off, length in ref.buffers]
            off, length = ref.payload
            plan = pickle.loads(bytes(segment.buf[off:off + length]),
                                buffers=views)
            _ATTACHED[ref.segment] = [segment, plan]
        if not _ATTACH_EXIT_HOOKED:
            _ATTACH_EXIT_HOOKED = True
            atexit.register(_abandon_attachments_at_exit)
    return plan


def detach_plan(segment_name: str) -> bool:
    """Drop this process's attachment to ``segment_name``.

    Returns whether an attachment existed.  Raises ``BufferError`` if
    arrays reconstructed from the segment are still alive *outside*
    this module — the mapping cannot be torn down under live views,
    which is exactly the safety property the refcount tests rely on.
    The attachment survives a failed detach (minus its cached plan),
    so dropping the views and calling again succeeds.
    """
    with _ATTACH_LOCK:
        entry = _ATTACHED.pop(segment_name, None)
        if entry is None:
            return False
        segment = entry[0]
        # Drop this module's own plan reference before closing: the
        # cache itself must not count as a live view.
        entry[1] = None
        del entry
        try:
            segment.close()
        except BufferError:
            # close() released the managed view before the mmap close
            # failed; rebuild it so the retained attachment stays
            # usable for re-reads and a later retry.
            segment._buf = memoryview(segment._mmap)
            _ATTACHED[segment_name] = [segment, None]
            raise
    return True


def _abandon_attachments_at_exit() -> None:
    """Leak attached mappings to the kernel at interpreter exit.

    Worker processes hold plan views for their whole lifetime, so
    ``SharedMemory.__del__``'s ``close()`` would raise (ignored but
    noisy) ``BufferError`` during shutdown.  The process is dying and
    the kernel reclaims the mappings regardless; dropping the private
    handles makes ``close()`` a no-op.  Segment *lifetime* is owner-side
    state and is untouched by this.
    """
    with _ATTACH_LOCK:
        for entry in _ATTACHED.values():
            entry[0]._buf = None
            entry[0]._mmap = None
        _ATTACHED.clear()


def attached_segments() -> tuple:
    """Segment names this process is currently attached to."""
    with _ATTACH_LOCK:
        return tuple(_ATTACHED)


def _attach_segment(name: str):
    """Open an existing segment *without* resource-tracker registration.

    CPython < 3.13 registers a segment with the resource tracker on
    attach as well as create.  Pool workers share the parent's tracker
    (its registration set has set semantics), so an attacher either
    cancelling the owner's registration via ``unregister`` or leaving a
    duplicate behind both end badly — the clean behavior is for
    attachers to never touch the tracker at all: ownership stays with
    the publishing process, and :func:`cleanup_orphan_segments` is the
    crash backstop.  (Python 3.13+ exposes this as ``track=False``.)
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    with _TRACKER_LOCK:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


#: Serializes attach-side register suppression against owner-side
#: segment creation, so a concurrent publish can never lose its
#: tracker registration to the monkeypatch window (pre-3.13 only).
_TRACKER_LOCK = threading.Lock()


# --------------------------------------------------------------------
# Refcounted registry (owner side)
# --------------------------------------------------------------------

class SharedPlanRegistry:
    """Refcounted owner of published segments.

    ``acquire`` returns the existing publication for a key (bumping its
    refcount) or builds and publishes a new one; ``release`` drops a
    reference and unlinks the segment when the last holder is gone.
    One instance per process (:data:`SHARED_PLANS`); worker pools and
    the serve registry acquire/release through it, and an ``atexit``
    hook unlinks anything still live so a clean shutdown never leaks
    ``/dev/shm`` entries.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._pubs = {}        # key -> [PlanRef, refcount]
        # Forked workers inherit this registry (and its atexit hook)
        # by copy; only the process that created a registry may unlink
        # through it, or the first exiting worker would tear down
        # segments its siblings still map.
        self._pid = os.getpid()

    def acquire(self, key, build) -> PlanRef:
        """The publication for ``key``; ``build()`` returns the plan and
        runs only on first acquire (under the registry lock, so
        concurrent acquirers of one key publish exactly once)."""
        key = tuple(key)
        with self._lock:
            entry = self._pubs.get(key)
            if entry is not None:
                entry[1] += 1
                return entry[0]
            # Publish opportunistically reclaims segments of crashed
            # owners before adding a new one.
            cleanup_orphan_segments()
            ref = publish_plan(key, build())
            self._pubs[key] = [ref, 1]
            return ref

    def release(self, key) -> bool:
        """Drop one reference; unlink on the last.  Returns whether the
        segment was unlinked."""
        key = tuple(key)
        with self._lock:
            entry = self._pubs.get(key)
            if entry is None:
                return False
            entry[1] -= 1
            if entry[1] > 0:
                return False
            ref = entry[0]
            del self._pubs[key]
        unlink_segment(ref.segment)
        return True

    def refcount(self, key) -> int:
        with self._lock:
            entry = self._pubs.get(tuple(key))
            return entry[1] if entry is not None else 0

    def stats(self) -> dict:
        """JSON-ready accounting of live publications."""
        with self._lock:
            pubs = [
                {"model": ref.key[0],
                 "fingerprint": ref.key[1],
                 "bit_offset": ref.key[2],
                 "segment": ref.segment,
                 "bytes": ref.total_bytes,
                 "weight_bytes": ref.weight_bytes,
                 "refcount": count}
                for ref, count in self._pubs.values()
            ]
        return {
            "supported": shm_supported(),
            "segments": len(pubs),
            "bytes": sum(p["bytes"] for p in pubs),
            "publications": pubs,
        }

    def release_all(self) -> None:
        """Unlink every live publication (interpreter shutdown)."""
        if os.getpid() != self._pid:
            return
        with self._lock:
            refs = [entry[0] for entry in self._pubs.values()]
            self._pubs.clear()
        for ref in refs:
            unlink_segment(ref.segment)

    def __len__(self) -> int:
        with self._lock:
            return len(self._pubs)


#: The process-wide publication registry.
SHARED_PLANS = SharedPlanRegistry()
atexit.register(SHARED_PLANS.release_all)


def unlink_segment(name: str) -> None:
    """Close the owner mapping and remove the segment from the system.

    Safe to call for already-unlinked segments (crash recovery may race
    an orderly release).
    """
    segment = _OWNED.pop(name, None)
    if segment is None:
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            return
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - lost the race
        pass
    segment.close()


# --------------------------------------------------------------------
# Orphan cleanup
# --------------------------------------------------------------------

def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other user's pid
        return True
    return True


def list_repro_segments() -> list:
    """Every ``repro-shm-*`` segment currently in ``/dev/shm``."""
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-POSIX
        return []
    return sorted(fname for fname in os.listdir(shm_dir)
                  if fname.startswith(SEGMENT_PREFIX + "-"))


def cleanup_orphan_segments() -> list:
    """Unlink segments whose owning process no longer exists.

    The owner pid is embedded in the segment name, so a freshly started
    (or long-lived) process can reclaim what a SIGKILL'd one left
    behind.  Called opportunistically on every publish and from
    registry shutdown; also part of the public API for operational
    tooling.  Returns the reclaimed segment names.
    """
    removed = []
    if not _HAVE_SHM:
        return removed
    for fname in list_repro_segments():
        parts = fname.split("-")
        try:
            pid = int(parts[2])
        except (IndexError, ValueError):
            continue
        if _pid_alive(pid):
            continue
        try:
            segment = shared_memory.SharedMemory(name=fname)
        except FileNotFoundError:
            continue
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass
        segment.close()
        removed.append(fname)
    return removed


def shm_info() -> dict:
    """Operational summary: publications owned + segments attached."""
    info = SHARED_PLANS.stats()
    info["attached"] = list(attached_segments())
    return info
