"""Admission control: per-client token buckets + queue-depth bounding.

Two independent gates run before a request touches the runtime:

1. **Quota** — a classic token bucket per client identity (the
   ``client`` field of the request, falling back to the peer address).
   Sustained rate ``rate`` tokens/s, capacity ``burst``; an empty bucket
   sheds with reason ``"quota"``.  Buckets refill lazily on access, so
   an idle client costs nothing.
2. **Queue depth** — a hard bound on concurrently admitted requests.
   The worker pool itself never refuses work (its executor queue is
   unbounded), so without this gate an overloaded server grows that
   queue (and every request's latency) without bound; with it, request
   ``max_depth + 1`` is shed with reason ``"queue_full"`` while the
   admitted ones keep their latency.

Both gates are synchronous and O(1); the server calls them on the event
loop.  Time is injected (``now``) so tests are deterministic.
"""

from __future__ import annotations

import time

__all__ = ["AdmissionController", "QuotaTable", "TokenBucket"]


class TokenBucket:
    """Lazy-refill token bucket: ``rate`` tokens/s, ``burst`` capacity."""

    __slots__ = ("rate", "burst", "_tokens", "_stamp")

    def __init__(self, rate: float, burst: float, now: float = None):
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst <= 0:
            raise ValueError("burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._stamp = time.monotonic() if now is None else now

    def try_acquire(self, tokens: float = 1.0, now: float = None) -> bool:
        """Take ``tokens`` if available; never blocks."""
        if now is None:
            now = time.monotonic()
        elapsed = max(0.0, now - self._stamp)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._stamp = now
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False

    @property
    def tokens(self) -> float:
        """Tokens at the last refill point (diagnostic only)."""
        return self._tokens


class QuotaTable:
    """Per-client-identity buckets; ``rate=0`` disables quotas."""

    def __init__(self, rate: float, burst: float):
        self.rate = float(rate)
        self.burst = float(burst)
        self._buckets = {}

    def admit(self, client: str, now: float = None) -> bool:
        if self.rate <= 0:
            return True
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = self._buckets[client] = TokenBucket(
                self.rate, self.burst, now=now
            )
        return bucket.try_acquire(now=now)

    def __len__(self) -> int:
        return len(self._buckets)


class AdmissionController:
    """Quota gate + queue-depth gate + draining flag, in shed order.

    :meth:`admit` returns ``None`` on admission (the caller must pair it
    with :meth:`release`) or the shed reason string:
    ``"draining"`` / ``"quota"`` / ``"queue_full"``.  Draining is
    checked first (a draining server sheds everything new), quota before
    depth (a noisy client is shed even when capacity remains, so its
    traffic cannot crowd out compliant clients).
    """

    def __init__(self, max_depth: int, quota_rate: float = 0.0,
                 quota_burst: float = 8.0):
        if max_depth < 1:
            raise ValueError("max_depth must be positive")
        self.max_depth = max_depth
        self.quotas = QuotaTable(quota_rate, quota_burst)
        self.in_flight = 0
        self.peak_in_flight = 0
        self.draining = False

    def admit(self, client: str, now: float = None) -> str:
        if self.draining:
            return "draining"
        if not self.quotas.admit(client, now=now):
            return "quota"
        if self.in_flight >= self.max_depth:
            return "queue_full"
        self.in_flight += 1
        self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        return None

    def release(self) -> None:
        if self.in_flight <= 0:
            raise RuntimeError("release without a matching admit")
        self.in_flight -= 1
