"""Dispatch edge cases the serving layer leans on.

``WorkerPool.submit`` (behind ``InferenceRuntime.submit``) hands every
request to the executor on arrival.  The asyncio server (repro.serve)
turns request deadlines into Future cancellations and maps
:class:`BatcherClosedError` to shed responses, so the exact
close/cancel semantics of the pool are load-bearing: a request must
never be silently dropped, a cancelled request's shards that have not
started must never be computed, and close must be callable from any
number of threads at once.  Work is held with a gated shard run
(``compute_gate``), never with sleeps.
"""

import sys
import threading

import numpy as np
import pytest

from repro.networks import mnist_mlp
from repro.runtime import (BatcherClosedError, ExecutionPlan,
                           InferenceRuntime, ProgressivePolicy, RuntimeConfig,
                           RuntimeMetrics, WorkerPool)
from repro.simulator import SCConfig, SCNetwork

SHAPE = (1, 28, 28)


def _network():
    return SCNetwork.from_trained(mnist_mlp(seed=0),
                                  SCConfig(phase_length=4))


def _runtime(**overrides):
    defaults = dict(workers=2, backend="thread", shard_size=2)
    defaults.update(overrides)
    return InferenceRuntime(_network(), SHAPE,
                            config=RuntimeConfig(**defaults))


def _pool(workers=1):
    plan = ExecutionPlan(_network(), SHAPE)
    return WorkerPool(plan, RuntimeConfig(workers=workers, shard_size=2),
                      RuntimeMetrics())


def _x(n, value=None, seed=0):
    if value is not None:
        return np.full((n,) + SHAPE, value)
    return np.random.default_rng(seed).uniform(0, 1, (n,) + SHAPE)


class TestZeroTimeoutFlush:
    def test_zero_wait_flushes_immediately(self, compute_gate):
        # An idle 2-worker pool starts a 1-sample request with no other
        # request in sight: nothing waits for a fuller batch.
        with _pool(workers=2) as pool:
            gate = compute_gate(pool.plan)
            future = pool.submit(_x(1))
            assert gate.wait_for(1)
            assert not future.done()
            assert pool.metrics.snapshot().queue_depth == 1
            gate.open()
            assert future.result(timeout=10.0).shape == (1, 10)

    def test_zero_wait_through_runtime(self):
        with _runtime() as runtime:
            x = _x(1)
            logits = runtime.submit(x).result(timeout=30.0)
            np.testing.assert_array_equal(logits, runtime.infer(x))


class TestCloseSemantics:
    def test_submit_after_close_raises_typed_error(self):
        pool = _pool()
        pool.submit(_x(1)).result(timeout=10.0)
        pool.close()
        with pytest.raises(BatcherClosedError):
            pool.submit(_x(1))
        # Typed, but still the historical RuntimeError for old callers.
        assert issubclass(BatcherClosedError, RuntimeError)

    def test_close_idempotent_and_reentrant(self):
        pool = _pool()
        pool.submit(_x(1)).result(timeout=10.0)
        pool.close()
        pool.close()
        pool.close()

    def test_drain_on_close_resolves_queued_requests_in_order(
            self, compute_gate):
        # One worker, held: the first request runs, four queue behind
        # it.  close() must wait for all five, which compute in arrival
        # order and resolve per request.
        pool = _pool()
        expected = [pool.run_batch(_x(1, float(i) / 8)) for i in range(5)]
        gate = compute_gate(pool.plan)
        futures = [pool.submit(_x(1, float(i) / 8)) for i in range(5)]
        assert gate.wait_for(1)
        closer = threading.Thread(target=pool.close)
        closer.start()
        gate.open()
        closer.join(timeout=30.0)
        assert not closer.is_alive()
        for future, logits in zip(futures, expected):
            assert future.done()
            np.testing.assert_array_equal(future.result(), logits)
        assert [float(s[0, 0, 0, 0]) for s in gate.shards] == [
            float(i) / 8 for i in range(5)]

    def test_concurrent_close_and_submit_never_drops_a_request(self):
        pool = _pool(workers=2)
        expected = pool.run_batch(_x(1))
        futures, refused = [], []
        start = threading.Barrier(5)

        def submitter():
            start.wait()
            for i in range(20):
                try:
                    futures.append(pool.submit(_x(1)))
                except BatcherClosedError:
                    refused.append(i)

        def closer():
            start.wait()
            pool.close()

        threads = ([threading.Thread(target=submitter) for _ in range(3)]
                   + [threading.Thread(target=closer),
                      threading.Thread(target=closer)])
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        assert len(futures) + len(refused) == 60
        # Every accepted submission resolved; none hangs or errors.
        for future in futures:
            assert future.done()
            np.testing.assert_array_equal(future.result(), expected)


class TestCancellation:
    def test_cancelled_queued_request_is_never_computed(self, compute_gate):
        # A queued predict and a queued progressive request alike.
        with _pool() as pool:
            gate = compute_gate(pool.plan)
            first = pool.submit(_x(1, 0.25))
            assert gate.wait_for(1)   # the only worker is held
            queued = [pool.submit(_x(1, 0.5)),
                      pool.submit(_x(1, 0.75),
                                  ProgressivePolicy(start_phase_length=2))]
            for future in queued:
                assert future.cancel()
            gate.open()
            first.result(timeout=10.0)
        assert all(future.cancelled() for future in queued)
        # The cancelled requests' samples were never computed.
        assert [float(s[0, 0, 0, 0]) for s in gate.shards] == [0.25]
        snap = pool.metrics.snapshot()
        assert snap.queue_depth == 0 and snap.max_queue_depth == 3
        assert snap.shards == 1 and snap.progressive_requests == 0

    def test_cancel_losing_the_race_still_gets_a_result(self):
        # A deadline expiring after the request resolved: cancel() must
        # fail cleanly and the result must stand.
        with _pool() as pool:
            future = pool.submit(_x(1))
            logits = future.result(timeout=10.0)
            assert not future.cancel()
            assert not future.cancelled()
            np.testing.assert_array_equal(future.result(), logits)

    def test_cancel_while_running_drops_the_result(self, compute_gate):
        # The shard already running finishes; the request stays
        # cancelled, and landing its result raises nothing.
        with _pool() as pool:
            gate = compute_gate(pool.plan)
            future = pool.submit(_x(3))
            assert gate.wait_for(1)
            assert future.cancel()
            gate.open()
        assert future.cancelled()
        assert len(gate.shards) == 1   # the queued second shard never ran
        snap = pool.metrics.snapshot()
        assert snap.shards == 1 and snap.errors == 0
        assert snap.queue_depth == 0

    def test_wave_of_only_cancelled_requests_skips_processing(
            self, compute_gate):
        with _pool() as pool:
            gate = compute_gate(pool.plan)
            first = pool.submit(_x(1, 0.25))
            assert gate.wait_for(1)
            futures = [pool.submit(_x(2, 0.5)) for _ in range(3)]
            for future in futures:
                assert future.cancel()
            gate.open()
            first.result(timeout=10.0)
        assert all(f.cancelled() for f in futures)
        assert len(gate.shards) == 1


class TestShardLandingStress:
    def test_many_requests_landing_on_many_threads(self):
        # More workers than cores, one sample per shard and a short
        # switch interval: shards of one request land on different
        # threads at once, so a lost update in a request's pending
        # count or the pool's counters would hang or corrupt a merge.
        plan = ExecutionPlan(_network(), SHAPE)
        metrics = RuntimeMetrics()
        requests = [_x(n, seed=n) for n in (3, 5, 8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with WorkerPool(plan, RuntimeConfig(workers=4, shard_size=1),
                            metrics) as pool:
                expected = [pool.run_batch(x) for x in requests]
                futures = [(k, pool.submit(requests[k]))
                           for k in range(len(requests)) for _ in range(8)]
                for k, future in futures:
                    np.testing.assert_array_equal(
                        future.result(timeout=60.0), expected[k])
        finally:
            sys.setswitchinterval(interval)
        snap = metrics.snapshot()
        assert snap.shards == 9 * 16
        assert snap.queue_depth == 0 and snap.max_queue_depth >= 1


class TestWorkerPoolClose:
    def _pool(self):
        return _runtime()

    def test_close_concurrent_from_many_threads(self):
        runtime = self._pool()
        pool = runtime.pool
        x = np.random.default_rng(1).uniform(0, 1, (2, 1, 28, 28))
        pool.run_batch(x)   # spin the executor up
        threads = [threading.Thread(target=pool.close) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert not any(t.is_alive() for t in threads)
        runtime.close()

    def test_submit_after_close_raises_typed_error(self):
        runtime = self._pool()
        runtime.pool.close()
        x = np.random.default_rng(1).uniform(0, 1, (2, 1, 28, 28))
        with pytest.raises(BatcherClosedError):
            runtime.pool.run_batch(x)
        runtime.close()

    def test_runtime_submit_after_close_is_typed(self):
        runtime = self._pool()
        runtime.close()
        with pytest.raises(BatcherClosedError):
            runtime.infer(np.zeros((1, 1, 28, 28)))

    def test_pool_close_still_idempotent(self):
        runtime = self._pool()
        runtime.pool.close()
        runtime.pool.close()
        runtime.close()
        runtime.close()
