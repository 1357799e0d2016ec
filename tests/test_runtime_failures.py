"""Failure-path and lifecycle tests for the inference runtime.

The happy paths are covered by ``test_runtime.py``; this module hardens
the edges: worker exceptions surfacing across every backend (including
the process pool, where the error crosses a pickle boundary), repeated
and mid-flight ``close()``, and degenerate batches (zero rows, empty
requests) round-tripping through ``run_batch`` and ``submit``.
"""

import threading

import numpy as np
import pytest

from repro.runtime import InferenceRuntime, RuntimeConfig, WorkerPool
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.plan import ExecutionPlan
from repro.simulator import SCConfig, SCLinear, SCNetwork

IN_FEATURES = 12
OUT_FEATURES = 4
SHAPE = (IN_FEATURES,)


class ExplodingLinear(SCLinear):
    """SC linear layer whose forward always fails.

    Module-level so the plan stays picklable: the process backend ships
    it to pool workers, where the failure must surface exactly like a
    local one.  Compilation (shape inference, weight-stream warming)
    still succeeds — only execution explodes.
    """

    def forward(self, x, config, layer_index):
        raise RuntimeError("injected shard failure")


def _network(exploding=False, seed=0):
    rng = np.random.default_rng(seed)
    w1 = rng.uniform(-1.0, 1.0, (8, IN_FEATURES))
    w2 = rng.uniform(-1.0, 1.0, (OUT_FEATURES, 8))
    cls = ExplodingLinear if exploding else SCLinear
    return SCNetwork([SCLinear(w1), cls(w2)], SCConfig(phase_length=8))


class TestWorkerExceptionSurfacing:
    @pytest.mark.parametrize("backend,workers", [
        ("serial", 1), ("thread", 2), ("process", 2)])
    def test_shard_failure_propagates(self, backend, workers):
        config = RuntimeConfig(backend=backend, workers=workers,
                               shard_size=2)
        with InferenceRuntime(_network(exploding=True), SHAPE,
                              config=config) as runtime:
            x = np.random.default_rng(1).uniform(0, 1, (4, IN_FEATURES))
            with pytest.raises(RuntimeError, match="injected shard failure"):
                runtime.infer(x)
            assert runtime.snapshot().errors >= 1

    def test_failure_after_success_keeps_earlier_results(self):
        # The healthy network and the exploding one share compile paths;
        # a runtime over the healthy one is unaffected by the failure of
        # a sibling runtime.
        x = np.random.default_rng(2).uniform(0, 1, (2, IN_FEATURES))
        with InferenceRuntime(_network(), SHAPE) as healthy:
            good = healthy.infer(x)
            assert good.shape == (2, OUT_FEATURES)
            with InferenceRuntime(_network(exploding=True), SHAPE) as bad:
                with pytest.raises(RuntimeError, match="injected"):
                    bad.infer(x)
            assert np.array_equal(healthy.infer(x), good)

    def test_submit_surfaces_failure_via_future(self):
        with InferenceRuntime(_network(exploding=True), SHAPE) as runtime:
            future = runtime.submit(
                np.random.default_rng(3).uniform(0, 1, (1, IN_FEATURES)))
            with pytest.raises(RuntimeError, match="injected shard failure"):
                future.result(timeout=10.0)


class TestCloseLifecycle:
    def test_close_idempotent(self):
        runtime = InferenceRuntime(_network(), SHAPE)
        runtime.infer(np.zeros((1, IN_FEATURES)))
        runtime.close()
        runtime.close()     # second close is a no-op, not an error
        with pytest.raises(RuntimeError):
            runtime.infer(np.zeros((1, IN_FEATURES)))

    def test_context_manager_then_close(self):
        with InferenceRuntime(_network(), SHAPE) as runtime:
            runtime.infer(np.zeros((1, IN_FEATURES)))
        runtime.close()     # already closed by __exit__

    def test_close_resolves_pending_submissions(self, compute_gate):
        # A request queued behind a held worker when close() arrives is
        # computed, not dropped: the future must resolve with real logits.
        runtime = InferenceRuntime(_network(), SHAPE,
                                   config=RuntimeConfig(workers=1))
        gate = compute_gate(runtime.plan)
        x = np.random.default_rng(4).uniform(0, 1, (2, IN_FEATURES))
        held = runtime.submit(x)
        assert gate.wait_for(1)
        future = runtime.submit(x)
        closer = threading.Thread(target=runtime.close)
        closer.start()
        gate.open()
        closer.join(timeout=30.0)
        assert not closer.is_alive()
        assert held.done()
        logits = future.result(timeout=10.0)
        assert logits.shape == (2, OUT_FEATURES)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_pool_close_idempotent(self, backend):
        plan = ExecutionPlan(_network(), SHAPE)
        pool = WorkerPool(plan, RuntimeConfig(backend=backend, workers=1),
                          RuntimeMetrics())
        with pool:
            out = pool.run_batch(np.zeros((1, IN_FEATURES)))
            assert out.shape == (1, OUT_FEATURES)
        pool.close()        # after __exit__: still safe


class TestDegenerateBatches:
    def test_zero_row_batch_round_trips(self):
        plan = ExecutionPlan(_network(), SHAPE)
        pool = WorkerPool(plan, RuntimeConfig(), RuntimeMetrics())
        with pool:
            out = pool.run_batch(np.zeros((0, IN_FEATURES)))
        assert out.shape == (0, OUT_FEATURES)

    def test_empty_wave(self):
        # A zero-row request has no shards: its future resolves at once
        # and nothing reaches the executor.
        plan = ExecutionPlan(_network(), SHAPE)
        pool = WorkerPool(plan, RuntimeConfig(), RuntimeMetrics())
        with pool:
            future = pool.submit(np.zeros((0, IN_FEATURES)))
            assert future.done()
            assert future.result().shape == (0, OUT_FEATURES)
            assert pool._executor is None
        assert pool.metrics.snapshot().max_queue_depth == 0

    def test_mixed_zero_and_nonzero_requests(self):
        plan = ExecutionPlan(_network(), SHAPE)
        pool = WorkerPool(plan, RuntimeConfig(shard_size=2), RuntimeMetrics())
        rng = np.random.default_rng(5)
        full = rng.uniform(0, 1, (3, IN_FEATURES))
        with pool:
            futures = [pool.submit(np.zeros((0, IN_FEATURES))),
                       pool.submit(full)]
            empty_out, full_out = (f.result(timeout=10.0) for f in futures)
            solo_out = pool.run_batch(full)
        assert empty_out.shape == (0, OUT_FEATURES)
        assert full_out.shape == (3, OUT_FEATURES)
        # Running beside an empty request never changes the bits.
        assert np.array_equal(full_out, solo_out)
