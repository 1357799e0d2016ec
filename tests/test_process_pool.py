"""The process backend: every worker receives the compiled plan through
the pool initializer and runs the warm handshake before the first shard.

Under ``fork`` a worker holds the parent's plan copy-on-write; under
``spawn`` or ``forkserver`` it unpickles the plan, so an unpickled plan
must run bit for bit like the one it was pickled from, for every zoo
graph, accumulator and representation.  Either way a worker's logits are
the serial shards' bit for bit, it builds its own activation encode
tables, and it is alive once :meth:`WorkerPool.start` returns and gone
once :meth:`WorkerPool.close` does.
"""

import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.runtime import (BENCH_NETWORKS, ExecutionPlan, RuntimeConfig,
                           RuntimeMetrics, WorkerPool)
from repro.simulator import SCConfig, SCNetwork
from repro.simulator.engine import ENCODE_CACHE
from repro.training import (Flatten, ReLU, Sequential, SplitOrConv2d,
                            SplitOrLinear)

SHAPE = (1, 8, 8)
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROCESS = RuntimeConfig(workers=2, backend="process", shard_size=2)


def tiny_network(seed=0, phase_length=16, **config_kwargs):
    rng = np.random.default_rng(seed)
    net = Sequential([
        SplitOrConv2d(1, 3, 3, rng=rng), ReLU(),
        Flatten(),
        SplitOrLinear(3 * 6 * 6, 4, rng=rng),
    ])
    return SCNetwork.from_trained(
        net, SCConfig(phase_length=phase_length, **config_kwargs))


def serial_shards(sc, x):
    with WorkerPool(ExecutionPlan(sc, SHAPE), RuntimeConfig(shard_size=2),
                    RuntimeMetrics()) as pool:
        return pool.run_batch(x)


def assert_pickled_plan_identical(sc, shape, x):
    plan = ExecutionPlan(sc, shape)
    clone = pickle.loads(pickle.dumps(plan))
    assert np.array_equal(clone.run(x), plan.run(x))


class TestBitIdentity:
    """The plan a ``spawn`` or ``forkserver`` worker unpickles is the plan
    it was pickled from, bit for bit: block picks, skipped lanes and
    grouped tiles included."""

    @pytest.mark.parametrize("network", sorted(BENCH_NETWORKS))
    def test_zoo_graphs(self, network):
        builder, shape = BENCH_NETWORKS[network]
        x = np.random.default_rng(1).uniform(0, 1, (2,) + shape)
        for accumulator in ("or", "apc", "mux"):
            for representation in ("split-unipolar", "bipolar"):
                config = SCConfig(phase_length=8, accumulator=accumulator,
                                  representation=representation)
                sc = SCNetwork.from_trained(builder(seed=0), config)
                assert_pickled_plan_identical(sc, shape, x)

    @pytest.mark.parametrize("accumulator", ["or", "apc", "mux"])
    @pytest.mark.parametrize("representation",
                             ["split-unipolar", "bipolar"])
    def test_accumulator_representation_matrix(self, accumulator,
                                               representation):
        sc = tiny_network(phase_length=8, accumulator=accumulator,
                          representation=representation)
        x = np.random.default_rng(2).uniform(0, 1, (3,) + SHAPE)
        assert_pickled_plan_identical(sc, SHAPE, x)


def test_process_pool_end_to_end():
    """Forked workers match the serial shards, build their own encode
    tables, and exit when the pool closes."""
    sc = tiny_network()
    x = np.random.default_rng(3).uniform(0, 1, (5,) + SHAPE)
    expected = serial_shards(sc, x)
    # Forked workers would otherwise inherit the tables the serial run
    # just built and read zero misses.
    ENCODE_CACHE.clear()
    before = set(multiprocessing.active_children())
    metrics = RuntimeMetrics()
    with WorkerPool(ExecutionPlan(sc, SHAPE), PROCESS, metrics) as pool:
        assert np.array_equal(pool.run_batch(x), expected)
        workers = set(multiprocessing.active_children()) - before
    assert metrics.act_cache_misses > 0
    assert len(workers) == 2
    assert not any(p.is_alive() for p in workers)


def test_start_spawns_every_worker():
    """After ``start()`` and before any submit, both workers are alive
    and through the handshake, so the first request forks nothing."""
    before = set(multiprocessing.active_children())
    metrics = RuntimeMetrics()
    pool = WorkerPool(ExecutionPlan(tiny_network(), SHAPE), PROCESS, metrics)
    try:
        pool.start()
        workers = set(multiprocessing.active_children()) - before
        assert len(workers) == 2
        assert metrics.errors == 0          # every handshake came back
    finally:
        pool.close()
    assert not any(p.is_alive() for p in workers)


def test_process_pool_under_spawn():
    """Under ``spawn`` each worker unpickles the plan: ``start()`` has
    both workers up, the logits equal the serial shards, and every
    worker builds its own encode tables."""
    code = textwrap.dedent("""
        import json, multiprocessing
        import numpy as np
        multiprocessing.set_start_method("spawn")
        from repro.runtime import (ExecutionPlan, RuntimeMetrics,
                                   WorkerPool)
        from tests.test_process_pool import (PROCESS, SHAPE, serial_shards,
                                             tiny_network)

        sc = tiny_network()
        x = np.random.default_rng(6).uniform(0, 1, (5,) + SHAPE)
        expected = serial_shards(sc, x)
        metrics = RuntimeMetrics()
        with WorkerPool(ExecutionPlan(sc, SHAPE), PROCESS, metrics) as pool:
            pool.start()
            started = len(multiprocessing.active_children())
            logits = pool.run_batch(x)
        print(json.dumps({
            "start_method": multiprocessing.get_start_method(),
            "started": started,
            "equal": bool(np.array_equal(logits, expected)),
            "misses": metrics.act_cache_misses,
            "left": len(multiprocessing.active_children()),
        }))
    """)
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          cwd=REPO_ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["start_method"] == "spawn"
    assert out["started"] == 2 and out["left"] == 0
    assert out["equal"]
    assert out["misses"] > 0
