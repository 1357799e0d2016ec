"""Serial-vs-parallel runtime throughput benchmark (CLI ``bench``).

Two execution modes over identical inputs, bit-identity asserted:

1. **planned serial** — the runtime's serial backend against a compiled
   :class:`ExecutionPlan`;
2. **planned parallel** — the same plan sharded across ``workers``.

The parallel speedup needs physical cores; logits from both modes must
match bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..analysis import format_table
from ..networks import (cifar10_cnn, lenet5, mnist_mlp, mobilenet_mini,
                        svhn_cnn, tiny_resnet)
from ..simulator import SCConfig, SCNetwork
from .config import RuntimeConfig
from .runtime import InferenceRuntime

__all__ = ["BENCH_NETWORKS", "BenchResult", "run_bench", "format_bench"]

#: name -> (trainable builder, per-sample input shape)
BENCH_NETWORKS = {
    "mnist_mlp": (mnist_mlp, (1, 28, 28)),
    "lenet5": (lenet5, (1, 28, 28)),
    "cifar10_cnn": (cifar10_cnn, (3, 32, 32)),
    "svhn_cnn": (svhn_cnn, (3, 32, 32)),
    "tiny_resnet": (tiny_resnet, (3, 32, 32)),
    "mobilenet_mini": (mobilenet_mini, (3, 32, 32)),
}


@dataclass
class BenchResult:
    """Timings and verification outcome of one benchmark run."""

    network: str
    batch: int
    repeats: int
    workers: int
    backend: str
    shard_size: int
    phase_length: int
    planned_s: float
    parallel_s: float
    identical: bool
    snapshot: object       # MetricsSnapshot of the parallel runtime
    plan_text: str

    @property
    def samples(self) -> int:
        return self.batch * self.repeats

    def throughput(self, seconds: float) -> float:
        return self.samples / seconds if seconds > 0 else 0.0

    @property
    def parallel_speedup(self) -> float:
        return self.planned_s / self.parallel_s if self.parallel_s else 0.0


def run_bench(network: str = "mnist_mlp", *, batch: int = 8,
              repeats: int = 3, workers: int = 4, backend: str = "thread",
              shard_size: int = None, phase_length: int = 32,
              seed: int = 0) -> BenchResult:
    """Run the two-mode benchmark on one zoo network.

    Weights are untrained (throughput does not depend on values); the
    per-shard bit-exactness checks are what matter.
    """
    builder, shape = BENCH_NETWORKS[network]
    if shard_size is None:
        shard_size = max(1, batch // max(workers, 1))
    sc = SCNetwork.from_trained(builder(seed=seed),
                                SCConfig(phase_length=phase_length))
    rng = np.random.default_rng(seed + 1)
    x = rng.uniform(0.0, 1.0, (batch,) + shape)

    # Mode 1 — planned serial.
    serial_runtime = InferenceRuntime(
        sc, shape, config=RuntimeConfig(workers=1, backend="serial",
                                        shard_size=shard_size),
    )
    with serial_runtime:
        serial_runtime.infer(x)  # warm-up (pool spin-up excluded)
        t0 = time.perf_counter()
        for _ in range(repeats):
            planned_logits = serial_runtime.infer(x)
        planned_s = time.perf_counter() - t0

    # Mode 2 — planned parallel.
    parallel_runtime = InferenceRuntime(
        sc, shape, config=RuntimeConfig(workers=workers, backend=backend,
                                        shard_size=shard_size),
    )
    with parallel_runtime:
        parallel_runtime.infer(x)  # warm-up
        t0 = time.perf_counter()
        for _ in range(repeats):
            parallel_logits = parallel_runtime.infer(x)
        parallel_s = time.perf_counter() - t0
        snapshot = parallel_runtime.snapshot()
        plan_text = parallel_runtime.describe()

    return BenchResult(
        network=network, batch=batch, repeats=repeats, workers=workers,
        backend=backend, shard_size=shard_size, phase_length=phase_length,
        planned_s=planned_s, parallel_s=parallel_s,
        identical=np.array_equal(planned_logits, parallel_logits),
        snapshot=snapshot, plan_text=plan_text,
    )


def format_bench(result: BenchResult) -> str:
    """Render one benchmark run as the report the CLI prints."""
    rows = [
        ("planned serial", f"{result.planned_s:.3f}",
         f"{result.throughput(result.planned_s):.2f}", "1.00"),
        (f"planned parallel ({result.workers} {result.backend} workers)",
         f"{result.parallel_s:.3f}",
         f"{result.throughput(result.parallel_s):.2f}",
         f"{result.parallel_speedup:.2f}"),
    ]
    mode_table = format_table(
        ["mode", "total [s]", "samples/s", "speedup"],
        rows,
        title=f"Runtime throughput — {result.network}, batch "
              f"{result.batch} x {result.repeats} repeats, shard "
              f"{result.shard_size}, phase length {result.phase_length}",
    )
    verdict = ("logits bit-identical across both modes"
               if result.identical else
               "LOGITS DIVERGED — determinism violation")
    return "\n\n".join([
        mode_table,
        f"verification: {verdict}",
        result.plan_text,
        result.snapshot.render(),
    ])
