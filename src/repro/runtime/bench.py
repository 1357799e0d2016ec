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

__all__ = ["BENCH_NETWORKS", "BenchResult", "run_bench", "format_bench",
           "ProgressiveBenchResult", "run_progressive_bench",
           "format_progressive_bench"]

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
    #: ``ExecutionPlan.specialization_summary()`` of the planned runtime.
    specialization: dict = None

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
        specialization = parallel_runtime.plan.specialization_summary()

    return BenchResult(
        network=network, batch=batch, repeats=repeats, workers=workers,
        backend=backend, shard_size=shard_size, phase_length=phase_length,
        planned_s=planned_s, parallel_s=parallel_s,
        identical=np.array_equal(planned_logits, parallel_logits),
        snapshot=snapshot, plan_text=plan_text,
        specialization=specialization,
    )


@dataclass
class ProgressiveBenchResult:
    """Progressive-vs-fixed-length latency on one zoo network.

    Both sides run per-request (batch ``batch``) on the same runtime:
    the fixed side at the reference ``phase_length``, the progressive
    side under the confidence-gated extension loop.  ``agreement`` is
    the fraction of samples whose progressive argmax matches the
    fixed-length argmax — the "matched accuracy" criterion: on a
    decision task the early exit is free exactly when the decision does
    not change.
    """

    network: str
    requests: int
    batch: int
    phase_length: int
    start_phase_length: int
    margin_z: float
    growth: float
    fixed_latencies: list
    progressive_latencies: list
    agreement: float
    early_exit_rate: float
    mean_final_length: float
    mean_extensions: float
    #: Synthetic-dataset training epochs (0 = untrained random weights).
    train_epochs: int = 0

    @property
    def fixed_mean_s(self) -> float:
        return float(np.mean(self.fixed_latencies))

    @property
    def progressive_mean_s(self) -> float:
        return float(np.mean(self.progressive_latencies))

    @property
    def fixed_p95_s(self) -> float:
        return float(np.percentile(self.fixed_latencies, 95))

    @property
    def progressive_p95_s(self) -> float:
        return float(np.percentile(self.progressive_latencies, 95))

    @property
    def speedup(self) -> float:
        return (self.fixed_mean_s / self.progressive_mean_s
                if self.progressive_mean_s else 0.0)

    def throughput(self, mean_s: float) -> float:
        return self.batch / mean_s if mean_s > 0 else 0.0


def _trained_network(network: str, builder, *, epochs: int, seed: int):
    """Train the builder's network briefly on its synthetic dataset.

    Untrained random weights under OR saturation produce noise-level
    logit margins, so the margin gate either never fires or fires on
    noise; a few epochs on the matching synthetic task give the logits
    genuine separation and make "matched accuracy" meaningful.  Returns
    ``(net, x_test)`` — the bench draws its requests from the test
    split so easy and hard inputs both occur.
    """
    from ..datasets import synthetic_cifar10, synthetic_mnist, synthetic_svhn
    from ..training import Adam, CrossEntropyLoss, Trainer

    if network == "svhn_cnn":
        maker = synthetic_svhn
    elif BENCH_NETWORKS[network][1][0] == 1:
        maker = synthetic_mnist
    else:
        maker = synthetic_cifar10
    (x_train, y_train), (x_test, _) = maker(n_train=1600, n_test=256,
                                            seed=seed)
    net = builder(seed=seed)
    Trainer(net, Adam(net.layers, lr=3e-3),
            loss=CrossEntropyLoss(logit_gain=8.0)).fit(
        x_train, y_train, epochs=epochs, batch_size=64)
    return net, x_test


def run_progressive_bench(network: str = "mnist_mlp", *,
                          requests: int = 16, batch: int = 1,
                          phase_length: int = 64,
                          start_phase_length: int = 8,
                          margin_z: float = 0.5, growth: float = 2.0,
                          seed: int = 0, train_epochs: int = 0
                          ) -> ProgressiveBenchResult:
    """Benchmark anytime inference against the fixed-length baseline.

    ``phase_length`` is both the fixed side's stream length and the
    progressive side's maximum, so the progressive side can only ever
    do *less* popcount work; the question the bench answers is how much
    less, and whether the shorter decisions still agree.

    ``train_epochs > 0`` first trains the network on its synthetic
    dataset (and draws requests from the test split) so the margin gate
    separates genuinely easy inputs from hard ones instead of sampling
    saturation noise.  Word-packed kernels count in 64-bit quanta, so
    the latency win needs a ``phase_length`` several words long
    relative to ``start_phase_length``.
    """
    from .progressive import ProgressivePolicy

    builder, shape = BENCH_NETWORKS[network]
    rng = np.random.default_rng(seed + 1)
    x_pool = None
    if train_epochs > 0:
        net, x_pool = _trained_network(network, builder,
                                       epochs=train_epochs, seed=seed)
    else:
        net = builder(seed=seed)
    sc = SCNetwork.from_trained(net, SCConfig(phase_length=phase_length))
    policy = ProgressivePolicy(start_phase_length=start_phase_length,
                               growth=growth, margin_z=margin_z)
    runtime = InferenceRuntime(
        sc, shape, config=RuntimeConfig(workers=1, backend="serial",
                                        shard_size=batch),
    )

    def draw(count):
        if x_pool is not None:
            picks = rng.integers(0, x_pool.shape[0], count)
            return np.asarray(x_pool[picks], dtype=np.float64)
        return rng.uniform(0.0, 1.0, (count,) + shape)

    fixed_latencies, progressive_latencies = [], []
    agree = total = 0
    exits = lengths = extensions = 0
    with runtime:
        warm = draw(batch)
        runtime.infer(warm)                       # plan + cache warm-up
        # Segment-plan warm-up: a gate-disabled request walks the whole
        # extension schedule, so every (start, length) window plan — and
        # the from-zero recompute plans its moved rows need — is built
        # (weight streams encoded) before the clock starts.
        warm_policy = ProgressivePolicy(
            start_phase_length=start_phase_length, growth=growth,
            margin_z=None)
        runtime.infer_progressive(warm, warm_policy)
        runtime.infer_progressive(draw(batch), warm_policy)
        for _ in range(requests):
            x = draw(batch)
            t0 = time.perf_counter()
            fixed_logits = runtime.infer(x)
            fixed_latencies.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            outcome = runtime.infer_progressive(x, policy)
            progressive_latencies.append(time.perf_counter() - t0)
            agree += int(np.sum(np.argmax(outcome.logits, axis=-1)
                                == np.argmax(fixed_logits, axis=-1)))
            total += batch
            exits += int(outcome.early_exit)
            lengths += outcome.phase_length
            extensions += outcome.extensions
    return ProgressiveBenchResult(
        network=network, requests=requests, batch=batch,
        phase_length=phase_length, start_phase_length=start_phase_length,
        margin_z=margin_z, growth=growth,
        fixed_latencies=fixed_latencies,
        progressive_latencies=progressive_latencies,
        agreement=agree / total if total else 1.0,
        early_exit_rate=exits / requests if requests else 0.0,
        mean_final_length=lengths / requests if requests else 0.0,
        mean_extensions=extensions / requests if requests else 0.0,
        train_epochs=train_epochs,
    )


def format_progressive_bench(result: ProgressiveBenchResult) -> str:
    """Render one progressive benchmark run for the CLI."""
    rows = [
        (f"fixed length {result.phase_length}",
         f"{result.fixed_mean_s * 1e3:.2f}",
         f"{result.fixed_p95_s * 1e3:.2f}",
         f"{result.throughput(result.fixed_mean_s):.2f}", "1.00"),
        (f"progressive {result.start_phase_length}->"
         f"{result.phase_length} (z={result.margin_z})",
         f"{result.progressive_mean_s * 1e3:.2f}",
         f"{result.progressive_p95_s * 1e3:.2f}",
         f"{result.throughput(result.progressive_mean_s):.2f}",
         f"{result.speedup:.2f}"),
    ]
    table = format_table(
        ["mode", "mean [ms]", "p95 [ms]", "samples/s", "speedup"],
        rows,
        title=f"Progressive inference — {result.network}"
              + (f" (trained {result.train_epochs} epochs)"
                 if result.train_epochs else " (untrained)")
              + f", {result.requests} requests x batch {result.batch}",
    )
    stats = (f"argmax agreement {result.agreement:.3f}; early exits "
             f"{result.early_exit_rate:.2f} of requests; mean final "
             f"length {result.mean_final_length:.1f} "
             f"({result.mean_extensions:.1f} extensions/request)")
    return "\n\n".join([table, stats])


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
