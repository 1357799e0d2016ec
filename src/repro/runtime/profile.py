"""Profiling harness behind ``python -m repro profile <network>``.

Runs a fixed inference workload through the batched runtime with
:mod:`repro.obs` tracing enabled, writes the trace artifact (Chrome
trace-event format by default — loadable in ``chrome://tracing`` /
Perfetto — or the nested JSON tree), and summarizes where the wall time
went: the top-N spans by cumulative time and the fraction of workload
wall time attributed to named IR-layer spans.

The runtime is constructed (plan compiled, weight streams pre-encoded)
and warmed up with untimed calls (``profile:warmup``) *before* the
workload root span opens, so the attribution denominator is
steady-state inference — the regime every later perf PR is measured
in — and plan compilation and first-call work show up as their own
trees.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..analysis import format_table
from ..simulator import SCConfig, SCNetwork
from .config import RuntimeConfig
from .runtime import InferenceRuntime

__all__ = ["ProfileResult", "run_profile", "format_profile"]

#: Untimed warm-up before the workload root opens: calls repeat until
#: this long has passed (at least one call).  After a single call the
#: request path around the layers still runs slower than in steady
#: state (CPython specializes bytecode only after repeated calls): in a
#: fresh process, a 2-sample mnist_mlp call at phase length 8 spent
#: ~10% of its time outside the layers after one warm-up call, and
#: ~8% after 0.1 s of them (2-vCPU Xeon VM, CPython 3.11).
_WARMUP_S = 0.1


@dataclass
class ProfileResult:
    """Trace artifact location and summary of one profiled workload."""

    network: str
    batch: int
    repeats: int
    backend: str
    out_path: str
    fmt: str
    #: The workload root span (``profile:<network>``).
    root: object
    #: Fraction of root wall time inside ``layer:*`` spans.
    layer_fraction: float
    #: ``{span name: (calls, seconds)}`` under the workload root.
    span_totals: dict
    snapshot: object       # MetricsSnapshot of the runtime
    plan_text: str

    @property
    def wall_s(self) -> float:
        return self.root.duration_s


def run_profile(network: str = "mnist_mlp", *, batch: int = 8,
                repeats: int = 3, backend: str = "serial",
                workers: int = 1, shard_size: int = None,
                phase_length: int = 32, seed: int = 0,
                out: str = "trace.json", fmt: str = "chrome",
                ) -> ProfileResult:
    """Profile one zoo network end to end and write the trace artifact.

    Tracing is enabled for the duration of the run and restored to its
    previous state afterwards; the tracer and the per-kernel counter
    store are reset first so the artifact describes exactly this
    workload.  The serial backend (default) gives the cleanest
    single-thread attribution; ``thread`` adds parallel shard spans on
    worker tracks; ``process`` reports shard times only (spans cannot
    cross the process boundary).
    """
    from .bench import BENCH_NETWORKS

    builder, shape = BENCH_NETWORKS[network]
    if shard_size is None:
        shard_size = max(1, batch // max(workers, 1))
    sc = SCNetwork.from_trained(builder(seed=seed),
                                SCConfig(phase_length=phase_length))
    rng = np.random.default_rng(seed + 1)
    x = rng.uniform(0.0, 1.0, (batch,) + shape)

    was_enabled = obs.enabled()
    obs.reset()
    obs.KERNEL_COUNTERS.reset()
    obs.enable()
    try:
        runtime = InferenceRuntime(
            sc, shape, config=RuntimeConfig(workers=workers, backend=backend,
                                            shard_size=shard_size,
                                            trace=True),
        )
        with runtime:
            deadline = time.perf_counter() + _WARMUP_S
            with obs.span("profile:warmup", category="profile"):
                runtime.infer(x)
                while time.perf_counter() < deadline:
                    runtime.infer(x)
            with obs.span(f"profile:{network}", category="profile") as root:
                for _ in range(repeats):
                    runtime.infer(x)
            root.add_counter("samples", batch * repeats)
            snapshot = runtime.snapshot()
            plan_text = runtime.describe()
    finally:
        if not was_enabled:
            obs.disable()

    roots = [s for s in obs.tracer().roots()
             if s.name == f"profile:{network}"]
    root = roots[-1]
    obs.write_trace(out, fmt=fmt)
    return ProfileResult(
        network=network, batch=batch, repeats=repeats, backend=backend,
        out_path=out, fmt=fmt, root=root,
        layer_fraction=obs.attributed_fraction(root, category="layer"),
        span_totals=obs.aggregate_spans([root]),
        snapshot=snapshot, plan_text=plan_text,
    )


def format_profile(result: ProfileResult, top: int = 12) -> str:
    """Render the profile report the CLI prints."""
    ranked = sorted(result.span_totals.items(),
                    key=lambda item: item[1][1], reverse=True)[:top]
    wall = result.wall_s or 1.0
    rows = [
        (name, calls, f"{seconds * 1e3:.2f}",
         f"{100.0 * seconds / wall:.1f}")
        for name, (calls, seconds) in ranked
    ]
    top_table = format_table(
        ["span", "calls", "total wall [ms]", "% of workload"], rows,
        title=f"Top spans — {result.network}, batch {result.batch} x "
              f"{result.repeats} repeats, {result.backend} backend, "
              f"{result.wall_s * 1e3:.1f} ms workload",
    )
    attribution = (
        f"IR-layer attribution: {100.0 * result.layer_fraction:.1f}% of "
        f"workload wall time inside layer:* spans"
    )
    artifact = (f"trace written to {result.out_path} ({result.fmt} format"
                + (", load in chrome://tracing or ui.perfetto.dev)"
                   if result.fmt == "chrome" else ")"))
    return "\n\n".join([
        top_table, attribution, artifact,
        result.plan_text, result.snapshot.render(),
    ])
