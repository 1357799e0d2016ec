"""The five benchmark workloads.

Each workload builds its model, sets it up ``SETUP_REPEATS`` times
(``setup_s`` is the median), drives calls into the public API of
:mod:`repro.runtime` or :mod:`repro.serve` for the run's ``seconds``,
and then checks every response bit for bit against logits from the
generic :meth:`repro.simulator.SCNetwork.forward`, run shard by shard
at the workload's shard size.  The reference is built only after the
timed window: the weight-stream and activation-encode caches are
process-global and would otherwise be warm before ``setup_s`` starts.

The window runs in slices of at most ``SLICE_S`` seconds with a
:class:`~harness.HostProbe` reading between them; times are divided by
the host slowness around their slice (rates multiplied by it), and the
raw values are kept in the details.

An untraced run reports the end-to-end metrics.  A traced run measures
half its window untraced and half with :mod:`repro.obs` spans on, and
reports the per-layer metrics; the two halves give the tracing
overhead.  Why each workload exists is in ``bench/README.md``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import json
import math
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import fixture
from harness import (OUT_DIR, SLICE_S, Call, HostProbe, balanced_keys,
                     check_calls, digest, load_expected,
                     program_peak_rss_mib, self_seconds, tail)
from loadgen import (ServerProcess, closed_loop, open_loop, poisson_segments,
                     predict)
from repro import obs
from repro.runtime import (BENCH_NETWORKS, InferenceRuntime,
                           ProgressivePolicy, RuntimeConfig,
                           clear_specialization_cache)
from repro.serve import Client, encode_array
from repro.simulator import ENCODE_CACHE, SCConfig, SCNetwork

#: Weight seed of every zoo model: the model is configuration, the
#: workload seed only makes inputs.
MODEL_SEED = 0
SETUP_REPEATS = 3

#: Share of each workload's slowdown on a busy host that follows the
#: serving control; the rest follows the numpy kernel
#: (:class:`~harness.HostProbe`).  Chosen from hours of interleaved 1 s
#: slices of the workloads and both probes on the reference host while
#: neighbours came and went (bench/README.md); the open loop takes the
#: closed loop's share.
CONTROL_SHARE = {"cnn_offline": 0.0, "resnet_pool": 0.0,
                 "mlp_serve_closed": 1.0, "mlp_serve_open": 1.0,
                 "lenet_progressive": 0.5}

#: Latency tail percentile per workload: the highest that keeps at
#: least ten samples beyond it in a 10 s run on a 2-core host.
TAIL_PCT = {"cnn_offline": 75, "resnet_pool": 90, "mlp_serve_closed": 97,
            "mlp_serve_open": 90, "lenet_progressive": 98}

#: Distinct request inputs per workload.  Requests cycle through the
#: pool in seeded balanced order; no layer caches by input value, so
#: reuse costs nothing and keeps the reference check cheap (it runs
#: after the window and is most of a run's time outside it).
OFFLINE_POOL = 2
SERVE_POOL = 32

SERVE_MODEL = "mnist_mlp"
SERVE_SHAPE = (1, 28, 28)
SERVE_SHARD = 2
SERVE_PHASE_LENGTH = 16
SERVE_ARGS = [SERVE_MODEL, "--workers", "2", "--backend", "thread",
              "--shard", str(SERVE_SHARD), "--max-wait", "0.002",
              "--phase-length", str(SERVE_PHASE_LENGTH),
              "--seed", str(MODEL_SEED)]
SERVE_CONNECTIONS = 2

#: Open-loop ladder: (offered req/s, share of the run).  The middle step
#: carries the reported latencies, so it gets the most samples.  The
#: arrival times are a fixed trace: their burst pattern sets the tail, so
#: every seed (and every commit) replays the same one; the workload seed
#: picks the payloads.
LADDER = ((20, 0.2), (40, 0.6), (80, 0.2))
TRACE_SEED = 0x0BE7
REPORT_STEP = 1
LADDER_P95_LIMIT_MS = 75.0
LADDER_MIN_COMPLETED = 0.95

#: Batches of shards the traced resnet_pool run replays on the parent's
#: plan: pool workers report compute seconds but no kernel or span data.
REPLAY_BATCHES = 2

PROGRESSIVE_MAX = fixture.MAX_PHASE_LENGTH
PROGRESSIVE_POLICY = ProgressivePolicy(start_phase_length=128, growth=2.0,
                                       margin_z=1.0)


@dataclass
class Run:
    seed: int
    seconds: float
    trace: bool


@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int
    failed: int
    wrong: int
    reference_ok: bool
    #: End-to-end metrics (untraced) or per-layer metrics (traced),
    #: ``{name: value}`` in the units BENCHMARK.json gives.
    metrics: dict
    #: Everything else worth recording: ``{name: (value, unit)}``.
    details: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and self.reference_ok


@dataclass
class Slice:
    calls: list
    wall: float          # slice start to its last response
    slow: float          # host slowness around the slice


# -- timing ------------------------------------------------------------

def _even(seconds: float) -> list:
    """``seconds`` cut into equal slices of at most ``SLICE_S``."""
    count = max(1, math.ceil(seconds / SLICE_S - 1e-9))
    return [seconds / count] * count


def _sliced(probe, run_slice, durations) -> list:
    """``run_slice(index, seconds, slowness) -> calls`` once per
    duration, with a probe reading before the first slice and after each
    one; ``slowness`` is the reading just before the slice."""
    slices = []
    before = probe.slowness()
    for index, seconds in enumerate(durations):
        t0 = time.perf_counter()
        calls = run_slice(index, seconds, before)
        wall = time.perf_counter() - t0
        after = probe.slowness()
        slices.append(Slice(calls, wall, (before + after) / 2))
        for call in calls:
            call.info.update(slow=slices[-1].slow, slice=index)
        before = after
    return slices


def _calls(slices) -> list:
    return [c for s in slices for c in s.calls]


def _ms(call) -> float:
    """The call's latency in ms at the reference host speed."""
    return 1e3 * call.latency / call.info["slow"]


def _host_details(probe) -> dict:
    """Median slowness of each probe over the run."""
    numpy_slow, control_slow = zip(*probe.readings)
    return {"host.numpy_slowness": (statistics.median(numpy_slow), "ratio"),
            "host.control_slowness": (statistics.median(control_slow),
                                      "ratio")}


def _timed_setups(probe, build, first, repeats: int) -> tuple:
    """Set up ``repeats`` times, keeping the last.

    ``first(system, t0)`` sends the first request and returns its
    :class:`Call`; a set-up lasts from ``t0`` (before ``build``) to that
    response.  Compiled artifacts are forgotten before each set-up so
    each pays for them.  Returns ``(system, first calls, normalized
    seconds, raw seconds)``.
    """
    system, calls, raw, slow = None, [], [], [probe.slowness()]
    for _ in range(repeats):
        if system is not None:
            system.close()
        clear_specialization_cache()
        ENCODE_CACHE.clear()
        t0 = time.perf_counter()
        system = build()
        calls.append(first(system, t0))
        raw.append(calls[-1].end - t0)
        slow.append(probe.slowness())
    normalized = [r * 2 / (a + b) for r, a, b in zip(raw, slow, slow[1:])]
    return system, calls, normalized, raw


def _drive(call, keys, seconds: float, span: str) -> list:
    """Synchronous closed loop: ``call(key, start)`` until time is up."""
    calls = []
    t_end = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        if start >= t_end:
            return calls
        with obs.span(span, category="bench"):
            calls.append(call(next(keys), start))


def _guarded(fn, *args):
    """Run one request; an exception is a failed request, not a crash."""
    try:
        return fn(*args)
    except Exception:      # the bench must count failures and go on
        traceback.print_exc()
        return None


def _traced(drive) -> tuple:
    """``drive()`` with tracing on; returns ``(result, span roots)``."""
    obs.reset()
    obs.enable()
    try:
        result = drive()
    finally:
        obs.disable()
    return result, obs.tracer().roots()


# -- metrics -----------------------------------------------------------

def _delta(after: dict, before: dict) -> dict:
    """Counter-wise ``after - before`` of two metrics-snapshot dicts.

    Handles plain numbers, ``{name: number}`` and ``{name: (calls,
    seconds)}`` maps (JSON turns the pairs into lists)."""
    out = {}
    for key, value in after.items():
        base = before.get(key)
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            out[key] = value - (base or 0)
        elif isinstance(value, dict):
            base = base or {}
            row = {}
            for name, v in value.items():
                b = base.get(name)
                if isinstance(v, (list, tuple)):
                    b = b or (0, 0.0)
                    row[name] = (v[0] - b[0], v[1] - b[1])
                else:
                    row[name] = v - (b or 0)
            out[key] = row
    return out


def _rates(slices, verified) -> tuple:
    """Median over slices of verified ``(samples/s, requests/s)``, each
    slice's rates multiplied by its host slowness."""
    ok = {id(c) for c in verified}
    samples, requests = [], []
    for s in slices:
        good = [c for c in s.calls if id(c) in ok]
        samples.append(sum(c.samples for c in good) / s.wall * s.slow)
        requests.append(len(good) / s.wall * s.slow)
    return statistics.median(samples), statistics.median(requests)


def _e2e(name: str, slices, verified, window_calls: int, *, setup_s,
         setup_raw, rss_mib: float, latency_calls=None, rates=None,
         agreement: float = 1.0) -> tuple:
    """End-to-end metrics and their details from a window's slices.

    ``rates`` is ``(samples/s, requests/s)``, by default the closed-loop
    :func:`_rates`.  The median latency is the median of the slices'
    medians, so a slice hit by a burst on the host moves it little; the
    tail pools every call of ``latency_calls`` (default: all verified),
    since it needs the samples.
    """
    latency_calls = verified if latency_calls is None else latency_calls
    throughput, max_rate = rates or _rates(slices, verified)
    by_slice = {}
    for call in latency_calls:
        by_slice.setdefault(call.info["slice"], []).append(_ms(call))
    tail_ms, beyond = tail([_ms(c) for c in latency_calls], TAIL_PCT[name])
    ok_fraction = len(verified) / window_calls
    metrics = {
        "setup_s": statistics.median(setup_s),
        "throughput_sps": throughput,
        "latency_p50_ms": statistics.median(
            statistics.median(v) for v in by_slice.values()),
        "latency_tail_ms": tail_ms,
        "ok_fraction": ok_fraction,
        "peak_rss_mb": rss_mib,
        "max_rate_rps": max_rate,
        "agreement": agreement,
    }
    wall = sum(s.wall for s in slices)
    details = {
        "tail.percentile": (TAIL_PCT[name], "pct"),
        "tail.samples": (len(latency_calls), "count"),
        "tail.beyond": (beyond, "count"),
        "failed_fraction": (1.0 - ok_fraction, "ratio"),
        "host.slowness": (statistics.median(s.slow for s in slices),
                          "ratio"),
        "raw.setup_s": (statistics.median(setup_raw), "s"),
        "raw.throughput_sps": (sum(c.samples for c in verified) / wall,
                               "samples/s"),
        "raw.latency_p50_ms": (1e3 * statistics.median(
            c.latency for c in verified), "ms"),
    }
    return metrics, details


def _kernel_ms_per_sample(kernels: dict, name: str, samples: int) -> float:
    return 1e3 * kernels.get(name, (0, 0.0))[1] / samples


def _layer_seconds(spans) -> dict:
    """``{span name: self seconds}`` of the IR-layer spans in a forest.

    A layer's self time is its span minus nested layer spans; its
    kernels stay in it.
    """
    seconds = {}
    for span in obs.walk_spans(spans):
        if span.category == "layer":
            seconds[span.name] = seconds.get(span.name, 0.0) + self_seconds(
                span, lambda c: c.category == "layer")
    return seconds


def _layer_rows(seconds: dict, samples: int, layer_plans=()) -> dict:
    """Per-IR-layer rows; ``.gbit_per_s`` divides the row's modeled
    ``LayerPlan.product_bits_per_sample`` by the layer's time."""
    bits = {p.index: p.product_bits_per_sample for p in layer_plans}
    total = sum(seconds.values())
    rows = {}
    for name, s in seconds.items():
        _, index, kind = name.split(":")
        prefix = f"layer.{index}.{kind}"
        rows[f"{prefix}.ms_per_sample"] = (1e3 * s / samples, "ms")
        rows[f"{prefix}.share"] = (s / total, "ratio")
        if bits.get(int(index)) and s > 0:
            rows[f"{prefix}.gbit_per_s"] = (
                bits[int(index)] * samples / s / 1e9, "Gbit/s")
    return rows


def _common_layer_metrics(*, delta: dict, kernels: dict, kernel_samples: int,
                          wall_s: float, bits: float, spec: dict,
                          plan_s: float, untraced, traced,
                          coverage: float) -> dict:
    """The per-layer metrics every workload reports (BENCHMARK.json).

    ``delta`` is the runtime snapshot difference over the untraced half;
    ``kernels`` the kernel-counter delta over ``kernel_samples``.  The
    tracing overhead compares the halves' normalized median latencies.
    """
    samples = delta["samples"]
    compute = delta["stage_seconds"]["compute"]
    hits, misses = delta["act_cache_hits"], delta["act_cache_misses"]
    overhead = (statistics.median(map(_ms, traced))
                / statistics.median(map(_ms, untraced)) - 1.0)
    return {
        "compute.ms_per_sample": 1e3 * compute / samples,
        "pool.parallelism": compute / wall_s,
        "kernel.plan_or.ms_per_sample": _kernel_ms_per_sample(
            kernels, "plan:or", kernel_samples),
        "kernel.encode_act.ms_per_sample": _kernel_ms_per_sample(
            kernels, "encode:act", kernel_samples),
        "engine.act_cache_hit_ratio": (hits / (hits + misses)
                                       if hits + misses else 1.0),
        "engine.table_builds": misses,
        "plan.gbit_per_s": bits / compute / 1e9,
        "plan.compile_s": plan_s,
        "specialize.build_s": spec["build_seconds"],
        "specialize.lanes_skipped_pct": spec["totals"]["lanes_skipped_pct"],
        "obs.trace_overhead_pct": 100.0 * overhead,
        "trace.layer_coverage": coverage,
    }


def _wave_outside_compute(wave, workers: int) -> float:
    """A wave's wall time minus its busiest worker's compute, taking
    the shards as spread evenly over the workers."""
    shards = [c.duration_s for c in wave.children
              if c.name == "shard:compute"]
    return wave.duration_s - sum(shards) / min(workers, len(shards))


def _block_kib(spec: dict) -> dict:
    return {f"specialize.block_kib.{layer['index']}":
            (layer["block_kib"], "KiB") for layer in spec["layers"]}


# -- correctness -------------------------------------------------------

def _check(reference: dict, window, others) -> tuple:
    """Verify every call against ``reference``.

    Returns ``(verified window calls, counts)``, where ``counts`` holds
    ``attempted``, ``failed`` and ``wrong`` over window and others.
    """
    verified, wrong = check_calls(window, reference)
    others_ok, others_wrong = check_calls(others, reference)
    attempted = len(window) + len(others)
    return verified, {
        "attempted": attempted,
        "failed": attempted - len(verified) - len(others_ok),
        "wrong": wrong + others_wrong,
    }


def _digest_ok(name: str, sha: str) -> bool:
    """The reference digest equals the one committed for ``name``."""
    return load_expected().get(name, sha) == sha


def _sharded_forward(net, x: np.ndarray, shard: int) -> np.ndarray:
    return np.concatenate([net.forward(x[s:s + shard])
                           for s in range(0, x.shape[0], shard)])


# -- in-process runtime workloads --------------------------------------

@dataclass
class _Window:
    """What an in-process window measured (traced: two halves)."""

    slices: list
    traced: list
    roots: list
    delta: dict
    kernels: dict
    rss_mib: float
    spec: dict
    stages: dict


def _measure(run: Run, probe, runtime, call, keys, span: str) -> _Window:
    durations = _even(run.seconds / 2 if run.trace else run.seconds)

    def drive(index, seconds, slowness):
        return _drive(call, keys, seconds, span)

    spec = runtime.plan.specialization_summary()
    stages = dict(runtime.snapshot().stage_seconds)
    before = dataclasses.asdict(runtime.snapshot())
    k0 = obs.KERNEL_COUNTERS.snapshot()
    slices = _sliced(probe, drive, durations)
    delta = _delta(dataclasses.asdict(runtime.snapshot()), before)
    kernels = obs.KERNEL_COUNTERS.delta_since(k0)
    rss = program_peak_rss_mib()
    traced, roots = [], []
    if run.trace:
        traced, roots = _traced(lambda: _sliced(probe, drive, durations))
    return _Window(slices, traced, roots, delta, kernels, rss, spec, stages)


def _infer_call(runtime, pool, key, start) -> Call:
    x = pool[key]
    logits = _guarded(runtime.infer, x)
    return Call(key, x.shape[0], start, time.perf_counter(), logits)


def _replay(runtime, pool, shard: int) -> tuple:
    """Run a few shards on the parent's copy of the plan, traced.

    Returns ``(layer seconds, replay seconds, kernel delta, samples)`` —
    the kernel and IR-layer attribution a process pool cannot report.
    """
    shards = [x[s:s + shard] for x in pool[:REPLAY_BATCHES]
              for s in range(0, x.shape[0], shard)]
    scope = obs.KERNEL_COUNTERS.scope()

    def replay():
        with obs.span("bench:replay", category="bench") as span:
            for x in shards:
                runtime.plan.run(x)
        return span

    span, roots = _traced(replay)
    return (_layer_seconds(roots), span.duration_s, scope.delta(),
            sum(x.shape[0] for x in shards))


def _offline(run: Run, *, name: str, network: str, phase_length: int,
             batch: int, config: RuntimeConfig) -> Outcome:
    factory, shape = BENCH_NETWORKS[network]
    rng = np.random.default_rng(run.seed)
    pool = [rng.uniform(0.0, 1.0, (batch,) + shape)
            for _ in range(OFFLINE_POOL)]
    keys = balanced_keys(rng, len(pool))

    def build():
        net = SCNetwork.from_trained(factory(seed=MODEL_SEED),
                                     SCConfig(phase_length=phase_length))
        return InferenceRuntime(net, shape,
                                config=dataclasses.replace(config))

    def call(key, start):
        return _infer_call(runtime, pool, key, start)

    replay = None
    with HostProbe(CONTROL_SHARE[name]) as probe:
        runtime, setup_calls, setup_s, setup_raw = _timed_setups(
            probe, build, lambda rt, t0: _infer_call(rt, pool, 0, t0),
            1 if run.trace else SETUP_REPEATS)
        try:
            w = _measure(run, probe, runtime, call, keys, "bench:infer")
            shm = runtime.shm_stats()
            if run.trace and config.backend == "process":
                replay = _replay(runtime, pool, config.shard_size)
            layer_plans = runtime.plan.layer_plans
        finally:
            runtime.close()

    ref_net = SCNetwork.from_trained(factory(seed=MODEL_SEED),
                                     SCConfig(phase_length=phase_length))
    reference = {k: _sharded_forward(ref_net, x, config.shard_size)
                 for k, x in enumerate(pool)}
    calls, traced_calls = _calls(w.slices), _calls(w.traced)
    verified, counts = _check(reference, calls, setup_calls + traced_calls)
    sha = digest(reference[k] for k in range(len(pool)))
    counts["reference_ok"] = run.seed != 0 or _digest_ok(name, sha)
    cfg = {"network": network, "phase_length": phase_length,
           "batch": batch, "pool": OFFLINE_POOL,
           "runtime": dataclasses.asdict(config), "specialization": w.spec,
           "setup_runs_s": setup_raw, "reference_sha256": sha}
    d = w.delta
    details = _block_kib(w.spec)
    details.update(_host_details(probe))
    details["kernel.encode_table.ms_per_sample"] = (_kernel_ms_per_sample(
        w.kernels, "encode:table", d["samples"]), "ms")
    details["pool.dispatch_merge_ms_per_wave"] = (
        1e3 * (d["stage_seconds"]["dispatch"] + d["stage_seconds"]["merge"])
        / d["batches"], "ms")
    if shm["enabled"]:
        details.update({
            "shm.publish_s": (w.stages.get("publish", 0.0), "s"),
            "shm.attach_s": (shm["warm"].get("attach_seconds", 0.0), "s"),
            "shm.segment_mib": (shm["bytes"] / 2**20, "MiB"),
            "shm.worker_table_builds": (d["act_cache_misses"], "count"),
        })

    if not run.trace:
        metrics, more = _e2e(name, w.slices, verified, len(calls),
                             setup_s=setup_s, setup_raw=setup_raw,
                             rss_mib=w.rss_mib)
        details.update(more)
        return Outcome(metrics=metrics, details=details, config=cfg,
                       **counts)

    details["pool.ipc_ms_per_wave"] = (1e3 * statistics.mean(
        _wave_outside_compute(s, config.workers)
        for s in obs.walk_spans(w.roots) if s.name == "pool:wave"), "ms")
    kernels, kernel_samples = w.kernels, d["samples"]
    if replay is None:
        layer_s = _layer_seconds(w.roots)
        layer_samples = sum(c.samples for c in traced_calls)
        coverage = sum(layer_s.values()) / sum(
            s.duration_s for s in obs.walk_spans(w.roots)
            if s.name == "shard:compute")
    else:
        layer_s, replay_s, kernels, kernel_samples = replay
        layer_samples = kernel_samples
        coverage = sum(layer_s.values()) / replay_s
        details["layer.source"] = ("in-process replay", "-")
    details.update(_layer_rows(layer_s, layer_samples, layer_plans))
    metrics = _common_layer_metrics(
        delta=d, kernels=kernels, kernel_samples=kernel_samples,
        wall_s=sum(s.wall for s in w.slices), bits=d["bits_simulated"],
        spec=w.spec, plan_s=w.stages["plan"], untraced=calls,
        traced=traced_calls, coverage=coverage)
    obs.write_trace(OUT_DIR / f"trace-{name}.json", trace=w.roots)
    return Outcome(metrics=metrics, details=details, config=cfg, **counts)


def cnn_offline(run: Run) -> Outcome:
    # The autotuned block schedule differs from set-up to set-up and moves
    # this workload's throughput by ~20%; the global schedule keeps kernel
    # changes visible.  Autotuning stays on in the other workloads.
    return _offline(run, name="cnn_offline", network="cifar10_cnn",
                    phase_length=128, batch=4,
                    config=RuntimeConfig(workers=2, backend="thread",
                                         shard_size=2, autotune_budget_s=0))


def resnet_pool(run: Run) -> Outcome:
    return _offline(run, name="resnet_pool", network="tiny_resnet",
                    phase_length=64, batch=8,
                    config=RuntimeConfig(workers=2, backend="process",
                                         shard_size=2, shm="auto"))


# -- progressive -------------------------------------------------------

def _progressive_call(runtime, pool, key, start, policy) -> Call:
    outcome = _guarded(runtime.infer_progressive, pool[key:key + 1], policy)
    end = time.perf_counter()
    if outcome is None:
        return Call((key, None), 1, start, end)
    return Call((key, outcome.phase_length), 1, start, end, outcome.logits,
                {"extensions": outcome.extensions,
                 "early_exit": outcome.early_exit})


def lenet_progressive(run: Run) -> Outcome:
    name = "lenet_progressive"
    trained, pool, fixed = fixture.load()
    keys = balanced_keys(np.random.default_rng(run.seed), pool.shape[0])
    # A gate-disabled request walks the whole extension schedule, so
    # every segment window is compiled during set-up, not in the window.
    warm_policy = dataclasses.replace(PROGRESSIVE_POLICY, margin_z=None)

    def build():
        net = SCNetwork.from_trained(
            trained, SCConfig(phase_length=PROGRESSIVE_MAX))
        return InferenceRuntime(net, pool.shape[1:], config=RuntimeConfig(
            workers=1, backend="serial", shard_size=1))

    def first(runtime, t0):
        runtime.infer_progressive(pool[:1], warm_policy)
        return _progressive_call(runtime, pool, 0, t0, PROGRESSIVE_POLICY)

    def call(key, start):
        return _progressive_call(runtime, pool, key, start,
                                 PROGRESSIVE_POLICY)

    with HostProbe(CONTROL_SHARE[name]) as probe:
        runtime, setup_calls, setup_s, setup_raw = _timed_setups(
            probe, build, first, 1 if run.trace else SETUP_REPEATS)
        try:
            w = _measure(run, probe, runtime, call, keys,
                         "bench:infer_progressive")
            bits_per_sample = runtime.plan.bits_per_sample
        finally:
            runtime.close()

    # The fixture's one-shot forwards at the maximum length give the
    # agreement baseline; each progressive response must equal the
    # one-shot forward at the length it settled at.
    calls, traced_calls = _calls(w.slices), _calls(w.traced)
    others = setup_calls + traced_calls
    reference = {(k, PROGRESSIVE_MAX): fixed[k] for k in range(len(fixed))}
    nets = {}
    for k, length in {c.key for c in calls + others}:
        if length is None or (k, length) in reference:
            continue
        if length not in nets:
            nets[length] = SCNetwork.from_trained(
                trained, SCConfig(phase_length=length))
        reference[(k, length)] = nets[length].forward(pool[k:k + 1])
    verified, counts = _check(reference, calls, others)
    sha = digest(reference[(k, PROGRESSIVE_MAX)]
                 for k in range(pool.shape[0]))
    counts["reference_ok"] = _digest_ok(name, sha)
    agreement = statistics.mean(
        float(np.argmax(c.logits)
              == np.argmax(reference[(c.key[0], PROGRESSIVE_MAX)]))
        for c in verified)
    cfg = {"network": "lenet5", "fixture_epochs": fixture.EPOCHS,
           "pool": int(pool.shape[0]), "max_phase_length": PROGRESSIVE_MAX,
           "policy": dataclasses.asdict(PROGRESSIVE_POLICY),
           "specialization": w.spec, "setup_runs_s": setup_raw,
           "reference_sha256": sha}
    details = _block_kib(w.spec)
    details.update(_host_details(probe))
    details.update({
        "progressive.extensions_per_req": (statistics.mean(
            c.info["extensions"] for c in verified), "count"),
        "progressive.early_exit_rate": (statistics.mean(
            float(c.info["early_exit"]) for c in verified), "ratio"),
        "progressive.mean_phase_length": (statistics.mean(
            c.key[1] for c in verified), "bits"),
    })

    if not run.trace:
        metrics, more = _e2e(name, w.slices, verified, len(calls),
                             setup_s=setup_s, setup_raw=setup_raw,
                             rss_mib=w.rss_mib, agreement=agreement)
        details.update(more)
        return Outcome(metrics=metrics, details=details, config=cfg,
                       **counts)

    # Modeled work: the plan's product bits scale with the phase length
    # a request settled at.
    bits = sum(bits_per_sample * c.key[1] / PROGRESSIVE_MAX
               for c in verified)
    layer_s = _layer_seconds(w.roots)
    details.update(_layer_rows(layer_s, len(traced_calls)))
    metrics = _common_layer_metrics(
        delta=w.delta, kernels=w.kernels, kernel_samples=w.delta["samples"],
        wall_s=sum(s.wall for s in w.slices), bits=bits, spec=w.spec,
        plan_s=w.stages["plan"], untraced=calls, traced=traced_calls,
        coverage=sum(layer_s.values())
        / sum(c.latency for c in traced_calls))
    obs.write_trace(OUT_DIR / f"trace-{name}.json", trace=w.roots)
    return Outcome(metrics=metrics, details=details, config=cfg, **counts)


# -- serving -----------------------------------------------------------

def _reported(calls) -> list:
    """The calls whose latencies are reported: all of a closed loop's,
    the ``REPORT_STEP`` of the open-loop ladder."""
    return [c for c in calls if c.info.get("step", REPORT_STEP)
            == REPORT_STEP]


def _serve_pool(rng) -> list:
    """Request payloads; payload ``n`` holds ``n % 4 + 1`` samples."""
    return [rng.uniform(0.0, 1.0, (n % 4 + 1,) + SERVE_SHAPE)
            for n in range(SERVE_POOL)]


def _serve_keys(rng):
    """Payload keys whose sizes cycle 1, 2, 3, 4: every seed offers the
    same load, and the seed picks which payload of each size."""
    sizes = [balanced_keys(rng, SERVE_POOL // 4) for _ in range(4)]
    for j in itertools.count():
        yield 4 * next(sizes[j % 4]) + j % 4


async def _first_request(server, payloads, t0) -> Call:
    async with Client(server.host, server.port) as client:
        return await predict(client, SERVE_MODEL, payloads, 0, t0, False)


async def _server_metrics(server) -> dict:
    async with Client(server.host, server.port) as client:
        return await client.metrics()


def _serve_window(server, probe, run_slice, durations) -> tuple:
    """Slices between two ``metrics`` requests; returns ``(slices, model
    snapshot delta, server counter delta, last metrics response)``."""
    m0 = asyncio.run(_server_metrics(server))
    slices = _sliced(probe, run_slice, durations)
    m1 = asyncio.run(_server_metrics(server))
    return (slices,
            _delta(m1["models"][SERVE_MODEL], m0["models"][SERVE_MODEL]),
            _delta(m1["server"], m0["server"]), m1)


def _serve(run: Run, name: str, plan, report) -> Outcome:
    """Shared skeleton of the two serving workloads.

    ``plan(server, payloads, keys, seconds, traced)`` returns
    ``(run_slice, durations)`` for one window; ``report(verified,
    slices)`` returns ``(throughput, max rate, details)``.  Latencies
    come from the calls :func:`_reported` selects.
    """
    rng = np.random.default_rng(run.seed)
    payloads = _serve_pool(rng)
    keys = _serve_keys(rng)
    window = run.seconds / 2 if run.trace else run.seconds

    def setups(probe, repeats, trace):
        return _timed_setups(
            probe, lambda: ServerProcess(SERVE_ARGS, trace=trace),
            lambda server, t0: asyncio.run(
                _first_request(server, payloads, t0)),
            repeats)

    def measure(server, probe, traced):
        return _serve_window(server, probe, *plan(
            server, payloads, keys, window, traced))

    traced_slices = []
    with HostProbe(CONTROL_SHARE[name]) as probe:
        server, setup_calls, setup_s, setup_raw = setups(
            probe, 1 if run.trace else SETUP_REPEATS, False)
        try:
            slices, delta, counters, m1 = measure(server, probe, False)
            rss = server.peak_rss_mib()
        finally:
            server.close()
        if run.trace:
            server, more, _, _ = setups(probe, 1, True)
            setup_calls += more
            try:
                (traced_slices, traced_delta, _, _), roots = _traced(
                    lambda: measure(server, probe, True))
            finally:
                server.close()

    net = SCNetwork.from_trained(
        BENCH_NETWORKS[SERVE_MODEL][0](seed=MODEL_SEED),
        SCConfig(phase_length=SERVE_PHASE_LENGTH))
    reference = {k: _sharded_forward(net, x, SERVE_SHARD)
                 for k, x in enumerate(payloads)}
    calls, traced_calls = _calls(slices), _calls(traced_slices)
    verified, counts = _check(reference, calls, setup_calls + traced_calls)
    sha = digest(reference[k] for k in range(len(payloads)))
    counts["reference_ok"] = run.seed != 0 or _digest_ok(name, sha)
    spec = m1["specialization"][SERVE_MODEL]
    cfg = {"network": SERVE_MODEL, "server_args": SERVE_ARGS,
           "connections": SERVE_CONNECTIONS, "pool": SERVE_POOL,
           "specialization": spec, "setup_runs_s": setup_raw,
           "reference_sha256": sha}
    request_bytes = [len(json.dumps(
        {"type": "predict", "model": SERVE_MODEL, "x": encode_array(x)},
        separators=(",", ":"))) for x in payloads]
    details = _block_kib(spec)
    details.update(_host_details(probe))
    details.update({
        "batcher.queue_ms_per_req": (1e3 * delta["stage_seconds"]["queue"]
                                     / delta["requests"], "ms"),
        "batcher.samples_per_flush": (delta["samples"] / delta["batches"],
                                      "count"),
        "serve.overhead_ms_per_req": (1e3 * statistics.mean(
            c.end - c.info["sent"] - c.info["server_s"] for c in verified),
            "ms"),
        "serve.request_kib": (statistics.mean(
            request_bytes[c.key] for c in calls) / 1024, "KiB"),
        "serve.shed": (sum(v for k, v in counters.items()
                           if k.startswith("shed_")), "count"),
    })
    throughput, max_rate, more = report(verified, slices)
    details.update(more)

    if not run.trace:
        metrics, more = _e2e(name, slices, verified, len(calls),
                             setup_s=setup_s, setup_raw=setup_raw,
                             rss_mib=rss, latency_calls=_reported(verified),
                             rates=(throughput, max_rate))
        details.update(more)
        return Outcome(metrics=metrics, details=details, config=cfg,
                       **counts)

    traced_ok = [c for c in traced_calls if c.logits is not None]
    details["serve.response_kib"] = (statistics.mean(
        c.info["response_bytes"] for c in traced_ok) / 1024, "KiB")
    layer_s = {k: v[1] for k, v in traced_delta["layer_seconds"].items()}
    details.update(_layer_rows(layer_s, traced_delta["samples"]))
    metrics = _common_layer_metrics(
        delta=delta, kernels=delta["kernel_seconds"],
        kernel_samples=delta["samples"],
        wall_s=sum(s.wall for s in slices), bits=delta["bits_simulated"],
        spec=spec, plan_s=m1["models"][SERVE_MODEL]["stage_seconds"]["plan"],
        untraced=_reported(verified), traced=_reported(traced_ok),
        coverage=sum(layer_s.values())
        / traced_delta["stage_seconds"]["compute"])
    obs.write_trace(OUT_DIR / f"trace-{name}.json", trace=roots)
    return Outcome(metrics=metrics, details=details, config=cfg, **counts)


def mlp_serve_closed(run: Run) -> Outcome:
    def plan(server, payloads, keys, seconds, traced):
        def run_slice(index, length, slowness):
            return asyncio.run(closed_loop(
                server.host, server.port, SERVE_MODEL, payloads, keys,
                length, connections=SERVE_CONNECTIONS, traced=traced))
        return run_slice, _even(seconds)

    def report(verified, slices):
        return (*_rates(slices, verified), {})

    return _serve(run, "mlp_serve_closed", plan, report)


def _ladder(seconds: float) -> list:
    """``[(rate, duration_s), ...]`` of the open-loop ladder."""
    return [(rate, share * seconds) for rate, share in LADDER]


def ladder_report(verified, offered: dict) -> tuple:
    """Open-loop results per ladder step.

    ``offered`` maps a step index to ``(rate, requests offered)``.  A
    step passes when its p95 latency (failed requests count as
    infinitely late) is within ``LADDER_P95_LIMIT_MS`` and at least
    ``LADDER_MIN_COMPLETED`` of its requests completed before their
    slice ended, i.e. no backlog grew.  Returns ``(max passing rate,
    details)``.
    """
    by_step = {}
    for call in verified:
        by_step.setdefault(call.info["step"], []).append(call)
    details, max_rate = {}, 0.0
    for index, (rate, count) in sorted(offered.items()):
        done = by_step.get(index, [])
        latencies = [_ms(c) for c in done] + [np.inf] * (count - len(done))
        p95 = float(np.percentile(latencies, 95, method="higher"))
        completed = sum(c.info["in_time"] for c in done) / count
        details[f"ladder.{rate}.p95_ms"] = (p95, "ms")
        details[f"ladder.{rate}.completed_share"] = (completed, "ratio")
        if p95 <= LADDER_P95_LIMIT_MS and completed >= LADDER_MIN_COMPLETED:
            max_rate = max(max_rate, float(rate))
    return max_rate, details


def mlp_serve_open(run: Run) -> Outcome:
    trace_rng = np.random.default_rng(TRACE_SEED)
    offered = {}

    def plan(server, payloads, keys, seconds, traced):
        steps = _ladder(seconds)
        segments = poisson_segments(trace_rng, steps, SLICE_S)
        if not traced:
            for step, _, offsets in segments:
                rate, total = offered.get(step, (steps[step][0], 0))
                offered[step] = (rate, total + len(offsets))

        async def segment(index, length, slowness):
            # The trace is in reference-host time: stretched by the host's
            # slowness it keeps the server as busy as on the reference.
            step, _, offsets = segments[index]
            arrivals = [(float(t) * slowness, next(keys), step)
                        for t in offsets]
            async with Client(server.host, server.port) as c0, \
                    Client(server.host, server.port) as c1:
                clients = (c0, c1)

                async def send(i, key, due):
                    return await predict(clients[i], SERVE_MODEL, payloads,
                                         key, due, traced)

                calls, t0 = await open_loop(send, arrivals, len(clients))
            for call in calls:
                call.info["in_time"] = call.end <= t0 + length * slowness
            return calls

        def run_slice(index, length, slowness):
            return asyncio.run(segment(index, length, slowness))
        return run_slice, [length for _, length, _ in segments]

    def report(verified, slices):
        max_rate, details = ladder_report(verified, offered)
        details["gen.late_ms_p99"] = (float(np.percentile(
            [1e3 * c.info["late_s"] for c in verified], 99)), "ms")
        # Offered load, not capacity, sets an open loop's throughput.
        throughput = sum(c.samples for c in verified) / sum(
            s.wall / s.slow for s in slices)
        return throughput, max_rate, details

    return _serve(run, "mlp_serve_open", plan, report)


WORKLOADS = {
    "cnn_offline": cnn_offline,
    "resnet_pool": resnet_pool,
    "mlp_serve_closed": mlp_serve_closed,
    "mlp_serve_open": mlp_serve_open,
    "lenet_progressive": lenet_progressive,
}
