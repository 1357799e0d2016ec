"""Unit and integration tests for the repro.obs tracing layer.

Covers the span tree (nesting, counters, thread-local context,
cross-thread parenting), the disabled fast path, both exporters, the
golden agreement between the flat kernel counter store and the kernel
span tree (single-measurement accounting), the instrumented subsystems
(SCNetwork layers, runtime, trainer), and the ``repro profile`` CLI.
"""

import json
import math
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.networks import lenet5
from repro.runtime import (MetricsSnapshot, RuntimeConfig, InferenceRuntime,
                           format_profile, run_profile)
from repro.runtime.bench import BENCH_NETWORKS
from repro.simulator import SCConfig, SCNetwork
from repro.simulator.engine import split_or_matmul_counts
from repro.training import Adam, CrossEntropyLoss, Trainer


@pytest.fixture(autouse=True)
def _clean_tracer():
    """Every test starts and ends with a disabled, empty global tracer."""
    was_enabled = obs.enabled()
    obs.disable()
    obs.reset()
    yield
    obs.reset()
    if was_enabled:
        obs.enable()
    else:
        obs.disable()


class TestSpanTree:
    def test_disabled_returns_null_span_singleton(self):
        assert obs.span("anything") is obs.NULL_SPAN
        with obs.span("nested") as span:
            span.add_counter("bits", 100)   # silently ignored
        assert obs.tracer().roots() == []
        assert obs.current() is None

    def test_nesting_builds_tree(self):
        obs.enable()
        with obs.span("outer", category="a") as outer:
            with obs.span("inner", category="b") as inner:
                inner.add_counter("items", 3)
                inner.add_counter("items", 2)
        roots = obs.tracer().roots()
        assert [r.name for r in roots] == ["outer"]
        assert outer.category == "a"
        assert [c.name for c in outer.children] == ["inner"]
        assert inner.parent is outer
        assert inner.counters == {"items": 5}
        assert 0.0 <= inner.duration_s <= outer.duration_s
        assert outer.start_s <= inner.start_s <= inner.end_s <= outer.end_s

    def test_sequential_roots_collected_in_order(self):
        obs.enable()
        for name in ("first", "second", "third"):
            with obs.span(name):
                pass
        assert [r.name for r in obs.tracer().roots()] == [
            "first", "second", "third"]

    def test_current_and_module_level_add_counter(self):
        obs.enable()
        assert obs.current() is None
        with obs.span("work") as span:
            assert obs.current() is span
            obs.add_counter("hits", 7)
        assert obs.current() is None
        obs.add_counter("hits", 1)    # no open span: no-op, no error
        assert span.counters == {"hits": 7}

    def test_explicit_parent_overrides_stack(self):
        obs.enable()
        with obs.span("a") as a:
            pass
        with obs.span("b"):
            with obs.span("child", parent=a) as child:
                pass
        assert child.parent is a
        assert [c.name for c in a.children] == ["child"]

    def test_cross_thread_parenting(self):
        obs.enable()
        with obs.span("wave") as wave:
            parent = obs.current()
            results = []

            def worker(index):
                with obs.span(f"shard:{index}", category="shard",
                              parent=parent) as s:
                    s.add_counter("rows", index + 1)
                results.append(s)

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        names = sorted(c.name for c in wave.children)
        assert names == [f"shard:{i}" for i in range(4)]
        # Worker spans carry their own thread ids, not the submitter's.
        assert all(c.thread_id != wave.thread_id for c in wave.children)

    def test_record_span_synthetic(self):
        obs.enable()
        with obs.span("parent") as parent:
            s = obs.tracer().record_span(
                "remote", 0.25, category="shard",
                counters={"samples": 8})
        assert s.parent is parent
        assert s.duration_s == pytest.approx(0.25)
        assert s.counters == {"samples": 8}
        assert parent.children == [s]

    def test_record_span_disabled_is_noop(self):
        assert obs.tracer().record_span("x", 1.0) is obs.NULL_SPAN

    def test_reset_clears_roots(self):
        obs.enable()
        with obs.span("gone"):
            pass
        obs.reset()
        assert obs.tracer().roots() == []

    def test_mismatched_exit_drops_inner_spans(self):
        obs.enable()
        outer = obs.span("outer")
        inner = obs.span("inner")
        outer.__enter__()
        inner.__enter__()
        # Closing the outer span first unwinds the stack past the inner.
        outer.__exit__(None, None, None)
        assert obs.current() is None


class TestCounters:
    def test_counter_store_records_calls_and_totals(self):
        store = obs.CounterStore()
        store.record("k", 1.0)
        store.record("k", 2.0)
        store.record("other", 0.5)
        snap = store.snapshot()
        assert snap["k"] == (2, 3.0)
        assert snap["other"] == (1, 0.5)
        store.reset()
        assert store.snapshot() == {}

    def test_merge_counters_additive(self):
        a = {"bits": 10, "hits": 1}
        b = {"bits": 5, "misses": 2}
        assert obs.merge_counters(a, b) == {"bits": 15, "hits": 1,
                                            "misses": 2}
        # Inputs are untouched.
        assert a == {"bits": 10, "hits": 1}

    def test_kernel_section_disabled_still_counts(self):
        store_before = obs.KERNEL_COUNTERS.snapshot()
        with obs.kernel_section("test:disabled") as section:
            section.add_counter("bits", 64)   # span off: silently dropped
        snap = obs.KERNEL_COUNTERS.snapshot()
        calls, seconds = snap["test:disabled"]
        prev = store_before.get("test:disabled", (0, 0.0))
        assert calls == prev[0] + 1
        assert seconds >= prev[1]
        assert obs.tracer().roots() == []


class TestExporters:
    def _tree(self):
        obs.enable()
        with obs.span("root", category="profile") as root:
            root.add_counter("samples", 4)
            with obs.span("layer:0:linear", category="layer"):
                with obs.span("kernel:word:or", category="kernel") as k:
                    k.add_counter("product_bits", 1024)
            with obs.span("layer:1:linear", category="layer"):
                pass
        return root

    def test_trace_to_dict_structure(self):
        root = self._tree()
        doc = obs.trace_to_dict()
        assert doc["format"] == "repro-trace-v1"
        (span,) = doc["spans"]
        assert span["name"] == "root"
        assert span["counters"] == {"samples": 4}
        assert [c["name"] for c in span["children"]] == [
            "layer:0:linear", "layer:1:linear"]
        kernel = span["children"][0]["children"][0]
        assert kernel["counters"] == {"product_bits": 1024}
        assert span["duration_s"] == pytest.approx(root.duration_s)
        # JSON-serializable as-is.
        json.dumps(doc)

    def test_trace_to_chrome_events(self):
        self._tree()
        doc = obs.trace_to_chrome()
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert len(events) == 4
        by_name = {e["name"]: e for e in events}
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0.0
            assert event["ts"] >= 0.0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
        kernel = by_name["kernel:word:or"]
        assert kernel["cat"] == "kernel"
        assert kernel["args"] == {"product_bits": 1024}
        # Child slices sit inside the parent slice on the timeline.
        root = by_name["root"]
        layer = by_name["layer:0:linear"]
        assert root["ts"] <= layer["ts"]
        assert layer["ts"] + layer["dur"] <= root["ts"] + root["dur"] + 1e-3
        json.dumps(doc)

    def test_write_trace_both_formats(self, tmp_path):
        self._tree()
        chrome = tmp_path / "trace.json"
        nested = tmp_path / "tree.json"
        obs.write_trace(chrome, fmt="chrome")
        obs.write_trace(nested, fmt="json")
        chrome_doc = json.loads(chrome.read_text())
        assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(
            chrome_doc["traceEvents"][0])
        nested_doc = json.loads(nested.read_text())
        assert nested_doc["format"] == "repro-trace-v1"
        with pytest.raises(ValueError, match="unknown trace format"):
            obs.write_trace(tmp_path / "x.json", fmt="xml")

    def test_walk_spans_parents_first(self):
        root = self._tree()
        names = [s.name for s in obs.walk_spans([root])]
        assert names == ["root", "layer:0:linear", "kernel:word:or",
                         "layer:1:linear"]

    def test_aggregate_spans_filters(self):
        root = self._tree()
        layers = obs.aggregate_spans([root], category="layer")
        assert set(layers) == {"layer:0:linear", "layer:1:linear"}
        assert all(calls == 1 for calls, _ in layers.values())
        kernels = obs.aggregate_spans([root], category="kernel",
                                      prefix="kernel:")
        assert set(kernels) == {"word:or"}
        everything = obs.aggregate_spans([root])
        assert len(everything) == 4

    def test_attributed_fraction(self):
        root = self._tree()
        fraction = obs.attributed_fraction(root, category="layer")
        assert 0.0 < fraction <= 1.0
        # A category that never appears attributes nothing.
        assert obs.attributed_fraction(root, category="nope") == 0.0


class TestGoldenKernelAccounting:
    """Flat KERNEL_COUNTERS totals and the kernel span tree must agree:
    both are derived from the same clock readings per section."""

    def test_span_totals_match_flat_counters(self):
        rng = np.random.default_rng(0)
        acts = rng.random((6, 10))
        weights = rng.uniform(-1.0, 1.0, (4, 10))

        obs.KERNEL_COUNTERS.reset()
        obs.enable()
        with obs.span("workload"):
            for seed in range(3):
                split_or_matmul_counts(
                    acts, weights, length=64, bits=8, scheme="lfsr",
                    seed=seed, accumulator="or")
        flat = obs.KERNEL_COUNTERS.snapshot()
        spans = obs.aggregate_spans(category="kernel", prefix="kernel:")

        assert flat, "workload recorded no kernel sections"
        assert set(spans) == set(flat)
        for name, (calls, seconds) in flat.items():
            span_calls, span_seconds = spans[name]
            assert span_calls == calls, name
            # Identical per-section readings; sums differ only by float
            # summation order.
            assert math.isclose(span_seconds, seconds, rel_tol=1e-9), name

    def test_kernel_spans_carry_work_counters(self):
        rng = np.random.default_rng(1)
        acts = rng.random((5, 8))
        weights = rng.uniform(-1.0, 1.0, (3, 8))
        obs.enable()
        with obs.span("workload") as root:
            split_or_matmul_counts(
                acts, weights, length=64, bits=8, scheme="lfsr",
                seed=0, accumulator="or")
        matmul = [s for s in obs.walk_spans([root])
                  if s.name == "kernel:word:or"]
        assert matmul
        counters = matmul[0].counters
        assert counters["positions"] == 5
        assert counters["channels"] == 3
        assert counters["product_bits"] == 2 * 5 * 3 * 8 * 64


class TestInstrumentedSubsystems:
    def _tiny_net(self):
        builder, shape = BENCH_NETWORKS["mnist_mlp"]
        net = SCNetwork.from_trained(builder(seed=0),
                                     SCConfig(phase_length=8))
        return net, shape

    def test_network_forward_layer_spans(self):
        net, shape = self._tiny_net()
        x = np.random.default_rng(0).uniform(0, 1, (2,) + shape)
        obs.enable()
        with obs.span("workload") as root:
            net.forward(x)
        layers = [s for s in obs.walk_spans([root])
                  if s.category == "layer"]
        assert len(layers) == len(net.layers)
        for index, span in enumerate(layers):
            assert span.name.startswith(f"layer:{index}:")
            assert span.counters["samples"] == 2

    def test_network_forward_untraced_adds_no_spans(self):
        net, shape = self._tiny_net()
        x = np.random.default_rng(0).uniform(0, 1, (1,) + shape)
        net.forward(x)
        assert obs.tracer().roots() == []

    def test_runtime_config_trace_enables_and_snapshot_breakdown(self):
        net, shape = self._tiny_net()
        x = np.random.default_rng(1).uniform(0, 1, (2,) + shape)
        obs.reset()
        with InferenceRuntime(net, shape,
                              config=RuntimeConfig(trace=True)) as runtime:
            assert obs.enabled()
            runtime.infer(x)
            snapshot = runtime.snapshot()
        assert snapshot.layer_seconds
        assert all(name.startswith("layer:")
                   for name in snapshot.layer_seconds)
        assert "Per-layer timings (traced)" in snapshot.render()

    def test_snapshot_render_without_layers_omits_table(self):
        snap = MetricsSnapshot(
            requests=1, batches=1, shards=1, samples=1, fallbacks=0,
            errors=0, stage_seconds={"compute": 0.5}, queue_depth=0,
            max_queue_depth=1,
            bits_simulated=100, elapsed_s=1.0)
        assert "Per-layer timings" not in snap.render()

    def test_trainer_epoch_spans(self):
        rng = np.random.default_rng(0)
        x = rng.random((32, 16)).astype(np.float64)
        y = rng.integers(0, 4, 32)
        from repro.training import Linear, Sequential
        net = Sequential([Linear(16, 4, rng=np.random.default_rng(0))])
        trainer = Trainer(net, Adam(net.layers, lr=1e-3),
                          loss=CrossEntropyLoss())
        obs.enable()
        trainer.fit(x, y, epochs=2, batch_size=8)
        epochs = [r for r in obs.tracer().roots()
                  if r.category == "train"]
        assert [e.name for e in epochs] == ["train:epoch:0",
                                            "train:epoch:1"]
        for e in epochs:
            assert e.counters["samples"] == 32
            assert e.counters["batches"] == 4


class TestProfileHarness:
    def test_run_profile_end_to_end(self, tmp_path):
        out = tmp_path / "trace.json"
        result = run_profile("mnist_mlp", batch=2, repeats=1,
                             phase_length=8, out=str(out), fmt="chrome")
        assert out.exists()
        doc = json.loads(out.read_text())
        assert doc["traceEvents"], "empty trace artifact"
        names = {e["name"] for e in doc["traceEvents"]}
        assert "profile:mnist_mlp" in names
        assert any(n.startswith("layer:") for n in names)
        # Steady-state inference is dominated by named IR-layer spans.
        assert result.layer_fraction >= 0.90
        assert result.wall_s > 0
        assert result.span_totals
        report = format_profile(result)
        assert "IR-layer attribution" in report
        assert "Top spans" in report
        # Profiling restores the prior (disabled) tracer state.
        assert not obs.enabled()

    def test_run_profile_json_format(self, tmp_path):
        out = tmp_path / "tree.json"
        result = run_profile("mnist_mlp", batch=1, repeats=1,
                             phase_length=8, out=str(out), fmt="json")
        doc = json.loads(out.read_text())
        assert doc["format"] == "repro-trace-v1"
        assert result.fmt == "json"

    def test_cli_profile_command(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["profile", "mnist_mlp", "--batch", "2",
                     "--repeats", "1", "--phase-length", "8",
                     "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "IR-layer attribution" in captured
        assert str(out) in captured
        json.loads(out.read_text())

    def test_cli_profile_rejects_unknown_network(self):
        with pytest.raises(SystemExit):
            main(["profile", "not_a_network"])


class TestDisabledOverhead:
    def test_disabled_span_is_cheap_identity(self):
        # The hot-loop contract: one bool check, shared singleton, and
        # instrumented code can branch on ``enabled()``.
        assert not obs.enabled()
        spans = {obs.span(f"s{i}") for i in range(100)}
        assert spans == {obs.NULL_SPAN}

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("true", True), ("on", True),
        ("", False), ("0", False), ("off", False)])
    def test_repro_trace_env_controls_default(self, value, expected):
        # The env knob is read at import time; probe in a fresh process.
        code = "from repro import obs; print(obs.enabled())"
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={"PYTHONPATH": "src", "REPRO_TRACE": value,
                 "PATH": "/usr/bin"},
            cwd=str(pathlib.Path(__file__).parent.parent))
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == str(expected)

    def test_forward_results_identical_traced_vs_not(self):
        builder, shape = BENCH_NETWORKS["mnist_mlp"]
        net = SCNetwork.from_trained(builder(seed=0),
                                     SCConfig(phase_length=8))
        x = np.random.default_rng(2).uniform(0, 1, (2,) + shape)
        baseline = net.forward(x)
        obs.enable()
        traced = net.forward(x)
        np.testing.assert_array_equal(baseline, traced)


class TestCounterScopes:
    """Snapshot-delta windows: per-request metrics on a global store."""

    def test_delta_since_reports_only_new_activity(self):
        store = obs.CounterStore()
        store.record("word:or", 0.5)
        baseline = store.snapshot()
        store.record("word:or", 0.25)
        store.record("encode:act", 0.1)
        delta = store.delta_since(baseline)
        assert delta == {"word:or": (1, 0.25), "encode:act": (1, 0.1)}

    def test_idle_store_delta_is_empty(self):
        store = obs.CounterStore()
        store.record("word:or", 0.5)
        assert store.delta_since(store.snapshot()) == {}

    def test_scope_window_and_rebase(self):
        store = obs.CounterStore()
        scope = store.scope()
        store.record("k", 1.0)
        assert scope.delta() == {"k": (1, 1.0)}
        scope.rebase()
        assert scope.delta() == {}
        store.record("k", 2.0)
        assert scope.delta() == {"k": (1, 2.0)}

    def test_concurrent_scopes_do_not_disturb_each_other(self):
        # Scoping must never reset: the process-lifetime totals and any
        # other open scope keep accumulating unchanged.
        store = obs.CounterStore()
        outer = store.scope()
        store.record("k", 1.0)
        with store.scope() as inner:
            store.record("k", 1.0)
        assert inner.delta() == {"k": (1, 1.0)}
        assert outer.delta() == {"k": (2, 2.0)}
        calls, total = store.snapshot()["k"]
        assert (calls, total) == (2, 2.0)

    def test_kernel_counters_scope_tracks_real_kernels(self):
        with obs.KERNEL_COUNTERS.scope() as scope:
            with obs.kernel_section("scope-probe"):
                pass
        delta = scope.delta()
        assert "scope-probe" in delta
        calls, seconds = delta["scope-probe"]
        assert calls == 1 and seconds >= 0.0
