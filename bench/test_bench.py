"""Self-test of the benchmark: ``pytest bench -q``.

Outside the tier-1 ``testpaths``.  Everything here is quick: the
statistics and checks run on synthetic data, and the one end-to-end run
uses a one-second window.
"""

from __future__ import annotations

import asyncio
import json
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import harness

sys.path.insert(0, str(harness.SRC))

import compare  # noqa: E402
import loadgen  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


@pytest.fixture(scope="module")
def spec():
    return harness.load_spec()


def test_spec_schema(spec):
    assert harness.SPEC_PATH.stat().st_size <= 64 * 1024
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= len(spec["command"]) <= 32
    assert all(len(part) <= 200 for part in spec["command"])
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert PATH.match(path) and not path.startswith("/")
        assert ".." not in path.split("/")
        assert (harness.ROOT / path).is_dir()
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [x["name"] for x in spec["workloads"] + spec["end_to_end"]
             + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_workloads_match_spec(spec):
    listed = [w["name"] for w in spec["workloads"]]
    assert listed == list(workloads.WORKLOADS)
    assert set(workloads.TAIL_PCT) == set(listed)
    assert set(harness.load_expected()) == set(listed)
    assert set(workloads.CONTROL_SHARE) == set(listed)
    assert all(0.0 <= s <= 1.0 for s in workloads.CONTROL_SHARE.values())


def test_reference_digest_gate():
    sha = harness.load_expected()["cnn_offline"]
    assert workloads._digest_ok("cnn_offline", sha)
    assert not workloads._digest_ok("cnn_offline", "0" * 64)


def test_tail_rule():
    assert harness.samples_beyond(100, 90) == 10
    assert harness.samples_beyond(99, 90) == 9
    assert harness.samples_beyond(1000, 99) == 10
    assert harness.samples_beyond(999, 99) == 9
    value, beyond = harness.tail(np.arange(1, 101), 90)
    assert beyond == 10
    assert np.sum(np.arange(1, 101) > value) == beyond


def test_e2e_reports_tail_accounting():
    calls = [harness.Call(0, 1, 0.0, 1e-3 * i, np.zeros(2),
                          {"slow": 1.0, "slice": i % 2})
             for i in range(1, 201)]
    slices = [workloads.Slice([c for c in calls if c.info["slice"] == k],
                              1.0, 1.0) for k in (0, 1)]
    metrics, details = workloads._e2e(
        "mlp_serve_closed", slices, calls, len(calls),
        setup_s=[3.0, 1.0, 2.0], setup_raw=[3.0, 1.0, 2.0], rss_mib=1.0)
    assert metrics["setup_s"] == 2.0
    # Median of the two slices' medians (100 and 101 ms).
    assert metrics["latency_p50_ms"] == pytest.approx(100.5)
    pct = workloads.TAIL_PCT["mlp_serve_closed"]
    assert details["tail.percentile"] == (pct, "pct")
    assert details["tail.beyond"] == (harness.samples_beyond(200, pct),
                                      "count")


def test_corrupted_logits_raise_failed_fraction():
    reference = {k: np.full((2, 10), float(k)) for k in range(3)}
    calls = [harness.Call(k, 2, 0.0, 1.0, reference[k].copy(),
                          {"slow": 1.0, "slice": 0}) for k in (0, 1, 2, 0)]
    verified, counts = workloads._check(reference, calls, [])
    assert counts == {"attempted": 4, "failed": 0, "wrong": 0}

    calls[3].logits[1, 7] = np.nextafter(calls[3].logits[1, 7], 1.0)
    calls[2].logits = None                   # an error response
    verified, counts = workloads._check(reference, calls, [])
    assert counts == {"attempted": 4, "failed": 2, "wrong": 1}
    _, details = workloads._e2e(
        "cnn_offline", [workloads.Slice(verified, 1.0, 1.0)], verified,
        len(calls), setup_s=[1.0], setup_raw=[1.0], rss_mib=1.0)
    assert details["failed_fraction"][0] == pytest.approx(0.5)


def test_open_loop_charges_stall_from_due_time():
    async def send(index, key, due):
        await asyncio.sleep(0.3 if key == 0 else 0.0)
        return harness.Call(key, 1, due, time.perf_counter(), np.zeros(1))

    arrivals = [(0.0, 0, 0), (0.05, 1, 0)]
    calls, t0 = asyncio.run(loadgen.open_loop(send, arrivals, 1))
    second = next(c for c in calls if c.key == 1)
    assert second.start == pytest.approx(t0 + 0.05)
    assert second.latency >= 0.25       # waited behind the stalled request
    assert second.info["late_s"] < 0.05  # the generator itself was on time


def test_ladder_offers_the_same_load_for_every_trace():
    steps = workloads._ladder(12.0)
    counts = []
    for seed in range(3):
        segments = loadgen.poisson_segments(np.random.default_rng(seed),
                                            steps, harness.SLICE_S)
        assert all(length <= harness.SLICE_S for _, length, _ in segments)
        counts.append([sum(len(o) for i, _, o in segments if i == step)
                       for step in range(len(steps))])
        assert all(list(o) == sorted(o) for _, _, o in segments)
    assert counts[0] == counts[1] == counts[2] == [
        round(rate * d) for rate, d in steps]


def test_ladder_report_limits():
    def call(step, latency, in_time=True):
        return harness.Call(0, 1, 0.0, latency, np.zeros(1),
                            {"step": step, "slow": 1.0, "in_time": in_time})

    fast = [call(0, 0.01) for _ in range(10)]
    slow = [call(1, 0.2) for _ in range(20)]
    max_rate, details = workloads.ladder_report(
        fast + slow, {0: (10, 10), 1: (20, 20)})
    assert max_rate == 10.0
    assert details["ladder.20.p95_ms"][0] == pytest.approx(200.0)
    # A missing request counts as infinitely late.
    max_rate, _ = workloads.ladder_report(fast[1:], {0: (10, 10)})
    assert max_rate == 0.0


def test_rates_normalize_by_host_slowness():
    calls = [harness.Call(0, 2, 0.0, 0.1, np.zeros(1)) for _ in range(10)]
    slices = [workloads.Slice(calls[:5], 1.0, 1.0),
              workloads.Slice(calls[5:], 2.0, 2.0)]
    samples, requests = workloads._rates(slices, calls)
    assert samples == pytest.approx(10.0)
    assert requests == pytest.approx(5.0)
    calls[0].info["slow"] = 2.0
    assert workloads._ms(calls[0]) == pytest.approx(50.0)


def test_probe_mixes_kernel_and_control():
    with harness.HostProbe(0.25) as probe:
        mixed = probe.slowness()
    numpy_slow, control_slow = probe.readings[-1]
    assert numpy_slow > 0 and control_slow > 0
    assert mixed == pytest.approx(0.75 * numpy_slow + 0.25 * control_slow)
    assert probe.proc.returncode == 0


def test_self_seconds_merges_parallel_children():
    class S:
        def __init__(self, start, end, children=(), category="layer"):
            self.start_s, self.end_s = start, end
            self.duration_s = end - start
            self.children, self.category = list(children), category

    parent = S(0.0, 10.0, [S(1.0, 4.0), S(2.0, 5.0), S(6.0, 7.0),
                           S(8.0, 9.0, category="kernel")])
    assert harness.self_seconds(
        parent, lambda c: c.category == "layer") == pytest.approx(5.0)


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9,
              100.0]
    faster = [v * 1.2 for v in parent]
    slower = [v * 0.8 for v in parent]
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0,
             100.0]
    pairs = list(zip(parent, faster))
    assert compare.verdict(parent, faster, pairs, "higher",
                           0.1)["verdict"] == "improved"
    pairs = list(zip(parent, slower))
    assert compare.verdict(parent, slower, pairs, "higher",
                           0.1)["verdict"] == "regressed"
    assert compare.verdict(parent, slower, pairs, "higher",
                           None)["verdict"] == "worsened"
    pairs = list(zip(parent, noisy))
    assert compare.verdict(parent, noisy, pairs, "higher",
                           0.1)["verdict"] == "unresolved"
    pairs = list(zip(parent, parent))
    assert compare.verdict(parent, parent, pairs, "lower",
                           0.1)["verdict"] == "unchanged"


def test_quick_run_prints_result_line(spec):
    out = subprocess.run(
        [sys.executable, str(harness.BENCH_DIR / "run.py"), "--workload",
         "mlp_serve_closed", "--seed", "0", "--seconds", "1"],
        capture_output=True, text=True, timeout=120, cwd=harness.ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"]
                                       for m in spec["end_to_end"]]
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] != 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(harness.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(harness.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cnn_offline",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
