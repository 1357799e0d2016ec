"""Run the SC runtime benchmark.

One workload, the form automation calls::

    python3 bench/run.py --workload cnn_offline --seed 3 --seconds 10 --trace 0

prints a human-readable table and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` carrying every
end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or every
per-layer metric (``--trace 1``; ``--traced`` is the same).

The whole suite, each workload in a fresh process::

    python3 bench/run.py [--traced] [--seed N] [--out runs.json]

``--out`` appends every run's full record (metrics, details, config,
host fingerprint) to a JSON file that ``bench/compare.py`` reads.  The
sources under ``src/`` of the checkout this file sits in are benchmarked;
the program exits with code 2 when there are none.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

#: A single workload run is well under this; the suite kills stragglers.
RUN_TIMEOUT_S = 600
#: How long the exit sweep may take to stop leftover processes.
STOP_TIMEOUT_S = 10.0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="run one workload in this process")
    p.add_argument("--seed", type=int, default=0, help="input seed")
    p.add_argument("--seconds", type=float, default=None,
                   help="measured window (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run")
    p.add_argument("--traced", dest="trace", action="store_const", const=1,
                   help="same as --trace 1")
    p.add_argument("--out", help="append full run records to this JSON file")
    return p


def _append(path: pathlib.Path, record: dict) -> None:
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    runs.append(record)
    path.write_text(json.dumps({"runs": runs}, indent=1) + "\n")


def _table(title: str, rows) -> str:
    from repro.analysis import format_table
    return format_table(["metric", "value", "unit"],
                        [(n, v if isinstance(v, str) else f"{v:.6g}", u)
                         for n, v, u in rows], title=title)


def run_one(args) -> int:
    from harness import MIN_BEYOND, OUT_DIR, host_fingerprint, load_spec
    from workloads import WORKLOADS, Run

    spec = load_spec()
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = args.seconds or spec["run_seconds"]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    outcome = WORKLOADS[args.workload](
        Run(seed=args.seed, seconds=seconds, trace=bool(args.trace)))
    entries = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": outcome.metrics[m["name"]],
                           "unit": m["unit"]} for m in entries}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": seconds, "trace": args.trace,
              "correct": outcome.correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "wrong": outcome.wrong,
              "metrics": metrics,
              "details": {k: {"value": v, "unit": u}
                          for k, (v, u) in outcome.details.items()},
              "config": outcome.config, "host": host_fingerprint()}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    if args.out:
        _append(pathlib.Path(args.out), record)

    beyond = outcome.details.get("tail.beyond", (MIN_BEYOND,))[0]
    if beyond < MIN_BEYOND:
        print(f"warning: latency_tail_ms has only {beyond} samples beyond "
              f"its percentile (want {MIN_BEYOND})", file=sys.stderr)
    print("host:", json.dumps(record["host"]))
    print(_table(
        f"{args.workload} (seed {args.seed}, {seconds:g} s, "
        f"{'traced' if args.trace else 'untraced'}): "
        f"{outcome.attempted} attempted, {outcome.failed} failed, "
        f"{'correct' if outcome.correct else 'INCORRECT'}",
        [(n, m["value"], m["unit"]) for n, m in metrics.items()]
        + [(n, v, u) for n, (v, u) in outcome.details.items()]))
    print(json.dumps({"correct": outcome.correct,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


def run_suite(args) -> int:
    """Every workload, each in a fresh process."""
    from harness import load_spec

    spec = load_spec()
    ok = True
    results = []
    for workload in spec["workloads"]:
        cmd = [sys.executable, str(pathlib.Path(__file__).resolve()),
               "--workload", workload["name"], "--seed", str(args.seed),
               "--trace", str(args.trace)]
        if args.seconds:
            cmd += ["--seconds", str(args.seconds)]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) + "\n", flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{workload['name']}: exit code {proc.returncode}",
                  file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok &= result["correct"] and result["failed"] == 0
        results.append((workload["name"], result))
    names = [m["name"] for m in
             spec["per_layer" if args.trace else "end_to_end"]]
    print(_table("Summary", [
        (f"{workload} {name}", result["metrics"][name]["value"],
         result["metrics"][name]["unit"])
        for workload, result in results for name in names]))
    return 0 if ok else 1


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    Shared-memory publication (``resnet_pool``) starts the tracker as a
    child of this process, and Python exits without waiting for it, so
    it would outlive the run.  It is stopped after every other exit
    handler, when nothing registers or releases resources any more, so
    that it ends on its own rather than by the sweep that follows.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def _children() -> list:
    """``[(pid, state, command)]`` of this process's children (Linux)."""
    me, children = os.getpid(), []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return children
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                command = handle.read().replace(b"\0", b" ").decode(
                    errors="replace").strip()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == me:
            children.append((int(entry), fields[0], command))
    return children


def _stop_descendants() -> None:
    """Kill and reap whatever process of this run is still there.

    The workloads close what they start, so normally there is nothing.
    As the reaper of its descendants (``harness.adopt_descendants``) this
    process also sees the orphans of children that already ended.  The
    last exit handler: it runs after every other one.
    """
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while time.monotonic() < deadline:
        children = _children()
        if not children:
            return
        for pid, state, command in children:
            if state != "Z":
                print(f"stopping leftover process {pid}: {command}",
                      file=sys.stderr)
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        for pid, _, _ in children:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


def _exit_on_signal(signum, frame):
    """Turn SIGTERM or SIGHUP into an orderly exit, so cleanup runs."""
    sys.exit(128 + signum)


def main(argv=None) -> int:
    # Exit handlers run last-registered first: registered before anything
    # else is imported, these two run after all the others.
    atexit.register(_stop_descendants)
    atexit.register(_stop_resource_tracker)
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, _exit_on_signal)
    args = _parser().parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from harness import adopt_descendants
    adopt_descendants()
    return run_one(args) if args.workload else run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
