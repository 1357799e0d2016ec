"""Compare two sets of benchmark runs: parent (A) against change (B).

    python3 bench/compare.py A.json B.json

Both files are written by ``bench/run.py --out``.  Runs pair up by
(workload, seed, traced); run the two sides alternately, with the same
seeds, so each pair shares the host's conditions.  For every
(metric, workload) pair this prints each side's median and quartiles,
the change's win rate over the pairs (ties count for neither side) and
a verdict:

``improved``
    the change wins at least 90% of the pairs and the medians differ by
    more than the distance between the parent's quartiles;
``regressed``
    the change's median is worse than the parent's by more than the
    metric's bound in ``BENCHMARK.json``;
``unresolved``
    either side's spread (quartile distance over median) is wider than
    the bound, and not every run of the change beats every run of the
    parent;
``unchanged``
    none of the above.

Per-layer metrics have no bound: they read ``improved``, ``worsened``
(the mirror of ``improved``) or ``unchanged``.  The exit code is 1 when
any end-to-end pair regressed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from harness import load_spec, quartiles

WIN_RATE = 0.9


def load_runs(path) -> dict:
    """``{(workload, trace): {seed: {metric: value}}}`` from a run file."""
    runs = {}
    for record in json.loads(pathlib.Path(path).read_text())["runs"]:
        key = (record["workload"], record["trace"])
        runs.setdefault(key, {})[record["seed"]] = {
            name: m["value"] for name, m in record["metrics"].items()}
    return runs


def verdict(a: list, b: list, pairs: list, better: str,
            bound: float = None) -> dict:
    """Judge one (metric, workload) pair; see the module docstring.

    ``a``/``b`` are every run of each side, ``pairs`` the
    ``(a, b)`` values of runs that share a seed.
    """
    sign = 1.0 if better == "higher" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    base = abs(qa[1]) or 1.0
    gain = sign * (qb[1] - qa[1])           # > 0: the change is better
    spread = max((qa[2] - qa[0]) / base,
                 (qb[2] - qb[0]) / (abs(qb[1]) or 1.0))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    losses = sum(sign * (y - x) < 0 for x, y in pairs)
    n = len(pairs)
    all_better = (min(b) > max(a)) if sign > 0 else (max(b) < min(a))
    parent_iqr = qa[2] - qa[0]
    if n and wins >= WIN_RATE * n and gain > parent_iqr:
        result = "improved"
    elif bound is None:
        worse = n and losses >= WIN_RATE * n and -gain > parent_iqr
        result = "worsened" if worse else "unchanged"
    elif spread > bound and not all_better:
        result = "unresolved"
    elif -gain / base > bound:
        result = "regressed"
    else:
        result = "unchanged"
    return {"a": qa, "b": qb, "change": (qb[1] - qa[1]) / base,
            "win_rate": wins / n if n else None, "pairs": n,
            "spread": spread, "verdict": result}


def compare(a_path, b_path) -> tuple:
    """Rows of ``(workload, traced, metric, unit, judgement)``."""
    spec = load_spec()
    metrics = {False: spec["end_to_end"], True: spec["per_layer"]}
    runs_a, runs_b = load_runs(a_path), load_runs(b_path)
    rows = []
    for key in sorted(runs_a.keys() & runs_b.keys()):
        workload, trace = key
        side_a, side_b = runs_a[key], runs_b[key]
        seeds = sorted(side_a.keys() & side_b.keys())
        for m in metrics[bool(trace)]:
            name = m["name"]
            a = [r[name] for r in side_a.values()]
            b = [r[name] for r in side_b.values()]
            pairs = [(side_a[s][name], side_b[s][name]) for s in seeds]
            rows.append((workload, bool(trace), name, m["unit"],
                         verdict(a, b, pairs, m["better"], m.get("bound"))))
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a", help="parent runs (bench/run.py --out)")
    p.add_argument("b", help="change runs")
    args = p.parse_args(argv)
    rows = compare(args.a, args.b)

    def q(x):
        return f"{x[1]:.5g} [{x[0]:.5g}, {x[2]:.5g}]"

    print(f"{'workload':18} {'metric':32} {'unit':9} {'A median [q1, q3]':34}"
          f" {'B median [q1, q3]':34} {'change':>9} {'wins':>5} verdict")
    for workload, _, name, unit, j in rows:
        wins = "-" if j["win_rate"] is None else f"{j['win_rate']:.2f}"
        print(f"{workload:18} {name:32} {unit:9} {q(j['a']):34} "
              f"{q(j['b']):34} {100 * j['change']:+8.2f}% {wins:>5} "
              f"{j['verdict']}")
    return 1 if any(j["verdict"] == "regressed" for *_, j in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
