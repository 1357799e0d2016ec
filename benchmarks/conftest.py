"""Shared helpers for the benchmark harness.

Every bench regenerates one table or figure from the paper and both
prints it and writes it to ``benchmarks/results/<name>.txt`` so the
reproduction artifacts survive pytest's output capturing.
"""

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_collection_modifyitems(items):
    """Everything under benchmarks/ carries the ``bench`` marker, so the
    tier-1 default (``-m "not slow and not bench"``) never runs it; CI's
    slow-suites job selects it back with ``-m "slow or bench"``.

    The hook sees the whole session's items (this conftest only scopes
    *loading*, not the hook's view), so filter by path before marking.
    """
    bench_dir = pathlib.Path(__file__).parent
    for item in items:
        if bench_dir in item.path.parents:
            item.add_marker(pytest.mark.bench)


@pytest.fixture
def report():
    """Persist and echo a reproduced table/figure."""

    def _report(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    return _report
