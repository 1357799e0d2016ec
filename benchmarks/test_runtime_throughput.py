"""Extension: batched inference runtime throughput.

Not a paper artifact — the paper's own evaluation notes that "SC is
extremely slow to accurately simulate in software", and this bench
records the ``repro.runtime`` subsystem's planned serial and planned
parallel modes on an MLP and a conv workload (LeNet-5): the worker pool
shards batches across cores with bit-identical results.

Run on a multi-core host, the parallel row adds up to ~workers-x; on a
single-core box it only proves bit-identity at ~1x.
"""

from repro.runtime import format_bench, run_bench


def run_suite():
    mlp = run_bench("mnist_mlp", batch=8, repeats=3, workers=4,
                    backend="thread", phase_length=32)
    conv = run_bench("lenet5", batch=8, repeats=2, workers=4,
                     backend="thread", phase_length=16)
    return mlp, conv


def test_runtime_throughput(benchmark, report):
    mlp, conv = benchmark.pedantic(run_suite, rounds=1, iterations=1)

    report("runtime_throughput",
           format_bench(mlp) + "\n\n" + format_bench(conv))

    # Hard guarantee: the runtime never changes a single bit.
    assert mlp.identical and conv.identical
