"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Package overview and configuration summary.
``specs``
    MAC/weight statistics for every network in the zoo.
``describe <network|checkpoint.npz> [--input-shape C,H,W]``
    Print the graph-IR table (per-layer shapes, fan-in, MACs, weight
    lanes, phase length) for a zoo network or a saved checkpoint.
``lower <network|checkpoint.npz> [--dump-after PASS] [--exact-pool]``
    Run the canonical IR pass pipeline (normalize, shape legalization,
    conv+pool fusion, stream-parameter assignment) and print the layer
    table before lowering and after the final (or each requested) pass.
``perf <network> [--config lp|ulp] [--batch N] [--conv-only]``
    Run the performance simulator on one network.
``fig4``
    Print the Figure-4 latency-vs-clock sweep.
``breakdown [--config lp|ulp]``
    Area/power breakdown of an ACOUSTIC configuration.
``compile <network> [--config lp|ulp] [--limit N]``
    Compile a network to the ACOUSTIC ISA and print the listing.
``map <network> [--config lp|ulp]``
    Per-layer mapping and bottleneck report.
``trace <network> [--config lp|ulp] [--width N]``
    Execute and render a per-unit ASCII Gantt chart.
``summary [--results DIR]``
    Print all reproduced benchmark tables from the results directory.
``lint <network> [--config lp|ulp]``
    Compile a network and run the ISA discipline linter on the program.
``bench <network> [--workers N] [--batch N] [--repeats R]``
    Benchmark the batched inference runtime: planned serial vs planned
    parallel, with bit-identity verification and the runtime metrics
    snapshot.
``profile <network> [--out trace.json] [--format chrome|json]``
    Run a traced inference workload, write a Chrome-trace-loadable
    artifact, and print the top-N span summary with per-IR-layer wall
    time attribution (see docs/observability.md).
``serve <network...> [--port P] [--max-queue-depth N] [--quota-rate R]``
    Run the asyncio inference server: warm-compiled plans for the named
    networks, dynamic batching, per-client quotas, queue-depth admission
    control, request deadlines, a metrics endpoint, graceful drain on
    SIGINT (see docs/serving.md).  ``--progressive-*`` flags set the
    default anytime-inference policy for ``progressive: true`` requests.
"""

from __future__ import annotations

import argparse

from . import __version__
from .analysis import format_table
from .arch import (LP_CONFIG, ULP_CONFIG, AcousticCostModel, Dispatcher,
                   lint_program,
                   TracingDispatcher, bottleneck_report, compile_network,
                   disassemble, render_gantt, simulate_layer_latency,
                   simulate_network)
from .ir import LayerSpec, NetworkSpec, lower_to_spec
from .networks import NETWORK_SPECS
from .networks.zoo import NETWORK_GRAPHS

__all__ = ["main"]

_CONFIGS = {"lp": LP_CONFIG, "ulp": ULP_CONFIG}

#: Every name the arch commands accept: the legacy spec tables plus all
#: graph-IR networks (lowered on demand).
_ARCH_NETWORKS = sorted(set(NETWORK_SPECS) | set(NETWORK_GRAPHS))


def _spec_for(name: str) -> NetworkSpec:
    """Resolve a network name to a spec, via the graph IR if needed."""
    if name in NETWORK_SPECS:
        return NETWORK_SPECS[name]()
    return lower_to_spec(NETWORK_GRAPHS[name]())


def _cmd_info(args) -> int:
    print(f"repro {__version__} — ACOUSTIC (DATE 2020) reproduction")
    for config in (LP_CONFIG, ULP_CONFIG):
        model = AcousticCostModel(config)
        g = config.geometry
        print(f"\n{config.name}: {model.area_mm2:.2f} mm^2, "
              f"{model.power_w(0.7) * 1e3:.0f} mW @ "
              f"{config.clock_hz / 1e6:.0f} MHz")
        print(f"  engine: {g.mac_units} x {g.mac_width}-wide MACs "
              f"({g.peak_products_per_cycle / 1e6:.2f}M products/cycle), "
              f"{g.rows} kernels/pass, {g.positions_per_pass} positions/pass")
        print(f"  memory: {config.weight_memory_bytes / 1024:.1f} KB weights, "
              f"{config.activation_memory_bytes / 1024:.1f} KB activations, "
              f"DRAM: {config.dram or 'none'}")
        print(f"  streams: 2 x {config.phase_length} split-unipolar")
    return 0


def _cmd_specs(args) -> int:
    rows = []
    for name, factory in sorted(NETWORK_SPECS.items()):
        spec = factory()
        rows.append((
            name, len(spec.conv_layers), len(spec.fc_layers),
            spec.total_macs / 1e6, spec.total_weights / 1e6,
        ))
    print(format_table(
        ["network", "conv layers", "fc layers", "MMACs", "Mweights"],
        rows, title="Network zoo",
    ))
    return 0


def _resolve_graph(name: str, input_shape: str = None):
    """Zoo name or checkpoint path -> shaped NetworkGraph, or None
    (with a message printed) when it cannot be resolved."""
    if name in NETWORK_GRAPHS:
        graph = NETWORK_GRAPHS[name]()
    else:
        import pathlib

        path = pathlib.Path(name)
        if not (path.exists() or path.with_suffix(".npz").exists()):
            print(f"unknown network {name!r}: not a zoo graph "
                  f"({', '.join(sorted(NETWORK_GRAPHS))}) "
                  "or a checkpoint path")
            return None
        from .training.checkpoint import load_checkpoint_model

        network, _ = load_checkpoint_model(path)
        graph = network.graph
    if input_shape:
        graph.input_shape = tuple(int(d) for d in input_shape.split(","))
    if graph.input_shape is None:
        print(f"graph {graph.name!r} has no input shape; "
              "pass --input-shape C,H,W")
        return None
    return graph


def _cmd_describe(args) -> int:
    from . import ir

    graph = _resolve_graph(args.network, args.input_shape)
    if graph is None:
        return 1
    print(format_table(ir.DESCRIBE_HEADERS, ir.describe_rows(graph),
                       title=ir.describe_title(graph)))
    return 0


def _cmd_lower(args) -> int:
    from . import ir

    graph = _resolve_graph(args.network, args.input_shape)
    if graph is None:
        return 1
    known = ir.pass_names()
    requested = args.dump_after or []
    unknown = [name for name in requested if name not in known]
    if unknown:
        print(f"unknown pass(es): {', '.join(unknown)} — "
              f"registered passes: {', '.join(known)}")
        return 1
    snapshots = []
    ir.passes.lower(graph, exact_pool=args.exact_pool,
                    observer=lambda name, g: snapshots.append((name, g)))
    print(format_table(
        ir.DESCRIBE_HEADERS, ir.describe_rows(graph),
        title=f"{ir.describe_title(graph)} — before lowering"))
    # Default: the pipeline's final artifact; --dump-after adds the
    # intermediate graphs for debugging individual passes.
    selected = set(requested) if requested else {snapshots[-1][0]}
    for name, g in snapshots:
        if name in selected:
            print()
            print(format_table(
                ir.DESCRIBE_HEADERS, ir.describe_rows(g),
                title=f"{g.name} — after pass {name!r}"))
    return 0


def _cmd_perf(args) -> int:
    spec = _spec_for(args.network)
    if args.conv_only:
        spec = NetworkSpec(spec.name + "_conv", spec.conv_layers)
    config = _CONFIGS[args.config]
    result = simulate_network(spec, config, batch=args.batch)
    print(f"{spec.name} on {config.name} (batch {args.batch}):")
    print(f"  latency      {result.latency_s * 1e3:.4f} ms/frame "
          f"({result.frames_per_s:.1f} frames/s)")
    print(f"  energy       {result.energy_j * 1e3:.4f} mJ/frame "
          f"({result.frames_per_j:.0f} frames/J)")
    print(f"  DRAM traffic {result.dram_bytes / 1e6:.2f} MB/frame")
    rows = [(l.name, l.kind, l.compute_cycles, f"{l.utilization:.2f}")
            for l in result.layers]
    print(format_table(["layer", "kind", "cycles", "utilization"], rows))
    return 0


def _cmd_fig4(args) -> int:
    layer = LayerSpec("conv", 512, 512, kernel=3, padding=1, in_size=16)
    prefetch = 512 * 3 * 3 * 512
    interfaces = ["DDR3-800", "DDR3-1333", "DDR3-1600", "DDR3-2133", "HBM"]
    rows = []
    for mhz in (100, 200, 300, 400, 500, 700, 1000):
        rows.append((mhz, *(
            simulate_layer_latency(layer, LP_CONFIG, prefetch_bytes=prefetch,
                                   clock_hz=mhz * 1e6, dram=name) * 1e3
            for name in interfaces
        )))
    print(format_table(
        ["MHz"] + [f"{n} [ms]" for n in interfaces], rows,
        title="Figure 4 — conv layer latency vs clock per DRAM interface",
    ))
    return 0


def _cmd_breakdown(args) -> int:
    config = _CONFIGS[args.config]
    model = AcousticCostModel(config)
    area = model.area_breakdown_mm2()
    power = model.power_breakdown_w(utilization=0.5)
    rows = [
        (name, area[name], 100 * area[name] / sum(area.values()),
         power[name] * 1e3, 100 * power[name] / sum(power.values()))
        for name in sorted(area, key=area.get, reverse=True)
    ]
    print(format_table(
        ["component", "mm^2", "area %", "mW", "power %"], rows,
        title=f"{config.name}: {model.area_mm2:.2f} mm^2, "
              f"{model.power_w(0.5) * 1e3:.1f} mW",
    ))
    return 0


def _cmd_compile(args) -> int:
    spec = _spec_for(args.network)
    config = _CONFIGS[args.config]
    program = compile_network(spec, config)
    listing = disassemble(program)
    lines = listing.splitlines()
    shown = lines if args.limit <= 0 else lines[:args.limit]
    print("\n".join(shown))
    if len(shown) < len(lines):
        print(f"... ({len(lines) - len(shown)} more lines)")
    stats = Dispatcher(config).run(program)
    print(f"\n{len(program)} static / {stats.dispatched} dynamic "
          f"instructions; {stats.total_cycles:.0f} cycles "
          f"({stats.seconds(config.clock_hz) * 1e3:.3f} ms)")
    return 0


def _cmd_summary(args) -> int:
    """Print every reproduced table saved by the benchmark harness."""
    import pathlib

    results = pathlib.Path(args.results)
    if not results.is_dir():
        print(f"no results directory at {results} — run "
              "`pytest benchmarks/ --benchmark-only` first")
        return 1
    files = sorted(results.glob("*.txt"))
    if not files:
        print(f"{results} is empty — run the benchmark harness first")
        return 1
    for path in files:
        print("=" * 72)
        print(path.stem)
        print("=" * 72)
        print(path.read_text().rstrip())
        print()
    return 0


def _cmd_lint(args) -> int:
    spec = _spec_for(args.network)
    config = _CONFIGS[args.config]
    program = compile_network(spec, config)
    issues = lint_program(program, has_dram=config.dram is not None)
    if not issues:
        print(f"{spec.name}@{config.name}: {len(program)} instructions, "
              "lint clean")
        return 0
    for issue in issues:
        print(issue)
    return 1


def _cmd_bench(args) -> int:
    from .runtime import format_bench, run_bench

    result = run_bench(
        args.network, batch=args.batch, repeats=args.repeats,
        workers=args.workers, backend=args.backend,
        shard_size=args.shard, phase_length=args.phase_length,
        seed=args.seed,
    )
    print(format_bench(result))
    return 0 if result.identical else 1


def _cmd_profile(args) -> int:
    from .runtime.profile import format_profile, run_profile

    result = run_profile(
        args.network, batch=args.batch, repeats=args.repeats,
        backend=args.backend, workers=args.workers, shard_size=args.shard,
        phase_length=args.phase_length, seed=args.seed, out=args.out,
        fmt=args.format,
    )
    print(format_profile(result, top=args.top))
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .runtime import RuntimeConfig
    from .serve import ServeConfig, Server

    progressive = {"start_phase_length": args.progressive_start,
                   "growth": args.progressive_growth,
                   "margin_z": args.progressive_margin_z,
                   "max_phase_length": args.progressive_max}
    config = ServeConfig(
        host=args.host, port=args.port, models=tuple(args.network),
        max_loaded=max(args.max_loaded, len(args.network)),
        max_queue_depth=args.max_queue_depth,
        quota_rate=args.quota_rate, quota_burst=args.quota_burst,
        default_deadline_s=args.deadline,
        phase_length=args.phase_length, seed=args.seed,
        runtime=RuntimeConfig(
            workers=args.workers, backend=args.backend,
            shard_size=args.shard,
        ),
        progressive=progressive,
    )

    async def _main() -> None:
        server = Server(config)
        await server.start()
        print(f"serving {', '.join(config.models)} on "
              f"{config.host}:{server.port} "
              f"(queue depth {config.max_queue_depth}, "
              f"quota {config.quota_rate or 'off'}) — Ctrl-C to drain")
        try:
            await server.serve_forever()
        finally:
            await server.drain()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("\ninterrupted — drained in-flight requests, bye")
    return 0


def _cmd_map(args) -> int:
    spec = _spec_for(args.network)
    config = _CONFIGS[args.config]
    print(bottleneck_report(spec, config))
    return 0


def _cmd_trace(args) -> int:
    spec = _spec_for(args.network)
    config = _CONFIGS[args.config]
    program = compile_network(spec, config)
    dispatcher = TracingDispatcher(config, trace_limit=args.limit)
    stats = dispatcher.run(program)
    print(render_gantt(dispatcher.trace, width=args.width))
    print(f"\ntotal: {stats.total_cycles:.0f} cycles "
          f"({stats.seconds(config.clock_hz) * 1e3:.3f} ms)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="package and configuration summary")
    sub.add_parser("specs", help="network zoo statistics")

    describe = sub.add_parser(
        "describe", help="print the graph-IR layer table for a zoo "
                         "network or checkpoint")
    describe.add_argument("network",
                          help="zoo graph name or checkpoint .npz path")
    describe.add_argument("--input-shape", default=None,
                          help="override/input shape as C,H,W (needed for "
                               "checkpoints of shape-less models)")

    lower_cmd = sub.add_parser(
        "lower", help="run the IR pass pipeline and print before/after "
                      "layer tables")
    lower_cmd.add_argument("network",
                           help="zoo graph name or checkpoint .npz path")
    lower_cmd.add_argument("--input-shape", default=None,
                           help="override/input shape as C,H,W (needed for "
                                "checkpoints of shape-less models)")
    lower_cmd.add_argument("--dump-after", action="append", default=None,
                           metavar="PASS",
                           help="also print the graph after the named pass "
                                "(repeatable; default: final graph only)")
    lower_cmd.add_argument("--exact-pool", action="store_true",
                           help="legalize with exact-pool simulator "
                                "semantics (pool windows must tile) instead "
                                "of the performance models' floor semantics")

    perf = sub.add_parser("perf", help="performance-simulate a network")
    perf.add_argument("network", choices=_ARCH_NETWORKS)
    perf.add_argument("--config", choices=("lp", "ulp"), default="lp")
    perf.add_argument("--batch", type=int, default=1)
    perf.add_argument("--conv-only", action="store_true")

    sub.add_parser("fig4", help="Figure-4 latency sweep")

    breakdown = sub.add_parser("breakdown", help="area/power breakdown")
    breakdown.add_argument("--config", choices=("lp", "ulp"), default="lp")

    compile_cmd = sub.add_parser("compile", help="compile to the ISA")
    compile_cmd.add_argument("network", choices=_ARCH_NETWORKS)
    compile_cmd.add_argument("--config", choices=("lp", "ulp"), default="lp")
    compile_cmd.add_argument("--limit", type=int, default=40,
                             help="max listing lines (0 = all)")

    map_cmd = sub.add_parser("map", help="mapping/bottleneck report")
    map_cmd.add_argument("network", choices=_ARCH_NETWORKS)
    map_cmd.add_argument("--config", choices=("lp", "ulp"), default="lp")

    trace_cmd = sub.add_parser("trace", help="execution Gantt chart")
    trace_cmd.add_argument("network", choices=_ARCH_NETWORKS)
    trace_cmd.add_argument("--config", choices=("lp", "ulp"), default="lp")
    trace_cmd.add_argument("--width", type=int, default=72)
    trace_cmd.add_argument("--limit", type=int, default=10_000)

    summary = sub.add_parser("summary",
                             help="print all reproduced benchmark tables")
    summary.add_argument("--results", default="benchmarks/results")

    lint_cmd = sub.add_parser("lint", help="lint a compiled program")
    lint_cmd.add_argument("network", choices=_ARCH_NETWORKS)
    lint_cmd.add_argument("--config", choices=("lp", "ulp"), default="lp")

    from .runtime.bench import BENCH_NETWORKS
    bench_cmd = sub.add_parser(
        "bench", help="benchmark the batched inference runtime"
    )
    bench_cmd.add_argument("network", choices=sorted(BENCH_NETWORKS))
    bench_cmd.add_argument("--workers", type=int, default=4)
    bench_cmd.add_argument("--batch", type=int, default=8)
    bench_cmd.add_argument("--repeats", type=int, default=3)
    bench_cmd.add_argument("--backend", choices=("thread", "process"),
                           default="thread")
    bench_cmd.add_argument("--shard", type=int, default=None,
                           help="samples per shard (default: batch/workers)")
    bench_cmd.add_argument("--phase-length", type=int, default=32)
    bench_cmd.add_argument("--seed", type=int, default=0)

    profile_cmd = sub.add_parser(
        "profile", help="trace a workload and write a Chrome-loadable "
                        "profile artifact"
    )
    profile_cmd.add_argument("network", choices=sorted(BENCH_NETWORKS))
    profile_cmd.add_argument("--out", default="trace.json",
                             help="trace artifact path (default trace.json)")
    profile_cmd.add_argument("--format", choices=("chrome", "json"),
                             default="chrome",
                             help="chrome trace events (default) or the "
                                  "nested span-tree JSON")
    profile_cmd.add_argument("--batch", type=int, default=8)
    profile_cmd.add_argument("--repeats", type=int, default=3)
    profile_cmd.add_argument("--backend",
                             choices=("serial", "thread", "process"),
                             default="serial",
                             help="serial (default) gives full per-layer "
                                  "attribution; process reports shard "
                                  "times only")
    profile_cmd.add_argument("--workers", type=int, default=1)
    profile_cmd.add_argument("--shard", type=int, default=None,
                             help="samples per shard (default: "
                                  "batch/workers)")
    profile_cmd.add_argument("--phase-length", type=int, default=32)
    profile_cmd.add_argument("--seed", type=int, default=0)
    profile_cmd.add_argument("--top", type=int, default=12,
                             help="rows in the top-span summary table")

    serve_cmd = sub.add_parser(
        "serve", help="run the asyncio inference server (docs/serving.md)"
    )
    serve_cmd.add_argument("network", nargs="+",
                           choices=sorted(BENCH_NETWORKS),
                           help="warm-compiled model(s); other zoo "
                                "networks load lazily")
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8707,
                           help="bind port (0 = ephemeral)")
    serve_cmd.add_argument("--max-loaded", type=int, default=4,
                           help="registry LRU capacity, warm set included")
    serve_cmd.add_argument("--max-queue-depth", type=int, default=32,
                           help="admitted-request bound; beyond it the "
                                "server sheds with backpressure")
    serve_cmd.add_argument("--quota-rate", type=float, default=0.0,
                           help="per-client sustained requests/s "
                                "(0 = quotas off)")
    serve_cmd.add_argument("--quota-burst", type=float, default=8.0)
    serve_cmd.add_argument("--deadline", type=float, default=None,
                           help="default per-request deadline [s]")
    serve_cmd.add_argument("--phase-length", type=int, default=16)
    serve_cmd.add_argument("--seed", type=int, default=0)
    serve_cmd.add_argument("--workers", type=int, default=2)
    serve_cmd.add_argument("--backend", choices=("serial", "thread",
                                                 "process"),
                           default="thread")
    serve_cmd.add_argument("--shard", type=int, default=4,
                           help="samples per worker shard")
    serve_cmd.add_argument("--max-wait", type=float, default=None,
                           help="ignored: requests go to the worker pool "
                                "as they arrive (accepted so existing "
                                "command lines still parse)")
    serve_cmd.add_argument("--progressive-start", type=int, default=16,
                           help="default anytime-inference starting "
                                "length for 'progressive: true' requests")
    serve_cmd.add_argument("--progressive-max", type=int, default=None,
                           help="default anytime-inference maximum length "
                                "(default: the model's phase length)")
    serve_cmd.add_argument("--progressive-margin-z", type=float,
                           default=2.0,
                           help="default margin-gate z-score (the accept "
                                "bound is z/sqrt(n))")
    serve_cmd.add_argument("--progressive-growth", type=float, default=2.0,
                           help="default geometric extension factor")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "info": _cmd_info,
        "specs": _cmd_specs,
        "describe": _cmd_describe,
        "lower": _cmd_lower,
        "perf": _cmd_perf,
        "fig4": _cmd_fig4,
        "breakdown": _cmd_breakdown,
        "compile": _cmd_compile,
        "map": _cmd_map,
        "summary": _cmd_summary,
        "lint": _cmd_lint,
        "trace": _cmd_trace,
        "bench": _cmd_bench,
        "profile": _cmd_profile,
        "serve": _cmd_serve,
    }[args.command]
    return handler(args)
