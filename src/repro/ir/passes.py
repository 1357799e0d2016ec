"""The pass-based lowering pipeline: one canonical path from graph to
hardware-model graph.

Before this module existed, conv+pool fusion and shape legalization were
re-implemented independently by every consumer of the IR — the SC
simulator's own fusing walk, the spec lowering's ``_emit``, the runtime
planner's compile walk, and the SNR profiler's private fused-stage walk.
Four copies of the same decision is how accuracy/cost co-design drifts;
end-to-end SC frameworks keep exactly one compiler-style lowering path
from model to hardware model, and so does this one now.

A *pass* is a named, pure ``(NetworkGraph, PassContext) -> NetworkGraph``
function registered with :func:`register_pass`.  :class:`PassManager`
runs an ordered list of passes, wrapping each in a ``pass:<name>``
:mod:`repro.obs` span and verifying after every pass that the graph is
still structurally sound and (when shapes are known) that the network's
output shape is unchanged.  The default pipeline is:

``normalize``
    Canonicalize node forms: ``or_mode="none"`` becomes ``None``, square
    kernel tuples collapse to ints, scalar fields become plain Python
    ints.  Recurses into residual bodies and shortcuts.
``infer_and_legalize_shapes``
    Run the IR's centralized shape inference and reject illegal graphs.
    The historical ``exact_pool`` split lives here as a pipeline option:
    ``exact_pool=True`` (simulator semantics) requires pooling windows
    to tile their inputs, ``False`` (performance-model semantics) floors
    ragged windows.
``fuse_conv_pool``
    THE conv+pool fusion implementation.  A conv node with no fused pool
    followed immediately by an average pool absorbs the pool into its
    ``pool`` field (the hardware's output counters accumulate the window
    before conversion — computation skipping, paper Sec. II-C).  Max
    pools never fuse: skipping is an averaging, not a maximum.  Recurses
    into residual bodies and shortcuts.  :func:`fusion_groups` exposes
    the grouping decision so consumers that must align *unfused*
    structures with the fused graph (e.g. the SNR profiler walking float
    training layers) reuse it instead of re-deriving it.
``assign_stream_params``
    Fill split-unipolar metadata: apply pipeline-level ``or_mode`` /
    ``stream_length`` defaults to conv/linear nodes that carry none.
    With no defaults configured the pass is the identity.

Consumers call :func:`lower` and receive a :class:`LoweringResult`
holding the fused graph plus its shape infos:

- ``SCNetwork.from_graph`` builds SC layers 1:1 from the fused graph;
- ``repro.ir.spec.lower_to_spec`` emits ``LayerSpec`` records from it,
  which routes ``repro.arch`` (compiler/perfsim/dse/report) and
  ``repro.baselines.eyeriss`` through the same pipeline via ``as_spec``;
- ``repro.runtime.ExecutionPlan`` legalizes the already-fused SC graph
  with :data:`LEGALIZE_PASSES` (fusion is a fixed point there);
- ``repro.analysis.snr`` aligns float stages with SC layers via
  :func:`fusion_groups`.

``python -m repro lower <network> [--dump-after PASS]`` prints the IR
table before lowering and after any pass for debugging.

Layering: this module may import :mod:`repro.ir` siblings and
:mod:`repro.obs` — nothing else (the one sanctioned exception to the
"bottom layers are mutually independent" rule, enforced per-file by
``scripts/check_layering.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .. import obs
from .graph import LayerNode, NetworkGraph, conv_output_hw

__all__ = [
    "DEFAULT_PASSES",
    "GroupFacts",
    "LEGALIZE_PASSES",
    "LoweringResult",
    "PassContext",
    "PassError",
    "PassManager",
    "check_conv_groups",
    "fusion_groups",
    "group_facts",
    "lower",
    "pass_names",
    "register_pass",
]


class PassError(ValueError):
    """A pass produced a structurally broken graph (names the pass)."""


@dataclass
class PassContext:
    """Options and scratch state threaded through one pipeline run."""

    #: Simulator semantics (pool windows must tile) vs performance-model
    #: semantics (ragged windows floor) — the legalization split.
    exact_pool: bool = False
    #: Input-shape override; falls back to ``graph.input_shape``.
    input_shape: tuple = None
    #: Pipeline-level defaults for :func:`assign_stream_params`
    #: (``or_mode`` / ``stream_length``).
    options: dict = field(default_factory=dict)
    #: Shape infos of the most recently verified graph (``None`` until
    #: a shape is known).
    infos: list = None

    def shape_for(self, graph: NetworkGraph) -> tuple:
        if self.input_shape is not None:
            return tuple(int(d) for d in self.input_shape)
        return graph.input_shape


@dataclass
class LoweringResult:
    """What :func:`lower` hands every consumer of the pipeline."""

    #: The canonical fused/legalized graph.
    graph: NetworkGraph
    #: Per-node :class:`~repro.ir.graph.ShapeInfo` of ``graph`` (``None``
    #: when no input shape was available).
    infos: list
    #: The context the pipeline ran with.
    context: PassContext


#: Registered passes, in registration order: name -> function.
_REGISTRY = {}


def register_pass(name: str):
    """Register a ``(graph, ctx) -> graph`` function under ``name``."""
    def decorator(fn):
        if name in _REGISTRY:
            raise ValueError(f"pass {name!r} is already registered")
        _REGISTRY[name] = fn
        return fn
    return decorator


def pass_names() -> tuple:
    """All registered pass names, in registration order."""
    return tuple(_REGISTRY)


# --------------------------------------------------------------------
# Node cloning (passes are pure: they never mutate their input graph)
# --------------------------------------------------------------------

def _clone_node(node: LayerNode, **overrides) -> LayerNode:
    """Copy a node, sharing parameter arrays by reference."""
    overrides.setdefault("params", dict(node.params))
    overrides.setdefault("body", [_clone_node(n) for n in node.body])
    overrides.setdefault("shortcut",
                         [_clone_node(n) for n in node.shortcut])
    return replace(node, **overrides)


def _collect_param_ids(nodes) -> set:
    ids = set()
    for node in nodes:
        ids.update(id(v) for v in node.params.values())
        ids.update(_collect_param_ids(node.body))
        ids.update(_collect_param_ids(node.shortcut))
    return ids


# --------------------------------------------------------------------
# The passes
# --------------------------------------------------------------------

@register_pass("normalize")
def normalize(graph: NetworkGraph, ctx: PassContext) -> NetworkGraph:
    """Canonicalize node forms so later passes see one spelling."""
    return NetworkGraph(graph.name, graph.input_shape,
                        _normalize_chain(graph.nodes))


_INT_FIELDS = ("in_channels", "out_channels", "stride", "padding",
               "groups", "pool", "in_features", "out_features")


def _normalize_chain(nodes) -> list:
    out = []
    for node in nodes:
        overrides = {}
        kh, kw = node.kernel_hw
        overrides["kernel"] = kh if kh == kw else (kh, kw)
        if node.or_mode == "none":
            overrides["or_mode"] = None
        for name in _INT_FIELDS:
            overrides[name] = int(getattr(node, name))
        if node.stream_length is not None:
            overrides["stream_length"] = int(node.stream_length)
        overrides["body"] = _normalize_chain(node.body)
        overrides["shortcut"] = _normalize_chain(node.shortcut)
        out.append(_clone_node(node, **overrides))
    return out


@register_pass("infer_and_legalize_shapes")
def infer_and_legalize_shapes(graph: NetworkGraph,
                              ctx: PassContext) -> NetworkGraph:
    """Shape-check the graph under the context's pooling semantics.

    Raises :class:`ValueError` on any inconsistency (channel mismatch,
    collapsing conv, non-tiling pool under ``exact_pool``).  A graph
    with no known input shape passes through unchecked — the simulator
    and planner re-legalize once a concrete shape arrives.
    """
    shape = ctx.shape_for(graph)
    if shape is not None:
        ctx.infos = graph.infer_shapes(shape, exact_pool=ctx.exact_pool)
    return graph


@register_pass("fuse_conv_pool")
def fuse_conv_pool(graph: NetworkGraph, ctx: PassContext) -> NetworkGraph:
    """Fuse conv + average-pool pairs for computation skipping."""
    return NetworkGraph(graph.name, graph.input_shape,
                        _fuse_chain(graph.nodes))


def fusion_groups(nodes) -> list:
    """``(start, stop)`` index ranges of source nodes per fused node.

    The single home of the fusion *decision*: a conv node with no
    already-fused pool followed immediately by an average pool forms one
    two-node group; every other node stands alone.  Consumers that align
    unfused structures with the fused graph (the SNR profiler, the
    deprecation shims) share this instead of re-deriving it.
    """
    groups = []
    i = 0
    while i < len(nodes):
        node = nodes[i]
        if (node.kind == "conv" and node.pool == 1 and i + 1 < len(nodes)
                and nodes[i + 1].kind == "pool"
                and nodes[i + 1].pool_kind == "avg"):
            groups.append((i, i + 2))
            i += 2
        else:
            groups.append((i, i + 1))
            i += 1
    return groups


def check_conv_groups(node, where: str = "") -> int:
    """THE grouped-convolution legality check, shared by every lowering.

    The training builder and the SC simulator used to carry private
    (and divergent) rejection messages for ``groups != 1``; now that
    grouped convolutions lower end-to-end, both call this instead and
    only structurally impossible configurations are rejected, with one
    canonical message.  Returns the validated ``groups`` as an ``int``.
    """
    groups = int(node.groups)
    label = where or node.kind
    if groups < 1:
        raise ValueError(f"{label}: groups={groups} must be >= 1")
    if node.kind != "conv":
        if groups != 1:
            raise ValueError(
                f"{label}: groups={groups} is only legal on conv nodes")
        return groups
    if node.in_channels % groups or node.out_channels % groups:
        raise ValueError(
            f"{label}: groups={groups} must divide in_channels="
            f"{node.in_channels} and out_channels={node.out_channels}")
    return groups


@dataclass(frozen=True)
class GroupFacts:
    """Compile-time facts about one fused node, for kernel specializers.

    This is what the pass pipeline *knows* at ``ExecutionPlan`` compile
    time and used to throw away: MAC structure, exact weight sparsity
    (the all-zero fan-in lanes ACOUSTIC's skipped datapath never
    clocks), and the per-sample position count the kernel will stream.
    Non-MAC nodes report zero fan-in and no sparsity.
    """

    index: int
    kind: str
    fan_in: int
    out_channels: int
    weight_count: int
    #: Fan-in lanes (columns of ``weight.reshape(C, -1)``) that are
    #: exactly zero for *every* output channel — skippable per se.
    zero_weight_lanes: int
    #: Fraction of exactly-zero weight entries (elementwise sparsity).
    sparsity: float
    #: Spatial output positions one sample streams through the MAC
    #: (``oh * ow`` pre-pool for conv, 1 for linear, 0 otherwise).
    positions: int
    #: Channel groups of a conv node (1 everywhere else).  ``fan_in`` is
    #: always the *per-group* fan-in each output channel reads.
    groups: int = 1
    #: Lanes of the dense block-diagonal weight plane the kernels stream
    #: (``in_channels * kh * kw`` for conv; ``fan_in * groups``).
    dense_fan_in: int = 0
    #: Per-group ``(lane_start, lane_stop)`` spans in the dense im2col
    #: lane ordering — group ``g`` owns input channels
    #: ``[g * C_in/g, (g+1) * C_in/g)``, a contiguous lane block.
    group_lane_spans: tuple = ()
    #: Facts of a residual node's body, in body order.
    body: tuple = ()


def _node_facts(info, index: int) -> GroupFacts:
    node = info.node
    if node.kind == "residual":
        body = tuple(_node_facts(sub, i)
                     for i, sub in enumerate(info.body))
        return GroupFacts(index=index, kind="residual", fan_in=0,
                          out_channels=0, weight_count=0,
                          zero_weight_lanes=0, sparsity=0.0, positions=0,
                          body=body)
    zero_lanes = 0
    sparsity = 0.0
    positions = 0
    if node.kind in ("conv", "linear"):
        weight = node.params.get("weight")
        if weight is not None:
            w2d = np.asarray(weight).reshape(node.out_channels
                                             if node.kind == "conv"
                                             else node.out_features, -1)
            zero_mask = w2d == 0.0
            zero_lanes = int(zero_mask.all(axis=0).sum())
            sparsity = float(zero_mask.mean()) if w2d.size else 0.0
        if node.kind == "conv":
            oh, ow = conv_output_hw(node, info.in_shape[1:])
            positions = oh * ow
        else:
            positions = 1
    groups = check_conv_groups(node, f"layer {index}")
    dense_fan_in = 0
    spans = ()
    if node.kind in ("conv", "linear"):
        dense_fan_in = node.fan_in * groups
        lanes_g = node.fan_in
        spans = tuple((g * lanes_g, (g + 1) * lanes_g)
                      for g in range(groups))
    return GroupFacts(
        index=index, kind=node.kind, fan_in=node.fan_in,
        out_channels=(node.out_channels if node.kind == "conv"
                      else node.out_features if node.kind == "linear"
                      else 0),
        weight_count=node.weight_count, zero_weight_lanes=zero_lanes,
        sparsity=sparsity, positions=positions, groups=groups,
        dense_fan_in=dense_fan_in, group_lane_spans=spans,
    )


def group_facts(result: LoweringResult) -> list:
    """Per-fused-node :class:`GroupFacts` of a shape-legalized lowering.

    The bridge between the pass pipeline and kernel specialization:
    :class:`~repro.runtime.plan.ExecutionPlan` consumes these to decide
    which layers get specialized kernel plans and to size them.
    Requires shape infos (lower with a known input shape).
    """
    if result.infos is None:
        raise ValueError(
            "group_facts needs shape infos — lower with an input shape")
    return [_node_facts(info, index)
            for index, info in enumerate(result.infos)]


def _fuse_chain(nodes) -> list:
    out = []
    for start, stop in fusion_groups(nodes):
        node = nodes[start]
        if stop - start == 2:
            out.append(_clone_node(node,
                                   pool=nodes[start + 1].kernel_hw[0]))
        elif node.kind == "residual":
            out.append(_clone_node(node, body=_fuse_chain(node.body),
                                   shortcut=_fuse_chain(node.shortcut)))
        else:
            out.append(_clone_node(node))
    return out


@register_pass("assign_stream_params")
def assign_stream_params(graph: NetworkGraph,
                         ctx: PassContext) -> NetworkGraph:
    """Apply pipeline-level split-unipolar defaults to bare MAC nodes."""
    or_mode = ctx.options.get("or_mode")
    stream_length = ctx.options.get("stream_length")
    if or_mode is None and stream_length is None:
        return graph
    return NetworkGraph(
        graph.name, graph.input_shape,
        _assign_chain(graph.nodes, or_mode, stream_length))


def _assign_chain(nodes, or_mode, stream_length) -> list:
    out = []
    for node in nodes:
        overrides = {}
        if node.kind in ("conv", "linear"):
            if or_mode is not None and node.or_mode is None:
                overrides["or_mode"] = or_mode
            if stream_length is not None and node.stream_length is None:
                overrides["stream_length"] = int(stream_length)
        overrides["body"] = _assign_chain(node.body, or_mode, stream_length)
        overrides["shortcut"] = _assign_chain(node.shortcut, or_mode,
                                              stream_length)
        out.append(_clone_node(node, **overrides))
    return out


# --------------------------------------------------------------------
# Post-pass structural verification
# --------------------------------------------------------------------

def _verify_nodes(nodes, path: str, name: str) -> None:
    for i, node in enumerate(nodes):
        where = f"{path}{i}"
        if not isinstance(node, LayerNode):
            raise PassError(
                f"pass {name!r} produced a non-LayerNode at {where}: "
                f"{type(node).__name__}")
        if node.kind != "conv" and node.pool != 1:
            raise PassError(
                f"pass {name!r} left a fused pool on a {node.kind} node "
                f"at {where}")
        if node.pool < 1:
            raise PassError(
                f"pass {name!r} produced pool={node.pool} at {where}")
        _verify_nodes(node.body, f"{where}.body.", name)
        _verify_nodes(node.shortcut, f"{where}.shortcut.", name)


def _verify(before: NetworkGraph, after: NetworkGraph, ctx: PassContext,
            name: str) -> None:
    """Structural checks + shape preservation after one pass."""
    _verify_nodes(after.nodes, "", name)
    lost = _collect_param_ids(before.nodes) - _collect_param_ids(after.nodes)
    if lost:
        raise PassError(
            f"pass {name!r} dropped {len(lost)} parameter array(s)")
    shape = ctx.shape_for(after)
    if shape is None:
        return
    try:
        infos = after.infer_shapes(shape, exact_pool=ctx.exact_pool)
    except ValueError as exc:
        raise PassError(
            f"pass {name!r} produced a shape-illegal graph: {exc}"
        ) from exc
    out_shape = infos[-1].out_shape if infos else tuple(shape)
    if ctx.infos is not None:
        prev_out = ctx.infos[-1].out_shape if ctx.infos else tuple(shape)
        if out_shape != prev_out:
            raise PassError(
                f"pass {name!r} changed the network output shape "
                f"{prev_out} -> {out_shape}")
    ctx.infos = infos


# --------------------------------------------------------------------
# PassManager and the lower() entry point
# --------------------------------------------------------------------

#: The canonical pipeline every lowering consumer runs.
DEFAULT_PASSES = ("normalize", "infer_and_legalize_shapes",
                  "fuse_conv_pool", "assign_stream_params")

#: Legalization-only subset for consumers whose graph is already fused
#: 1:1 with a layer stack (the runtime planner): canonicalize + shape
#: check without regrouping nodes.
LEGALIZE_PASSES = ("normalize", "infer_and_legalize_shapes")


class PassManager:
    """Run registered graph passes in order, verified and traced.

    Parameters
    ----------
    passes:
        Pass names (looked up in the registry) or ``(name, fn)`` pairs
        for ad-hoc passes.  Defaults to :data:`DEFAULT_PASSES`.
    """

    def __init__(self, passes=None):
        self.passes = []
        for entry in (passes if passes is not None else DEFAULT_PASSES):
            if isinstance(entry, str):
                if entry not in _REGISTRY:
                    raise KeyError(
                        f"unknown pass {entry!r}; registered passes: "
                        f"{', '.join(pass_names())}")
                self.passes.append((entry, _REGISTRY[entry]))
            else:
                name, fn = entry
                self.passes.append((str(name), fn))

    def run(self, graph: NetworkGraph, ctx: PassContext = None,
            observer=None) -> NetworkGraph:
        """Apply every pass; returns the final graph.

        ``observer(name, graph)`` is called after each pass with the
        verified result — the hook behind ``repro lower --dump-after``.
        With :mod:`repro.obs` tracing enabled each pass runs inside a
        ``pass:<name>`` span carrying a ``nodes`` counter.
        """
        ctx = ctx if ctx is not None else PassContext()
        for name, fn in self.passes:
            with obs.span(f"pass:{name}", category="ir") as span:
                result = fn(graph, ctx)
                _verify(graph, result, ctx, name)
                span.add_counter("nodes", len(result.nodes))
            if observer is not None:
                observer(name, result)
            graph = result
        return graph


def lower(graph: NetworkGraph, *, exact_pool: bool = False,
          input_shape: tuple = None, passes=None, options: dict = None,
          observer=None) -> LoweringResult:
    """Run the lowering pipeline over ``graph``.

    The one entry point every consumer shares: the simulator lowers with
    ``exact_pool=True``, the performance models with ``False``; both get
    the same fused graph.  Returns a :class:`LoweringResult` with the
    fused graph and (when an input shape is known) its shape infos.
    """
    ctx = PassContext(exact_pool=exact_pool, input_shape=input_shape,
                      options=dict(options) if options else {})
    fused = PassManager(passes).run(graph, ctx, observer=observer)
    return LoweringResult(graph=fused, infos=ctx.infos, context=ctx)
