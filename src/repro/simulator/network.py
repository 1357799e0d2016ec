"""SC network container and lowering from the graph IR.

:meth:`SCNetwork.from_graph` lowers a :class:`~repro.ir.NetworkGraph`
(with parameters) to simulator layers by running the canonical
:mod:`repro.ir.passes` pipeline (exact-pool semantics) and materializing
one SC layer per node of the resulting fused graph — conv + avg-pool
fusion for computation skipping happens in the pipeline, not here.
:meth:`SCNetwork.from_trained` is a thin adapter: it captures the
trained model's graph via :func:`repro.training.network.graph_of` and
lowers that.

The network's *fused* SC-level graph (one node per SC layer),
:attr:`SCNetwork.graph`, is derived from the live layers on every
access: the runtime's :class:`~repro.runtime.plan.ExecutionPlan` walks
it for shapes, validation and weight sparsity, so it must see the
weights the layers hold now, not the arrays they were built with.  The
network keeps only the graph's name and input shape.

:meth:`SCNetwork.forward` is the only run-time network walker: a
compiled :class:`~repro.runtime.plan.ExecutionPlan` runs it with plans
pre-installed in the layers' caches, and the resumable
:class:`~repro.simulator.progressive.ProgressiveExecutor` runs it with
its own counts step.
"""

from __future__ import annotations

import numpy as np

from .. import ir, obs
from ..training.network import Sequential, graph_of
from .config import SCConfig
from .layers import (SCAvgPool, SCConv2d, SCFlatten, SCLinear, SCReLU,
                     SCResidual, run_layer)

__all__ = ["SCNetwork", "sc_graph_of"]

#: Simulator layer class -> IR-layer span kind (trace span names are
#: ``layer:<index>:<kind>``, matching the fused graph's node kinds).
_SPAN_KINDS = {SCConv2d: "conv", SCLinear: "linear", SCReLU: "relu",
               SCAvgPool: "avgpool", SCFlatten: "flatten",
               SCResidual: "residual"}


def _span_kind(layer) -> str:
    kind = _SPAN_KINDS.get(type(layer))
    if kind is not None:
        return kind
    for cls, kind in _SPAN_KINDS.items():   # subclassed simulator layers
        if isinstance(layer, cls):
            return kind
    return "custom"


class SCNetwork:
    """A stochastic-computing CNN evaluated bitstream-exactly.

    Build one directly from simulator layers, lower a
    :class:`~repro.ir.NetworkGraph` with :meth:`from_graph`, or convert
    a trained :class:`~repro.training.network.Sequential` with
    :meth:`from_trained`.
    """

    def __init__(self, layers, config: SCConfig = None, *,
                 name: str = "sc_network", input_shape: tuple = None):
        self.layers = list(layers)
        self.config = config if config is not None else SCConfig()
        #: Name and per-sample input shape of :attr:`graph`.
        self.name = name
        self.input_shape = input_shape

    @classmethod
    def from_graph(cls, graph, config: SCConfig = None) -> "SCNetwork":
        """Lower an IR graph to its SC-simulated counterpart.

        Runs the :mod:`repro.ir.passes` pipeline with exact-pool
        (simulator) semantics — an avg-pool node directly after a conv
        is fused into it for computation skipping, and graphs with a
        known input shape are shape-legalized up front — then builds
        one SC layer per fused node.  Conv/linear nodes must carry a
        ``weight`` parameter and be bias-free: the ACOUSTIC datapath
        has no additive-constant path, so a biased layer raises
        :class:`ValueError` outright.
        """
        config = config if config is not None else SCConfig()
        fused = ir.passes.lower(graph, exact_pool=True).graph
        return cls(_layers_from_fused(fused.nodes), config, name=fused.name,
                   input_shape=fused.input_shape)

    @classmethod
    def from_trained(cls, network: Sequential, config: SCConfig = None
                     ) -> "SCNetwork":
        """Convert a trained network into its SC-simulated counterpart.

        Thin adapter over :meth:`from_graph`: captures the model's
        graph (parameters by reference) and lowers it.  Plain
        ``Conv2d``/``Linear`` weights are accepted; layers constructed
        with a bias are rejected with :class:`ValueError`.
        """
        return cls.from_graph(graph_of(network), config)

    @property
    def graph(self):
        """The fused SC-level :class:`~repro.ir.NetworkGraph`, 1:1 with
        ``layers``, built from the layers as they are now (their current
        weights by reference)."""
        return ir.NetworkGraph(self.name, self.input_shape,
                               _nodes_from_sc_layers(self.layers))

    def to_graph(self):
        """The fused SC-level graph (see :attr:`graph`)."""
        return self.graph

    def forward(self, x: np.ndarray, return_intermediates: bool = False,
                *, config: SCConfig = None, counts=None):
        """Run bitstream-exact inference; ``x`` is ``(N, C, H, W)`` in
        [0, 1].  Returns the final counter values (logits); with
        ``return_intermediates=True`` also returns the per-layer outputs
        (the converted binary activations the scratchpads would hold).

        ``config`` overrides the network's :class:`SCConfig` for this
        walk, and ``counts`` replaces the conv/linear layers' counts
        step (see :func:`~repro.simulator.layers.run_layer`): the hooks
        the resumable evaluator walks the network with.

        With :mod:`repro.obs` tracing enabled, each layer runs inside a
        ``layer:<index>:<kind>`` span carrying a ``samples`` counter —
        the IR-layer attribution ``python -m repro profile`` reports.
        Disabled, the only per-layer cost is one boolean check."""
        x = np.asarray(x, dtype=np.float64)
        config = config if config is not None else self.config
        traced = obs.enabled()
        names = self._layer_span_names() if traced else None
        intermediates = []
        for index, layer in enumerate(self.layers):
            if traced:
                with obs.span(names[index], category="layer") as span:
                    span.add_counter("samples", x.shape[0])
                    x = run_layer(layer, x, config, index, counts)
            else:
                x = run_layer(layer, x, config, index, counts)
            if return_intermediates:
                intermediates.append(x)
        if return_intermediates:
            return x, intermediates
        return x

    def forward_partial(self, x: np.ndarray, phase_length: int = None):
        """Begin a resumable (anytime) evaluation of ``x``.

        Returns a :class:`~repro.simulator.progressive.ProgressiveResult`
        holding the logits at base ``phase_length`` (default: the
        config's); ``result.extend(longer)`` grows the evaluation
        without recomputing the already-counted prefix, bit-identical
        to a one-shot :meth:`forward` at the final length.  Requires a
        prefix-stable RNG scheme (``lfsr``/``vdc``) — see
        :class:`ProgressiveExecutor`.
        """
        from .progressive import ProgressiveExecutor
        return ProgressiveExecutor(self).start(x, phase_length)

    def _layer_span_names(self) -> list:
        """``layer:<index>:<kind>`` trace names, built once per network."""
        names = getattr(self, "_span_names", None)
        if names is None:
            names = [f"layer:{i}:{_span_kind(layer)}"
                     for i, layer in enumerate(self.layers)]
            self._span_names = names
        return names

    def predict(self, x: np.ndarray, batch_size: int = 8) -> np.ndarray:
        x = np.asarray(x)
        if x.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        preds = []
        for start in range(0, x.shape[0], batch_size):
            logits = self.forward(x[start:start + batch_size])
            preds.append(np.argmax(logits, axis=-1))
        return np.concatenate(preds)

    def accuracy(self, x: np.ndarray, y: np.ndarray,
                 batch_size: int = 8) -> float:
        return float((self.predict(x, batch_size) == y).mean())


def sc_graph_of(network: "SCNetwork"):
    """The fused SC-level graph of a network (module-level spelling of
    :meth:`SCNetwork.to_graph` for adapter call sites)."""
    return network.to_graph()


def _reject_bias(node, what: str) -> None:
    if node.bias or "bias" in node.params:
        raise ValueError(
            f"cannot lower {what} layer with a bias to the SC simulator: "
            "the ACOUSTIC datapath has no additive-constant (bias) path; "
            "rebuild or retrain the layer with bias=False"
        )


def _node_weight(node, what: str) -> np.ndarray:
    weight = node.params.get("weight")
    if weight is None:
        raise ValueError(
            f"{what} node carries no weights — lower a trained graph "
            "(graph_of(model) / Sequential.from_graph) to the simulator"
        )
    return weight


def _layers_from_fused(nodes) -> list:
    """One SC layer per node of a pipeline-fused graph.

    No fusion happens here: conv nodes already carry their pooling
    window in ``pool`` (see :mod:`repro.ir.passes`), so the mapping is
    a straight 1:1 walk enforcing the simulator's legality rules
    (weights present, bias-free, legal channel groups, identity skips).
    """
    sc_layers = []
    for node in nodes:
        if node.kind == "conv":
            _reject_bias(node, "conv")
            groups = ir.passes.check_conv_groups(node)
            sc_layers.append(
                SCConv2d(_node_weight(node, "conv"), stride=node.stride,
                         padding=node.padding, pool_size=node.pool,
                         groups=groups)
            )
        elif node.kind == "linear":
            _reject_bias(node, "linear")
            sc_layers.append(SCLinear(_node_weight(node, "linear")))
        elif node.kind == "relu":
            sc_layers.append(SCReLU())
        elif node.kind == "pool" and node.pool_kind == "avg":
            sc_layers.append(SCAvgPool(node.kernel_hw[0]))
        elif node.kind == "flatten":
            sc_layers.append(SCFlatten())
        elif node.kind == "residual":
            if node.shortcut:
                raise TypeError(
                    "projection shortcuts exist only in the performance "
                    "models; the SC simulator supports identity skips only"
                )
            sc_layers.append(SCResidual(_layers_from_fused(node.body)))
        else:
            raise TypeError(
                f"no SC equivalent for {node.pool_kind + ' ' if node.kind == 'pool' else ''}"
                f"{node.kind} layers"
            )
    return sc_layers


def _nodes_from_sc_layers(layers) -> list:
    """The fused SC-level graph's nodes for SC layer objects."""
    nodes = []
    for layer in layers:
        if isinstance(layer, SCConv2d):
            c_out, c_in_g, kh, kw = layer.weight.shape
            nodes.append(ir.conv(
                c_in_g * layer.groups, c_out, kh if kh == kw else (kh, kw),
                stride=layer.stride, padding=layer.padding,
                pool=layer.pool_size, groups=layer.groups,
                weight=layer.weight))
        elif isinstance(layer, SCLinear):
            out_f, in_f = layer.weight.shape
            nodes.append(ir.linear(in_f, out_f, weight=layer.weight))
        elif isinstance(layer, SCReLU):
            nodes.append(ir.relu())
        elif isinstance(layer, SCAvgPool):
            nodes.append(ir.avgpool(layer.pool_size))
        elif isinstance(layer, SCFlatten):
            nodes.append(ir.flatten())
        elif isinstance(layer, SCResidual):
            nodes.append(ir.residual(_nodes_from_sc_layers(layer.body)))
        else:
            raise TypeError(
                f"no IR node for SC layer {type(layer).__name__}"
            )
    return nodes
