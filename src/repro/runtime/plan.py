"""Execution plans: compile an :class:`SCNetwork` once, run it many times.

An :class:`ExecutionPlan` makes one compile walk over the network's
fused SC-level :class:`~repro.ir.NetworkGraph` (one node per simulator
layer) with a symbolic input shape.  The IR's shape inference validates
layer compatibility up front; per layer the walk records a
:class:`LayerPlan` row (stream lengths, weight lanes, the bitstream
product-bits one sample simulates) and builds and autotunes the layer's
engine plans and installs them in the layer's own plan cache
(:mod:`repro.runtime.specialize`) — or installs them from the
process-wide fingerprint cache without encoding a weight stream.  The
graph the walk reads is derived from the network's live layers, so the
compile sees the weights the layers hold now.
:meth:`ExecutionPlan.run` is then just
:meth:`~repro.simulator.network.SCNetwork.forward`, the one network
walker, finding every plan warm.

Plans are picklable: process-backed worker pools ship one plan per
worker (the layers' plan caches included), so workers start warm.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..analysis import format_table
from ..ir import conv_output_hw
from ..ir.passes import LEGALIZE_PASSES, group_facts, lower
from ..simulator.config import SCConfig
from ..simulator.network import SCNetwork
from .specialize import (Specialization, TuningBudget, build_kernel_plan,
                         lookup_kernel_plans, specialization_fingerprint,
                         store_kernel_plans)

__all__ = ["ExecutionPlan", "LayerPlan"]


@dataclass(frozen=True)
class LayerPlan:
    """Static cost/shape record for one layer of a compiled plan."""

    index: int
    kind: str
    output_shape: tuple
    #: Per-phase stream length actually clocked (after computation
    #: skipping); 0 for layers that touch no streams.
    phase_length: int
    #: Constant weight-stream lanes the layer's plan encodes (C * K).
    weight_lanes: int
    #: AND/OR product-lane bits simulated per input sample: one AND gate
    #: per (position, channel, fan-in) lane clocked for the stream
    #: length, per phase.  Upper bound — operand gating skips the lanes
    #: whose weight phase component is zero (roughly half of them).
    product_bits_per_sample: int
    #: Channel groups for conv layers (1 = dense); grouped layers run
    #: through the same dense block-diagonal kernels, so this is a cost
    #: annotation (fan-in per output is ``weight_lanes / out_channels``).
    groups: int = 1


#: IR node kind -> plan row kind (pool nodes in an SC graph are always
#: the standalone average pools; fused ones live on the conv node).
_PLAN_KINDS = {"pool": "avgpool"}


class ExecutionPlan:
    """A compiled, cache-warm inference plan for one SC network.

    Parameters
    ----------
    network:
        The :class:`SCNetwork` to compile.
    input_shape:
        Per-sample shape ``(C, H, W)`` (no batch dimension).
    config:
        Optional :class:`SCConfig` override; defaults to the network's.
    autotune_budget_s:
        Total compile-time budget for the per-layer block-schedule
        measurement pass; ``0`` keeps the config's global ``block_kib``
        everywhere.
    """

    def __init__(self, network: SCNetwork, input_shape: tuple,
                 config: SCConfig = None, *,
                 autotune_budget_s: float = 0.25):
        config = config if config is not None else network.config
        # Share layer objects (and therefore plan caches) but pin the
        # plan to one config so runs cannot drift from what was compiled.
        self.network = SCNetwork(network.layers, config, name=network.name,
                                 input_shape=network.input_shape)
        self.config = config
        self.input_shape = tuple(int(d) for d in input_shape)
        self.layer_plans = []
        # The fused SC-level graph is 1:1 with the simulator layers, so
        # the plan runs only the legalization subset of the pass
        # pipeline (normalize + shape inference with exact-pool
        # simulator semantics): fusion already happened in
        # SCNetwork.from_graph and must not regroup nodes here — the
        # plan rows have to stay aligned with the layers forward() runs.
        with obs.span("plan:compile", category="plan") as span:
            result = lower(self.network.to_graph(), passes=LEGALIZE_PASSES,
                           exact_pool=True, input_shape=self.input_shape)
            t0 = time.perf_counter()
            self._fingerprint = specialization_fingerprint(
                self.network, self.input_shape, config)
            cached = lookup_kernel_plans(self._fingerprint)
            kernel_plans = {}
            budget = TuningBudget(autotune_budget_s)

            def specialize(layer, info, fact, index):
                plan = (cached[index] if cached is not None
                        else build_kernel_plan(layer, info, fact, index,
                                               config, budget))
                layer.install(plan)
                kernel_plans[index] = plan

            for index, (info, fact, layer) in enumerate(zip(
                    result.infos, group_facts(result),
                    self.network.layers)):
                self._compile_node(info, fact, layer, index, specialize)
            if cached is None:
                store_kernel_plans(self._fingerprint, kernel_plans)
            self.specialization = Specialization(
                kernel_plans, from_cache=cached is not None,
                build_seconds=time.perf_counter() - t0,
                autotune_budget_s=autotune_budget_s)
            span.add_counter("layers", len(self.layer_plans))
            span.add_counter("weight_lanes", self.weight_lanes)
        #: Product-lane bits simulated for one input sample.
        self.bits_per_sample = sum(p.product_bits_per_sample
                                   for p in self.layer_plans)
        self.output_shape = result.infos[-1].out_shape if result.infos \
            else self.input_shape

    # -- compilation -------------------------------------------------

    def _compile_node(self, info, fact, layer, index: int,
                      specialize) -> None:
        """Record one node's plan row; a conv/linear layer is handed to
        ``specialize``, which installs its engine plans.  Residual bodies
        recurse under their sub-indices."""
        node = info.node
        length = lanes = bits = 0
        if node.kind == "residual":
            for (sub_index, sub_layer), sub_info, sub_fact in zip(
                    layer.indexed_body(index), info.body, fact.body):
                self._compile_node(sub_info, sub_fact, sub_layer, sub_index,
                                   specialize)
        elif node.kind in ("conv", "linear"):
            length = layer.stream_length(self.config, index)
            phases = 1 if self.config.representation == "bipolar" else 2
            lanes = node.weight_count
            if node.kind == "conv":
                # Product bits are clocked on the *pre-pool* conv output:
                # computation skipping shortens the streams, not the
                # number of window positions the OR accumulator sees.
                oh, ow = conv_output_hw(node, info.in_shape[1:])
                bits = (phases * oh * ow * node.out_channels * node.fan_in
                        * length)
            else:
                bits = phases * lanes * length
            specialize(layer, info, fact, index)
        self.layer_plans.append(LayerPlan(
            index=index, kind=_PLAN_KINDS.get(node.kind, node.kind),
            output_shape=info.out_shape, phase_length=length,
            weight_lanes=lanes, product_bits_per_sample=bits,
            groups=node.groups if node.kind == "conv" else 1,
        ))

    # -- execution ---------------------------------------------------

    def run(self, x: np.ndarray) -> np.ndarray:
        """Bitstream-exact forward pass: the network's own
        :meth:`~repro.simulator.network.SCNetwork.forward` under the
        compiled config, running the installed plans."""
        return self.network.forward(x)

    def run_progressive(self, x: np.ndarray, policy=None):
        """Anytime inference: short run first, extend only while the
        decision margin is below the noise bound.

        Drives a resumable evaluation
        (:class:`~repro.simulator.progressive.ProgressiveExecutor`, which
        walks the same network and layer plan caches) under a
        :class:`~repro.runtime.progressive.ProgressivePolicy` (default
        policy if ``None``).  Returns a
        :class:`~repro.runtime.progressive.ProgressiveOutcome`; its
        logits are bit-identical to :meth:`run` under the same config
        at the outcome's final ``phase_length``.  Requires a
        prefix-stable RNG scheme."""
        from ..simulator.progressive import ProgressiveExecutor
        from .progressive import ProgressivePolicy, run_progressive
        if policy is None:
            policy = ProgressivePolicy()
        executor = ProgressiveExecutor(self.network, self.config)
        return run_progressive(
            lambda length: executor.start(x, length), policy,
            reference_length=self.config.phase_length,
            representation=self.config.representation,
        )

    # -- introspection -----------------------------------------------

    def fingerprint(self) -> str:
        """Content hash identifying the compiled artifacts.

        The same value-based
        :func:`~repro.runtime.specialize.specialization_fingerprint`
        the artifact cache uses (input shape, SC config, layer
        structure, exact weight bytes) — two plans with equal
        fingerprints produce bit-identical logits.  Computed at compile
        time.
        """
        return self._fingerprint

    @property
    def weight_lanes(self) -> int:
        return sum(p.weight_lanes for p in self.layer_plans)

    def specialization_summary(self) -> dict:
        """Decision record of the specialization stage (for metrics)."""
        return self.specialization.summary()

    def describe(self) -> str:
        """Per-layer plan table (shapes, stream lengths, simulated bits,
        and the kernel variant, chosen block budget, and zero-lane skip
        rate per conv/linear layer)."""
        kernel_plans = self.specialization.plans
        rows = []
        for p in self.layer_plans:
            kp = kernel_plans.get(p.index)
            rows.append(
                (p.index, p.kind, "x".join(str(d) for d in p.output_shape),
                 p.groups if p.kind == "conv" else "-",
                 p.phase_length or "-", p.weight_lanes or "-",
                 f"{p.product_bits_per_sample:.2e}"
                 if p.product_bits_per_sample else "-",
                 kp.variant if kp else "-",
                 kp.block_kib if kp else "-",
                 f"{100.0 * kp.lanes_skipped_fraction:.1f}%" if kp else "-")
            )
        totals = self.specialization.summary()["totals"]
        title = (f"Execution plan — {self.config.representation}, "
                 f"{self.bits_per_sample:.2e} product bits/sample, "
                 f"specialized ({totals['specialized_layers']} layers, "
                 f"{totals['lanes_skipped_pct']}% lanes skipped)")
        return format_table(
            ["layer", "kind", "out shape", "groups", "phase len",
             "weight lanes", "bits/sample", "variant", "block KiB", "skip"],
            rows,
            title=title,
        )
