"""Absolute logit digests of small seeded zoo networks.

The sha256 of each case's float64 logits was recorded from
``SCNetwork.forward`` before the network walker, the per-layer plan
caches and the word kernel were unified.  Every execution path must
still reproduce them bit for bit: the network's own forward, a compiled
:class:`~repro.runtime.ExecutionPlan`, and a resumable evaluation
started at half the phase length and extended to the full one.

Inputs come from :mod:`repro.datasets` (uniform noise saturates the
untrained ``mnist_mlp`` and would pin almost nothing past its first
layer).  The cases run at L=16 and L=64, so layers that pack both
split-unipolar phases into one word and layers that keep one word plane
per phase both occur, and they cover the or/apc/mux split-unipolar
accumulators, the bipolar datapath, and the lfsr and vdc schemes.
"""

import hashlib

import numpy as np
import pytest

from repro.datasets import synthetic_cifar10, synthetic_mnist
from repro.runtime import BENCH_NETWORKS, ExecutionPlan
from repro.simulator import SCConfig, SCNetwork

#: case id -> (network, SCConfig kwargs)
CASES = {
    "mnist_mlp-or-16-lfsr": ("mnist_mlp", dict(
        phase_length=16, accumulator="or", scheme="lfsr")),
    "mnist_mlp-apc-64-lfsr": ("mnist_mlp", dict(
        phase_length=64, accumulator="apc", scheme="lfsr")),
    "lenet5-mux-64-lfsr": ("lenet5", dict(
        phase_length=64, accumulator="mux", scheme="lfsr")),
    "lenet5-bipolar-64-lfsr": ("lenet5", dict(
        phase_length=64, representation="bipolar", scheme="lfsr")),
    "tiny_resnet-or-64-vdc": ("tiny_resnet", dict(
        phase_length=64, accumulator="or", scheme="vdc")),
    "tiny_resnet-bipolar-16-vdc": ("tiny_resnet", dict(
        phase_length=16, representation="bipolar", scheme="vdc")),
    "mobilenet_mini-or-16-lfsr": ("mobilenet_mini", dict(
        phase_length=16, accumulator="or", scheme="lfsr")),
    "mobilenet_mini-apc-64-lfsr": ("mobilenet_mini", dict(
        phase_length=64, accumulator="apc", scheme="lfsr")),
}

#: case id -> sha256 of the (2, 10) float64 logits, little-endian.
DIGESTS = {
    "lenet5-bipolar-64-lfsr":
        "d81b2b28156ff818c6c6e157b5e0e1756598c5ee9e93b9674136188be1ca1267",
    "lenet5-mux-64-lfsr":
        "5934c0d179330bfe7c4554e7b56491c3de1772153209782e77ed280f7557f496",
    "mnist_mlp-apc-64-lfsr":
        "e2f30dee690a5912560efbf35cb4a444de65d88724ebeaa9b516582e45b39164",
    "mnist_mlp-or-16-lfsr":
        "10543e1e6de8b32cb5c57317f794eb0c620b2d33d2d24e4f330c07e7950ee237",
    "mobilenet_mini-apc-64-lfsr":
        "149d96ca5c5b147a4a595ff7fe9f2b200a1b23386c950bf17d477bb08a4f3abf",
    "mobilenet_mini-or-16-lfsr":
        "1e4b582153e4eed56eec6e0a1f403c99e957a015ea25f4018f0af4ee272627ff",
    "tiny_resnet-bipolar-16-vdc":
        "03552a4891685bff528c9088417dc3b24cfface643dbac6d72ab19499866d67c",
    "tiny_resnet-or-64-vdc":
        "8e5800b73bdf58e09915d1d41384f60d311a63a8e77551a310e87c88799f2d40",
}

SAMPLES = 2


def _inputs(shape) -> np.ndarray:
    if shape[0] == 1:
        (_, _), (x, _) = synthetic_mnist(n_train=0, n_test=SAMPLES, seed=3)
    else:
        (_, _), (x, _) = synthetic_cifar10(n_train=0, n_test=SAMPLES, seed=3)
    return x


def _case(case: str) -> tuple:
    name, kwargs = CASES[case]
    builder, shape = BENCH_NETWORKS[name]
    network = SCNetwork.from_trained(builder(seed=0), SCConfig(**kwargs))
    return network, shape, _inputs(shape)


def _digest(logits: np.ndarray) -> str:
    assert logits.shape == (SAMPLES, 10)
    data = np.ascontiguousarray(logits, dtype="<f8").tobytes()
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_forward_matches_recorded_digest(case):
    network, _, x = _case(case)
    logits = network.forward(x)
    # A degenerate case (every logit row equal) would pin little.
    assert not np.array_equal(logits[0], logits[1])
    assert _digest(logits) == DIGESTS[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_plan_and_resumed_runs_match_recorded_digest(case):
    network, shape, x = _case(case)
    plan = ExecutionPlan(network, shape)
    assert _digest(plan.run(x)) == DIGESTS[case]
    length = network.config.phase_length
    resumed = network.forward_partial(x, length // 2).extend(length)
    assert _digest(resumed.logits) == DIGESTS[case]
