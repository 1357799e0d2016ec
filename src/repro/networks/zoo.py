"""Network zoo: every architecture defined once, as a graph.

Each network is a :class:`~repro.ir.NetworkGraph` builder.  From the
graph, every downstream representation derives mechanically:

- a trainable :class:`~repro.training.network.Sequential` via the
  thin builder wrappers below (``lenet5(...)`` etc., which call
  ``Sequential.from_graph``);
- the performance-model :class:`~repro.ir.spec.NetworkSpec` via
  :func:`repro.ir.lower_to_spec` (the ``*_spec`` functions — formerly
  hand-written tables — are now one-line lowerings);
- the bitstream-exact simulator via ``SCNetwork.from_graph``.

Two graph families live here:

- **Trainable graphs** (:func:`lenet5_graph` .. :func:`mnist_mlp_graph`)
  carry split-unipolar metadata (``or_mode``, ``stream_length``).
  SC variants order blocks conv -> pool -> ReLU because the hardware's
  output counters accumulate the pooling window *before* the
  conversion-time ReLU.
- **Reference graphs** (:func:`lenet5_reference_graph` ..
  :func:`resnet18_graph`) mirror the published topologies the paper
  costs but never trains (its own SC simulator could not fit AlexNet
  either); the ImageNet graphs use ragged (floored) pooling exactly as
  the legacy spec tables did.
"""

from __future__ import annotations

from .. import ir
from ..ir import NetworkGraph
from ..ir.spec import LayerSpec, NetworkSpec, lower_to_spec
from ..training.network import Sequential

__all__ = [
    "LayerSpec",
    "NetworkSpec",
    "lenet5",
    "cifar10_cnn",
    "svhn_cnn",
    "tiny_resnet",
    "mnist_mlp",
    "mobilenet_mini",
    "lenet5_graph",
    "cifar10_cnn_graph",
    "svhn_cnn_graph",
    "tiny_resnet_graph",
    "mnist_mlp_graph",
    "mobilenet_mini_graph",
    "lenet5_reference_graph",
    "cifar10_cnn_reference_graph",
    "alexnet_graph",
    "alexnet_sc_graph",
    "vgg16_graph",
    "resnet18_graph",
    "lenet5_spec",
    "cifar10_cnn_spec",
    "alexnet_spec",
    "vgg16_spec",
    "resnet18_spec",
    "mobilenet_mini_spec",
    "NETWORK_SPECS",
    "NETWORK_GRAPHS",
    "TRAINABLE_GRAPHS",
]


# --------------------------------------------------------------------------
# Trainable graphs (split-unipolar metadata threaded through the IR)
# --------------------------------------------------------------------------

def lenet5_graph(or_mode: str = "approx",
                 stream_length: int = None) -> NetworkGraph:
    """LeNet-5 (28x28x1 -> 10 classes), the paper's MNIST workload."""
    m = dict(or_mode=or_mode, stream_length=stream_length)
    return NetworkGraph("lenet5", (1, 28, 28), [
        ir.conv(1, 6, 5, **m), ir.avgpool(2), ir.relu(),
        ir.conv(6, 16, 5, **m), ir.avgpool(2), ir.relu(),
        ir.flatten(),
        ir.linear(16 * 4 * 4, 10, **m),
    ])


def cifar10_cnn_graph(or_mode: str = "approx", in_channels: int = 3,
                      stream_length: int = None) -> NetworkGraph:
    """The paper's small "CIFAR-10 CNN" (32x32x3 -> 10 classes).

    The exact topology is unpublished; this 64/64/128 stack is sized so
    the LP performance model lands near the paper's Table III CIFAR-10
    throughput.
    """
    m = dict(or_mode=or_mode, stream_length=stream_length)
    return NetworkGraph("cifar10_cnn", (in_channels, 32, 32), [
        ir.conv(in_channels, 64, 3, padding=1, **m), ir.avgpool(2), ir.relu(),
        ir.conv(64, 64, 3, padding=1, **m), ir.avgpool(2), ir.relu(),
        ir.conv(64, 128, 3, padding=1, **m), ir.avgpool(2), ir.relu(),
        ir.flatten(),
        ir.linear(128 * 4 * 4, 10, **m),
    ])


def svhn_cnn_graph(or_mode: str = "approx",
                   stream_length: int = None) -> NetworkGraph:
    """The SVHN "CNN" of Table II — same topology as the CIFAR-10 CNN."""
    graph = cifar10_cnn_graph(or_mode=or_mode, stream_length=stream_length)
    graph.name = "svhn_cnn"
    return graph


def tiny_resnet_graph(or_mode: str = "approx",
                      stream_length: int = None) -> NetworkGraph:
    """A small residual network (32x32x3 -> 10 classes).

    Demonstrates the residual-connection support the paper claims for
    the ACOUSTIC ISA: skip additions happen on converted binary
    activations at layer boundaries.
    """
    m = dict(or_mode=or_mode, stream_length=stream_length)
    return NetworkGraph("tiny_resnet", (3, 32, 32), [
        ir.conv(3, 16, 3, padding=1, **m), ir.avgpool(2), ir.relu(),
        ir.residual([ir.conv(16, 16, 3, padding=1, **m), ir.relu()]),
        ir.residual([ir.conv(16, 16, 3, padding=1, **m), ir.relu()]),
        ir.avgpool(2), ir.relu(),
        ir.flatten(),
        ir.linear(16 * 8 * 8, 10, **m),
    ])


def mnist_mlp_graph(or_mode: str = "approx",
                    stream_length: int = None) -> NetworkGraph:
    """A fully-connected 784-256-128-10 MNIST classifier.

    FC layers are the weight-heavy extreme of the ACOUSTIC mapping
    study (Sec. IV-C): encoding their constant weight streams dominates
    a software forward pass, which makes this network the stress case
    for the runtime's weight-stream caching.
    """
    m = dict(or_mode=or_mode, stream_length=stream_length)
    return NetworkGraph("mnist_mlp", (1, 28, 28), [
        ir.flatten(),
        ir.linear(28 * 28, 256, **m), ir.relu(),
        ir.linear(256, 128, **m), ir.relu(),
        ir.linear(128, 10, **m),
    ])


def mobilenet_mini_graph(or_mode: str = "approx",
                         stream_length: int = None) -> NetworkGraph:
    """A depthwise-separable CIFAR classifier (32x32x3 -> 10 classes).

    The MobileNet-class workload the grouped-conv lowering opens up:
    each block is a depthwise 3x3 conv (``groups == channels``, fan-in
    9) followed by a pointwise 1x1 conv.  The tiny per-group fan-in is
    what makes depthwise stages a natural fit for OR accumulation — an
    OR over 9 product lanes saturates far less than one over the
    hundreds of lanes a dense 3x3 conv feeds it (see
    ``tests/test_grouped_conv.py::TestOrSaturation``).  SC block
    ordering: conv -> pool -> ReLU, because the output counters
    accumulate the pooling window before the conversion-time ReLU.
    """
    m = dict(or_mode=or_mode, stream_length=stream_length)
    return NetworkGraph("mobilenet_mini", (3, 32, 32), [
        ir.conv(3, 16, 3, padding=1, **m), ir.avgpool(2), ir.relu(),
        ir.conv(16, 16, 3, padding=1, groups=16, **m), ir.relu(),
        ir.conv(16, 32, 1, **m), ir.relu(),
        ir.conv(32, 32, 3, padding=1, groups=32, **m), ir.avgpool(2),
        ir.relu(),
        ir.conv(32, 64, 1, **m), ir.relu(),
        ir.conv(64, 64, 3, padding=1, groups=64, **m), ir.avgpool(2),
        ir.relu(),
        ir.conv(64, 64, 1, **m), ir.relu(),
        ir.flatten(),
        ir.linear(64 * 4 * 4, 10, **m),
    ])


# --------------------------------------------------------------------------
# Trainable builders (graph -> Sequential; rng order matches the graph walk)
# --------------------------------------------------------------------------

def lenet5(or_mode: str = "approx", seed: int = 0,
           stream_length: int = None) -> Sequential:
    """LeNet-5 (28x28x1 -> 10 classes), the paper's MNIST workload.

    ``stream_length`` (per-phase bits) enables stochastic-stream noise
    injection during training, which is how ACOUSTIC networks become
    robust at short streams.
    """
    return Sequential.from_graph(lenet5_graph(or_mode, stream_length),
                                 seed=seed)


def cifar10_cnn(or_mode: str = "approx", seed: int = 0, in_channels: int = 3,
                stream_length: int = None) -> Sequential:
    """The paper's small "CIFAR-10 CNN" (32x32x3 -> 10 classes)."""
    return Sequential.from_graph(
        cifar10_cnn_graph(or_mode, in_channels, stream_length), seed=seed)


def svhn_cnn(or_mode: str = "approx", seed: int = 0,
             stream_length: int = None) -> Sequential:
    """The SVHN "CNN" of Table II — same topology as the CIFAR-10 CNN."""
    return Sequential.from_graph(svhn_cnn_graph(or_mode, stream_length),
                                 seed=seed)


def tiny_resnet(or_mode: str = "approx", seed: int = 0,
                stream_length: int = None) -> Sequential:
    """A small residual network (32x32x3 -> 10 classes)."""
    return Sequential.from_graph(tiny_resnet_graph(or_mode, stream_length),
                                 seed=seed)


def mnist_mlp(or_mode: str = "approx", seed: int = 0,
              stream_length: int = None) -> Sequential:
    """A fully-connected 784-256-128-10 MNIST classifier."""
    return Sequential.from_graph(mnist_mlp_graph(or_mode, stream_length),
                                 seed=seed)


def mobilenet_mini(or_mode: str = "approx", seed: int = 0,
                   stream_length: int = None) -> Sequential:
    """A depthwise-separable CIFAR classifier (32x32x3 -> 10 classes)."""
    return Sequential.from_graph(
        mobilenet_mini_graph(or_mode, stream_length), seed=seed)


# --------------------------------------------------------------------------
# Reference graphs (performance-model topologies; never trained here)
# --------------------------------------------------------------------------

def lenet5_reference_graph() -> NetworkGraph:
    """The full LeNet-5 the paper costs (three-FC classifier head)."""
    return NetworkGraph("lenet5", (1, 28, 28), [
        ir.conv(1, 6, 5), ir.avgpool(2), ir.relu(),
        ir.conv(6, 16, 5), ir.avgpool(2), ir.relu(),
        ir.flatten(),
        ir.linear(256, 120), ir.relu(),
        ir.linear(120, 84), ir.relu(),
        ir.linear(84, 10),
    ])


def cifar10_cnn_reference_graph() -> NetworkGraph:
    return cifar10_cnn_graph(or_mode=None)


def alexnet_graph() -> NetworkGraph:
    """AlexNet (ImageNet, 227x227 input), per Krizhevsky et al. [28].

    Pooling windows are the 2x-effective windows the legacy spec table
    used (the 3x3/stride-2 max pools modeled as 2x2); they floor on the
    odd feature-map sizes, exactly as the published arithmetic does.
    """
    return NetworkGraph("alexnet", (3, 227, 227), [
        ir.conv(3, 96, 11, stride=4), ir.avgpool(2), ir.relu(),
        ir.conv(96, 256, 5, padding=2, groups=2), ir.avgpool(2), ir.relu(),
        ir.conv(256, 384, 3, padding=1), ir.relu(),
        ir.conv(384, 384, 3, padding=1, groups=2), ir.relu(),
        ir.conv(384, 256, 3, padding=1, groups=2), ir.avgpool(2), ir.relu(),
        ir.flatten(),
        ir.linear(9216, 4096), ir.relu(),
        ir.linear(4096, 4096), ir.relu(),
        ir.linear(4096, 1000),
    ])


def alexnet_sc_graph() -> NetworkGraph:
    """AlexNet sized for the bitstream-exact simulator (231x231 input).

    Same topology as :func:`alexnet_graph` — including the grouped
    conv2/conv4/conv5 of the published two-GPU split — but on a 231x231
    input so every pooling stage divides exactly (56 -> 28 -> 14 -> 7):
    the simulator's exact-pool legalization rejects the canonical 227
    input, whose 55x55 conv1 output does not tile into 2x2 windows.
    The flattened head is 256*7*7 = 12544, so the FC stack differs from
    the 227-input reference (9216) by construction.
    """
    return NetworkGraph("alexnet_sc", (3, 231, 231), [
        ir.conv(3, 96, 11, stride=4), ir.avgpool(2), ir.relu(),
        ir.conv(96, 256, 5, padding=2, groups=2), ir.avgpool(2), ir.relu(),
        ir.conv(256, 384, 3, padding=1), ir.relu(),
        ir.conv(384, 384, 3, padding=1, groups=2), ir.relu(),
        ir.conv(384, 256, 3, padding=1, groups=2), ir.avgpool(2), ir.relu(),
        ir.flatten(),
        ir.linear(256 * 7 * 7, 4096), ir.relu(),
        ir.linear(4096, 4096), ir.relu(),
        ir.linear(4096, 1000),
    ])


def vgg16_graph() -> NetworkGraph:
    """VGG-16 (ImageNet, 224x224 input), per Simonyan & Zisserman [29]."""
    cfg = [
        (3, 64), (64, 64, 2),
        (64, 128), (128, 128, 2),
        (128, 256), (256, 256), (256, 256, 2),
        (256, 512), (512, 512), (512, 512, 2),
        (512, 512), (512, 512), (512, 512, 2),
    ]
    nodes = []
    for entry in cfg:
        cin, cout = entry[0], entry[1]
        nodes.append(ir.conv(cin, cout, 3, padding=1))
        if len(entry) > 2:
            nodes.append(ir.avgpool(entry[2]))
        nodes.append(ir.relu())
    nodes += [
        ir.flatten(),
        ir.linear(25088, 4096), ir.relu(),
        ir.linear(4096, 4096), ir.relu(),
        ir.linear(4096, 1000),
    ]
    return NetworkGraph("vgg16", (3, 224, 224), nodes)


def resnet18_graph() -> NetworkGraph:
    """ResNet-18 (ImageNet, 224x224 input), per He et al. [31].

    Residual additions are performed on converted binary activations
    and are negligible for the performance model; stride-2 stages carry
    a 1x1 projection on the skip path, and the classifier head global-
    average-pools to the single small FC layer — which is what makes
    ResNet-18 ACOUSTIC-friendly (Sec. IV-D).
    """
    nodes = [ir.conv(3, 64, 7, stride=2, padding=3), ir.avgpool(2),
             ir.relu()]
    stages = [(64, 64, 56, 1), (64, 128, 28, 2), (128, 256, 14, 2),
              (256, 512, 7, 2)]
    for cin, cout, _out_size, first_stride in stages:
        shortcut = [ir.conv(cin, cout, 1, stride=first_stride)] \
            if first_stride != 1 else None
        nodes.append(ir.residual([
            ir.conv(cin, cout, 3, padding=1, stride=first_stride), ir.relu(),
            ir.conv(cout, cout, 3, padding=1),
        ], shortcut=shortcut))
        nodes.append(ir.relu())
        nodes.append(ir.residual([
            ir.conv(cout, cout, 3, padding=1), ir.relu(),
            ir.conv(cout, cout, 3, padding=1),
        ]))
        nodes.append(ir.relu())
    nodes += [ir.avgpool(7), ir.flatten(), ir.linear(512, 1000)]
    return NetworkGraph("resnet18", (3, 224, 224), nodes)


# --------------------------------------------------------------------------
# Performance-model spec tables — now one-line graph lowerings
# --------------------------------------------------------------------------

def lenet5_spec() -> NetworkSpec:
    return lower_to_spec(lenet5_reference_graph())


def cifar10_cnn_spec() -> NetworkSpec:
    return lower_to_spec(cifar10_cnn_reference_graph())


def alexnet_spec() -> NetworkSpec:
    return lower_to_spec(alexnet_graph())


def vgg16_spec() -> NetworkSpec:
    return lower_to_spec(vgg16_graph())


def resnet18_spec() -> NetworkSpec:
    return lower_to_spec(resnet18_graph())


def mobilenet_mini_spec() -> NetworkSpec:
    return lower_to_spec(mobilenet_mini_graph())


#: Legacy registry: name -> spec factory (graph lowerings since the IR).
NETWORK_SPECS = {
    "lenet5": lenet5_spec,
    "cifar10_cnn": cifar10_cnn_spec,
    "alexnet": alexnet_spec,
    "vgg16": vgg16_spec,
    "resnet18": resnet18_spec,
    "mobilenet_mini": mobilenet_mini_spec,
}

#: name -> zero-argument graph builder for every network in the zoo
#: (reference topology where one exists, trainable topology otherwise).
NETWORK_GRAPHS = {
    "lenet5": lenet5_reference_graph,
    "cifar10_cnn": cifar10_cnn_reference_graph,
    "alexnet": alexnet_graph,
    "alexnet_sc": alexnet_sc_graph,
    "vgg16": vgg16_graph,
    "resnet18": resnet18_graph,
    "svhn_cnn": svhn_cnn_graph,
    "tiny_resnet": tiny_resnet_graph,
    "mnist_mlp": mnist_mlp_graph,
    "mobilenet_mini": mobilenet_mini_graph,
}

#: name -> trainable graph builder (split-unipolar metadata threaded).
TRAINABLE_GRAPHS = {
    "lenet5": lenet5_graph,
    "cifar10_cnn": cifar10_cnn_graph,
    "svhn_cnn": svhn_cnn_graph,
    "tiny_resnet": tiny_resnet_graph,
    "mnist_mlp": mnist_mlp_graph,
    "mobilenet_mini": mobilenet_mini_graph,
}
