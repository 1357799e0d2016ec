"""Shared fixtures and Hypothesis profiles for the test suite."""

import os
import threading

import numpy as np
import pytest
from hypothesis import settings

from repro.datasets import synthetic_mnist
from repro.networks import lenet5
from repro.training import Adam, CrossEntropyLoss, Trainer

# Hypothesis profiles.  ``ci`` derandomizes example generation (every run
# sees the same examples, so a red CI is reproducible locally with
# HYPOTHESIS_PROFILE=ci) and drops the per-example deadline, which flakes
# on loaded shared runners.  ``dev`` is the library default behaviour.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.register_profile("dev", settings.get_profile("default"))
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture(scope="session")
def trained_lenet():
    """A noise-aware-trained LeNet-5 on the MNIST-like dataset.

    Session-scoped: several integration tests share one training run.
    Returns ``(network, x_test, y_test)``.
    """
    (x_train, y_train), (x_test, y_test) = synthetic_mnist(
        n_train=1200, n_test=150, seed=0
    )
    net = lenet5(or_mode="approx", seed=1, stream_length=64)
    trainer = Trainer(net, Adam(net.layers, lr=3e-3),
                      loss=CrossEntropyLoss(logit_gain=8.0))
    trainer.fit(x_train, y_train, epochs=7, batch_size=64)
    return net, x_test, y_test


class ComputeGate:
    """Holds every shard a plan runs until :meth:`open`.

    Installed over ``plan.run`` (serial and thread backends run the
    parent's plan), it records each shard that reaches it, with the
    thread that ran it, so a test can wait until work is provably
    parked instead of sleeping.  A parked shard gives up after
    ``timeout`` seconds, so a failing test cannot wedge a worker.
    """

    def __init__(self, plan, timeout: float = 30.0):
        self.shards = []
        self.threads = []
        self._open = threading.Event()
        self._arrived = threading.Condition()
        run = plan.run

        def gated(x):
            with self._arrived:
                self.shards.append(np.array(x))
                self.threads.append(threading.current_thread())
                self._arrived.notify_all()
            self._open.wait(timeout)
            return run(x)

        plan.run = gated

    def wait_for(self, count: int, timeout: float = 10.0) -> bool:
        """Block until ``count`` shards have reached the gate."""
        with self._arrived:
            return self._arrived.wait_for(
                lambda: len(self.shards) >= count, timeout)

    def open(self) -> None:
        self._open.set()


@pytest.fixture
def compute_gate():
    """``compute_gate(plan)`` installs a :class:`ComputeGate`; every
    gate opens at teardown so no parked shard outlives the test."""
    gates = []

    def install(plan):
        gates.append(ComputeGate(plan))
        return gates[-1]

    yield install
    for gate in gates:
        gate.open()
