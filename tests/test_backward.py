"""Tensor.backward consumes the graph: interior nodes are freed, leaves keep their gradients."""

import tracemalloc

import numpy as np
import pytest

from nrsr.optim import AdamState, adam_step
from nrsr.tensor import Tensor, mse_loss, scale
from nrsr.vdsr import build_vdsr


def vdsr_loss(model, seed: int, size: int = 12) -> Tensor:
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 255, (2, 1, size, size)).astype(np.float32)
    y = rng.uniform(0, 255, (2, 1, size, size)).astype(np.float32)
    _, f = model.forward_t(Tensor(x))
    return mse_loss(f, Tensor(y))


def graph_nodes(out: Tensor) -> list[Tensor]:
    """Every node reachable from ``out``, in topological order (inputs first)."""
    topo, seen = [], set()

    def visit(node):
        if id(node) in seen:
            return
        seen.add(id(node))
        for p in node._parents:
            visit(p)
        topo.append(node)

    visit(out)
    return topo


def backward_keeping_graph(out: Tensor) -> None:
    """Reference sweep that frees nothing: every node's backward in reverse topological order."""
    out.accumulate_grad(np.ones_like(out.data))
    for node in reversed(graph_nodes(out)):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


@pytest.fixture
def spent():
    model = build_vdsr(seed=6, depth=5)
    loss = vdsr_loss(model, seed=1)
    interior = [n for n in graph_nodes(loss) if n._parents]
    loss.backward()
    return model, loss, interior


class TestSpentGraph:
    def test_interior_nodes_are_released(self, spent):
        _, _, interior = spent
        # four conv+PReLU pairs, the output conv, its scale and bias, the residual add, the loss
        assert len(interior) == 13
        for node in interior:
            assert node.grad is None and node._parents == ()

    def test_leaf_gradients_equal_a_sweep_that_keeps_the_graph(self, spent):
        model, _, _ = spent
        got = [p.grad for _, p in model.named_parameters()]
        for _, p in model.named_parameters():
            p.zero_grad()
        backward_keeping_graph(vdsr_loss(model, seed=1))
        for g, (name, p) in zip(got, model.named_parameters()):
            assert g is not None and np.array_equal(g, p.grad), name

    def test_second_backward_raises(self, spent):
        model, loss, _ = spent
        before = [p.grad.copy() for _, p in model.named_parameters()]
        with pytest.raises(RuntimeError, match="consumed"):
            loss.backward()
        # the seed reached only the spent loss node; no leaf gradient moved
        for g, (name, p) in zip(before, model.named_parameters()):
            assert np.array_equal(g, p.grad), name

    def test_new_graph_through_a_consumed_node_raises(self, spent):
        _, _, interior = spent
        with pytest.raises(RuntimeError, match="consumed"):
            scale(interior[-2], 2.0).backward()


def test_only_nodes_that_require_grad_have_edges():
    # backward closures ask an input only for requires_grad; this holds because
    # an op links its inputs exactly when one of them requires a gradient
    model = build_vdsr(seed=6, depth=5)
    nodes = graph_nodes(vdsr_loss(model, seed=1))
    interior = [n for n in nodes if n._parents]
    assert len(interior) == 13
    assert all(n.requires_grad for n in interior)
    for _, p in model.named_parameters():
        p.requires_grad = False
    frozen = vdsr_loss(model, seed=1)
    assert frozen._parents == () and not frozen.requires_grad


def test_vdsr_train_step_peak_memory_bounded():
    # one 64-channel float32 activation at batch 2 x 24x24 is 288 KiB. A
    # full-depth step measured ~118 of them while backward kept every
    # interior gradient and conv2d a padded copy of its input, and ~51 once
    # the sweep frees the graph as it goes (the forward graph's two
    # activations per layer, parameters, gradients and Adam temporaries),
    # and ~44 once conv2d's backward stopped building 9x patch-matrix bands
    vdsr = build_vdsr(seed=5)
    params = vdsr.named_parameters()
    state = AdamState.for_params(params)

    def step():
        for _, p in params:
            p.zero_grad()
        vdsr_loss(vdsr, seed=0, size=24).backward()
        adam_step(params, state, 1e-4)

    step()  # first call outside the measurement
    tracemalloc.start()
    try:
        step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2 * 64 * 24 * 24 * 4
