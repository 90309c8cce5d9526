"""Tensor.backward consumes the graph: interior nodes are freed, leaves keep their gradients."""

import tracemalloc

import numpy as np
import pytest

from nrsr.optim import AdamState, adam_step
from nrsr.tensor import Tensor, add, mse_loss, prelu, scale
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
        # four hidden convs and the output conv (all but the first applying the
        # PReLU before them), its scale and bias, the residual add, the loss
        assert len(interior) == 9
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
    assert len(interior) == 9
    assert all(n.requires_grad for n in interior)
    for _, p in model.named_parameters():
        p.requires_grad = False
    frozen = vdsr_loss(model, seed=1)
    assert frozen._parents == () and not frozen.requires_grad


class TestGradBuffers:
    def leaves(self, n=2):
        rng = np.random.default_rng(3)
        return [Tensor(rng.standard_normal((2, 3)).astype(np.float32), requires_grad=True)
                for _ in range(n)]

    def test_add_gives_each_leaf_its_own_buffer(self):
        a, b = self.leaves()
        add(a, b).backward()
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 1  # one leaf's accumulation must not reach the other
        assert np.array_equal(b.grad, np.ones((2, 3), np.float32))

    def test_add_of_a_leaf_to_itself_counts_twice(self):
        (a,) = self.leaves(1)
        add(a, a).backward()
        assert np.array_equal(a.grad, np.full((2, 3), 2, np.float32))

    @pytest.mark.parametrize("through_add", [False, True])
    def test_a_passed_seed_is_never_aliased(self, through_add):
        a, b = self.leaves()
        seed = np.full((2, 3), 3, np.float32)
        (add(a, b) if through_add else a).backward(seed)
        for leaf in (a, b) if through_add else (a,):
            assert not np.shares_memory(leaf.grad, seed)
            assert np.array_equal(leaf.grad, seed)
        seed[:] = 0
        assert np.all(a.grad == 3)

    def test_a_fresh_gradient_of_another_dtype_is_cast(self):
        (a,) = self.leaves(1)
        slopes = Tensor(np.full(3, 0.25), requires_grad=True)  # float64: the gradient is float64
        prelu(a, slopes).backward()
        assert a.grad.dtype == np.float32 and slopes.grad.dtype == np.float64


def test_vdsr_train_step_peak_memory_bounded():
    # one 64-channel float32 activation at batch 2 x 24x24 is 288 KiB. A
    # full-depth step measured ~118 of them while backward kept every
    # interior gradient and conv2d a padded copy of its input, and ~51 once
    # the sweep frees the graph as it goes (the forward graph's two
    # activations per layer, parameters, gradients and Adam temporaries),
    # ~44 once conv2d's backward stopped building 9x patch-matrix bands,
    # 42.5 once gradients are adopted, not copied, and PReLU's backward keeps
    # one boolean temporary, and 25.6 once each conv applies the PReLU before
    # it, so the graph keeps one activation per layer
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
    assert peak < 32 * 2 * 64 * 24 * 24 * 4
