"""Tensor.backward consumes the graph: interior nodes are freed, leaves keep their gradients."""

import tracemalloc

import numpy as np
import pytest

from nrsr.masks import generate_mask
from nrsr.optim import AdamState, adam_step
from nrsr.sensors import sensitivity_tile, vectorize_tensor
from nrsr.tensor import (ConvSpec, Tensor, add, add_channel_bias, concat_channels, conv2d,
                         deconv2d, linear, mse_loss, prelu, scale, take_channels)
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

    def test_concat_gives_each_leaf_its_own_buffer(self):
        a, b = self.leaves()
        concat_channels(a, b).backward()
        assert not np.may_share_memory(a.grad, b.grad)

    def test_a_gradient_of_another_dtype_is_cast(self):
        (a,) = self.leaves(1)
        slopes = Tensor(np.full(3, 0.25), requires_grad=True)  # float64: the gradient is float64
        prelu(a, slopes).backward()
        assert a.grad.dtype == np.float32 and slopes.grad.dtype == np.float64


def _op_cases():
    """Every differentiable op, as (op, input values), small and float32."""
    rng = np.random.default_rng(41)

    def r(*shape):
        return rng.standard_normal(shape).astype(np.float32)

    slopes = rng.uniform(0.1, 0.9, 3).astype(np.float32)
    tile = sensitivity_tile(generate_mask("quarter", 2), "quarter")
    return {
        "conv2d": (lambda x, w, b, a: conv2d(x, w, b, ConvSpec(3, 3, 3, 2), slopes=a),
                   [r(2, 3, 5, 6), r(2, 3, 3, 3), r(2), slopes]),
        "deconv2d": (lambda x, w: deconv2d(x, w, 2, 1, 2), [r(4, 3), r(3, 2, 8, 8)]),
        "linear": (linear, [r(5, 3), r(2, 3), r(2)]),
        "prelu": (prelu, [r(4, 3), slopes]),
        "concat_channels": (concat_channels, [r(2, 1, 3), r(2, 2, 3)]),
        "take_channels": (lambda x: take_channels(x, [2, 0, 2]), [r(2, 3, 4)]),
        "add": (add, [r(2, 3), r(2, 3)]),
        "scale": (lambda x: scale(x, 1.5), [r(2, 3)]),
        "add_channel_bias": (add_channel_bias, [r(2, 3, 2, 2), r(3)]),
        "mse_loss": (mse_loss, [r(2, 3), r(2, 3)]),
        "vectorize_tensor": (lambda x: vectorize_tensor(x, tile), [r(2, 1, 16, 16)]),
    }


OP_CASES = _op_cases()


@pytest.mark.parametrize("name", OP_CASES)
def test_an_input_without_requires_grad_gets_no_gradient(name):
    # each input in turn is frozen; its siblings get what they get with none frozen
    op, values = OP_CASES[name]

    def sweep(frozen):
        ts = [Tensor(v.copy(), requires_grad=i != frozen) for i, v in enumerate(values)]
        out = op(*ts)
        out.backward(np.random.default_rng(43).standard_normal(out.shape))
        return ts

    trained = sweep(None)
    for i in range(len(values)):
        ts = sweep(i)
        assert ts[i].grad is None
        for t, ref in zip(ts, trained):
            if t is not ts[i]:
                assert np.array_equal(t.grad, ref.grad)


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
