"""Graph-free inference: the thread-local no_grad mode and the forwards that use it."""

import threading
import tracemalloc

import numpy as np
import pytest

from conftest import synth_image
from nrsr.evaluate import pad_to_multiple, reconstruct_image
from nrsr.lfcr import build_lfcr, lfcr_forward
from nrsr.masks import generate_mask
from nrsr.tensor import Tensor, mse_loss, no_grad, scale
from nrsr.vdsr import build_vdsr, vdsr_forward


def builds_graph() -> bool:
    """Whether an op run now on this thread links its output to its input."""
    return bool(scale(Tensor(np.ones((1, 1, 1, 1)), requires_grad=True), 2.0)._parents)


@pytest.fixture(scope="module")
def models():
    lfcr = build_lfcr(generate_mask("three-quarter", 3), "three-quarter", seed=1)
    return lfcr, build_vdsr(seed=2)


class TestMode:
    def test_on_by_default_off_inside(self):
        assert builds_graph()
        with no_grad():
            out = scale(Tensor(np.ones((1, 1, 2, 2)), requires_grad=True), 3.0)
        assert out._parents == () and out._backward is None and not out.requires_grad
        assert builds_graph()

    def test_nests(self):
        with no_grad():
            with no_grad():
                assert not builds_graph()
            assert not builds_graph()
        assert builds_graph()

    def test_restored_after_exception(self):
        with pytest.raises(RuntimeError, match="inside"):
            with no_grad():
                raise RuntimeError("inside")
        assert builds_graph()

    def test_other_threads_keep_building_graphs(self):
        entered, release = threading.Event(), threading.Event()
        seen = {}

        def hold():
            with no_grad():
                entered.set()
                release.wait(timeout=10)
                seen["holder"] = builds_graph()

        def fresh():
            seen["fresh"] = builds_graph()

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert entered.wait(timeout=10)
            assert builds_graph()
            with no_grad():
                other = threading.Thread(target=fresh)
                other.start()
                other.join(timeout=10)
            assert not other.is_alive()
        finally:
            release.set()
            holder.join(timeout=10)
        assert not holder.is_alive()
        assert seen == {"holder": False, "fresh": True}

    def test_loss_after_leaving_backpropagates(self, models):
        lfcr, _ = models
        vdsr = build_vdsr(seed=4, depth=3)
        x = synth_image(5, 16, 16)
        with no_grad():
            f_hat = lfcr_forward(lfcr, x)
        params = vdsr.named_parameters()
        for _, p in params:
            p.zero_grad()
        _, f = vdsr.forward_t(Tensor(f_hat[None, None]))
        mse_loss(f, Tensor(x[None, None])).backward()
        for name, p in params:
            assert p.grad is not None and np.all(np.isfinite(p.grad)), name
        assert np.any(params[0][1].grad != 0)
        assert all(p.grad is None for _, p in lfcr.named_parameters())


class TestSameValues:
    def test_lfcr_forward(self, models):
        lfcr, _ = models
        x = synth_image(6, 32, 40)
        graph = lfcr.forward_t(Tensor(x[None, None]))
        assert graph._parents
        assert np.array_equal(lfcr_forward(lfcr, x), graph.data[0, 0])

    def test_vdsr_forward(self, models):
        _, vdsr = models
        x = synth_image(7, 24, 20)
        r, f = vdsr.forward_t(Tensor(x[None, None]))
        assert f._parents
        r0, f0 = vdsr_forward(vdsr, x)
        assert np.array_equal(r0, r.data[0, 0]) and np.array_equal(f0, f.data[0, 0])

    def test_reconstruct_image_full(self, models):
        lfcr, vdsr = models
        x = synth_image(8, 40, 27)
        padded, (h, w) = pad_to_multiple(x)
        graph = vdsr.forward_t(lfcr.forward_t(Tensor(padded[None, None])))[1]
        assert graph._parents
        out = reconstruct_image(x, "lfcr+vdsr", lfcr=lfcr, vdsr=vdsr)
        assert np.array_equal(out, graph.data[0, 0, :h, :w])


def vdsr_forward_peak(vdsr, x) -> int:
    """tracemalloc's peak over a second vdsr_forward call on ``x``."""
    vdsr_forward(vdsr, x)  # first call outside the measurement
    tracemalloc.start()
    try:
        vdsr_forward(vdsr, x)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_vdsr_forward_peak_memory_bounded(models):
    # one 64-channel float32 activation at 64x64 is 1 MiB; a kept graph
    # holds about three per layer (60+ MiB), a graph-free pass a few at once
    _, vdsr = models
    assert vdsr_forward_peak(vdsr, synth_image(9, 64, 64)) < 16 * 64 * 64 * 64 * 4


def test_vdsr_forward_holds_one_activation_and_band_buffers(models):
    # Each 64->64 layer writes its output over its input, so the pass holds one
    # activation (12 MiB at 192x256) and conv2d's band buffers, whose size does
    # not grow with the image height: 1.52 activations here, 1.10 at 512x512.
    # It held 2.44 here while each layer's output was a fresh array.
    _, vdsr = models
    assert vdsr_forward_peak(vdsr, synth_image(9, 192, 256)) <= 1.6 * 64 * 192 * 256 * 4
