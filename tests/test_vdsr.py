"""VDSR residual enhancer."""

import numpy as np
import pytest

from conftest import synth_image
from nrsr.gradcheck import grad_check, vdsr_case
from nrsr.netutil import param_count, to_dtype_params
from nrsr.tensor import Tensor
from nrsr.vdsr import build_vdsr, receptive_field, vdsr_forward


@pytest.fixture(scope="module")
def model():
    return build_vdsr(seed=0)


class TestStructure:
    def test_depth_and_widths(self, model):
        p = model.params
        assert model.depth == 20
        assert p["vdsr/conv01/weights"].shape == (64, 1, 3, 3)
        for i in range(2, 20):
            assert p[f"vdsr/conv{i:02d}/weights"].shape == (64, 64, 3, 3)
            assert f"vdsr/conv{i:02d}/slopes" in p
        assert p["vdsr/conv20/weights"].shape == (1, 64, 3, 3)
        assert "vdsr/conv20/slopes" not in p

    def test_param_count_closed_form(self, model):
        # 640 + 18 * 36928 + 577 convs, plus 19 * 64 PReLU slopes
        expected = 640 + 18 * 36_928 + 577 + 19 * 64
        assert expected == 667_137
        assert param_count(model) == expected
        assert 6.27e5 <= param_count(model) <= 6.93e5

    def test_receptive_field(self, model):
        assert receptive_field(model) == 41
        assert receptive_field(build_vdsr(0, depth=4)) == 9

    def test_empirical_receptive_field_depth4(self):
        # gradient support of one output pixel spans at most 9x9
        small = build_vdsr(seed=3, depth=4)
        to_dtype_params(small, np.float64)
        from nrsr.tensor import Tensor

        x = Tensor(np.random.default_rng(0).uniform(0, 255, (1, 1, 17, 17)), requires_grad=True)
        _, f = small.forward_t(x)
        seed_grad = np.zeros_like(f.data)
        seed_grad[0, 0, 8, 8] = 1.0
        f.backward(seed_grad)
        support = np.argwhere(x.grad[0, 0] != 0)
        assert support.min() >= 4 and support.max() <= 12


class TestForward:
    def test_residual_sum(self, model):
        f_hat = synth_image(0, 24, 24)
        r, f_tilde = vdsr_forward(model, f_hat)
        assert np.array_equal(f_tilde, f_hat + r)

    def test_shape_preserved(self, model):
        for shape in ((48, 48), (41, 41), (11, 13)):
            r, f_tilde = vdsr_forward(model, synth_image(1, *shape))
            assert r.shape == shape and f_tilde.shape == shape

    def test_zero_model_is_identity(self):
        zero = build_vdsr(seed=0)
        for _, p in zero.named_parameters():
            p.data[:] = 0.0
        f_hat = synth_image(2, 16, 16)
        r, f_tilde = vdsr_forward(zero, f_hat)
        assert np.all(r == 0.0)
        assert np.array_equal(f_tilde, f_hat)

    def test_zeroed_final_layer_gives_constant_residual(self):
        m = build_vdsr(seed=1)
        m.params["vdsr/conv20/weights"].data[:] = 0.0
        m.params["vdsr/conv20/bias"].data[:] = 3.5
        f_hat = synth_image(3, 16, 16)
        r, f_tilde = vdsr_forward(m, f_hat)
        assert np.all(r == 3.5)
        np.testing.assert_allclose(f_tilde, f_hat + 3.5, atol=1e-4)

    def test_translation_equivariance_interior(self, model):
        # conv stacks commute with toroidal shifts away from the zero-padded border
        f = synth_image(4, 48, 48)
        r, _ = vdsr_forward(model, f)
        shifted = np.roll(np.roll(f, 1, axis=0), 1, axis=1)
        r2, _ = vdsr_forward(model, shifted)
        rolled = np.roll(np.roll(r, 1, axis=0), 1, axis=1)
        margin = receptive_field(model) // 2 + 1
        inner = slice(margin, 48 - margin)
        assert np.max(np.abs(r2[inner, inner] - rolled[inner, inner])) <= 1e-4


class TestGradient:
    def test_depth4_gradcheck(self):
        fn, leaves, samples = vdsr_case(seed=0)
        err = grad_check(fn, leaves, max_checks_per_leaf=samples,
                         rng=np.random.default_rng(0))
        assert err <= 1e-4

    def test_full_depth_spot_check(self):
        fn, leaves, _ = vdsr_case(seed=1, depth=20, param_samples=2)
        err = grad_check(fn, leaves, max_checks_per_leaf=2, rng=np.random.default_rng(1))
        assert err <= 1e-4

    def test_partly_frozen_model_gives_its_trained_layers_their_gradients(self):
        # frozen 64->64 layers run off the graph and write over their inputs; the
        # first trained layer keeps its input for backward
        x = Tensor(synth_image(5, 12, 10)[None, None])
        grads = []
        for trained in ((3, 4), range(1, 6)):
            m = build_vdsr(seed=6, depth=5)
            for name, p in m.named_parameters():
                p.requires_grad = int(name.split("/")[1].removeprefix("conv")) in trained
            m.forward_t(x)[1].backward()
            grads.append([m.params[f"vdsr/conv{i:02d}/weights"].grad for i in (3, 4)])
        for got, want in zip(*grads):
            assert np.array_equal(got, want)
