"""VDSR residual enhancer."""

import numpy as np
import pytest

from conftest import synth_image
from nrsr.gradcheck import grad_check, vdsr_case
from nrsr.netutil import param_count, to_dtype_params
from nrsr.vdsr import build_vdsr, receptive_field, vdsr_forward


@pytest.fixture(scope="module")
def model():
    return build_vdsr(seed=0)


class TestStructure:
    def test_depth_and_widths(self, model):
        assert len(model.layers) == 20
        assert model.layers[0].weights.shape == (64, 1, 3, 3)
        for layer in model.layers[1:-1]:
            assert layer.weights.shape == (64, 64, 3, 3)
            assert layer.slopes is not None
        assert model.layers[-1].weights.shape == (1, 64, 3, 3)
        assert model.layers[-1].slopes is None

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
        m.layers[-1].weights.data[:] = 0.0
        m.layers[-1].bias.data[:] = 3.5
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
