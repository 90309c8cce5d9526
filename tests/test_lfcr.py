"""LFCR network geometry, forward semantics and locality."""

import numpy as np
import pytest

from conftest import synth_image, vectorize_oracle
from nrsr.gradcheck import grad_check, lfcr_case
from nrsr.lfcr import (CONCAT_CHANNELS, DECONV_IN, HIDDEN_CHANNELS, NUM_FC_LAYERS, build_lfcr,
                       lfcr_forward)
from nrsr.masks import generate_mask
from nrsr.netutil import param_count, to_dtype_params
from nrsr.sensors import central_channel_indices, vectorize_tensor
from nrsr.tensor import ShapeMismatchError, Tensor, scale
from nrsr.vdsr import build_vdsr


@pytest.fixture(scope="module")
def quarter_model():
    return build_lfcr(generate_mask("quarter", 8), "quarter", seed=0)


def lfcr_blockwise_oracle(model, f: np.ndarray) -> np.ndarray:
    """Reconstruct every 8x8 target block independently with plain matmuls."""
    h, w = f.shape
    v = vectorize_oracle(f / 255.0, model.mask, model.sensor_kind)  # (64, h/8, w/8)
    central = central_channel_indices()
    out = np.zeros((h, w))
    for i in range(h // 8):
        for j in range(w // 8):
            t = v[:, i, j]
            for blk in model.blocks:
                z = blk.weights.data.reshape(blk.weights.shape[:2]) @ t + blk.bias.data
                t = np.where(z >= 0, z, blk.slopes.data * z)
            cat = np.concatenate([t, v[central, i, j]])
            block = np.tensordot(cat, model.deconv_weights.data[:, 0], axes=(0, 0))
            out[8 * i : 8 * i + 8, 8 * j : 8 * j + 8] = 255.0 * block + model.deconv_bias.data[0]
    return out


class TestGeometry:
    def test_hidden_width_formula(self):
        assert HIDDEN_CHANNELS == 4 * (3 * 8 * 8 // 4) == 192

    def test_deconv_input_channels(self):
        assert DECONV_IN == 192 + 16 == 208
        assert CONCAT_CHANNELS == 16

    def test_layer_shapes(self, quarter_model):
        assert len(quarter_model.blocks) == NUM_FC_LAYERS == 10
        assert quarter_model.blocks[0].weights.shape == (192, 64, 1, 1)
        for blk in quarter_model.blocks[1:]:
            assert blk.weights.shape == (192, 192, 1, 1)
            assert blk.bias.shape == (192,)
            assert blk.slopes.shape == (192,)
        assert quarter_model.deconv_weights.shape == (208, 1, 8, 8)
        assert quarter_model.deconv_bias.shape == (1,)
        assert quarter_model.vec_kernel.shape == (64, 1, 16, 16)

    def test_param_count_closed_form(self, quarter_model):
        # 64*192+192+192, nine blocks of 192*192+192+192, deconv 208*64+1
        expected = (64 * 192 + 192 + 192) + 9 * (192 * 192 + 192 + 192) + (208 * 64 + 1)
        assert expected == 361_217
        assert param_count(quarter_model) == expected
        assert 3.42e5 <= param_count(quarter_model) <= 3.78e5

    def test_combined_param_count_near_one_million(self, quarter_model):
        total = param_count(quarter_model) + param_count(build_vdsr(0))
        assert abs(total - 1e6) / 1e6 <= 0.05

    def test_same_width_for_all_sensor_kinds(self):
        for kind, mask in (("three-quarter", generate_mask("three-quarter", 0)),
                           ("low-resolution", None)):
            model = build_lfcr(mask, kind, seed=0)
            assert model.blocks[0].weights.shape[0] == 192
            assert param_count(model) == 361_217


class TestForward:
    def test_output_shape_matches_input(self, quarter_model):
        out = lfcr_forward(quarter_model, synth_image(0, 48, 48))
        assert out.shape == (48, 48)
        batch = np.stack([synth_image(s, 24, 40) for s in range(3)])
        assert lfcr_forward(quarter_model, batch).shape == (3, 24, 40)

    def test_dims_must_be_multiples_of_8(self, quarter_model):
        with pytest.raises(ShapeMismatchError, match="multiples of 8"):
            lfcr_forward(quarter_model, np.zeros((20, 24), dtype=np.float32))

    def test_zeroed_deconv_with_bias_gives_constant(self):
        model = build_lfcr(generate_mask("quarter", 1), "quarter", seed=3)
        model.deconv_weights.data[:] = 0.0
        model.deconv_bias.data[:] = 128.0
        out = lfcr_forward(model, synth_image(2, 32, 32))
        assert np.all(out == 128.0)

    def test_deterministic(self, quarter_model):
        f = synth_image(4, 48, 48)
        assert np.array_equal(lfcr_forward(quarter_model, f), lfcr_forward(quarter_model, f))

    def test_sampled_and_reference_inputs_agree_for_quarter(self, quarter_model):
        # the vectorizing taps only read measured positions, so masking
        # the unmeasured ones away must not change the network input
        from nrsr.sensors import sample

        f = synth_image(5, 48, 48)
        fs = sample(f, quarter_model.sensitivity)
        np.testing.assert_allclose(lfcr_forward(quarter_model, fs),
                                   lfcr_forward(quarter_model, f), rtol=1e-5, atol=1e-3)


class TestBlockwiseOracleAndLocality:
    @pytest.mark.parametrize("kind", ["quarter", "three-quarter", "low-resolution"])
    def test_forward_matches_blockwise_oracle(self, kind):
        mask = None if kind == "low-resolution" else generate_mask(kind, 6)
        model = build_lfcr(mask, kind, seed=1)
        to_dtype_params(model, np.float64)
        f = synth_image(6, 32, 24).astype(np.float64)
        got = lfcr_forward(model, f)
        want = lfcr_blockwise_oracle(model, f)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_pixels_outside_support_do_not_affect_block(self, quarter_model):
        f = synth_image(7, 48, 48)
        base = lfcr_forward(quarter_model, f)
        # target block (2, 2) spans rows/cols 16..23; support adds a 4px border
        g = f.copy()
        inside = np.zeros((48, 48), dtype=bool)
        inside[12:28, 12:28] = True
        g[~inside] = 0.0
        out = lfcr_forward(quarter_model, g)
        np.testing.assert_allclose(out[16:24, 16:24], base[16:24, 16:24], atol=1e-3)

    def test_period8_shift_equivariance(self):
        # toroidal (8,8) shift of the input shifts the output; borders excluded
        # because zero padding breaks the wrap-around
        for seed in range(3):
            model = build_lfcr(generate_mask("quarter", 20 + seed), "quarter", seed=seed)
            f = synth_image(30 + seed, 48, 48)
            shifted = np.roll(np.roll(f, 8, axis=0), 8, axis=1)
            out_shift = lfcr_forward(model, shifted)
            shift_out = np.roll(np.roll(lfcr_forward(model, f), 8, axis=0), 8, axis=1)
            assert np.max(np.abs(out_shift[16:40, 16:40] - shift_out[16:40, 16:40])) <= 1e-4


class TestConcatChannels:
    def test_concat_inputs_are_untransformed_measurements(self, quarter_model):
        # channels routed to the concat equal the vectorizing layer's central
        # channels bit for bit (on the network's internal scale)
        f = synth_image(8, 16, 16)
        x = Tensor(f[None, None])
        v = vectorize_tensor(scale(x, 1.0 / 255.0), quarter_model.sensitivity)
        central = v.data[:, central_channel_indices()]   # one row per 8x8 block, 2x2 blocks
        rescaled = 255.0 * central
        # scale-consistency with the layer run on the 0..255 scale
        raw = vectorize_tensor(x, quarter_model.sensitivity).data[:, central_channel_indices()]
        np.testing.assert_allclose(rescaled, raw, rtol=1e-5)

    def test_measured_pixel_recoverable_through_concat_path(self):
        # a deconv reading only one concat channel reproduces that cell's
        # measured pixel at the right in-block position, confirming the
        # measurements reach the deconv untouched
        mask = generate_mask("quarter", 2)
        model = build_lfcr(mask, "quarter", seed=0)
        model.deconv_weights.data[:] = 0.0
        model.deconv_bias.data[:] = 0.0
        # concat channel k=0 is support cell (2,2): first cell of the target
        # block, HR offset (0, 0..1) within the block
        quad = int(mask.pattern[(2 + 2) % 8, (2 + 2) % 8])
        dy, dx = divmod(quad, 2)
        model.deconv_weights.data[192 + 0, 0, dy, dx] = 1.0
        f = synth_image(11, 32, 32)
        out = lfcr_forward(model, f)
        for i in range(4):
            for j in range(4):
                measured = f[8 * i + dy, 8 * j + dx]
                assert abs(out[8 * i + dy, 8 * j + dx] - measured) < 1e-3


class TestGradient:
    def test_full_lfcr_gradcheck_16x16(self):
        fn, leaves, samples = lfcr_case(seed=0)
        err = grad_check(fn, leaves, max_checks_per_leaf=samples,
                         rng=np.random.default_rng(0))
        assert err <= 1e-4
