"""PSNR, SSIM, grayscale conversion and the bicubic baseline."""

import math

import numpy as np
import pytest

from conftest import synth_image
from nrsr.metrics import bicubic_upscale, psnr, ssim, to_grayscale
from nrsr.sensors import sample, sensitivity_tile
from nrsr.tensor import ShapeMismatchError


class TestGrayscale:
    def test_gray_input_unchanged(self):
        rgb = np.stack([np.full((4, 4), 77, dtype=np.uint8)] * 3, axis=2)
        assert np.allclose(to_grayscale(rgb), 77.0)

    def test_pure_white(self):
        rgb = np.full((2, 2, 3), 255, dtype=np.uint8)
        assert np.allclose(to_grayscale(rgb), 255.0)

    def test_pure_red(self):
        rgb = np.zeros((1, 1, 3), dtype=np.uint8)
        rgb[..., 0] = 255
        assert abs(to_grayscale(rgb)[0, 0] - 76.245) < 1e-9

    def test_weights_sum_to_one(self):
        assert abs((0.299 + 0.587 + 0.114) - 1.0) < 1e-12

    def test_stays_float_no_requantization(self):
        rgb = np.zeros((1, 1, 3), dtype=np.uint8)
        rgb[..., 1] = 1
        out = to_grayscale(rgb)
        assert out.dtype == np.float64
        assert abs(out[0, 0] - 0.587) < 1e-12


class TestPsnr:
    def test_identical_is_infinite(self):
        f = synth_image(0, 16, 16)
        assert math.isinf(psnr(f, f))

    def test_uniform_difference_closed_form(self):
        a = np.zeros((8, 8))
        b = np.full((8, 8), 16.0)
        assert abs(psnr(a, b) - 20 * math.log10(255 / 16)) < 1e-12
        assert abs(psnr(a, b) - 24.05) < 0.01

    def test_scaling_footnote_gain(self):
        # shrinking the difference image by 219/255 raises PSNR by exactly
        # 20 log10(255/219) = 1.32 dB (the 16..235 vs 0..255 convention gap)
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 255, (32, 32))
        diff = rng.uniform(-20, 20, (32, 32))
        base = psnr(a, a + diff)
        scaled = psnr(a, a + diff * (219.0 / 255.0))
        gain = scaled - base
        assert abs(gain - 20 * math.log10(255.0 / 219.0)) < 1e-9
        assert round(gain, 2) == 1.32

    def test_monotone_under_growing_noise(self):
        f = synth_image(2, 32, 32).astype(np.float64)
        noise = np.random.default_rng(3).standard_normal((32, 32))
        values = [psnr(f, f + s * noise) for s in (0.5, 1, 2, 4, 8, 16)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            psnr(np.zeros((4, 4)), np.zeros((4, 5)))


class TestSsim:
    def test_self_similarity_is_one(self):
        f = synth_image(4, 24, 24)
        assert abs(ssim(f, f) - 1.0) < 1e-12

    def test_symmetry(self):
        a = synth_image(5, 24, 24)
        b = synth_image(6, 24, 24)
        assert abs(ssim(a, b) - ssim(b, a)) < 1e-12

    def test_constant_images_closed_form(self):
        a = np.full((16, 16), 100.0)
        b = np.full((16, 16), 110.0)
        c1 = (0.01 * 255) ** 2
        expected = (2 * 100 * 110 + c1) / (100**2 + 110**2 + c1)
        assert abs(ssim(a, b) - expected) < 1e-9

    def test_bounded_and_one_only_for_identical(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = rng.uniform(0, 255, (16, 16))
            b = rng.uniform(0, 255, (16, 16))
            v = ssim(a, b)
            assert -1.0 <= v <= 1.0
            assert v < 1.0 - 1e-9
        f = synth_image(9, 16, 16)
        assert ssim(f, f) > 1.0 - 1e-9

    def test_undersized_rejected(self):
        with pytest.raises(ShapeMismatchError, match="at least"):
            ssim(np.zeros((10, 12)), np.zeros((10, 12)))


class TestBicubic:
    def test_constant_preserved(self):
        out = bicubic_upscale(np.full((8, 8), 100.0))
        assert out.shape == (16, 16)
        np.testing.assert_allclose(out, 100.0, atol=1e-6)

    def test_partition_of_unity(self):
        out = bicubic_upscale(np.ones((9, 7)))
        np.testing.assert_allclose(out, 1.0, atol=1e-6)

    def test_linear_ramp_reproduced_on_interior(self):
        # cubic convolution reproduces linear signals; half-pixel alignment
        # maps output column j to input coordinate j/2 - 1/4
        ramp = np.tile(np.arange(12, dtype=np.float64), (4, 1))
        out = bicubic_upscale(ramp)
        j = np.arange(4, 20)
        expected = j / 2.0 - 0.25
        np.testing.assert_allclose(out[4, 4:20], expected, atol=1e-12)

    def test_accepts_measurement_grid(self):
        grid = sample(synth_image(10, 16, 16), sensitivity_tile(None, "low-resolution"))
        out = bicubic_upscale(grid)
        assert out.shape == (16, 16)

    def test_downsample_roundtrip_error_shrinks_with_resolution(self):
        # smooth quadratic: consistency of sample -> upscale improves with n
        errs = []
        for n in (16, 32, 64):
            y, x = np.mgrid[0:n, 0:n].astype(np.float64)
            f = 50 + 100 * (x / n) ** 2 + 60 * (y / n) * (x / n)
            tile = sensitivity_tile(None, "low-resolution")
            rec = bicubic_upscale(sample(f.astype(np.float32), tile))
            errs.append(float(np.mean((rec[4:-4, 4:-4] - f[4:-4, 4:-4]) ** 2)))
        assert errs[0] > errs[1] > errs[2]
