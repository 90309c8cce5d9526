"""Sensor models, the vectorizing layer and their brute-force oracles."""

import numpy as np
import pytest

from conftest import (conv2d_oracle, integer_image, sample_low_resolution_oracle,
                      sample_three_quarter_oracle, synth_image, vectorize_oracle)
from nrsr.gradcheck import grad_check
from nrsr.masks import SamplingMask, expand_mask, generate_mask
from nrsr.sensors import (central_channel_indices, sample, sensitivity_tile, vectorize_tensor,
                          vectorizing_kernel)
from nrsr.tensor import ShapeMismatchError, Tensor


LOW_RESOLUTION_TILE = sensitivity_tile(None, "low-resolution")


def make_mask_with_top_left(kind, quadrant):
    tile = np.full((4, 4), quadrant, dtype=int)
    return SamplingMask(kind=kind, pattern=np.tile(tile, (2, 2)))


def layer_rows(f, mask, kind):
    """The vectorizing layer's (blocks, 64) rows of one (H, W) image."""
    return vectorize_tensor(Tensor(f[None, None]), sensitivity_tile(mask, kind)).data


def oracle_rows(f, mask, kind):
    """The gather oracle's (64, H/8, W/8) map as (blocks, 64) rows in block order."""
    return vectorize_oracle(f, mask, kind).reshape(64, -1).T


class TestSampleQuarter:
    def test_constant_image_keeps_mask_shape(self):
        mask = generate_mask("quarter", 2)
        f = np.full((32, 32), 100.0, dtype=np.float32)
        b = expand_mask(mask, 32, 32)
        out = sample(f, sensitivity_tile(mask, "quarter"))
        assert np.array_equal(out, 100.0 * b)

    def test_measured_positions_keep_reference_values(self):
        mask = generate_mask("quarter", 5)
        f = synth_image(0, 48, 48)
        b = expand_mask(mask, 48, 48).astype(bool)
        out = sample(f, sensitivity_tile(mask, "quarter"))
        assert np.array_equal(out[b], f[b])
        assert np.all(out[~b] == 0)

    def test_nonzero_count_is_quarter(self):
        mask = generate_mask("quarter", 1)
        f = synth_image(1, 40, 56) + 1.0  # strictly positive
        out = sample(f, sensitivity_tile(mask, "quarter"))
        assert np.count_nonzero(out) == 40 * 56 // 4


class TestSampleThreeQuarter:
    def test_single_cell_arithmetic(self):
        mask = make_mask_with_top_left("three-quarter", 0)  # covered: top-left
        f = np.array([[3.0, 6.0], [9.0, 12.0]], dtype=np.float32)
        grid = sample(f, sensitivity_tile(mask, "three-quarter"))
        assert grid.shape == (1, 1)
        assert grid[0, 0] == (6 + 9 + 12) / 3

    def test_constant_image(self):
        mask = generate_mask("three-quarter", 7)
        tile = sensitivity_tile(mask, "three-quarter")
        grid = sample(np.full((16, 16), 100.0, dtype=np.float32), tile)
        assert np.all(grid == 100.0)

    def test_matches_nested_loop_oracle_bit_exact_on_integers(self):
        for seed in range(8):
            mask = generate_mask("three-quarter", seed)
            f = integer_image(seed, 24, 32)
            got = sample(f, sensitivity_tile(mask, "three-quarter"))
            want = sample_three_quarter_oracle(f, mask)
            assert np.array_equal(got, want.astype(np.float32))

    def test_matches_masked_cell_sum_identity(self):
        # measurement == sum over (f * b) per cell, divided by 3
        for seed in range(5):
            mask = generate_mask("three-quarter", seed)
            f = synth_image(seed, 32, 32)
            masked = f * expand_mask(mask, 32, 32)
            cells = masked.reshape(16, 2, 16, 2).sum(axis=(1, 3)) / 3.0
            got = sample(f, sensitivity_tile(mask, "three-quarter"))
            np.testing.assert_allclose(got, cells, rtol=1e-6)


class TestSampleLowResolution:
    def test_single_cell_mean(self):
        f = np.array([[0.0, 4.0], [8.0, 12.0]], dtype=np.float32)
        assert sample(f, LOW_RESOLUTION_TILE)[0, 0] == 6.0

    def test_constant(self):
        grid = sample(np.full((8, 8), 100.0, dtype=np.float32), LOW_RESOLUTION_TILE)
        assert np.all(grid == 100.0)

    def test_column_ramp_closed_form(self):
        # f(i, j) = j  ->  output(u, v) = 2v + 0.5
        f = np.tile(np.arange(16, dtype=np.float32), (16, 1))
        got = sample(f, LOW_RESOLUTION_TILE)
        want = np.tile(2.0 * np.arange(8) + 0.5, (8, 1))
        assert np.array_equal(got, want.astype(np.float32))

    def test_matches_oracle(self):
        f = integer_image(3, 16, 24)
        got = sample(f, LOW_RESOLUTION_TILE)
        assert np.array_equal(got, sample_low_resolution_oracle(f).astype(np.float32))

    def test_nearest_upsample_preserves_constants(self):
        grid = sample(np.full((16, 16), 73.0, dtype=np.float32), LOW_RESOLUTION_TILE)
        up = np.repeat(np.repeat(grid, 2, axis=0), 2, axis=1)
        assert np.all(up == 73.0)


class TestVectorizingKernel:
    def test_quarter_channels_have_single_unit_weight(self):
        kernel = vectorizing_kernel(sensitivity_tile(generate_mask("quarter", 4), "quarter"))
        assert kernel.shape == (64, 1, 16, 16)
        for ch in range(64):
            nz = kernel[ch, 0][kernel[ch, 0] != 0]
            assert nz.shape == (1,) and nz[0] == 1.0

    def test_three_quarter_channels_sum_to_one(self):
        tile = sensitivity_tile(generate_mask("three-quarter", 4), "three-quarter")
        kernel = vectorizing_kernel(tile)
        for ch in range(64):
            nz = kernel[ch, 0][kernel[ch, 0] != 0]
            assert nz.shape == (3,)
            assert abs(nz.sum() - 1.0) < 1e-6

    def test_low_resolution_quarter_weights(self):
        kernel = vectorizing_kernel(sensitivity_tile(None, "low-resolution"))
        for ch in range(64):
            nz = kernel[ch, 0][kernel[ch, 0] != 0]
            assert nz.shape == (4,) and np.all(nz == 0.25)

    def test_channel_support_confined_to_its_cell(self):
        tile = sensitivity_tile(generate_mask("three-quarter", 11), "three-quarter")
        kernel = vectorizing_kernel(tile)
        for r in range(8):
            for c in range(8):
                ch = kernel[8 * r + c, 0]
                outside = ch.copy()
                outside[2 * r : 2 * r + 2, 2 * c : 2 * c + 2] = 0
                assert np.all(outside == 0)

    def test_conv_with_kernel_matches_gather_oracle(self):
        for kind, seed in (("quarter", 0), ("three-quarter", 1), ("low-resolution", 2)):
            mask = None if kind == "low-resolution" else generate_mask(kind, seed)
            kernel = vectorizing_kernel(sensitivity_tile(mask, kind))
            f = integer_image(seed, 24, 24)
            # the kernel as a 16x16, stride-8, pad-4 convolution
            out = conv2d_oracle(f[None, None], kernel, None, (8, 8), 4)
            want = vectorize_oracle(f, mask, kind)
            np.testing.assert_allclose(out[0], want, rtol=1e-6, atol=1e-9)

    def test_mask_kind_agreement_enforced(self):
        with pytest.raises(ShapeMismatchError, match="does not match"):
            sensitivity_tile(generate_mask("quarter", 0), "three-quarter")
        with pytest.raises(ShapeMismatchError, match="requires a mask"):
            sensitivity_tile(None, "quarter")


class TestVectorize:
    def test_output_spatial_size(self):
        out = layer_rows(integer_image(0, 16, 16), generate_mask("quarter", 0), "quarter")
        assert out.shape == (2 * 2, 64)

    def test_constant_three_quarter_interior(self):
        f = np.full((32, 32), 100.0, dtype=np.float32)
        out = layer_rows(f, generate_mask("three-quarter", 3), "three-quarter").reshape(4, 4, 64)
        assert np.all(out[1:3, 1:3] == 100.0)

    def test_bit_exact_against_oracle_on_integer_images(self):
        for kind in ("quarter", "three-quarter", "low-resolution"):
            for seed in range(4):
                mask = None if kind == "low-resolution" else generate_mask(kind, seed)
                f = integer_image(100 + seed, 24, 16)
                got = layer_rows(f, mask, kind)
                want = oracle_rows(f, mask, kind).astype(np.float32)
                assert np.array_equal(got, want), f"{kind} seed {seed}"

    def test_close_on_float_images(self):
        mask = generate_mask("three-quarter", 9)
        f = synth_image(9, 24, 24)
        got = layer_rows(f, mask, "three-quarter")
        np.testing.assert_allclose(got, oracle_rows(f, mask, "three-quarter"), rtol=1e-6)

    def test_dims_must_be_multiples_of_8(self):
        with pytest.raises(ShapeMismatchError, match="multiples of 8"):
            layer_rows(np.zeros((12, 16), dtype=np.float32), generate_mask("quarter", 0), "quarter")

    def test_rows_in_block_order(self):
        # row b*(H/8)*(W/8) + i*(W/8) + j holds the window over block (i, j) of image b
        mask = generate_mask("three-quarter", 5)
        fs = np.stack([integer_image(10 + s, 24, 40) for s in range(2)])
        out = vectorize_tensor(Tensor(fs[:, None]), sensitivity_tile(mask, "three-quarter")).data
        assert out.shape == (2 * 3 * 5, 64) and out.flags.c_contiguous
        for b in range(2):
            want = vectorize_oracle(fs[b], mask, "three-quarter").astype(np.float32)
            for i in range(3):
                for j in range(5):
                    assert np.array_equal(out[b * 15 + i * 5 + j], want[:, i, j]), (b, i, j)

    def test_tensor_op_gradient(self):
        tile = sensitivity_tile(generate_mask("three-quarter", 1), "three-quarter")
        x = np.random.default_rng(0).uniform(0, 255, (1, 1, 16, 16))
        assert grad_check(lambda ts: vectorize_tensor(ts[0], tile), [x]) <= 1e-4

    @pytest.mark.parametrize("kind", ["quarter", "three-quarter", "low-resolution"])
    def test_backward_is_the_adjoint(self, kind):
        # <V x, g> == <x, V^T g> in float64, V^T g being the input gradient for seed g
        tile = sensitivity_tile(None if kind == "low-resolution" else generate_mask(kind, 3), kind)
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(2, 1, 24, 16)), requires_grad=True)
        y = vectorize_tensor(x, tile)
        g = rng.normal(size=y.shape)
        y.backward(g)
        np.testing.assert_allclose(np.vdot(y.data, g), np.vdot(x.data, x.grad), rtol=1e-12)


class TestCentralChannels:
    def test_count_and_first_index(self):
        idx = central_channel_indices()
        assert len(idx) == 16
        assert idx[0] == 2 * 8 + 2
        assert idx == sorted(idx)

    def test_geometry_only(self):
        # indices depend on the cell grid, never on the mask
        assert central_channel_indices() == [r * 8 + c for r in range(2, 6) for c in range(2, 6)]

    def test_central_channels_cover_target_block(self):
        # the 16 central cells tile the central 8x8 HR pixels of the support block
        covered = np.zeros((16, 16), dtype=int)
        for ch in central_channel_indices():
            r, c = divmod(ch, 8)
            covered[2 * r : 2 * r + 2, 2 * c : 2 * c + 2] += 1
        assert np.all(covered[4:12, 4:12] == 1)
        covered[4:12, 4:12] = 0
        assert np.all(covered == 0)
