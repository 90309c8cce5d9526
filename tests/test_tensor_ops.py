"""Core op semantics and gradient correctness."""

import numpy as np
import pytest

from conftest import conv2d_oracle
from nrsr import tensor
from nrsr.gradcheck import grad_check
from nrsr.tensor import (ConvSpec, ShapeMismatchError, Tensor, UnsupportedConfigError,
                         concat_channels, conv2d, deconv2d, linear, mse_loss, no_grad, prelu,
                         take_channels)


def t(arr, grad=False):
    return Tensor(np.asarray(arr), requires_grad=grad)


class TestConv2d:
    def test_identity_kernel_passthrough(self):
        x = np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3)
        w = np.ones((1, 1, 1, 1), dtype=np.float32)
        out = conv2d(t(x), t(w), None, ConvSpec(1, 1))
        assert np.array_equal(out.data, x)

    def test_sum_of_ones(self):
        # each output counts the input positions its 3x3 window covers
        x = np.ones((1, 1, 3, 3), dtype=np.float32)
        w = np.ones((1, 1, 3, 3), dtype=np.float32)
        out = conv2d(t(x), t(w), None, ConvSpec(3, 3))
        assert out.shape == (1, 1, 3, 3)
        assert np.array_equal(out.data[0, 0], [[4, 6, 4], [6, 9, 6], [4, 6, 4]])

    def test_centered_identity_is_bit_exact(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 6, 7)).astype(np.float32)
        w = np.zeros((3, 3, 3, 3), dtype=np.float32)
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        spec = ConvSpec(3, 3, in_channels=3, out_channels=3)
        out = conv2d(t(x), t(w), None, spec)
        assert np.array_equal(out.data, x)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        for seed in range(6):
            r = np.random.default_rng(seed)
            cin, cout = int(r.integers(1, 4)), int(r.integers(1, 4))
            h, w = int(r.integers(1, 6)), int(r.integers(1, 6))
            x = rng.standard_normal((2, cin, h, w))
            wt = rng.standard_normal((cout, cin, 3, 3))
            b = rng.standard_normal(cout)
            spec = ConvSpec(3, 3, in_channels=cin, out_channels=cout)
            got = conv2d(t(x), t(wt), t(b), spec).data
            want = conv2d_oracle(x, wt, b, (1, 1), 1)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        spec = ConvSpec(3, 3, in_channels=2, out_channels=3)
        leaves = [rng.standard_normal((1, 2, 4, 4)), rng.standard_normal((3, 2, 3, 3)),
                  rng.standard_normal(3)]
        err = grad_check(lambda ts: conv2d(ts[0], ts[1], ts[2], spec), leaves)
        assert err <= 1e-4

    def test_shape_mismatch_rejected(self):
        x = t(np.zeros((1, 2, 4, 4), dtype=np.float32))
        w = t(np.zeros((3, 1, 3, 3), dtype=np.float32))
        spec = ConvSpec(3, 3, in_channels=1, out_channels=3)
        with pytest.raises(ShapeMismatchError, match="channels"):
            conv2d(x, w, None, spec)
        with pytest.raises(ShapeMismatchError, match="weights shape"):
            conv2d(t(np.zeros((1, 1, 4, 4), dtype=np.float32)),
                   t(np.zeros((3, 1, 2, 2), dtype=np.float32)), None, spec)


def band_rows(monkeypatch, rows: int, width: int, k: int) -> None:
    """Make conv2d work in bands of ``rows`` rows (a band holds BAND_PIXELS // (W + k - 1) rows)."""
    monkeypatch.setattr(tensor, "BAND_PIXELS", rows * (width + k - 1))


class TestConv2dBands:
    """conv2d runs one band of whole rows of one sample at a time.

    These tests shrink the band so that every call spans several bands
    and, where the height allows, ends on a ragged one-row band.
    """

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_ragged_bands_match_loop_oracle(self, monkeypatch, k, s, p):
        # Any k x k kernel, stride s and pad p is the one geometry conv2d runs: the
        # kernel zero-extended on its far side to odd q, the input zero-padded by p,
        # and the same-padded output read from row and column r = (q-1)//2 on, every s-th.
        rng = np.random.default_rng(100 * k + 10 * s + p)
        q = k | 1
        r = (q - 1) // 2
        x = rng.standard_normal((2, 2, 7, 5))
        wt = rng.standard_normal((3, 2, k, k))
        b = rng.standard_normal(3)
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        wq = np.zeros((3, 2, q, q))
        wq[:, :, :k, :k] = wt
        band_rows(monkeypatch, 2, 5 + 2 * p, q)
        same = conv2d(t(xp), t(wq), t(b), ConvSpec(q, q, in_channels=2, out_channels=3)).data
        assert same.shape == xp.shape[:1] + (3,) + xp.shape[2:] and same.flags.c_contiguous
        want = conv2d_oracle(x, wt, b, (s, s), p)
        got = same[:, :, r::s, r::s][:, :, : want.shape[2], : want.shape[3]]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("rows", [1, 2])
    def test_edge_sizes_match_loop_oracle(self, monkeypatch, k, rows):
        rng = np.random.default_rng(10 * k + rows)
        spec = ConvSpec(k, k, in_channels=2, out_channels=3)
        for h, w in ((1, 1), (1, 6), (6, 1), (7, 5)):
            x = rng.standard_normal((2, 2, h, w))
            wt = rng.standard_normal((3, 2, k, k))
            b = rng.standard_normal(3)
            band_rows(monkeypatch, rows, w, k)
            got = conv2d(t(x), t(wt), t(b), spec).data
            np.testing.assert_allclose(got, conv2d_oracle(x, wt, b, (1, 1), (k - 1) // 2),
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kh,kw", [(2, 2), (3, 1), (1, 3), (4, 4), (0, 0), (-1, -1)])
    def test_other_geometries_unsupported(self, kh, kw):
        with pytest.raises(UnsupportedConfigError, match="square odd kernel"):
            ConvSpec(kh, kw)

    def test_geometry_is_same_padding(self):
        spec = ConvSpec(5, 5, in_channels=2, out_channels=3)
        assert spec.pad == 2 and spec.out_size(7, 4) == (7, 4)

    @pytest.mark.parametrize("rows,shape", [(1, (1, 2, 5, 3)), (2, (2, 2, 9, 5))])
    def test_gradient_across_bands(self, monkeypatch, rows, shape):
        rng = np.random.default_rng(37 + rows)
        spec = ConvSpec(3, 3, in_channels=2, out_channels=3)
        band_rows(monkeypatch, rows, shape[3], 3)
        leaves = [rng.standard_normal(shape), rng.standard_normal((3, 2, 3, 3)),
                  rng.standard_normal(3)]
        assert grad_check(lambda ts: conv2d(ts[0], ts[1], ts[2], spec), leaves) <= 1e-4

    def test_reads_no_unwritten_scratch(self, monkeypatch):
        rng = np.random.default_rng(39)
        spec = ConvSpec(3, 3, in_channels=2, out_channels=3)
        x = rng.standard_normal((2, 2, 7, 5)).astype(np.float32)
        wt = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        s = np.array([0.25, -0.5], dtype=np.float32)
        g = rng.standard_normal((2, 3, 7, 5)).astype(np.float32)
        band_rows(monkeypatch, 2, 5, 3)

        def run(fused):
            leaves = [t(a, grad=True) for a in ((x, wt, b, s) if fused else (x, wt, b))]
            out = conv2d(*leaves[:3], spec, slopes=leaves[3] if fused else None)
            out.backward(g)
            return [out.data] + [leaf.grad for leaf in leaves]

        clean = [run(False), run(True)]  # the plain op, then the one with PReLU slopes
        empty = np.empty
        monkeypatch.setattr(np, "empty", lambda *a, **kw: np.full_like(empty(*a, **kw), np.nan))
        for fused, wants in zip((False, True), clean):
            for got, want in zip(run(fused), wants, strict=True):
                assert np.array_equal(got, want), fused

    def test_backward_keeps_nothing_larger_than_padded_input(self):
        rng = np.random.default_rng(41)
        x = t(rng.standard_normal((2, 64, 24, 24)).astype(np.float32))
        wt = t(0.05 * rng.standard_normal((64, 64, 3, 3)).astype(np.float32), grad=True)
        b = t(np.zeros(64, dtype=np.float32), grad=True)
        out = conv2d(x, wt, b, ConvSpec(3, 3, in_channels=64, out_channels=64))
        input_bytes = 2 * 64 * 24 * 24 * 4
        held = []
        for cell in out._backward.__closure__:
            v = cell.cell_contents
            v = v.data if isinstance(v, Tensor) else v
            if isinstance(v, np.ndarray):
                while isinstance(v.base, np.ndarray):
                    v = v.base
                held.append(v.nbytes)
        # only the input itself is kept: no padded copy (26x26), no 9x patch matrix
        assert max(held) == input_bytes
        out.backward(np.ones_like(out.data))
        assert wt.grad.flags.c_contiguous and b.grad.shape == (64,)


class TestConv2dPrelu:
    """conv2d(x, ..., slopes=s) is conv2d(prelu(x, s), ...) without the PReLU'd map."""

    SLOPES = [-0.5, 0.0, 0.25, 1.5]  # negative, zero, in (0, 1) and > 1

    def case(self, dtype, seed=53):
        rng = np.random.default_rng(seed)
        spec = ConvSpec(3, 3, in_channels=4, out_channels=3)
        return spec, [rng.standard_normal((2, 4, 7, 5)).astype(dtype),
                      rng.standard_normal((3, 4, 3, 3)).astype(dtype),
                      rng.standard_normal(3).astype(dtype), np.array(self.SLOPES, dtype=dtype)]

    @staticmethod
    def grads(spec, arrays, fused, g, grad=(True, True, True, True)):
        x, wt, b, s = (t(a, grad=r) for a, r in zip(arrays, grad))
        out = (conv2d(x, wt, b, spec, slopes=s) if fused
               else conv2d(prelu(x, s), wt, b, spec))
        out.backward(g)
        return [leaf.grad for leaf in (x, wt, b, s)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [None, 1, 2])
    def test_forward_equals_prelu_then_conv(self, monkeypatch, dtype, rows):
        spec, (x, wt, b, s) = self.case(dtype)
        if rows is not None:
            band_rows(monkeypatch, rows, 5, 3)  # 2 rows: three bands, the last a ragged one
        got = conv2d(t(x), t(wt), t(b), spec, slopes=t(s)).data
        want = conv2d(prelu(t(x), t(s)), t(wt), t(b), spec).data
        assert got.dtype == dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("rows", [None, 2])
    @pytest.mark.parametrize("grad", [(True, True, True, True),
                                      (True, True, True, False),  # frozen slopes
                                      (False, False, False, True)])
    def test_float64_gradients_equal_the_unfused_graph(self, monkeypatch, rows, grad):
        spec, arrays = self.case(np.float64)
        if rows is not None:
            band_rows(monkeypatch, rows, 5, 3)
        g = np.random.default_rng(5).standard_normal((2, 3, 7, 5))
        fused = self.grads(spec, arrays, True, g, grad)
        unfused = self.grads(spec, arrays, False, g, grad)
        for name, trained, got, want in zip(("x", "weights", "bias", "slopes"), grad, fused,
                                            unfused):
            if not trained:
                assert got is None, name
                continue
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_ragged_bands_match_loop_oracle_of_the_prelu(self, monkeypatch, k):
        rng = np.random.default_rng(200 + k)
        spec = ConvSpec(k, k, in_channels=4, out_channels=3)
        x = rng.standard_normal((2, 4, 7, 5))
        wt = rng.standard_normal((3, 4, k, k))
        b = rng.standard_normal(3)
        s = np.array(self.SLOPES)
        band_rows(monkeypatch, 2, 5, k)
        got = conv2d(t(x), t(wt), t(b), spec, slopes=t(s)).data
        want = conv2d_oracle(np.where(x < 0, s[:, None, None] * x, x), wt, b, (1, 1), (k - 1) // 2)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_no_slopes_and_no_bias_are_slope_one_and_zero_bias(self, monkeypatch):
        spec, (x, wt, _, _) = self.case(np.float32)
        band_rows(monkeypatch, 2, 5, 3)
        g = np.random.default_rng(7).standard_normal((2, 3, 7, 5)).astype(np.float32)
        runs = []
        for explicit in (False, True):
            leaves = [t(a, grad=True) for a in (x, wt)]
            ones, zeros = np.ones(4, np.float32), np.zeros(3, np.float32)
            out = (conv2d(*leaves, t(zeros), spec, slopes=t(ones)) if explicit
                   else conv2d(*leaves, None, spec))
            out.backward(g)
            runs.append([out.data] + [leaf.grad for leaf in leaves])
        for got, want in zip(*runs, strict=True):
            assert np.array_equal(got, want)

    def test_no_grad_keeps_nothing(self):
        spec, arrays = self.case(np.float32)
        leaves = [t(a, grad=True) for a in arrays]
        with no_grad():
            out = conv2d(*leaves[:3], spec, slopes=leaves[3])
        assert out._parents == () and out._backward is None and not out.requires_grad

    def test_slope_count_validated(self):
        spec, (x, wt, b, s) = self.case(np.float32)
        with pytest.raises(ShapeMismatchError, match="slopes shape"):
            conv2d(t(x), t(wt), t(b), spec, slopes=t(s[:3]))


class TestConv2dInPlace:
    """conv2d(..., out=x.data) writes its output over its own input, off the graph."""

    @staticmethod
    def case(k, seed=61):
        rng = np.random.default_rng(seed)
        return ConvSpec(k, k, in_channels=4, out_channels=4), [
            rng.standard_normal((2, 4, 7, 5)).astype(np.float32),
            rng.standard_normal((4, 4, k, k)).astype(np.float32),
            rng.standard_normal(4).astype(np.float32),
            np.array([-0.5, 0.0, 0.25, 1.5], dtype=np.float32)]

    # rows None: one band per sample; 2: bands of 2, 2, 2 and 1 rows; 1: one-row
    # bands, which conv2d widens to p rows when p > 1
    @pytest.mark.parametrize("rows", [None, 2, 1])
    @pytest.mark.parametrize("k", [3, 5])
    def test_equals_the_out_of_place_output(self, monkeypatch, k, rows):
        spec, (x, wt, b, s) = self.case(k)
        if rows is not None:
            band_rows(monkeypatch, rows, 5, k)
        want = conv2d(t(x), t(wt), t(b), spec, slopes=t(s)).data
        buf = x.copy()
        got = conv2d(t(buf), t(wt), t(b), spec, slopes=t(s), out=buf)
        assert got.data is buf and np.array_equal(buf, want)

    @pytest.mark.parametrize("trained", ["x", "weights"])
    def test_overlap_under_a_graph_rejected(self, trained):
        spec, (x, wt, b, s) = self.case(3)
        leaves = {"x": t(x), "weights": t(wt)}
        leaves[trained].requires_grad = True
        with pytest.raises(ValueError, match="overlaps the input"):
            conv2d(leaves["x"], leaves["weights"], t(b), spec, slopes=t(s), out=x)
        with no_grad():  # the same call off the graph writes in place
            conv2d(leaves["x"], leaves["weights"], t(b), spec, slopes=t(s), out=x)

    def test_overlap_other_than_the_input_itself_rejected(self):
        spec, (x, wt, b, s) = self.case(3)
        buf = np.concatenate([x, x[:1]])
        with pytest.raises(ValueError, match="overlaps the input"):
            conv2d(t(buf[:2]), t(wt), t(b), spec, slopes=t(s), out=buf[1:])

    @pytest.mark.parametrize("shape,dtype", [((2, 4, 7, 6), np.float32), ((1, 4, 7, 5), np.float32),
                                             ((2, 3, 7, 5), np.float32), ((2, 4, 7, 5), np.float64)])
    def test_wrong_out_shape_or_dtype_rejected(self, shape, dtype):
        spec, (x, wt, b, s) = self.case(3)
        with pytest.raises(ShapeMismatchError, match="^out is"):
            conv2d(t(x), t(wt), t(b), spec, slopes=t(s), out=np.zeros(shape, dtype=dtype))


def deconv2d_oracle(rows, w, batch, height, width):
    """Float64 loop: row (b, i, j) @ W painted into block (i, j) of sample b."""
    c, o, kh, kw = w.shape
    out = np.zeros((batch, o, height * kh, width * kw))
    wmat = w.astype(np.float64).reshape(c, o, kh * kw)
    for b in range(batch):
        for i in range(height):
            for j in range(width):
                row = rows[(b * height + i) * width + j].astype(np.float64)
                block = np.einsum("c,cop->op", row, wmat).reshape(o, kh, kw)
                out[b, :, i * kh : (i + 1) * kh, j * kw : (j + 1) * kw] = block
    return out


class TestDeconv2d:
    def test_single_value_broadcast(self):
        x = np.full((1, 1), 3.5, dtype=np.float32)
        w = np.ones((1, 1, 8, 8), dtype=np.float32)
        out = deconv2d(t(x), t(w), 1, 1, 1)
        assert out.shape == (1, 1, 8, 8)
        assert np.all(out.data == 3.5)

    def test_disjoint_blocks(self):
        x = np.arange(4, dtype=np.float32).reshape(4, 1) + 1
        w = np.ones((1, 1, 8, 8), dtype=np.float32)
        out = deconv2d(t(x), t(w), 1, 2, 2).data
        assert out.shape == (1, 1, 16, 16)
        for i in range(2):
            for j in range(2):
                block = out[0, 0, 8 * i : 8 * i + 8, 8 * j : 8 * j + 8]
                assert np.all(block == x[2 * i + j, 0])

    def test_zeroing_one_input_zeroes_one_block(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((9, 2)).astype(np.float32)
        w = rng.standard_normal((2, 1, 4, 4)).astype(np.float32)
        base = deconv2d(t(x), t(w), 1, 3, 3).data
        x2 = x.copy()
        x2[1 * 3 + 2] = 0.0
        out = deconv2d(t(x2), t(w), 1, 3, 3).data
        diff = np.abs(base - out) > 0
        changed = np.argwhere(diff)
        assert np.all(changed[:, 2] // 4 == 1)
        assert np.all(changed[:, 3] // 4 == 2)
        out[0, 0, 4:8, 8:12] = base[0, 0, 4:8, 8:12]
        assert np.array_equal(out, base)

    @pytest.mark.parametrize("batch,height,width,c,o,k", [
        (1, 1, 1, 1, 1, 1), (2, 3, 2, 5, 1, 8), (3, 2, 4, 208, 1, 8), (2, 2, 3, 4, 3, 2),
    ])
    def test_matches_loop_oracle(self, batch, height, width, c, o, k):
        rng = np.random.default_rng(batch * 100 + c)
        x = rng.standard_normal((batch * height * width, c))
        w = rng.standard_normal((c, o, k, k))
        out = deconv2d(t(x), t(w), batch, height, width).data
        want = deconv2d_oracle(x, w, batch, height, width)
        assert out.shape == want.shape
        np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        leaves = [rng.standard_normal((2 * 2 * 3, 3)), rng.standard_normal((3, 2, 4, 4))]
        err = grad_check(lambda ts: deconv2d(ts[0], ts[1], 2, 2, 3), leaves)
        assert err <= 1e-4

    def test_grid_mismatch_rejected(self):
        w = t(np.zeros((3, 1, 8, 8), dtype=np.float32))
        with pytest.raises(ShapeMismatchError, match="grid"):
            deconv2d(t(np.zeros((15, 3), dtype=np.float32)), w, 2, 2, 4)
        with pytest.raises(ShapeMismatchError, match="grid"):
            deconv2d(t(np.zeros((1, 3, 4, 4), dtype=np.float32)), w, 1, 4, 4)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError, match="channels"):
            deconv2d(t(np.zeros((16, 3), dtype=np.float32)),
                     t(np.zeros((4, 1, 8, 8), dtype=np.float32)), 2, 2, 4)


class TestPrelu:
    def test_positive_passthrough(self):
        x = np.full((1, 1, 1, 1), 2.0, dtype=np.float32)
        out = prelu(t(x), t(np.array([0.7], dtype=np.float32)))
        assert out.data.reshape(()) == 2.0

    def test_negative_scaled(self):
        x = np.full((1, 1, 1, 1), -2.0, dtype=np.float32)
        out = prelu(t(x), t(np.array([0.25], dtype=np.float32)))
        assert out.data.reshape(()) == -0.5

    def test_slope_gradient_value(self):
        # d out / d slope at x = -2 is -2, checked against finite differences
        x = np.full((1, 1, 1, 1), -2.0)
        slopes = np.array([0.25])
        xt, st = t(x), t(np.array([0.25]), grad=True)
        prelu(xt, st).backward()
        assert st.grad.reshape(()) == -2.0
        err = grad_check(lambda ts: prelu(ts[0], ts[1]), [x, slopes])
        assert err <= 1e-6

    def test_forward_equals_where_with_signed_zeros(self):
        rng = np.random.default_rng(43)
        x = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
        x[0, 0, 0, :4] = [0.0, -0.0, 0.0, -0.0]
        x[1, 2, 3, 3:] = [-0.0, 0.0]
        slopes = np.array([0.25, -0.5, 1.75], dtype=np.float32)
        out = prelu(t(x), t(slopes)).data
        want = np.where(x < 0, slopes[None, :, None, None] * x, x)
        assert out.dtype == np.float32
        assert np.array_equal(out, want)

    def test_channel_without_negatives_gets_zero_slope_gradient(self):
        rng = np.random.default_rng(47)
        x = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
        x[:, 1] = np.abs(x[:, 1])
        x[0, 1, 0, :2] = [0.0, -0.0]
        st = t(np.array([0.2, 0.3], dtype=np.float32), grad=True)
        prelu(t(x), st).backward(rng.standard_normal(x.shape).astype(np.float32))
        assert st.grad[1] == 0.0
        assert st.grad[0] != 0.0

    def test_slope_count_validated(self):
        with pytest.raises(ShapeMismatchError):
            prelu(t(np.zeros((1, 3, 2, 2), dtype=np.float32)),
                  t(np.array([0.1, 0.2], dtype=np.float32)))


    def test_rows_forward_equals_where_with_signed_zeros(self):
        rng = np.random.default_rng(53)
        x = rng.standard_normal((7, 3)).astype(np.float32)
        x[0] = [0.0, -0.0, 0.0]
        slopes = np.array([0.25, -0.5, 1.75], dtype=np.float32)
        out = prelu(t(x), t(slopes)).data
        assert out.dtype == np.float32
        assert np.array_equal(out, np.where(x < 0, slopes * x, x))

    def test_rows_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(59)
        x = rng.standard_normal((6, 4))
        x = np.where(np.abs(x) < 0.05, 0.3, x)
        assert grad_check(lambda ts: prelu(ts[0], ts[1]), [x, rng.uniform(0.1, 0.9, 4)]) <= 1e-4

    def test_rows_channel_without_negatives_gets_zero_slope_gradient(self):
        rng = np.random.default_rng(61)
        x = rng.standard_normal((9, 2))
        x[:, 1] = np.abs(x[:, 1])
        x[:2, 1] = [0.0, -0.0]
        xt, st = t(x, grad=True), t(np.array([0.2, 0.3]), grad=True)
        g = rng.standard_normal(x.shape)
        prelu(xt, st).backward(g)
        assert st.grad[1] == 0.0
        np.testing.assert_allclose(st.grad[0], np.sum(g[:, 0] * np.minimum(x[:, 0], 0)),
                                   rtol=1e-12)
        np.testing.assert_array_equal(xt.grad, g * np.where(x < 0, [0.2, 0.3], 1.0))

    def test_needs_a_channel_axis(self):
        with pytest.raises(ShapeMismatchError, match="channel axis"):
            prelu(t(np.zeros(3, dtype=np.float32)), t(np.zeros(3, dtype=np.float32)))


class TestLinear:
    """Fully connected layer on (rows, features) matrices."""

    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(67)
        x = rng.standard_normal((5, 3)).astype(np.float32)
        wt = rng.standard_normal((4, 3, 1, 1)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        out = linear(t(x), t(wt), t(b)).data
        assert out.shape == (5, 4) and out.dtype == np.float32
        want = x.astype(np.float64) @ wt.reshape(4, 3).T.astype(np.float64) + b
        np.testing.assert_allclose(out, want, rtol=1e-5, atol=1e-5)
        x64, w64 = x.astype(np.float64), wt.reshape(4, 3).astype(np.float64)
        np.testing.assert_allclose(linear(t(x64), t(w64), t(b.astype(np.float64))).data,
                                   x64 @ w64.T + b, rtol=1e-12, atol=1e-12)

    def test_equals_1x1_conv_on_rows(self):
        rng = np.random.default_rng(71)
        x = rng.standard_normal((2, 3, 4, 5))
        wt = rng.standard_normal((6, 3, 1, 1))
        b = rng.standard_normal(6)
        conv = conv2d(t(x), t(wt), t(b), ConvSpec(1, 1, in_channels=3, out_channels=6))
        rows = linear(t(x.transpose(0, 2, 3, 1).reshape(-1, 3)), t(wt), t(b))
        back = rows.data.reshape(2, 4, 5, 6).transpose(0, 3, 1, 2)
        np.testing.assert_allclose(back, conv.data, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(rows.data, conv.data.transpose(0, 2, 3, 1).reshape(-1, 6))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(73)
        leaves = [rng.standard_normal((6, 3)), rng.standard_normal((4, 3, 1, 1)),
                  rng.standard_normal(4)]
        assert grad_check(lambda ts: linear(ts[0], ts[1], ts[2]), leaves) <= 1e-4

    def test_gradients_are_the_gemms(self):
        rng = np.random.default_rng(79)
        x, wt, b = (t(rng.standard_normal(s), grad=True) for s in ((6, 3), (4, 3), (4,)))
        g = rng.standard_normal((6, 4))
        linear(x, wt, b).backward(g)
        np.testing.assert_allclose(wt.grad, g.T @ x.data, rtol=1e-12)
        np.testing.assert_allclose(x.grad, g @ wt.data, rtol=1e-12)
        np.testing.assert_allclose(b.grad, g.sum(axis=0), rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        w = t(np.zeros((4, 3, 1, 1), dtype=np.float32))
        b = t(np.zeros(4, dtype=np.float32))
        with pytest.raises(ShapeMismatchError, match="2-D"):
            linear(t(np.zeros((1, 3, 2, 2), dtype=np.float32)), w, b)
        with pytest.raises(ShapeMismatchError, match="weights shape"):
            linear(t(np.zeros((5, 2), dtype=np.float32)), w, b)
        with pytest.raises(ShapeMismatchError, match="bias shape"):
            linear(t(np.zeros((5, 3), dtype=np.float32)), w, t(np.zeros(3, dtype=np.float32)))


class TestConcat:
    def test_channel_counts_match_network_geometry(self):
        a = t(np.zeros((1, 192, 4, 4), dtype=np.float32))
        b = t(np.zeros((1, 16, 4, 4), dtype=np.float32))
        assert concat_channels(a, b).shape == (1, 208, 4, 4)

    def test_zero_channel_identity(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((1, 3, 2, 2)).astype(np.float32)
        empty = np.zeros((1, 0, 2, 2), dtype=np.float32)
        assert np.array_equal(concat_channels(t(a), t(empty)).data, a)

    def test_backward_restores_split_gradients(self):
        rng = np.random.default_rng(1)
        a = t(rng.standard_normal((2, 3, 2, 2)), grad=True)
        b = t(rng.standard_normal((2, 2, 2, 2)), grad=True)
        cat = concat_channels(a, b)
        front = take_channels(cat, list(range(3)))
        seed = rng.standard_normal(front.data.shape)
        front.backward(seed)
        assert np.array_equal(a.grad, seed)
        assert np.array_equal(b.grad, np.zeros_like(b.data))

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            concat_channels(t(np.zeros((1, 1, 2, 2), dtype=np.float32)),
                            t(np.zeros((1, 1, 3, 2), dtype=np.float32)))

    def test_gradient(self):
        rng = np.random.default_rng(17)
        leaves = [rng.standard_normal((1, 2, 3, 3)), rng.standard_normal((1, 3, 3, 3))]
        assert grad_check(lambda ts: concat_channels(ts[0], ts[1]), leaves) <= 1e-4


class TestMseLoss:
    def test_identical_zero(self):
        x = np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2)
        assert mse_loss(t(x), t(x.copy())).data.reshape(()) == 0.0

    def test_uniform_difference(self):
        pred = np.full((1, 1, 3, 3), 2.0, dtype=np.float32)
        target = np.zeros((1, 1, 3, 3), dtype=np.float32)
        assert mse_loss(t(pred), t(target)).data.reshape(()) == 4.0

    def test_gradient_closed_form_and_fd(self):
        rng = np.random.default_rng(19)
        pred = rng.standard_normal((2, 1, 3, 3))
        target = rng.standard_normal((2, 1, 3, 3))
        pt = t(pred, grad=True)
        mse_loss(pt, t(target)).backward()
        np.testing.assert_allclose(pt.grad, 2.0 * (pred - target) / pred.size, rtol=1e-12)
        assert grad_check(lambda ts: mse_loss(ts[0], ts[1]), [pred, target]) <= 1e-4

    def test_nonnegative_and_zero_iff_equal(self, rng):
        for seed in range(10):
            r = np.random.default_rng(seed)
            a = r.standard_normal((1, 1, 4, 4))
            b = a + r.standard_normal((1, 1, 4, 4)) * (seed % 2)
            v = float(mse_loss(t(a), t(b)).data.reshape(()))
            assert v >= 0.0
            assert (v == 0.0) == np.array_equal(a, b)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            mse_loss(t(np.zeros((1, 1, 2, 2), dtype=np.float32)),
                     t(np.zeros((1, 1, 2, 3), dtype=np.float32)))


class TestGradCheckInvariants:
    OPS = ("conv2d", "deconv2d", "prelu", "concat", "mse")

    @pytest.mark.parametrize("seed", range(20))
    def test_all_ops_randomized(self, seed):
        rng = np.random.default_rng(100 + seed)
        spec = ConvSpec(3, 3, in_channels=2, out_channels=2)
        leaves = [rng.standard_normal((1, 2, 3, 3)), rng.standard_normal((2, 2, 3, 3)),
                  rng.standard_normal(2)]
        assert grad_check(lambda ts: conv2d(ts[0], ts[1], ts[2], spec), leaves,
                          rng=rng) <= 1e-4
        leaves = [rng.standard_normal((4, 2)), rng.standard_normal((2, 1, 2, 2))]
        assert grad_check(lambda ts: deconv2d(ts[0], ts[1], 1, 2, 2), leaves, rng=rng) <= 1e-4
        x = rng.standard_normal((1, 2, 3, 3))
        x = np.where(np.abs(x) < 0.05, 0.3, x)
        assert grad_check(lambda ts: prelu(ts[0], ts[1]),
                          [x, rng.uniform(0.1, 0.9, 2)], rng=rng) <= 1e-4
        leaves = [rng.standard_normal((1, 1, 2, 2)), rng.standard_normal((1, 2, 2, 2))]
        assert grad_check(lambda ts: concat_channels(ts[0], ts[1]), leaves, rng=rng) <= 1e-4
        leaves = [rng.standard_normal((1, 1, 3, 3)), rng.standard_normal((1, 1, 3, 3))]
        assert grad_check(lambda ts: mse_loss(ts[0], ts[1]), leaves, rng=rng) <= 1e-4

    @pytest.mark.parametrize("factor,fails", [(np.nan, True), (np.inf, True), (1.5, True),
                                              (1.0, False)])
    def test_wrong_or_non_finite_gradient_fails(self, factor, fails):
        # y = 2x with a backward that returns factor * 2g: NaN must not score as 0
        def op(ts):
            x = ts[0]
            return tensor._result(2.0 * x.data, (x,),
                                  lambda g: x.accumulate_grad(factor * 2.0 * g))

        err = grad_check(op, [np.random.default_rng(29).standard_normal(5)])
        assert (err > 1e-4) == fails and not np.isnan(err)

    def test_linear_layer_near_exact(self):
        rng = np.random.default_rng(23)
        spec = ConvSpec(1, 1, in_channels=3, out_channels=2)
        leaves = [rng.standard_normal((1, 3, 2, 2)), rng.standard_normal((2, 3, 1, 1)),
                  rng.standard_normal(2)]
        assert grad_check(lambda ts: conv2d(ts[0], ts[1], ts[2], spec), leaves) <= 1e-7
