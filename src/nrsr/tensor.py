"""Dense-array compute core with reverse-mode differentiation.

Only the operations the reconstruction networks need are provided:
conv2d, deconv2d (stride = kernel), a fully connected layer on rows,
PReLU, channel concatenation, elementwise add, scalar scaling, bias
broadcast and MSE loss. Activations and weights live in (batch,
channels, height, width) arrays of 32-bit floats, or, for per-position
fully connected layers, in (positions, channels) row matrices that
to_rows/from_rows convert to and from; the channel axis is axis 1 in
both layouts. Gradient checking runs the same ops in 64-bit, so every
op computes in the dtype of its inputs.

conv2d never materialises its whole patch matrix: it builds one
cache-sized band of output rows at a time, multiplies it and reuses the
buffer for the next band, and its backward pass rebuilds the bands from
the padded input. A graph therefore holds, per convolution, the padded
input rather than a patch matrix kh*kw times the activation's size.

Every op is a pure function of its inputs and safe to call from
multiple threads; a given Tensor's backward()/grad state must be
driven by one thread at a time.

Inside ``with no_grad():`` ops build no graph: each returns a plain
leaf Tensor holding the values the graph path computes, and keeps
nothing it used. The mode is thread-local; blocks nest, and leaving
one, also by an exception, restores the mode that held before it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


class ShapeMismatchError(ValueError):
    """Raised when operand shapes are incompatible."""


class UnsupportedConfigError(ValueError):
    """Raised for layer configurations outside the supported subset."""


class Tensor:
    """Array node of the computation graph.

    ``data`` is the value buffer, ``grad`` an optional same-shape
    gradient buffer filled by :meth:`backward`. Graph edges are kept in
    ``_parents`` together with a closure that routes the incoming
    gradient to them.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if g.shape != self.data.shape:
            raise ShapeMismatchError(
                f"gradient shape {g.shape} does not match value shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Reverse-mode sweep from this node.

        ``seed`` defaults to ones (the usual scalar-loss case).
        Gradients accumulate into ``grad`` of every reachable tensor
        with ``requires_grad`` set.
        """
        if seed is None:
            seed = np.ones_like(self.data)
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.accumulate_grad(np.asarray(seed, dtype=self.data.dtype))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)


class _GradMode(threading.local):
    enabled = True  # the default each thread starts from


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Run the block's ops on this thread without building a graph."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _grad_mode.enabled and any(p.requires_grad or p._parents for p in parents):
        out.requires_grad = any(p.requires_grad for p in parents)
        out._parents = parents
        out._backward = backward
    return out


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of a (de)convolution layer; pad is symmetric zero padding."""

    kernel_h: int
    kernel_w: int
    stride_h: int = 1
    stride_w: int = 1
    pad: int = 0
    in_channels: int = 1
    out_channels: int = 1
    trainable: bool = True

    def __post_init__(self):
        if self.kernel_h < 1 or self.kernel_w < 1:
            raise ShapeMismatchError("kernel dims must be >= 1")
        if self.stride_h < 1 or self.stride_w < 1:
            raise ShapeMismatchError("strides must be >= 1")
        if self.pad < 0:
            raise ShapeMismatchError("pad must be >= 0")

    def out_size(self, h: int, w: int) -> tuple[int, int]:
        oh = (h + 2 * self.pad - self.kernel_h) // self.stride_h + 1
        ow = (w + 2 * self.pad - self.kernel_w) // self.stride_w + 1
        return oh, ow


def _require_4d(t: Tensor, name: str) -> None:
    if t.data.ndim != 4:
        raise ShapeMismatchError(f"{name} must be 4-D (B,C,H,W), got shape {t.data.shape}")


def _require_channels(t: Tensor, name: str) -> None:
    if t.data.ndim < 2:
        raise ShapeMismatchError(f"{name} needs a channel axis 1, got shape {t.data.shape}")


def _pad_hw(x: np.ndarray, pad: int) -> np.ndarray:
    if pad == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))


# Columns of the patch matrix built at once: a band of whole output rows
# holding about this many (batch, row, column) positions. For 64-channel
# 3x3 layers a float32 band is 576 x 2304 values (5.3 MB).
BAND_COLS = 2304


def _tap(xp: np.ndarray, u: int, v: int, r0: int, nr: int, sh: int, sw: int, ow: int) -> np.ndarray:
    """(B,C,nr,ow) view of the padded input under kernel tap (u, v) for output rows r0..r0+nr."""
    top = u + sh * r0
    return xp[:, :, top : top + sh * (nr - 1) + 1 : sh, v : v + sw * (ow - 1) + 1 : sw]


def _band_cols(buf: np.ndarray, xp: np.ndarray, kh: int, kw: int, sh: int, sw: int,
               r0: int, nr: int, ow: int) -> np.ndarray:
    """Fill ``buf`` with the (C*kh*kw, B*nr*ow) patch matrix of one band of output rows."""
    b, c = xp.shape[:2]
    cols = buf[: c * kh * kw * b * nr * ow].reshape(c, kh, kw, b, nr, ow)
    for u in range(kh):
        for v in range(kw):
            np.copyto(cols[:, u, v], _tap(xp, u, v, r0, nr, sh, sw, ow).transpose(1, 0, 2, 3))
    return cols.reshape(c * kh * kw, b * nr * ow)


def conv2d(x: Tensor, weights: Tensor, bias: Tensor | None, spec: ConvSpec) -> Tensor:
    """2-D cross-correlation with zero padding.

    ``weights`` has shape (out_channels, in_channels, kernel_h, kernel_w);
    output spatial size follows floor((in + 2*pad - kernel)/stride) + 1.
    Differentiable with respect to input, weights and bias.

    One path serves every kernel, stride and padding. The output is
    computed a band of output rows at a time (about ``BAND_COLS``
    positions over the whole batch): the band's (C*kh*kw, B*rows*ow)
    patch matrix is copied out of the padded input tap by tap, multiplied
    by the (O, C*kh*kw) weight matrix in one GEMM, and overwritten by the
    next band. Backward rebuilds each band's patch matrix from the padded
    input for the weight gradient (grad @ patchesᵀ) and scatters
    weightsᵀ @ grad back tap by tap for the input gradient, so the graph
    keeps nothing larger than the padded input.
    """
    _require_4d(x, "input")
    _require_4d(weights, "weights")
    wshape = (spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w)
    if weights.shape != wshape:
        raise ShapeMismatchError(f"weights shape {weights.shape} != expected {wshape}")
    if x.shape[1] != spec.in_channels:
        raise ShapeMismatchError(f"input has {x.shape[1]} channels, spec expects {spec.in_channels}")
    if bias is not None and bias.shape != (spec.out_channels,):
        raise ShapeMismatchError(f"bias shape {bias.shape} != ({spec.out_channels},)")
    b, c, h, w = x.shape
    oh, ow = spec.out_size(h, w)
    if oh < 1 or ow < 1:
        raise ShapeMismatchError(f"kernel {spec.kernel_h}x{spec.kernel_w} exceeds padded input {h}x{w}")

    o, kh, kw, sh, sw = spec.out_channels, spec.kernel_h, spec.kernel_w, spec.stride_h, spec.stride_w
    k = c * kh * kw
    xp = _pad_hw(x.data, spec.pad)
    wmat = weights.data.reshape(o, k)
    dtype = np.result_type(xp, wmat)
    rows = min(oh, max(1, BAND_COLS // (b * ow)))  # whole output rows per band
    out = np.empty((b, o, oh, ow), dtype=dtype)
    cbuf = np.empty(k * b * rows * ow, dtype=xp.dtype)
    obuf = np.empty(o * b * rows * ow, dtype=dtype)
    for r0 in range(0, oh, rows):
        nr = min(rows, oh - r0)
        cols = _band_cols(cbuf, xp, kh, kw, sh, sw, r0, nr, ow)
        res = np.matmul(wmat, cols, out=obuf[: o * b * nr * ow].reshape(o, b * nr * ow))
        res = res.reshape(o, b, nr, ow).transpose(1, 0, 2, 3)
        if bias is None:
            np.copyto(out[:, :, r0 : r0 + nr], res)
        else:
            np.add(res, bias.data[None, :, None, None], out=out[:, :, r0 : r0 + nr])

    def bw(g: np.ndarray):
        need_w = weights.requires_grad or weights._parents
        need_x = x.requires_grad or x._parents
        if bias is not None and (bias.requires_grad or bias._parents):
            bias.accumulate_grad(g.sum(axis=(0, 2, 3)))
        if not (need_w or need_x):
            return
        if need_w:
            dw = np.zeros((o, k), dtype=np.result_type(g, xp))
        if need_x:
            dxp = np.zeros(xp.shape, dtype=np.result_type(wmat, g))
        gbuf = np.empty(o * b * rows * ow, dtype=g.dtype)
        # one buffer per band: the rebuilt patch matrix, then weightsᵀ @ grad
        pbuf = np.empty(k * b * rows * ow, dtype=np.result_type(xp, wmat, g))
        for r0 in range(0, oh, rows):
            nr = min(rows, oh - r0)
            n = b * nr * ow
            gb = gbuf[: o * n].reshape(o, b, nr, ow)
            np.copyto(gb, g[:, :, r0 : r0 + nr].transpose(1, 0, 2, 3))
            gb = gb.reshape(o, n)
            if need_w:
                cols = _band_cols(pbuf, xp, kh, kw, sh, sw, r0, nr, ow)
                dw += gb @ cols.T
            if need_x:
                dcols = np.matmul(wmat.T, gb, out=pbuf[: k * n].reshape(k, n))
                dcols = dcols.reshape(c, kh, kw, b, nr, ow)
                for u in range(kh):
                    for v in range(kw):
                        tap = _tap(dxp, u, v, r0, nr, sh, sw, ow)
                        np.add(tap, dcols[:, u, v].transpose(1, 0, 2, 3), out=tap)
        if need_w:
            weights.accumulate_grad(dw.reshape(weights.shape))
        if need_x:
            p = spec.pad
            x.accumulate_grad(dxp[:, :, p : p + h, p : p + w] if p else dxp)

    parents = (x, weights) if bias is None else (x, weights, bias)
    return _result(out, parents, bw)


def deconv2d(x: Tensor, weights: Tensor, bias: Tensor | None, spec: ConvSpec) -> Tensor:
    """Transposed convolution for the non-overlapping tiling case.

    Requires stride equal to kernel size: each input position paints one
    disjoint kernel-sized block of the output, so the output spatial size
    is exactly input size times stride. ``weights`` has shape
    (in_channels, out_channels, kernel_h, kernel_w).
    """
    _require_4d(x, "input")
    _require_4d(weights, "weights")
    if (spec.stride_h, spec.stride_w) != (spec.kernel_h, spec.kernel_w):
        raise UnsupportedConfigError(
            f"deconv2d supports stride == kernel only, got kernel "
            f"{spec.kernel_h}x{spec.kernel_w} stride {spec.stride_h}x{spec.stride_w}"
        )
    if spec.pad != 0:
        raise UnsupportedConfigError("deconv2d does not support padding")
    wshape = (spec.in_channels, spec.out_channels, spec.kernel_h, spec.kernel_w)
    if weights.shape != wshape:
        raise ShapeMismatchError(f"weights shape {weights.shape} != expected {wshape}")
    if x.shape[1] != spec.in_channels:
        raise ShapeMismatchError(f"input has {x.shape[1]} channels, spec expects {spec.in_channels}")
    if bias is not None and bias.shape != (spec.out_channels,):
        raise ShapeMismatchError(f"bias shape {bias.shape} != ({spec.out_channels},)")

    b, _, h, w = x.shape
    kh, kw = spec.kernel_h, spec.kernel_w
    # out[b,o,i*kh+u,j*kw+v] = sum_c x[b,c,i,j] * W[c,o,u,v]
    blocks = np.tensordot(x.data, weights.data, axes=(1, 0))  # (B,H,W,O,kh,kw)
    out = np.ascontiguousarray(blocks.transpose(0, 3, 1, 4, 2, 5)).reshape(
        b, spec.out_channels, h * kh, w * kw)
    if bias is not None:
        out += bias.data[None, :, None, None]

    def bw(g: np.ndarray):
        g6 = g.reshape(b, spec.out_channels, h, kh, w, kw).transpose(0, 2, 4, 1, 3, 5)
        if weights.requires_grad or weights._parents:
            dw = np.tensordot(x.data, g6, axes=([0, 2, 3], [0, 1, 2]))
            weights.accumulate_grad(dw)
        if bias is not None and (bias.requires_grad or bias._parents):
            bias.accumulate_grad(g.sum(axis=(0, 2, 3)))
        if x.requires_grad or x._parents:
            dx = np.tensordot(g6, weights.data, axes=([3, 4, 5], [1, 2, 3]))
            x.accumulate_grad(dx.transpose(0, 3, 1, 2))

    parents = (x, weights) if bias is None else (x, weights, bias)
    return _result(out, parents, bw)


def linear(x: Tensor, weights: Tensor, bias: Tensor) -> Tensor:
    """Fully connected layer on row vectors: x @ Wᵀ + b.

    ``x`` is (N, in_features), one row per sample. ``weights`` has
    out_features on its first axis and in_features entries in the rest,
    so a (O, C, 1, 1) 1x1-convolution kernel is used as the (O, C)
    matrix it holds. Forward and both gradients are one GEMM each:
    dW = gᵀ @ x, dX = g @ W; ``bias`` is (out_features,).
    """
    if x.data.ndim != 2:
        raise ShapeMismatchError(f"input must be 2-D (N, features), got shape {x.shape}")
    n_in = x.shape[1]
    if weights.data.ndim < 2 or weights.data.size != weights.shape[0] * n_in:
        raise ShapeMismatchError(f"weights shape {weights.shape} is not (out, {n_in}, ...)")
    o = weights.shape[0]
    if bias.shape != (o,):
        raise ShapeMismatchError(f"bias shape {bias.shape} != ({o},)")
    wmat = weights.data.reshape(o, n_in)
    out = x.data @ wmat.T
    out += bias.data

    def bw(g: np.ndarray):
        if bias.requires_grad or bias._parents:
            bias.accumulate_grad(g.sum(axis=0))
        if weights.requires_grad or weights._parents:
            weights.accumulate_grad((g.T @ x.data).reshape(weights.shape))
        if x.requires_grad or x._parents:
            x.accumulate_grad(g @ wmat)

    return _result(out, (x, weights, bias), bw)


def to_rows(x: Tensor) -> Tensor:
    """(B, C, H, W) -> (B*H*W, C): one row per position, rows in (b, h, w) order."""
    _require_4d(x, "input")
    b, c, h, w = x.shape
    out = x.data.transpose(0, 2, 3, 1).reshape(b * h * w, c)

    def bw(g: np.ndarray):
        if x.requires_grad or x._parents:
            x.accumulate_grad(g.reshape(b, h, w, c).transpose(0, 3, 1, 2))

    return _result(out, (x,), bw)


def from_rows(x: Tensor, batch: int, height: int, width: int) -> Tensor:
    """Inverse of :func:`to_rows`: (B*H*W, C) -> (B, C, H, W).

    The result is a channels-last view of the rows, not a copy; ops that
    contract over channels (deconv2d) then read it without a transpose.
    """
    if x.data.ndim != 2 or x.shape[0] != batch * height * width:
        raise ShapeMismatchError(
            f"rows of shape {x.shape} do not hold a {batch}x{height}x{width} grid")
    c = x.shape[1]
    out = x.data.reshape(batch, height, width, c).transpose(0, 3, 1, 2)

    def bw(g: np.ndarray):
        if x.requires_grad or x._parents:
            x.accumulate_grad(g.transpose(0, 2, 3, 1).reshape(-1, c))

    return _result(out, (x,), bw)


def prelu(x: Tensor, slopes: Tensor) -> Tensor:
    """PReLU with one trainable slope per channel; channels are axis 1.

    out = in where in >= 0, else slope[c] * in. Serves (N, C) rows and
    (B, C, H, W) maps alike.
    """
    _require_channels(x, "input")
    if slopes.data.ndim != 1 or slopes.shape[0] != x.shape[1]:
        raise ShapeMismatchError(
            f"slopes shape {slopes.shape} must be ({x.shape[1]},) for {x.shape[1]} channels"
        )
    a = slopes.data.reshape((-1,) + (1,) * (x.data.ndim - 2))
    # a*min(x,0) + max(x,0) equals where(x < 0, a*x, x) elementwise
    out = np.minimum(x.data, 0, dtype=np.result_type(x.data, a))
    out *= a
    out += np.maximum(x.data, 0)

    def bw(g: np.ndarray):
        # one full-size buffer: min(x, 0) for the slope gradient, then the input gradient
        buf = np.minimum(x.data, 0, dtype=np.result_type(x.data, a, g))
        if slopes.requires_grad or slopes._parents:
            n, c = x.shape[:2]
            slopes.accumulate_grad(
                np.einsum("ncl,ncl->c", g.reshape(n, c, -1), buf.reshape(n, c, -1)))
        if x.requires_grad or x._parents:
            # slope map: a where x < 0 (a*1), else 1 (a*0 + 1); exact, no per-element branch
            neg = buf < 0
            np.multiply(neg, a, out=buf)
            buf += ~neg
            buf *= g
            x.accumulate_grad(buf)

    return _result(out, (x, slopes), bw)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the channel axis (axis 1), a's channels first."""
    _require_channels(a, "a")
    _require_channels(b, "b")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ShapeMismatchError(f"batch/spatial dims differ: {a.shape} vs {b.shape}")
    na = a.shape[1]
    out = np.concatenate([a.data, b.data], axis=1)

    def bw(g: np.ndarray):
        if a.requires_grad or a._parents:
            a.accumulate_grad(g[:, :na])
        if b.requires_grad or b._parents:
            b.accumulate_grad(g[:, na:])

    return _result(out, (a, b), bw)


def take_channels(x: Tensor, indices) -> Tensor:
    """Select channels (axis 1) by index; gradient scatters back to the selected channels."""
    _require_channels(x, "input")
    idx = np.asarray(indices, dtype=np.intp)
    out = x.data[:, idx]

    def bw(g: np.ndarray):
        if x.requires_grad or x._parents:
            dx = np.zeros_like(x.data)
            np.add.at(dx, (slice(None), idx), g)
            x.accumulate_grad(dx)

    return _result(out, (x,), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of equal-shape tensors."""
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shapes differ: {a.shape} vs {b.shape}")
    out = a.data + b.data

    def bw(g: np.ndarray):
        if a.requires_grad or a._parents:
            a.accumulate_grad(g)
        if b.requires_grad or b._parents:
            b.accumulate_grad(g)

    return _result(out, (a, b), bw)


def scale(x: Tensor, factor: float) -> Tensor:
    """Multiply by a constant scalar."""
    f = x.data.dtype.type(factor)
    out = x.data * f

    def bw(g: np.ndarray):
        if x.requires_grad or x._parents:
            x.accumulate_grad(g * f)

    return _result(out, (x,), bw)


def add_channel_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Broadcast a per-channel bias vector over batch and spatial dims."""
    _require_4d(x, "input")
    if bias.data.ndim != 1 or bias.shape[0] != x.shape[1]:
        raise ShapeMismatchError(f"bias shape {bias.shape} must be ({x.shape[1]},)")
    out = x.data + bias.data[None, :, None, None]

    def bw(g: np.ndarray):
        if x.requires_grad or x._parents:
            x.accumulate_grad(g)
        if bias.requires_grad or bias._parents:
            bias.accumulate_grad(g.sum(axis=(0, 2, 3)))

    return _result(out, (x, bias), bw)


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean over all elements of the squared difference; shape (1,1,1,1)."""
    if pred.shape != target.shape:
        raise ShapeMismatchError(f"shapes differ: {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    n = diff.size
    out = np.asarray(np.mean(diff * diff), dtype=pred.data.dtype).reshape(1, 1, 1, 1)

    def bw(g: np.ndarray):
        go = g.reshape(()) * 2.0 / n
        if pred.requires_grad or pred._parents:
            pred.accumulate_grad(go * diff)
        if target.requires_grad or target._parents:
            target.accumulate_grad(-go * diff)

    return _result(out, (pred, target), bw)
