"""Dense-array compute core with reverse-mode differentiation.

Only the operations the reconstruction networks need are provided:
conv2d (stride 1, same padding), deconv2d (rows to stride = kernel
blocks), a fully connected layer on rows, PReLU, channel concatenation,
elementwise add, scalar scaling, bias broadcast and MSE loss. Values are
32-bit floats in one of two layouts, with the channel axis at axis 1 in
both. The LFCR runs on (blocks, channels) row matrices, one row per
target block, from the vectorizing layer up to deconv2d, which paints
each row's block into a (batch, channels, height, width) map; the VDSR
runs on such maps throughout. No op converts between the two layouts.
Gradient checking runs the same ops in 64-bit, so every op computes in
the dtype of its inputs.

conv2d is exactly the VDSR layer: the PReLU of its input (slope 1 if no
slopes are given) convolved by a square odd kernel, stride 1, same zero
padding, the one geometry ConvSpec can state. It takes one band of
whole rows of one sample at a time and writes its PReLU, halo included,
into a small zero-bordered buffer in which every kernel tap is a column
slice, so a band's output is one GEMM per tap, summed. Its backward
pass rebuilds the bands from the input, so a graph holds, per
convolution, only the input it already shares with the op that produced
it: one activation per layer. prelu and conv2d share PReLU's two
kernels, _prelu_into and _slope_map.

Every op's backward hands each input its gradient, in an array of its
own; Tensor.accumulate_grad alone decides whether the input keeps it.
Tensor.backward consumes the graph it sweeps: each interior node drops
its gradient and its links to its inputs once its own backward has run,
so a training step's activations and interior gradients are freed layer
by layer during the sweep. Gradients persist on leaves only.

Every op is a pure function of its inputs and safe to call from
multiple threads, except that conv2d(..., overwrite=True) writes its
output over its input's buffer, which the VDSR's 64->64 layers do off
the graph to hold one activation at a time. A given Tensor's
backward()/grad state must be driven by one thread at a time.

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
    gradient buffer that :meth:`backward` fills on leaves. Graph edges
    are kept in ``_parents`` together with a closure that routes the
    incoming gradient to them, until a backward() sweep consumes them.
    A backward closure hands every input its gradient, each in an array
    of its own; :meth:`accumulate_grad` keeps it only if the input has
    ``requires_grad`` set.
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
        """Add ``g`` into ``grad``, or drop it if this tensor has no ``requires_grad``.

        The first gradient is taken over as it is, and cast only if its
        dtype differs, so ``g`` must be the caller's to give away: two
        tensors must never share a ``grad`` buffer, since each
        accumulates into its own.
        """
        if g.shape != self.data.shape:
            raise ShapeMismatchError(
                f"gradient shape {g.shape} does not match value shape {self.data.shape}"
            )
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = g if g.dtype == self.data.dtype else g.astype(self.data.dtype)
        else:
            self.grad += g

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Reverse-mode sweep from this node; consumes the graph.

        ``seed`` defaults to ones (the usual scalar-loss case); a given
        seed is copied. Gradients accumulate into ``grad`` of every
        reachable leaf with ``requires_grad`` set, and persist there only.
        Every interior node has it set, so it holds its gradient when its
        own backward runs, and is released right after: its ``grad`` and
        ``_parents`` are cleared, so activations and interior gradients
        are freed layer by layer during the sweep. A second backward()
        through a consumed node raises RuntimeError.
        """
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
        self.accumulate_grad(np.ones_like(self.data) if seed is None
                             else np.array(seed, dtype=self.data.dtype))
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue  # a leaf keeps its gradient
            node._backward(node.grad)
            node.grad, node._parents, node._backward = None, (), _consumed


def _consumed(g: np.ndarray) -> None:
    raise RuntimeError("backward() reached a graph that an earlier backward() consumed; "
                       "run the forward pass again")


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


def records_graph(*inputs: Tensor) -> bool:
    """Whether an op on ``inputs`` run now links its output to them for backward()."""
    return _grad_mode.enabled and any(t.requires_grad for t in inputs)


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if records_graph(*parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


@dataclass(frozen=True)
class ConvSpec:
    """conv2d's geometry: a square odd kernel, stride 1 and (k-1)//2 zeros of padding.

    Any other kernel raises UnsupportedConfigError when the spec is built.
    """

    kernel_h: int
    kernel_w: int
    in_channels: int = 1
    out_channels: int = 1

    def __post_init__(self):
        k = self.kernel_h
        if k < 1 or k % 2 == 0 or self.kernel_w != k:
            raise UnsupportedConfigError(
                f"conv2d supports a square odd kernel only, got {k}x{self.kernel_w}")

    @property
    def pad(self) -> int:
        return (self.kernel_h - 1) // 2

    def out_size(self, h: int, w: int) -> tuple[int, int]:
        return h, w


def _require_4d(t: Tensor, name: str) -> None:
    if t.data.ndim != 4:
        raise ShapeMismatchError(f"{name} must be 4-D (B,C,H,W), got shape {t.data.shape}")


def _require_channels(t: Tensor, name: str) -> None:
    if t.data.ndim < 2:
        raise ShapeMismatchError(f"{name} needs a channel axis 1, got shape {t.data.shape}")


def _prelu_into(x: np.ndarray, a: np.ndarray, out: np.ndarray, pos=None) -> np.ndarray:
    """PReLU of ``x`` into ``out``: a*min(x, 0) + max(x, 0), which is where(x < 0, a*x, x).

    ``pos``, if given, holds max(x, 0), so no temporary is allocated.
    """
    np.minimum(x, 0, out=out)
    out *= a
    out += np.maximum(x, 0, out=pos)
    return out


def _slope_map(x: np.ndarray, a: np.ndarray, out: np.ndarray, neg=None) -> np.ndarray:
    """PReLU's derivative by ``x`` into ``out``: a where x < 0 (a*1), else 1 (a*0 + 1).

    The boolean ``neg`` (a temporary if not given) is inverted in place
    rather than using a masked multiply (where=), which runs several times slower.
    """
    neg = np.less(x, 0, out=neg)
    np.multiply(neg, a, out=out)
    out += np.logical_not(neg, out=neg)
    return out


# Padded positions per band: a band is as many whole rows of one sample as
# hold this many, at least one. 48-wide 64-channel rows: 48 rows, 0.65 MB.
BAND_PIXELS = 4096


def _bands(a: np.ndarray, rows: int, p: int, dtype, fill=np.copyto):
    """Yield (n, r0, nr, band) for each band of ``rows`` rows of each sample of ``a``.

    ``band`` is a (C, L) view of one reused buffer: padded row i (input
    row r0 - p + i) at columns i*(W+2p) onward, the image from offset p
    and zeros around it, then at least 2p zero guard columns.
    ``fill(dst, src)`` writes the band's input rows ``src``, its halo
    included, into their place ``dst`` in the buffer; by default a copy.
    """
    b, c, h, w = a.shape
    wp = w + 2 * p
    buf = np.zeros((c, rows + 2 * p + 1, wp), dtype=dtype)  # pad columns are never written
    flat = buf.reshape(c, -1)
    for n in range(b):
        for r0 in range(0, h, rows):
            nr = min(rows, h - r0)
            lo, hi = r0 - p, r0 + nr + p  # input rows of the band, halo included
            s0, s1 = max(lo, 0), min(hi, h)
            buf[:, : s0 - lo] = 0
            fill(buf[:, s0 - lo : s1 - lo, p : p + w], a[n, :, s0:s1])
            buf[:, s1 - lo : nr + 2 * p + 1] = 0  # halo below the image and the guard row
            yield n, r0, nr, flat[:, : (nr + 2 * p) * wp + 2 * p]


def _tap_sum(taps: np.ndarray, band: np.ndarray, m: int, offsets: list[int],
             acc: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """sum_t taps[t] @ band[:, off_t : off_t + m], computed in ``acc``."""
    _, o, c = taps.shape
    y, t = acc[: o * m].reshape(o, m), tmp[: o * m].reshape(o, m)
    product = np.multiply if c == 1 else np.matmul  # a one-channel GEMM is an outer product
    product(taps[0], band[:, :m], out=y)
    for tap, off in zip(taps[1:], offsets[1:]):
        y += product(tap, band[:, off : off + m], out=t)
    return y


def conv2d(x: Tensor, weights: Tensor, bias: Tensor | None, spec: ConvSpec, *,
           slopes: Tensor | None = None, overwrite: bool = False) -> Tensor:
    """Stride-1, same-padded 2-D cross-correlation of ``prelu(x, slopes)``.

    ``weights`` is (out_channels, in_channels, k, k) for the spec's kernel
    k, so the output is as large as the input. Without ``slopes``
    (in_channels,) every slope is 1 and the op convolves ``x`` itself;
    without ``bias`` it is zero. Differentiable with respect to all four.

    Each band of whole rows of one sample (about ``BAND_PIXELS``
    positions) is PReLU'd, with its halo, into a zero-bordered buffer of
    W+2p wide rows, where tap (u, v) is the column slice at offset
    u*(W+2p) + v: the band's output is sum_t W_t @ slice_t, with each
    row's 2p padding columns cropped away. The same routine on the output
    gradient g, with the kernel flipped and transposed, gives the band's
    gradient dz of the PReLU'd input; dW_t += g_band @ slice_tᵀ, where
    g_band is zero in the padding columns. Backward rebuilds each PReLU'd
    band as x times its slope map, which also turns dz into dx; the slope
    gradient sums dz * min(x, 0). The graph keeps only the input itself.
    Backward runs one path: it computes all four gradients and hands each
    to its input, which keeps it only if it requires one.

    ``overwrite=True`` writes the output over ``x.data``. That needs a
    call that builds no graph, since backward reads ``x``, and an output
    of the input's shape and dtype; otherwise it raises ValueError. Each
    band's result is written one band late, after the next band has read
    its halo of p rows above it, and a band holds at least p rows (k = 3:
    p = 1), so no band reads a row already overwritten.
    """
    _require_4d(x, "input")
    k, p, o, c = spec.kernel_h, spec.pad, spec.out_channels, spec.in_channels
    if weights.shape != (o, c, k, k):
        raise ShapeMismatchError(f"weights shape {weights.shape} != expected {(o, c, k, k)}")
    if x.shape[1] != c:
        raise ShapeMismatchError(f"input has {x.shape[1]} channels, spec expects {c}")
    if bias is None:
        bias = Tensor(np.zeros(o, dtype=x.dtype))
    if slopes is None:
        slopes = Tensor(np.ones(c, dtype=x.dtype))  # slope 1: the PReLU is the identity
    if bias.shape != (o,):
        raise ShapeMismatchError(f"bias shape {bias.shape} != ({o},)")
    if slopes.shape != (c,):
        raise ShapeMismatchError(f"slopes shape {slopes.shape} != ({c},)")
    b, _, h, w = x.shape
    if h < 1 or w < 1:
        raise ShapeMismatchError(f"input has no positions, shape {x.shape}")

    wp, xd = w + 2 * p, x.data
    a = slopes.data[:, None, None]
    rows = min(h, max(1, p, BAND_PIXELS // wp))  # whole rows per band, at least p
    halo_rows = min(h, rows + 2 * p)  # input rows a band reads
    offsets = [u * wp + v for u in range(k) for v in range(k)]  # of tap (u, v), at u*k + v
    taps = weights.data.transpose(2, 3, 0, 1).reshape(k * k, o, c)
    dtype = np.result_type(xd, taps, a)
    if overwrite and (records_graph(x, weights, bias, slopes) or o != c or dtype != xd.dtype):
        raise ValueError("overwrite=True needs a call that builds no graph and an output of the "
                         f"input's shape and dtype, got {o} {np.dtype(dtype)} over {c} {xd.dtype}")
    out = xd if overwrite else np.empty((b, o, h, w), dtype=dtype)
    scratch = np.empty((2, c, halo_rows, w), dtype=dtype)

    def fill(dst, src):  # the band's PReLU, then one copy into the strided buffer
        z, pos = scratch[:, :, : src.shape[1]]
        np.copyto(dst, _prelu_into(src, a, z, pos))

    def write(n, r0, nr, y):
        np.add(y, bias.data[:, None, None], out=out[n, :, r0 : r0 + nr])

    # a band's result waits in its accumulator until the next band's fill has read
    # its halo, so ``out`` may be the input itself; two accumulators take turns
    *accs, tmp = np.empty((3, o * rows * wp), dtype=dtype)
    waiting = ()
    for i, (n, r0, nr, band) in enumerate(_bands(xd, rows, p, dtype, fill)):
        if waiting:
            write(*waiting)
        y = _tap_sum(taps, band, nr * wp, offsets, accs[i % 2], tmp)
        waiting = (n, r0, nr, y.reshape(o, nr, wp)[:, :, :w])
    if waiting:
        write(*waiting)

    def bw(g: np.ndarray):
        bias.accumulate_grad(g.sum(axis=(0, 2, 3)))
        gtype = np.result_type(g, weights.data, xd, a)
        smap = np.empty((c, halo_rows, w), dtype=gtype)
        neg = np.empty(smap.shape, dtype=bool)

        def rebuild(dst, src):  # the band's slope map; x * map is the PReLU'd band
            s = _slope_map(src, a, smap[:, : src.shape[1]], neg[:, : src.shape[1]])
            np.multiply(src, s, out=dst)

        xbands = _bands(xd, rows, p, gtype, rebuild)
        dw = np.zeros((k * k, o, c), dtype=gtype)
        flipped = weights.data.transpose(2, 3, 1, 0).reshape(k * k, c, o)[::-1]
        xacc, xtmp = np.empty((2, c * rows * wp), dtype=gtype)
        dx = np.empty(xd.shape, dtype=gtype)  # dz band by band, then dz * slope map
        da = np.zeros(c, dtype=gtype)
        mins = np.empty((c, rows, w), dtype=gtype)
        centre = offsets[k * k // 2]  # the centre tap's slice is the unpadded band
        for n, r0, nr, gband in _bands(g, rows, p, gtype):
            m = nr * wp
            xband = next(xbands)[3]
            dz = dx[n, :, r0 : r0 + nr]
            np.copyto(dz, _tap_sum(flipped, gband, m, offsets, xacc, xtmp)
                      .reshape(c, nr, wp)[:, :, :w])
            mn = np.minimum(xd[n, :, r0 : r0 + nr], 0, out=mins[:, :nr])
            da += np.einsum("chw,chw->c", dz, mn)
            dz *= smap[:, min(r0, p) : min(r0, p) + nr]  # the band's rows of the map
            gc = gband[:, centre : centre + m]
            for i, off in enumerate(offsets):
                dw[i] += gc @ xband[:, off : off + m].T
        weights.accumulate_grad(np.ascontiguousarray(dw.reshape(k, k, o, c).transpose(2, 3, 0, 1)))
        x.accumulate_grad(dx)
        slopes.accumulate_grad(da)

    return _result(out, (x, weights, bias, slopes), bw)


def deconv2d(x: Tensor, weights: Tensor, batch: int, height: int, width: int) -> Tensor:
    """Paint one kernel-sized output block per input row: stride = kernel, no overlap.

    ``x`` holds (batch*height*width, C) rows in (b, i, j) order, one per
    block of a ``height`` x ``width`` grid, and ``weights`` is (C, O, kh, kw).
    Row (b, i, j) paints block (i, j) of sample b with row @ W, so the
    output is (batch, O, height*kh, width*kw). Forward is one GEMM with W
    as a (C, O*kh*kw) matrix plus one block-to-image transpose; backward
    is dW = xᵀ @ g_blocks and dX = g_blocks @ Wᵀ.
    """
    _require_4d(weights, "weights")
    if x.data.ndim != 2 or x.shape[0] != batch * height * width:
        raise ShapeMismatchError(
            f"rows of shape {x.shape} do not hold a {batch}x{height}x{width} grid")
    c, o, kh, kw = weights.shape
    if x.shape[1] != c:
        raise ShapeMismatchError(f"input has {x.shape[1]} channels, weights expect {c}")
    wmat = weights.data.reshape(c, o * kh * kw)
    blocks = (x.data @ wmat).reshape(batch, height, width, o, kh, kw)
    out = np.ascontiguousarray(blocks.transpose(0, 3, 1, 4, 2, 5)).reshape(
        batch, o, height * kh, width * kw)

    def bw(g: np.ndarray):
        g_blocks = g.reshape(batch, o, height, kh, width, kw).transpose(0, 2, 4, 1, 3, 5).reshape(
            -1, o * kh * kw)
        weights.accumulate_grad((x.data.T @ g_blocks).reshape(weights.shape))
        x.accumulate_grad(g_blocks @ wmat.T)

    return _result(out, (x, weights), bw)


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
        bias.accumulate_grad(g.sum(axis=0))
        weights.accumulate_grad((g.T @ x.data).reshape(weights.shape))
        x.accumulate_grad(g @ wmat)

    return _result(out, (x, weights, bias), bw)


def prelu(x: Tensor, slopes: Tensor) -> Tensor:
    """PReLU with one trainable slope per channel; channels are axis 1.

    out = in where in >= 0, else slope[c] * in. Serves (N, C) rows and
    (B, C, H, W) maps alike. Forward and backward run the same
    _prelu_into and _slope_map kernels conv2d runs band by band.
    """
    _require_channels(x, "input")
    if slopes.data.ndim != 1 or slopes.shape[0] != x.shape[1]:
        raise ShapeMismatchError(
            f"slopes shape {slopes.shape} must be ({x.shape[1]},) for {x.shape[1]} channels"
        )
    a = slopes.data.reshape((-1,) + (1,) * (x.data.ndim - 2))
    out = _prelu_into(x.data, a, np.empty(x.shape, dtype=np.result_type(x.data, a)))

    def bw(g: np.ndarray):
        # one full-size buffer: min(x, 0) for the slope gradient, then the input gradient
        buf = np.minimum(x.data, 0, dtype=np.result_type(x.data, a, g))
        n, c = x.shape[:2]
        slopes.accumulate_grad(np.einsum("ncl,ncl->c", g.reshape(n, c, -1), buf.reshape(n, c, -1)))
        buf = _slope_map(x.data, a, buf)
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
        a.accumulate_grad(g[:, :na].copy())
        b.accumulate_grad(g[:, na:].copy())

    return _result(out, (a, b), bw)


def take_channels(x: Tensor, indices) -> Tensor:
    """Select channels (axis 1) by index; gradient scatters back to the selected channels."""
    _require_channels(x, "input")
    idx = np.asarray(indices, dtype=np.intp)
    out = x.data[:, idx]

    def bw(g: np.ndarray):
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
        a.accumulate_grad(g.copy())  # one array per input
        b.accumulate_grad(g)

    return _result(out, (a, b), bw)


def scale(x: Tensor, factor: float) -> Tensor:
    """Multiply by a constant scalar."""
    f = x.data.dtype.type(factor)
    out = x.data * f

    def bw(g: np.ndarray):
        x.accumulate_grad(g * f)

    return _result(out, (x,), bw)


def add_channel_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Broadcast a per-channel bias vector over batch and spatial dims."""
    _require_4d(x, "input")
    if bias.data.ndim != 1 or bias.shape[0] != x.shape[1]:
        raise ShapeMismatchError(f"bias shape {bias.shape} must be ({x.shape[1]},)")
    out = x.data + bias.data[None, :, None, None]

    def bw(g: np.ndarray):
        x.accumulate_grad(g)
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
        pred.accumulate_grad(go * diff)
        target.accumulate_grad(-go * diff)

    return _result(out, (pred, target), bw)
