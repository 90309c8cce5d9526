"""Sensor acquisition models and the fixed vectorizing convolution.

Three sensors are simulated on the high-resolution grid, all keeping
the 0..255 value scale:

* quarter: one HR pixel per 2x2 cell is measured (elementwise mask).
* three-quarter: one quadrant per cell is covered; the measurement is
  the mean of the three uncovered HR pixels.
* low-resolution: the measurement is the mean of all four HR pixels.

The vectorizing convolution gathers every 16x16 support block's
measurements into 64 channels (kernel 16x16, stride 8, zero padding 4).
Channel c corresponds to low-resolution cell c of the support block,
cells enumerated row-major over the 8x8 cell grid. Averages are
computed as tap-sum divided by tap count, in row-major tap order, so
results match a direct nested-loop gather bit for bit.
The layer is a function of the sensor kind and mask: ``vectorize_plan``
derives its tap table and the dense kernel is drawn from that table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .masks import (LOW_RESOLUTION, MASKED_KINDS, QUARTER, SENSOR_KINDS, THREE_QUARTER,
                    SamplingMask, expand_mask)
from .tensor import ConvSpec, ShapeMismatchError, Tensor, _result

SUPPORT = 16        # support block edge in HR pixels
TARGET = 8          # target block edge in HR pixels
SUPPORT_CELLS = 8   # support block edge in cells
VEC_CHANNELS = SUPPORT_CELLS * SUPPORT_CELLS
VEC_PAD = 4

TapTable = tuple[tuple[tuple[int, int], ...], ...]  # [channel][tap] -> (u, v) in the window

VEC_SPEC = ConvSpec(kernel_h=SUPPORT, kernel_w=SUPPORT, stride_h=TARGET, stride_w=TARGET,
                    pad=VEC_PAD, in_channels=1, out_channels=VEC_CHANNELS)


@dataclass(frozen=True)
class MeasurementGrid:
    """One value per low-resolution sensor pixel (dims = HR dims / 2)."""

    values: np.ndarray
    kind: str
    mask: SamplingMask | None = None


def _check_even(f: np.ndarray) -> None:
    if f.ndim != 2:
        raise ShapeMismatchError(f"image must be 2-D, got shape {f.shape}")
    if f.shape[0] % 2 or f.shape[1] % 2:
        raise ShapeMismatchError(f"image dims must be multiples of 2, got {f.shape}")


def _as_float(f: np.ndarray) -> np.ndarray:
    f = np.asarray(f)
    if f.dtype.kind in "ui":
        return f.astype(np.float32)
    return f


def _quadrant_planes(f: np.ndarray) -> list[np.ndarray]:
    """The four HR quadrant planes of each 2x2 cell, in quadrant order."""
    return [f[q // 2 :: 2, q % 2 :: 2] for q in range(4)]


def sample_quarter(f: np.ndarray, mask: SamplingMask) -> np.ndarray:
    """Elementwise product with the expanded binary mask (zeros where unmeasured)."""
    f = _as_float(f)
    _check_even(f)
    if mask.kind != QUARTER:
        raise ShapeMismatchError(f"sample_quarter needs a quarter mask, got '{mask.kind}'")
    b = expand_mask(mask, f.shape[0], f.shape[1])
    return f * b.astype(f.dtype)


def sample_three_quarter(f: np.ndarray, mask: SamplingMask) -> MeasurementGrid:
    """Mean of the three uncovered HR pixels of every 2x2 cell."""
    f = _as_float(f)
    _check_even(f)
    if mask.kind != THREE_QUARTER:
        raise ShapeMismatchError(f"sample_three_quarter needs a three-quarter mask, got '{mask.kind}'")
    quad = mask.cell_quadrants(f.shape[0] // 2, f.shape[1] // 2)
    acc = np.zeros((f.shape[0] // 2, f.shape[1] // 2), dtype=f.dtype)
    for q, plane in enumerate(_quadrant_planes(f)):
        acc = acc + np.where(quad == q, f.dtype.type(0), plane)
    return MeasurementGrid(values=acc / f.dtype.type(3), kind=mask.kind, mask=mask)


def sample_low_resolution(f: np.ndarray) -> MeasurementGrid:
    """Mean of each 2x2 HR cell (conventional sensor)."""
    f = _as_float(f)
    _check_even(f)
    planes = _quadrant_planes(f)
    acc = planes[0] + planes[1]
    for p in planes[2:]:
        acc = acc + p
    return MeasurementGrid(values=acc / f.dtype.type(4), kind=LOW_RESOLUTION, mask=None)


def _window_quadrant(mask: SamplingMask | None, r: int, c: int) -> int | None:
    """Mask quadrant digit governing support-window cell (r, c).

    The window at output position (i, j) starts at HR (8i-4, 8j-4), i.e.
    at cell (4i-2+r, 4j-2+c); the 4-cell pattern periodicity makes the
    pattern lookup independent of (i, j).
    """
    if mask is None:
        return None
    return int(mask.pattern[(r + 2) % SUPPORT_CELLS, (c + 2) % SUPPORT_CELLS])


def _cell_taps(kind: str, quadrant: int | None) -> list[tuple[int, int]]:
    """In-cell tap offsets (dy, dx), row-major."""
    if kind == QUARTER:
        return [divmod(quadrant, 2)]
    if kind == LOW_RESOLUTION:
        return [divmod(q, 2) for q in range(4)]
    return [divmod(q, 2) for q in range(4) if q != quadrant]


def vectorize_plan(mask: SamplingMask | None, kind: str) -> TapTable:
    """Per-channel tap offsets (u, v) within the 16x16 window, row-major.

    Channel c = 8*r + q reads only inside cell (r, q) of the support
    window: the measured quadrant (quarter), the three uncovered
    quadrants (three-quarter) or all four quadrants (low-resolution).
    """
    if kind not in SENSOR_KINDS:
        raise ShapeMismatchError(f"unknown sensor kind '{kind}'")
    if kind in MASKED_KINDS:
        if mask is None:
            raise ShapeMismatchError(f"sensor kind '{kind}' requires a mask")
        if mask.kind != kind:
            raise ShapeMismatchError(f"mask kind '{mask.kind}' does not match sensor '{kind}'")
    return tuple(
        tuple((2 * r + dy, 2 * c + dx) for dy, dx in _cell_taps(kind, _window_quadrant(mask, r, c)))
        for r in range(SUPPORT_CELLS) for c in range(SUPPORT_CELLS))


def build_vectorizing_kernel(mask: SamplingMask | None, kind: str) -> tuple[np.ndarray, ConvSpec]:
    """Fixed (64, 1, 16, 16) weights mimicking the sensor, plus their ConvSpec.

    Each channel weighs its taps from ``vectorize_plan`` equally: 1, 1/3
    or 1/4.
    """
    w = np.zeros((VEC_CHANNELS, 1, SUPPORT, SUPPORT), dtype=np.float32)
    for ch, taps in enumerate(vectorize_plan(mask, kind)):
        for u, v in taps:
            w[ch, 0, u, v] = 1.0 / len(taps)
    return w, VEC_SPEC


def _kernel_taps(kernel: np.ndarray) -> TapTable:
    """Tap table of a dense vectorizing kernel; rejects any other kernel."""
    if kernel.shape != (VEC_CHANNELS, 1, SUPPORT, SUPPORT):
        raise ShapeMismatchError(f"kernel shape {kernel.shape} != (64, 1, 16, 16)")
    taps = []
    for ch in range(VEC_CHANNELS):
        pos = np.argwhere(kernel[ch, 0] != 0)
        n = len(pos)
        if n not in (1, 3, 4):
            raise ShapeMismatchError(f"channel {ch} has {n} taps; expected 1, 3 or 4")
        if not np.allclose(kernel[ch, 0][tuple(pos.T)], 1.0 / n):
            raise ShapeMismatchError(f"channel {ch} weights are not 1/{n}")
        taps.append(tuple((int(u), int(v)) for u, v in pos))
    return tuple(taps)


def _gather(xp: np.ndarray, plan: TapTable, oh: int, ow: int) -> np.ndarray:
    """Sum taps per channel over the padded batch and divide by tap count."""
    b = xp.shape[0]
    out = np.empty((b, VEC_CHANNELS, oh, ow), dtype=xp.dtype)
    for ch, taps in enumerate(plan):
        u, v = taps[0]
        acc = xp[:, 0, u : u + TARGET * oh : TARGET, v : v + TARGET * ow : TARGET].copy()
        for u, v in taps[1:]:
            acc += xp[:, 0, u : u + TARGET * oh : TARGET, v : v + TARGET * ow : TARGET]
        out[:, ch] = acc / xp.dtype.type(len(taps))
    return out


def vectorize(f: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Support-block measurements of one image, shape (64, H/8, W/8).

    Padding 4 and stride 8 put each output position over the 16x16
    support block centred on its 8x8 target block. The arithmetic is
    gather-sum-divide, exactly equivalent to convolving with ``kernel``.
    """
    f = _as_float(f)
    if f.ndim != 2:
        raise ShapeMismatchError(f"image must be 2-D, got {f.shape}")
    h, w = f.shape
    if h % TARGET or w % TARGET:
        raise ShapeMismatchError(f"image dims must be multiples of 8, got {f.shape}")
    plan = _kernel_taps(kernel)
    xp = np.pad(f[None, None], ((0, 0), (0, 0), (VEC_PAD, VEC_PAD), (VEC_PAD, VEC_PAD)))
    return _gather(xp, plan, h // TARGET, w // TARGET)[0]


def vectorize_tensor(x: Tensor, plan: TapTable) -> Tensor:
    """Differentiable batched vectorizing layer: (B,1,H,W) -> (B,64,H/8,W/8)."""
    if x.data.ndim != 4 or x.shape[1] != 1:
        raise ShapeMismatchError(f"input must be (B,1,H,W), got {x.shape}")
    b, _, h, w = x.shape
    if h % TARGET or w % TARGET:
        raise ShapeMismatchError(f"input dims must be multiples of 8, got {h}x{w}")
    oh, ow = h // TARGET, w // TARGET
    xp = np.pad(x.data, ((0, 0), (0, 0), (VEC_PAD, VEC_PAD), (VEC_PAD, VEC_PAD)))
    out = _gather(xp, plan, oh, ow)

    def bw(g: np.ndarray):
        if not x.requires_grad:
            return
        dxp = np.zeros_like(xp)
        for ch, taps in enumerate(plan):
            gc = g[:, ch] / xp.dtype.type(len(taps))
            for u, v in taps:
                dxp[:, 0, u : u + TARGET * oh : TARGET, v : v + TARGET * ow : TARGET] += gc
        x.accumulate_grad(dxp[:, :, VEC_PAD : VEC_PAD + h, VEC_PAD : VEC_PAD + w])

    return _result(out, (x,), bw)


def central_channel_indices() -> list[int]:
    """Channels of the 16 cells inside the target block (rows/cols 2..5), ascending."""
    return [r * SUPPORT_CELLS + c for r in range(2, 6) for c in range(2, 6)]
