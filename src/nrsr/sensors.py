"""Sensor acquisition models and the fixed vectorizing convolution.

Three sensors are simulated on the high-resolution grid, all keeping
the 0..255 value scale:

* quarter: one HR pixel per 2x2 cell is measured (elementwise mask).
* three-quarter: one quadrant per cell is covered; the measurement is
  the mean of the three uncovered HR pixels.
* low-resolution: the measurement is the mean of all four HR pixels.

A sensor is encoded once, as its binary sensitivity map: 1 where an HR
pixel feeds its cell's measurement (``expand_mask`` for the masked
kinds, all ones for low-resolution). The map has period 8, so its 8x8
tile (``sensitivity_tile``) is the whole sensor. A cell's measurement
is the sum of its sensitive pixels in quadrant order divided by their
count (1, 3 or 4), so results match a direct nested-loop gather bit for
bit. ``sample`` is every sensor's simulation from its tile: the quarter
sensor keeps its measured pixels in place on the HR grid, the others
give their (H/2, W/2) measurements.

The vectorizing convolution gathers every 16x16 support block's
measurements into 64 channels (kernel 16x16, stride 8, zero padding 4).
Channel c corresponds to low-resolution cell c of the support block,
cells enumerated row-major over the 8x8 cell grid. It measures the
image once, pads the measurements by 2 cells and copies all windows,
8x8 cells at a step of 4, in one strided copy; the backward pass adds
each window back as four 4x4-cell blocks. The layer
(``vectorize_tensor``) writes the windows as (blocks, 64) rows, one per
target block in (image, block row, block column) order, which is the
layout the LFCR's fully connected layers read. Its dense kernel, which
only a checkpoint stores, is drawn from the tile (``vectorizing_kernel``).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .masks import LOW_RESOLUTION, SENSOR_KINDS, SamplingMask, expand_mask
from .tensor import ShapeMismatchError, Tensor, _result

SUPPORT = 16        # support block edge in HR pixels
TARGET = 8          # target block edge in HR pixels
SUPPORT_CELLS = 8   # support block edge in cells
VEC_CHANNELS = SUPPORT_CELLS * SUPPORT_CELLS
VEC_PAD = 4
PAD_CELLS = VEC_PAD // 2
HALF = SUPPORT_CELLS // 2   # window stride in cells; a window is 2x2 blocks of HALF x HALF cells
HALVES = ((0, 0), (0, 1), (1, 0), (1, 1))   # (row, col) block of the window, in channel order


def sensitivity_tile(mask: SamplingMask | None, kind: str) -> np.ndarray:
    """The (8, 8) uint8 tile of the sensor's period-8 sensitivity map."""
    if kind not in SENSOR_KINDS:
        raise ShapeMismatchError(f"unknown sensor kind '{kind}'")
    if kind == LOW_RESOLUTION:
        return np.ones((TARGET, TARGET), dtype=np.uint8)
    if mask is None:
        raise ShapeMismatchError(f"sensor kind '{kind}' requires a mask")
    if mask.kind != kind:
        raise ShapeMismatchError(f"mask kind '{mask.kind}' does not match sensor '{kind}'")
    return expand_mask(mask, TARGET, TARGET)


def _tap_count(tile: np.ndarray) -> int:
    """Sensitive pixels per cell; every cell must have the same 1, 3 or 4."""
    # a set, not np.unique: np.unique imports numpy.ma, which costs about 3 MB of RSS
    counts = sorted(set(tile.reshape(HALF, 2, HALF, 2).sum(axis=(1, 3)).flat))
    if len(counts) != 1 or counts[0] not in (1, 3, 4):
        raise ShapeMismatchError(f"sensitivity map has {', '.join(map(str, counts))} pixels per "
                                 "cell; expected one of 1, 3 or 4 in every cell")
    return int(counts[0])


def _cells(tile: np.ndarray, h: int, w: int) -> np.ndarray:
    """The sensitivity map over an (h, w) image as a bool (h/2, 2, w/2, 2) cell array."""
    reps = (-(-h // TARGET), -(-w // TARGET))
    return np.tile(tile.astype(bool), reps)[:h, :w].reshape(h // 2, 2, w // 2, 2)


def measure(f: np.ndarray, tile: np.ndarray) -> np.ndarray:
    """Per-cell measurements of (..., H, W) images, shape (..., H/2, W/2).

    Insensitive pixels enter the quadrant-order sum as -0.0, the exact
    additive identity, so each cell equals the sum of its sensitive
    pixels alone.
    """
    h, w = f.shape[-2:]
    cells = np.where(_cells(tile, h, w), f.reshape(*f.shape[:-2], h // 2, 2, w // 2, 2),
                     f.dtype.type(-0.0))
    total = cells[..., 0, :, 0] + cells[..., 0, :, 1] + cells[..., 1, :, 0] + cells[..., 1, :, 1]
    return total / f.dtype.type(_tap_count(tile))


def sample(f: np.ndarray, tile: np.ndarray) -> np.ndarray:
    """The sensor's output for an (H, W) image with even H and W; integers become float32.

    A quarter tile (one sensitive pixel per cell) keeps each measured
    pixel in place and zeros the rest, shape (H, W); any other tile gives
    the cells' measurements, shape (H/2, W/2).
    """
    f = np.asarray(f)
    if f.ndim != 2:
        raise ShapeMismatchError(f"image must be 2-D, got shape {f.shape}")
    if f.shape[0] % 2 or f.shape[1] % 2:
        raise ShapeMismatchError(f"image dims must be multiples of 2, got {f.shape}")
    if f.dtype.kind in "ui":
        f = f.astype(np.float32)
    if _tap_count(tile) == 1:
        return f * _cells(tile, *f.shape).reshape(f.shape)
    return measure(f, tile)


def vectorizing_kernel(tile: np.ndarray) -> np.ndarray:
    """The tile's sensor as a dense (64, 1, 16, 16) convolution kernel.

    Channel 8r+s weighs the sensitive pixels of window cell (r, s)
    equally: 1, 1/3 or 1/4.
    """
    # the window starts 4 HR pixels before its target block, i.e. at tile offset 4
    window = np.tile(np.roll(tile.astype(bool), VEC_PAD, axis=(0, 1)), (2, 2))
    in_cell = np.arange(SUPPORT) // 2 == np.arange(SUPPORT_CELLS)[:, None]   # (cell, pixel)
    support = in_cell[:, None, :, None] & in_cell[None, :, None, :] & window
    return (support / _tap_count(tile)).astype(np.float32).reshape(VEC_CHANNELS, 1, SUPPORT, SUPPORT)


def _windows(m: np.ndarray) -> np.ndarray:
    """(B, H/2, W/2) measurements -> (B*H/8*W/8, 64) rows of zero-padded 8x8-cell windows.

    Windows step 4 cells; row b*(H/8)*(W/8) + i*(W/8) + j is the window
    over target block (i, j) of image b.
    """
    p = PAD_CELLS
    padded = np.pad(m, ((0, 0), (p, p), (p, p)))
    windows = sliding_window_view(padded, (SUPPORT_CELLS, SUPPORT_CELLS), axis=(1, 2))
    return windows[:, ::HALF, ::HALF].reshape(-1, VEC_CHANNELS)


def vectorize_tensor(x: Tensor, tile: np.ndarray) -> Tensor:
    """Differentiable batched vectorizing layer: (B,1,H,W) -> (B*H/8*W/8, 64) rows.

    Row b*(H/8)*(W/8) + i*(W/8) + j holds the 64 measurements of the
    support block over target block (i, j) of image b.
    """
    if x.data.ndim != 4 or x.shape[1] != 1:
        raise ShapeMismatchError(f"input must be (B,1,H,W), got {x.shape}")
    b, _, h, w = x.shape
    if h % TARGET or w % TARGET:
        raise ShapeMismatchError(f"input dims must be multiples of 8, got {h}x{w}")
    oh, ow = h // TARGET, w // TARGET
    out = _windows(measure(x.data[:, 0], tile))

    def bw(g: np.ndarray):
        dtype = x.data.dtype
        gk = (g / dtype.type(_tap_count(tile))).reshape(b, oh, ow, 2, HALF, 2, HALF)
        dblocks = np.zeros((b, oh + 1, HALF, ow + 1, HALF), dtype=dtype)
        for a, c in HALVES:
            dblocks[:, a : a + oh, :, c : c + ow] += gk[:, :, :, a, :, c].transpose(0, 1, 3, 2, 4)
        p = PAD_CELLS
        dm = dblocks.reshape(b, HALF * (oh + 1), HALF * (ow + 1))[:, p:-p, p:-p]
        dx = np.where(_cells(tile, h, w), dm[:, :, None, :, None], dtype.type(0))
        x.accumulate_grad(dx.reshape(b, 1, h, w))

    return _result(out, (x,), bw)


def central_channel_indices() -> list[int]:
    """Channels of the 16 cells inside the target block (rows/cols 2..5), ascending."""
    return [r * SUPPORT_CELLS + c for r in range(2, 6) for c in range(2, 6)]
