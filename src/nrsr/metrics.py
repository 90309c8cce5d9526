"""Image-quality metrics and the bicubic upscaling baseline.

All metrics interpret values on the 0..255 scale with peak 255; images
are compared as floats without re-quantization.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import ShapeMismatchError

PEAK = 255.0

UPSCALE = 2  # the low-resolution sensor's factor, the only one bicubic_upscale serves

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def to_grayscale(rgb: np.ndarray) -> np.ndarray:
    """BT.601 luma of an 8-bit RGB image, kept as float on the 0..255 scale."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ShapeMismatchError(f"expected (H,W,3) RGB, got {rgb.shape}")
    r, g, b = (rgb[:, :, i].astype(np.float64) for i in range(3))
    return 0.299 * r + 0.587 * g + 0.114 * b


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """10 log10(255^2 / MSE) in dB; identical images give math.inf."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shapes differ: {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(PEAK * PEAK / mse)


def _gaussian_window(size: int, sigma: float) -> np.ndarray:
    x = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return g / g.sum()


def _filter_valid(img: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Separable valid-mode correlation with the 1-D window g along both axes."""
    k = g.size
    rows = np.lib.stride_tricks.sliding_window_view(img, k, axis=0)
    out = rows @ g  # (H-k+1, W)
    cols = np.lib.stride_tricks.sliding_window_view(out, k, axis=1)
    return cols @ g


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean structural similarity with an 11x11 Gaussian window, sigma 1.5, L=255."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shapes differ: {a.shape} vs {b.shape}")
    if a.shape[0] < SSIM_WINDOW or a.shape[1] < SSIM_WINDOW:
        raise ShapeMismatchError(
            f"images must be at least {SSIM_WINDOW}x{SSIM_WINDOW}, got {a.shape}")
    g = _gaussian_window(SSIM_WINDOW, SSIM_SIGMA)
    c1 = (SSIM_K1 * PEAK) ** 2
    c2 = (SSIM_K2 * PEAK) ** 2
    mu_a = _filter_valid(a, g)
    mu_b = _filter_valid(b, g)
    var_a = _filter_valid(a * a, g) - mu_a * mu_a
    var_b = _filter_valid(b * b, g) - mu_b * mu_b
    cov = _filter_valid(a * b, g) - mu_a * mu_b
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


def _keys_weights(t: np.ndarray, a: float = -0.5) -> np.ndarray:
    """Keys cubic kernel weights for the four neighbors at fractional offset t."""
    s = np.stack([1.0 + t, t, 1.0 - t, 2.0 - t])  # |x - neighbor| for offsets -1..2
    w = np.empty_like(s)
    near = s <= 1.0
    w[near] = ((a + 2.0) * s[near] - (a + 3.0)) * s[near] * s[near] + 1.0
    far = ~near
    w[far] = a * (((s[far] - 5.0) * s[far] + 8.0) * s[far] - 4.0)
    return w  # (4, n)


def _upscale_axis(arr: np.ndarray, axis: int) -> np.ndarray:
    n = arr.shape[axis]
    out_n = n * UPSCALE
    # half-pixel alignment: output i samples input coordinate (i + 0.5)/UPSCALE - 0.5
    x = (np.arange(out_n, dtype=np.float64) + 0.5) / UPSCALE - 0.5
    base = np.floor(x).astype(np.int64)
    t = x - base
    weights = _keys_weights(t)  # (4, out_n)
    moved = np.moveaxis(arr, axis, 0)
    acc = np.zeros((out_n,) + moved.shape[1:], dtype=np.float64)
    for k in range(4):
        idx = np.clip(base + (k - 1), 0, n - 1)
        w = weights[k].reshape((out_n,) + (1,) * (moved.ndim - 1))
        acc += w * moved[idx]
    return np.moveaxis(acc, 0, axis)


def bicubic_upscale(low: np.ndarray) -> np.ndarray:
    """Twofold cubic-convolution upscaling (a=-0.5, half-pixel aligned, edges clamped)."""
    values = np.asarray(low)
    if values.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-D grid, got {values.shape}")
    out = _upscale_axis(values.astype(np.float64), axis=0)
    return _upscale_axis(out, axis=1)
