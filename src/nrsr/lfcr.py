"""Locally fully connected reconstruction network.

Layout: fixed vectorizing layer (64 measurement channels per 8x8 target
block) -> ten fully connected layers with per-channel PReLU, hidden
width 192, applied to every target block independently -> concatenation
of the 16 central measurement channels -> stride-8 deconvolution
(kernel 8x8) emitting the reconstructed target blocks.

The network runs on (blocks, channels) row matrices, one row per target
block of the batch, from end to end: the vectorizing layer emits the
rows, each fully connected layer is one GEMM on them, and the
deconvolution paints each row's 8x8 block into the output image. Layer
weights keep the shape of the 1x1 convolutions they are equivalent to,
(192, 64 | 192, 1, 1).

Pixel values cross the interface on the 0..255 scale. Internally the
input is divided by 255 to keep activations of order one; the
deconvolution output is rescaled by 255 before its single scalar bias
is added, so the bias lives on the pixel scale (a model with zeroed
deconvolution weights outputs exactly its bias).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import sensors
from .masks import SamplingMask
from .netutil import as_batch, from_batch, initial_parameters, take_parameters
from .sensors import central_channel_indices
from .tensor import (Tensor, add_channel_bias, concat_channels, deconv2d, linear, no_grad, prelu,
                     scale, take_channels)
from .tensor import conv2d  # noqa: F401  (perfbench's tracer wraps nrsr.lfcr.conv2d by name)

HIDDEN_CHANNELS = 192          # 4 * (3/4) * 8^2
NUM_FC_LAYERS = 10
CONCAT_CHANNELS = 16
DECONV_IN = HIDDEN_CHANNELS + CONCAT_CHANNELS
PIXEL_SCALE = 255.0

__all__ = ["LfcrModel", "build_lfcr", "lfcr_forward", "parameter_shapes"]


def parameter_shapes() -> dict[str, tuple[int, ...]]:
    """Name and shape of every trained parameter, in ``named_parameters()`` order."""
    shapes: dict[str, tuple[int, ...]] = {}
    in_ch = sensors.VEC_CHANNELS
    for i in range(NUM_FC_LAYERS):
        prefix = f"lfcr/fc{i:02d}"
        shapes[f"{prefix}/weights"] = (HIDDEN_CHANNELS, in_ch, 1, 1)
        shapes[f"{prefix}/bias"] = (HIDDEN_CHANNELS,)
        shapes[f"{prefix}/slopes"] = (HIDDEN_CHANNELS,)
        in_ch = HIDDEN_CHANNELS
    shapes["lfcr/deconv/weights"] = (DECONV_IN, 1, sensors.TARGET, sensors.TARGET)
    shapes["lfcr/deconv/bias"] = (1,)
    return shapes


@dataclass
class FcBlock:
    """One fully connected layer, (out, in, 1, 1) weights, with bias and PReLU slopes."""

    weights: Tensor
    bias: Tensor
    slopes: Tensor


@dataclass
class LfcrModel:
    sensor_kind: str
    mask: SamplingMask | None
    blocks: list[FcBlock]
    deconv_weights: Tensor            # (208, 1, 8, 8)
    deconv_bias: Tensor               # (1,)
    sensitivity: np.ndarray = field(init=False, repr=False)   # (8, 8) sensitivity tile

    def __post_init__(self):
        self.sensitivity = sensors.sensitivity_tile(self.mask, self.sensor_kind)

    @property
    def vec_kernel(self) -> np.ndarray:
        """The vectorizing layer as the dense kernel a checkpoint stores, drawn from the tile."""
        return sensors.vectorizing_kernel(self.sensitivity)

    @classmethod
    def from_parameters(cls, mask: SamplingMask | None, kind: str,
                        params: Mapping[str, Tensor]) -> LfcrModel:
        """The sensor's model on the ``parameter_shapes()`` tensors of ``params``, shape-checked."""
        t = take_parameters(parameter_shapes(), params)
        blocks = [FcBlock(*t[i : i + 3]) for i in range(0, 3 * NUM_FC_LAYERS, 3)]
        return cls(kind, mask, blocks, *t[-2:])

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        slots = [t for blk in self.blocks for t in (blk.weights, blk.bias, blk.slopes)]
        slots += [self.deconv_weights, self.deconv_bias]
        return list(zip(parameter_shapes(), slots, strict=True))

    def forward_t(self, x: Tensor) -> Tensor:
        """Graph-building forward pass; the vectorizing layer checks that x is (B,1,8m,8n)."""
        h = scale(x, 1.0 / PIXEL_SCALE)
        v = sensors.vectorize_tensor(h, self.sensitivity)
        t = v
        for blk in self.blocks:
            t = prelu(linear(t, blk.weights, blk.bias), blk.slopes)
        t = concat_channels(t, take_channels(v, central_channel_indices()))
        b, _, height, width = x.shape
        y = deconv2d(t, self.deconv_weights, b, height // sensors.TARGET, width // sensors.TARGET)
        return add_channel_bias(scale(y, PIXEL_SCALE), self.deconv_bias)


def build_lfcr(mask: SamplingMask | None, kind: str, seed: int = 0) -> LfcrModel:
    """LFCR model for the given sensor, He-initialized from the seed."""
    # stride = kernel, so each deconvolution output pixel reads DECONV_IN values
    params = initial_parameters(parameter_shapes(), np.random.default_rng(seed),
                                lambda name, shape: DECONV_IN if "deconv" in name else shape[1])
    return LfcrModel.from_parameters(mask, kind, params)


def lfcr_forward(model: LfcrModel, images: np.ndarray) -> np.ndarray:
    """Reconstruct (H,W) or (B,H,W) images; output dims equal input dims. Builds no graph."""
    batch, single = as_batch(images)
    with no_grad():
        out = model.forward_t(Tensor(batch)).data
    return from_batch(out, single)
