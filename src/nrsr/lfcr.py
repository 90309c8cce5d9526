"""Locally fully connected reconstruction network.

Layout: fixed vectorizing layer (64 measurement channels per 8x8 target
block) -> ten fully connected layers with per-channel PReLU, hidden
width 192, applied to every target block independently -> concatenation
of the 16 central measurement channels -> stride-8 deconvolution
(kernel 8x8) emitting the reconstructed target blocks.

The network runs on (blocks, channels) row matrices, one row per target
block of the batch, from end to end: the vectorizing layer emits the
rows, each fully connected layer is one GEMM on them, and the
deconvolution paints each row's 8x8 block into the output image. The
model holds its parameters by the names ``parameter_shapes()`` states;
FC weights keep the shape of their 1x1 convolutions, (192, 64 | 192, 1, 1).

Pixel values cross the interface on the 0..255 scale. Internally the
input is divided by 255 to keep activations of order one; the
deconvolution output is rescaled by 255 before its single scalar bias
is added, so the bias lives on the pixel scale (a model with zeroed
deconvolution weights outputs exactly its bias).
"""

from __future__ import annotations

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
class LfcrModel:
    """The sensor's LFCR on the ``parameter_shapes()`` tensors of ``params``, shape-checked."""

    sensor_kind: str
    mask: SamplingMask | None
    params: dict[str, Tensor]         # name -> tensor, in parameter_shapes() order
    sensitivity: np.ndarray = field(init=False, repr=False)   # (8, 8) sensitivity tile

    def __post_init__(self):
        self.params = take_parameters(parameter_shapes(), self.params)
        self.sensitivity = sensors.sensitivity_tile(self.mask, self.sensor_kind)

    @property
    def vec_kernel(self) -> np.ndarray:
        """The vectorizing layer as the dense kernel a checkpoint stores, drawn from the tile."""
        return sensors.vectorizing_kernel(self.sensitivity)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.params.items())

    def forward_t(self, x: Tensor) -> Tensor:
        """Graph-building forward pass; the vectorizing layer checks that x is (B,1,8m,8n)."""
        p = self.params
        h = scale(x, 1.0 / PIXEL_SCALE)
        v = sensors.vectorize_tensor(h, self.sensitivity)
        t = v
        for i in range(NUM_FC_LAYERS):
            fc = f"lfcr/fc{i:02d}"
            t = prelu(linear(t, p[f"{fc}/weights"], p[f"{fc}/bias"]), p[f"{fc}/slopes"])
        t = concat_channels(t, take_channels(v, central_channel_indices()))
        b, _, height, width = x.shape
        y = deconv2d(t, p["lfcr/deconv/weights"], b, height // sensors.TARGET,
                     width // sensors.TARGET)
        return add_channel_bias(scale(y, PIXEL_SCALE), p["lfcr/deconv/bias"])


def build_lfcr(mask: SamplingMask | None, kind: str, seed: int = 0) -> LfcrModel:
    """LFCR model for the given sensor, He-initialized from the seed."""
    # stride = kernel, so each deconvolution output pixel reads DECONV_IN values
    params = initial_parameters(parameter_shapes(), np.random.default_rng(seed),
                                lambda name, shape: DECONV_IN if "deconv" in name else shape[1])
    return LfcrModel(kind, mask, params)


def lfcr_forward(model: LfcrModel, images: np.ndarray) -> np.ndarray:
    """Reconstruct (H,W) or (B,H,W) images; output dims equal input dims. Builds no graph."""
    batch, single = as_batch(images)
    with no_grad():
        out = model.forward_t(Tensor(batch)).data
    return from_batch(out, single)
