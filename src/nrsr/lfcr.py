"""Locally fully connected reconstruction network.

Layout: fixed vectorizing layer (64 measurement channels per 8x8 target
block) -> ten fully connected layers with per-channel PReLU, hidden
width 192, applied to every target block independently -> concatenation
of the 16 central measurement channels -> stride-8 deconvolution
(kernel 8x8) emitting the reconstructed target blocks.

The fully connected stack runs on (blocks, channels) row matrices, one
row per target block of the batch, so each layer is one GEMM. The rows
are built once after the vectorizing layer and handed to the
deconvolution as a channels-last view. Layer weights keep the shape of
the 1x1 convolutions they are equivalent to, (192, 64 | 192, 1, 1).

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
from .netutil import as_batch, from_batch, he_normal, param_count
from .sensors import VectorizePlan, central_channel_indices
from .tensor import (ConvSpec, ShapeMismatchError, Tensor, add_channel_bias, concat_channels,
                     deconv2d, from_rows, linear, no_grad, prelu, scale, take_channels, to_rows)
from .tensor import conv2d  # noqa: F401  (perfbench's tracer wraps nrsr.lfcr.conv2d by name)

HIDDEN_CHANNELS = 192          # 4 * (3/4) * 8^2
NUM_FC_LAYERS = 10
CONCAT_CHANNELS = 16
DECONV_IN = HIDDEN_CHANNELS + CONCAT_CHANNELS
PIXEL_SCALE = 255.0
PRELU_INIT = 0.25

__all__ = ["LfcrModel", "build_lfcr", "lfcr_forward", "param_count"]


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
    vec_kernel: np.ndarray            # fixed (64, 1, 16, 16)
    vec_spec: ConvSpec
    blocks: list[FcBlock]
    deconv_weights: Tensor            # (208, 1, 8, 8)
    deconv_bias: Tensor               # (1,)
    plan: VectorizePlan = field(repr=False, default=None)

    def __post_init__(self):
        if self.plan is None:
            self.plan = sensors.plan_from_kernel(self.vec_kernel)

    @property
    def deconv_spec(self) -> ConvSpec:
        return ConvSpec(kernel_h=sensors.TARGET, kernel_w=sensors.TARGET,
                        stride_h=sensors.TARGET, stride_w=sensors.TARGET,
                        in_channels=DECONV_IN, out_channels=1)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        params: list[tuple[str, Tensor]] = []
        for i, blk in enumerate(self.blocks):
            prefix = f"lfcr/fc{i:02d}"
            params.append((f"{prefix}/weights", blk.weights))
            params.append((f"{prefix}/bias", blk.bias))
            params.append((f"{prefix}/slopes", blk.slopes))
        params.append(("lfcr/deconv/weights", self.deconv_weights))
        params.append(("lfcr/deconv/bias", self.deconv_bias))
        return params

    def forward_t(self, x: Tensor) -> Tensor:
        """Graph-building forward pass; x is (B,1,H,W) with H, W multiples of 8."""
        if x.data.ndim != 4 or x.shape[1] != 1:
            raise ShapeMismatchError(f"input must be (B,1,H,W), got {x.shape}")
        if x.shape[2] % sensors.TARGET or x.shape[3] % sensors.TARGET:
            raise ShapeMismatchError(f"input dims must be multiples of 8, got {x.shape[2:]}")
        h = scale(x, 1.0 / PIXEL_SCALE)
        v = to_rows(sensors.vectorize_tensor(h, self.plan))
        t = v
        for blk in self.blocks:
            t = prelu(linear(t, blk.weights, blk.bias), blk.slopes)
        t = concat_channels(t, take_channels(v, central_channel_indices()))
        b, _, height, width = x.shape
        t = from_rows(t, b, height // sensors.TARGET, width // sensors.TARGET)
        y = deconv2d(t, self.deconv_weights, None, self.deconv_spec)
        return add_channel_bias(scale(y, PIXEL_SCALE), self.deconv_bias)


def build_lfcr(mask: SamplingMask | None, kind: str, seed: int = 0) -> LfcrModel:
    """LFCR model for the given sensor, He-initialized from the seed."""
    vec_kernel, vec_spec = sensors.build_vectorizing_kernel(mask, kind)
    rng = np.random.default_rng(seed)
    blocks = []
    in_ch = sensors.VEC_CHANNELS
    for _ in range(NUM_FC_LAYERS):
        blocks.append(FcBlock(
            weights=Tensor(he_normal(rng, (HIDDEN_CHANNELS, in_ch, 1, 1), fan_in=in_ch),
                           requires_grad=True),
            bias=Tensor(np.zeros(HIDDEN_CHANNELS, dtype=np.float32), requires_grad=True),
            slopes=Tensor(np.full(HIDDEN_CHANNELS, PRELU_INIT, dtype=np.float32),
                          requires_grad=True),
        ))
        in_ch = HIDDEN_CHANNELS
    # stride = kernel, so each output pixel reads DECONV_IN values
    dw = he_normal(rng, (DECONV_IN, 1, sensors.TARGET, sensors.TARGET), fan_in=DECONV_IN)
    return LfcrModel(
        sensor_kind=kind,
        mask=mask,
        vec_kernel=vec_kernel,
        vec_spec=vec_spec,
        blocks=blocks,
        deconv_weights=Tensor(dw, requires_grad=True),
        deconv_bias=Tensor(np.zeros(1, dtype=np.float32), requires_grad=True),
    )


def lfcr_forward(model: LfcrModel, images: np.ndarray) -> np.ndarray:
    """Reconstruct (H,W) or (B,H,W) images; output dims equal input dims. Builds no graph."""
    batch, single = as_batch(images)
    with no_grad():
        out = model.forward_t(Tensor(batch)).data
    return from_batch(out, single)
