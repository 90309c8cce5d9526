"""VDSR-style residual enhancer appended after the LFCR stage.

Twenty 3x3 convolutions (zero pad 1, stride 1): 1 -> 64, eighteen
64 -> 64, 64 -> 1, with per-channel PReLU after all but the last.
The network predicts a residual r; the enhanced image is f_hat + r.
Same pixel-scale convention as the LFCR: inputs are divided by 255
internally and the final layer's output is rescaled by 255 before its
bias is added, so an all-zero model returns the input unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netutil import as_batch, from_batch, he_normal
from .tensor import (ConvSpec, ShapeMismatchError, Tensor, add, add_channel_bias, conv2d,
                     no_grad, prelu, scale)

DEPTH = 20
WIDTH = 64
KERNEL = 3
PIXEL_SCALE = 255.0
PRELU_INIT = 0.25

__all__ = ["VdsrModel", "build_vdsr", "vdsr_forward", "receptive_field"]


@dataclass
class ConvLayer:
    weights: Tensor
    bias: Tensor
    slopes: Tensor | None  # None on the output layer

    @property
    def spec(self) -> ConvSpec:
        o, i, kh, kw = self.weights.shape
        return ConvSpec(kernel_h=kh, kernel_w=kw, pad=(kh - 1) // 2, in_channels=i, out_channels=o)


@dataclass
class VdsrModel:
    layers: list[ConvLayer]

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        params: list[tuple[str, Tensor]] = []
        for i, layer in enumerate(self.layers, start=1):
            prefix = f"vdsr/conv{i:02d}"
            params.append((f"{prefix}/weights", layer.weights))
            params.append((f"{prefix}/bias", layer.bias))
            if layer.slopes is not None:
                params.append((f"{prefix}/slopes", layer.slopes))
        return params

    def residual_t(self, x: Tensor) -> Tensor:
        """Residual prediction graph on a (B,1,H,W) input."""
        if x.data.ndim != 4 or x.shape[1] != 1:
            raise ShapeMismatchError(f"input must be (B,1,H,W), got {x.shape}")
        t = scale(x, 1.0 / PIXEL_SCALE)
        for layer in self.layers[:-1]:
            t = prelu(conv2d(t, layer.weights, layer.bias, layer.spec), layer.slopes)
        last = self.layers[-1]
        r = conv2d(t, last.weights, None, last.spec)
        return add_channel_bias(scale(r, PIXEL_SCALE), last.bias)

    def forward_t(self, x: Tensor) -> tuple[Tensor, Tensor]:
        r = self.residual_t(x)
        return r, add(x, r)


def build_vdsr(seed: int = 0, depth: int = DEPTH) -> VdsrModel:
    """He-initialized VDSR stack; reduced depths are for gradient-check toys only."""
    if depth < 2:
        raise ValueError("depth must be >= 2")
    rng = np.random.default_rng(seed)
    widths = [1] + [WIDTH] * (depth - 1) + [1]
    layers = []
    for i in range(depth):
        cin, cout = widths[i], widths[i + 1]
        fan_in = cin * KERNEL * KERNEL
        layers.append(ConvLayer(
            weights=Tensor(he_normal(rng, (cout, cin, KERNEL, KERNEL), fan_in), requires_grad=True),
            bias=Tensor(np.zeros(cout, dtype=np.float32), requires_grad=True),
            slopes=None if i == depth - 1 else Tensor(
                np.full(cout, PRELU_INIT, dtype=np.float32), requires_grad=True),
        ))
    return VdsrModel(layers=layers)


def vdsr_forward(model: VdsrModel, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual and enhanced image for (H,W) or (B,H,W) input, any H, W >= 1. Builds no graph."""
    batch, single = as_batch(images)
    with no_grad():
        r, f = model.forward_t(Tensor(batch))
    return from_batch(r.data, single), from_batch(f.data, single)


def receptive_field(model: VdsrModel) -> int:
    """Receptive-field edge of the stacked unit-stride convolutions."""
    return 1 + sum(layer.spec.kernel_h - 1 for layer in model.layers)
