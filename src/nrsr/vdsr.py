"""VDSR-style residual enhancer appended after the LFCR stage.

Twenty 3x3 convolutions (zero pad 1, stride 1): 1 -> 64, eighteen
64 -> 64, 64 -> 1, with per-channel PReLU after all but the last.
Each PReLU runs inside the convolution that follows it
(``conv2d(..., slopes=...)``), so a training graph keeps one
activation per layer, its pre-activation. Off the graph each 64 -> 64
convolution writes its output over its input (``conv2d(..., overwrite=True)``),
so inference holds one activation at a time.
The network predicts a residual r; the enhanced image is f_hat + r.
Same pixel-scale convention as the LFCR: inputs are divided by 255
internally and the final layer's output is rescaled by 255 before its
bias is added, so an all-zero model returns the input unchanged.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .netutil import as_batch, from_batch, initial_parameters, take_parameters
from .tensor import (ConvSpec, ShapeMismatchError, Tensor, add, add_channel_bias, conv2d,
                     no_grad, records_graph, scale)
from .tensor import prelu  # noqa: F401  (perfbench's tracer wraps nrsr.vdsr.prelu by name)

DEPTH = 20
WIDTH = 64
KERNEL = 3
PIXEL_SCALE = 255.0

__all__ = ["VdsrModel", "build_vdsr", "vdsr_forward", "receptive_field", "parameter_shapes"]


def parameter_shapes(depth: int = DEPTH) -> dict[str, tuple[int, ...]]:
    """Name and shape of every trained parameter, in ``named_parameters()`` order."""
    if depth < 2:
        raise ValueError("depth must be >= 2")
    widths = [1] + [WIDTH] * (depth - 1) + [1]
    shapes: dict[str, tuple[int, ...]] = {}
    for i in range(1, depth + 1):
        prefix = f"vdsr/conv{i:02d}"
        shapes[f"{prefix}/weights"] = (widths[i], widths[i - 1], KERNEL, KERNEL)
        shapes[f"{prefix}/bias"] = (widths[i],)
        if i < depth:
            shapes[f"{prefix}/slopes"] = (widths[i],)
    return shapes


@dataclass
class ConvLayer:
    weights: Tensor
    bias: Tensor
    slopes: Tensor | None  # None on the output layer

    @property
    def spec(self) -> ConvSpec:
        o, i, kh, kw = self.weights.shape
        return ConvSpec(kh, kw, in_channels=i, out_channels=o)


@dataclass
class VdsrModel:
    layers: list[ConvLayer]

    @classmethod
    def from_parameters(cls, params: Mapping[str, Tensor]) -> VdsrModel:
        """The shape-checked model on ``params``, as deep as its run of convNN/weights keys."""
        depth = 0
        while f"vdsr/conv{depth + 1:02d}/weights" in params:
            depth += 1
        depth = max(depth, 2)
        t = iter(take_parameters(parameter_shapes(depth), params))
        return cls([ConvLayer(next(t), next(t), next(t) if i < depth else None)
                    for i in range(1, depth + 1)])

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        slots = [t for layer in self.layers for t in (layer.weights, layer.bias, layer.slopes)
                 if t is not None]
        return list(zip(parameter_shapes(len(self.layers)), slots, strict=True))

    def residual_t(self, x: Tensor) -> Tensor:
        """Residual prediction graph on a (B,1,H,W) input."""
        if x.data.ndim != 4 or x.shape[1] != 1:
            raise ShapeMismatchError(f"input must be (B,1,H,W), got {x.shape}")
        first = self.layers[0]
        t = conv2d(scale(x, 1.0 / PIXEL_SCALE), first.weights, first.bias, first.spec)
        slopes = first.slopes
        for layer in self.layers[1:-1]:
            # each conv applies the PReLU of the layer before it, so the graph keeps
            # only pre-activations; off the graph nothing else holds t, so the layer
            # writes over it. slopes and overwrite go by keyword: perfbench's tracer
            # names a conv2d call from its four positional arguments
            t = conv2d(t, layer.weights, layer.bias, layer.spec, slopes=slopes,
                       overwrite=not records_graph(t, layer.weights, layer.bias, slopes))
            slopes = layer.slopes
        last = self.layers[-1]
        r = conv2d(t, last.weights, None, last.spec, slopes=slopes)
        return add_channel_bias(scale(r, PIXEL_SCALE), last.bias)

    def forward_t(self, x: Tensor) -> tuple[Tensor, Tensor]:
        r = self.residual_t(x)
        return r, add(x, r)


def build_vdsr(seed: int = 0, depth: int = DEPTH) -> VdsrModel:
    """He-initialized VDSR stack; reduced depths are for gradient-check toys only."""
    params = initial_parameters(parameter_shapes(depth), np.random.default_rng(seed),
                                lambda name, shape: shape[1] * KERNEL * KERNEL)
    return VdsrModel.from_parameters(params)


def vdsr_forward(model: VdsrModel, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual and enhanced image for (H,W) or (B,H,W) input, any H, W >= 1. Builds no graph."""
    batch, single = as_batch(images)
    with no_grad():
        r, f = model.forward_t(Tensor(batch))
    return from_batch(r.data, single), from_batch(f.data, single)


def receptive_field(model: VdsrModel) -> int:
    """Receptive-field edge of the stacked unit-stride convolutions."""
    return 1 + sum(layer.spec.kernel_h - 1 for layer in model.layers)
