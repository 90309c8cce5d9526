"""Helpers shared by the LFCR and VDSR model definitions."""

from __future__ import annotations

from collections.abc import Callable, Mapping

import numpy as np

from .tensor import ShapeMismatchError, Tensor

PRELU_INIT = 0.25


def initial_parameters(shapes: Mapping[str, tuple[int, ...]], rng: np.random.Generator,
                       fan_in: Callable[[str, tuple[int, ...]], int]) -> dict[str, Tensor]:
    """Trainable He-normal weights, zero biases and PRELU_INIT slopes, drawn in table order."""
    params = {}
    for name, shape in shapes.items():
        if name.endswith("/weights"):
            value = rng.standard_normal(shape) * np.sqrt(2.0 / fan_in(name, shape))
        else:
            value = np.full(shape, 0.0 if name.endswith("/bias") else PRELU_INIT)
        params[name] = Tensor(value.astype(np.float32), requires_grad=True)
    return params


def take_parameters(shapes: Mapping[str, tuple[int, ...]],
                    params: Mapping[str, Tensor]) -> list[Tensor]:
    """The tensors of ``params`` that the table names, in its order; a wrong shape raises."""
    taken = []
    for name, shape in shapes.items():
        t = params[name]
        if t.shape != shape:
            raise ShapeMismatchError(f"{name} has shape {t.shape}, expected {shape}")
        taken.append(t)
    return taken


def param_count(model) -> int:
    """Number of trainable scalars (fixed kernels excluded)."""
    return int(sum(p.data.size for _, p in model.named_parameters()))


def as_batch(images: np.ndarray) -> tuple[np.ndarray, bool]:
    """Coerce (H,W) or (B,H,W) image arrays to (B,1,H,W); flag single-image input."""
    arr = np.asarray(images)
    if arr.dtype.kind in "ui":
        arr = arr.astype(np.float32)
    if arr.ndim == 2:
        return arr[None, None], True
    if arr.ndim == 3:
        return arr[:, None], False
    raise ValueError(f"expected (H,W) or (B,H,W) images, got shape {arr.shape}")


def from_batch(batch: np.ndarray, single: bool) -> np.ndarray:
    return batch[0, 0] if single else batch[:, 0]


def to_dtype_params(model, dtype) -> None:
    """Convert every trainable parameter buffer in place."""
    for _, p in model.named_parameters():
        p.data = p.data.astype(dtype)
