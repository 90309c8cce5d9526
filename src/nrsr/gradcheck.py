"""Central-difference gradient validation.

Runs in 64-bit on small shapes. The function under test maps a list of
leaf tensors to a single output tensor; a fixed random projection turns
that output into the scalar whose derivative is checked entry by entry.

Central differences only measure a derivative where the scalar is
locally smooth. Networks with PReLU activations are piecewise linear in
any single coordinate, so for a few probed entries the +-h interval
straddles an activation kink; there the central difference lands
between the two one-sided slopes and disagrees with the (correct)
analytic derivative by up to half the slope jump. The checker therefore
measures both one-sided slopes and charges an entry only with the part
of the discrepancy that the jump cannot explain; a genuinely wrong
gradient (one-sided slopes agreeing, analytic value off) is still
reported at full size.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .tensor import Tensor

DEFAULT_H = 1e-4  # the central-difference step

# fraction of the one-sided slope jump treated as kink-attributable
# (the exact bound is 1/2; the margin absorbs evaluation noise)
KINK_JUMP_FRACTION = 0.75


def grad_check(
    fn: Callable[[Sequence[Tensor]], Tensor],
    leaves: Sequence[np.ndarray],
    max_checks_per_leaf: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Per entry the error is |analytic - numeric| / max(|analytic|, |numeric|,
    1e-8); a NaN or infinite value on either side is an infinite error.
    With ``max_checks_per_leaf`` set, a seeded random subset of each
    leaf's entries is probed instead of all of them (needed for whole
    networks, where two forward passes per parameter would be prohibitive).
    """
    leaves = [np.asarray(a, dtype=np.float64) for a in leaves]
    if rng is None:
        rng = np.random.default_rng(0)
    proj: np.ndarray | None = None

    def scalar(values: list[np.ndarray]) -> tuple[float, Tensor, list[Tensor]]:
        nonlocal proj
        ts = [Tensor(v.copy(), requires_grad=True) for v in values]
        out = fn(ts)
        if proj is None:
            proj = rng.standard_normal(out.data.shape)
        return float(np.sum(out.data * proj)), out, ts

    f0, out, ts = scalar(leaves)
    out.backward(proj)
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in ts]

    max_err = 0.0
    for i, base in enumerate(leaves):
        flat = base.reshape(-1)
        n = flat.size
        if max_checks_per_leaf is not None and n > max_checks_per_leaf:
            idx = rng.choice(n, size=max_checks_per_leaf, replace=False)
        else:
            idx = np.arange(n)
        for j in idx:
            orig = flat[j]
            flat[j] = orig + DEFAULT_H
            plus, *_ = scalar(leaves)
            flat[j] = orig - DEFAULT_H
            minus, *_ = scalar(leaves)
            flat[j] = orig
            jump = abs((plus - f0) / DEFAULT_H - (f0 - minus) / DEFAULT_H)
            numeric = (plus - minus) / (2.0 * DEFAULT_H)
            a = analytic[i].reshape(-1)[j]
            if not np.isfinite([a, numeric]).all():
                return float("inf")
            excess = abs(a - numeric) - KINK_JUMP_FRACTION * jump
            if excess <= 0:
                continue
            err = excess / max(abs(a), abs(numeric), 1e-8)
            max_err = max(max_err, err)
    return max_err


def _leaves(model, x: np.ndarray) -> tuple[list[str], list[np.ndarray]]:
    """Parameter names of ``model`` and the 64-bit leaves ``[x, *parameters]``."""
    from .netutil import to_dtype_params

    to_dtype_params(model, np.float64)
    named = model.named_parameters()
    return [name for name, _ in named], [x] + [p.data for _, p in named]


def lfcr_case(seed: int):
    """Full LFCR forward on one 16x16 block; 48 entries of each parameter are probed."""
    from .lfcr import LfcrModel, build_lfcr
    from .masks import generate_mask

    rng = np.random.default_rng(seed)
    mask = generate_mask("quarter", seed)
    names, leaves = _leaves(build_lfcr(mask, "quarter", seed=seed),
                            rng.uniform(0.0, 255.0, size=(1, 1, 16, 16)))

    def fn(ts):
        model = LfcrModel("quarter", mask, dict(zip(names, ts[1:])))
        return model.forward_t(ts[0])

    return fn, leaves, 48


def vdsr_case(seed: int, depth: int = 4, param_samples: int | None = 48):
    """Reduced-depth VDSR on a 12x12 input."""
    from .vdsr import VdsrModel, build_vdsr

    rng = np.random.default_rng(seed)
    names, leaves = _leaves(build_vdsr(seed=seed, depth=depth),
                            rng.uniform(0.0, 255.0, size=(1, 1, 12, 12)))

    def fn(ts):
        _, f = VdsrModel(dict(zip(names, ts[1:]))).forward_t(ts[0])
        return f

    return fn, leaves, param_samples


def run_standard_checks(seed: int = 0) -> dict[str, float]:
    """Max relative gradient error for every differentiable operator and both networks."""
    from .masks import generate_mask
    from .sensors import sensitivity_tile, vectorize_tensor
    from .tensor import (ConvSpec, add, add_channel_bias, concat_channels, conv2d, deconv2d,
                         linear, mse_loss, prelu, scale, take_channels)

    rng = np.random.default_rng(seed)
    results: dict[str, float] = {}

    def check(name, fn, leaves, samples=None):
        # a fresh probe generator per check, so no check's probes depend on another's
        results[name] = grad_check(fn, leaves, max_checks_per_leaf=samples,
                                   rng=np.random.default_rng(seed))

    def off_kink(x):
        # keep PReLU inputs away from the kink so |x| >> h
        return np.where(np.abs(x) < 0.1, 0.5, x)

    spec = ConvSpec(3, 3, in_channels=2, out_channels=3)
    check("conv2d", lambda ts: conv2d(ts[0], ts[1], ts[2], spec),
          [rng.standard_normal((1, 2, 4, 4)), rng.standard_normal((3, 2, 3, 3)),
           rng.standard_normal(3)])

    # rows of a 1x3x3 block grid, 2 channels in, 3 channels of 4x4 blocks out
    check("deconv2d", lambda ts: deconv2d(ts[0], ts[1], 1, 3, 3),
          [rng.standard_normal((9, 2)), rng.standard_normal((2, 3, 4, 4))])

    check("prelu", lambda ts: prelu(ts[0], ts[1]),
          [off_kink(rng.standard_normal((2, 3, 4, 4))), rng.uniform(0.1, 0.5, size=3)])

    check("concat_channels", lambda ts: concat_channels(ts[0], ts[1]),
          [rng.standard_normal((2, 3, 4, 4)), rng.standard_normal((2, 2, 4, 4))])

    check("mse_loss", lambda ts: mse_loss(ts[0], ts[1]),
          [rng.standard_normal((2, 1, 4, 4)), rng.standard_normal((2, 1, 4, 4))])

    check("linear", lambda ts: linear(ts[0], ts[1], ts[2]),
          [rng.standard_normal((6, 3)), rng.standard_normal((4, 3, 1, 1)), rng.standard_normal(4)])

    # the VDSR's fused op: PReLU applied inside the conv
    check("conv2d_prelu", lambda ts: conv2d(ts[0], ts[1], ts[2], spec, slopes=ts[3]),
          [off_kink(rng.standard_normal((1, 2, 4, 4))), rng.standard_normal((3, 2, 3, 3)),
           rng.standard_normal(3), rng.uniform(0.1, 0.5, size=2)])

    # a repeated index: its gradient is the sum of both picks
    check("take_channels", lambda ts: take_channels(ts[0], [4, 1, 4]),
          [rng.standard_normal((2, 5, 3, 3))])

    check("add", lambda ts: add(ts[0], ts[1]),
          [rng.standard_normal((2, 3, 4, 4)), rng.standard_normal((2, 3, 4, 4))])

    check("scale", lambda ts: scale(ts[0], 255.0), [rng.standard_normal((2, 3, 4, 4))])

    check("add_channel_bias", lambda ts: add_channel_bias(ts[0], ts[1]),
          [rng.standard_normal((2, 3, 4, 4)), rng.standard_normal(3)])

    tile = sensitivity_tile(generate_mask("quarter", seed), "quarter")
    check("vectorize_tensor", lambda ts: vectorize_tensor(ts[0], tile),
          [rng.uniform(0.0, 255.0, size=(2, 1, 16, 16))])

    check("lfcr_16x16", *lfcr_case(seed))
    check("vdsr_depth4", *vdsr_case(seed))
    return results
