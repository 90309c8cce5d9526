"""Non-regular sampling sensor simulation and neural reconstruction.

Simulates quarter-sampling, three-quarter-sampling and low-resolution
image sensors on a 2x higher-resolution grid and reconstructs the full
resolution image with a locally-fully-connected network followed by a
VDSR-style residual enhancer, including training and evaluation tools.

Submodules import lazily so the CLI can cap BLAS thread pools before
numpy loads.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "Tensor": "tensor", "ConvSpec": "tensor", "conv2d": "tensor", "deconv2d": "tensor",
    "prelu": "tensor", "linear": "tensor", "concat_channels": "tensor", "mse_loss": "tensor",
    "take_channels": "tensor", "no_grad": "tensor", "ShapeMismatchError": "tensor",
    "UnsupportedConfigError": "tensor",
    "AdamState": "optim", "adam_step": "optim", "NonFiniteGradientError": "optim",
    "grad_check": "gradcheck", "run_standard_checks": "gradcheck",
    "SamplingMask": "masks", "generate_mask": "masks", "expand_mask": "masks",
    "load_mask": "masks", "save_mask": "masks", "MaskFormatError": "masks",
    "MeasurementGrid": "sensors", "sample_quarter": "sensors",
    "sample_three_quarter": "sensors", "sample_low_resolution": "sensors",
    "build_vectorizing_kernel": "sensors", "vectorize": "sensors",
    "central_channel_indices": "sensors",
    "LfcrModel": "lfcr", "build_lfcr": "lfcr", "lfcr_forward": "lfcr",
    "param_count": "netutil",
    "VdsrModel": "vdsr", "build_vdsr": "vdsr", "vdsr_forward": "vdsr",
    "save_checkpoint": "checkpoint", "load_checkpoint": "checkpoint",
    "CheckpointError": "checkpoint",
    "TrainConfig": "training", "PatchSet": "training", "extract_patches": "training",
    "augment_flip_rotate": "training", "augment_shift": "training",
    "build_patch_set": "training", "lr_schedule": "training", "train_lfcr": "training",
    "train_vdsr": "training", "NonFiniteLossError": "training", "ConfigError": "training",
    "to_grayscale": "metrics", "psnr": "metrics", "ssim": "metrics",
    "bicubic_upscale": "metrics",
    # the evaluate() op lives in the nrsr.evaluate module (kept off this
    # map so the name always means the submodule at package level)
    "EvalReport": "evaluate",
    "read_pgm": "imageio", "write_pgm": "imageio", "read_ppm": "imageio",
}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'nrsr' has no attribute '{name}'")
    import importlib

    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
