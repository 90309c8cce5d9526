"""Non-regular sampling sensor simulation and neural reconstruction.

Simulates quarter-sampling, three-quarter-sampling and low-resolution
image sensors on a 2x higher-resolution grid and reconstructs the full
resolution image with a locally-fully-connected network followed by a
VDSR-style residual enhancer, including training and evaluation tools.

Names are imported from their modules (``from nrsr.lfcr import
build_lfcr``). Importing the package itself loads nothing, so the CLI
can cap the BLAS thread pools before numpy loads.
"""

__version__ = "0.1.0"
