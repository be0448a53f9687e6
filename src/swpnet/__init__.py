"""swpnet: CPU micro-framework for fine-grained recognition with residual
backbones, spatially-weighted pooling, and binned bounding-box localisation."""

import os
import sys

__version__ = "0.1.0"

# One BLAS thread per GEMM, asked for before numpy loads BLAS, which reads
# these once: a GEMM's summation order, and so a checkpoint's bytes, then
# does not depend on the core count, and inference convs spread their own
# chunks over the cores (layers.LANES).  A value the user set is kept.
if "numpy" not in sys.modules:
    for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_name, "1")
    del _name

from .autodiff import GradTape, Tensor, backward, grad_check  # noqa: E402,F401
