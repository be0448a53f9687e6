"""swpnet: CPU micro-framework for fine-grained recognition with residual
backbones, spatially-weighted pooling, and binned bounding-box localisation."""

import os
import sys
import warnings

__version__ = "0.1.0"

# One BLAS thread per GEMM, asked for before numpy loads BLAS, which reads
# these once: a GEMM's summation order, and so a checkpoint's bytes, then
# does not depend on the core count.  A value the user set is kept.  Once
# numpy has loaded with none of them set, BLAS threads by core count, and
# the import says so.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules:
    for _name in _BLAS_THREAD_VARS:
        os.environ.setdefault(_name, "1")
    del _name
elif not any(_name in os.environ for _name in _BLAS_THREAD_VARS):
    warnings.warn("numpy was imported before swpnet with BLAS threads unpinned; "
                  "checkpoint bytes depend on the core count", RuntimeWarning)

from .autodiff import GradTape, Tensor, backward, grad_check  # noqa: E402,F401
