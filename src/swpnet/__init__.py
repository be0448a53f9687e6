"""swpnet: CPU micro-framework for fine-grained recognition with residual
backbones, spatially-weighted pooling, and binned bounding-box localisation."""

import os
import sys
import warnings

__version__ = "0.1.0"


def _pin_loaded_openblas() -> bool:
    """Set the OpenBLAS that numpy has already loaded to one thread through
    its own setter; whether one was found.  numpy's build record names the
    library: a scipy-openblas wheel vendors it in `numpy.libs` beside numpy,
    and its 64-bit integer build suffixes each symbol and the file name
    with `64_`."""
    import ctypes
    from pathlib import Path

    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # a numpy too old for the record, or one without BLAS
        return False
    if blas.get("name") != "scipy-openblas":
        return False
    suffix = "64_" if "USE64BITINT" in blas.get("openblas configuration", "") else ""
    for lib in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob(f"libscipy_openblas{suffix}[-.]*")):
        try:
            setter = getattr(ctypes.CDLL(str(lib)), f"scipy_openblas_set_num_threads{suffix}")
        except (OSError, AttributeError):
            continue
        setter(1)
        return True
    return False


# One BLAS thread per GEMM, so that a GEMM's summation order, and so a
# checkpoint's bytes, does not depend on the core count.  BLAS reads these
# variables once, when numpy loads it; a value the user set is kept.  When
# numpy has loaded already with none of them set, the loaded OpenBLAS is
# pinned through its own setter, and the import warns only if it has none.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules:
    for _name in _BLAS_THREAD_VARS:
        os.environ.setdefault(_name, "1")
    del _name
elif not any(_name in os.environ for _name in _BLAS_THREAD_VARS) and not _pin_loaded_openblas():
    warnings.warn("numpy was imported before swpnet with BLAS threads unpinned; "
                  "checkpoint bytes depend on the core count", RuntimeWarning)

from .autodiff import GradTape, Tensor, backward, grad_check  # noqa: E402,F401
