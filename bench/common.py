"""Settings shared by the benchmark and the fixture script.

Import this module before numpy: `pin_blas_threads` only takes effect when
it runs before the BLAS library is loaded.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURES = BENCH_DIR / "fixtures"
FIXTURE_RECORD = FIXTURES / "fixtures.json"   # sha256 of each committed checkpoint
WORK = ROOT / ".bench_work"

# One BLAS thread: at desk scale it measured no slower than two on a 2-core
# box, its p90 tails were tighter, and GEMM summation order (so checkpoint
# bytes) no longer depends on the machine's core count.
BLAS_THREADS = 1
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# The criterion-7/8 glyph set: 10 classes on a 112 px canvas, small jittered
# glyphs, so the localiser has real work and the central crop loses boxes.
N_CLASSES = 10
TRAIN_PER_CLASS = 30
EVAL_PER_CLASS = 10
CANVAS = 112
GLYPHS = dict(scale_range=(0.30, 0.45), center_jitter=0.15, clutter=4, similarity_margin=0.25)

# Desk model: ResNet-18 at width 1/8 with 64 px input.
DEPTH = 18
WIDTH = 1 / 8
INPUT_SIZE = 64


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (missing sources or fixtures)."""


def pin_blas_threads() -> int:
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for name in _BLAS_ENV:
        os.environ[name] = str(threads)
    return threads


def import_swpnet():
    """Import swpnet from this checkout's src/, never from anywhere else."""
    if not (SRC / "swpnet" / "__init__.py").is_file():
        raise SetupError(f"no swpnet sources under {SRC}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import swpnet

    if Path(swpnet.__file__).resolve().parent != (SRC / "swpnet").resolve():
        raise SetupError(f"imported swpnet from {swpnet.__file__}, not from {SRC}")
    return swpnet


def model_config(head: str):
    from swpnet.models import ModelConfig

    return ModelConfig(depth_variant=DEPTH, num_classes=N_CLASSES, width_multiplier=WIDTH,
                       input_size=INPUT_SIZE, head=head)


def train_preprocess():
    from swpnet.datasynth import PreprocessConfig

    return PreprocessConfig(crop_size=INPUT_SIZE, eval_scale=73, scale_range=(0.58, 0.72), seed=1)
