import tracemalloc

import numpy as np
import pytest

from swpnet.datasynth import DatasetManifest, PreprocessConfig, generate_dataset
from swpnet.models import ModelConfig


def tiny_cls_config(num_classes=2, input_size=32, depth=18, width=1 / 16, head="plain_avgpool_fc"):
    return ModelConfig(depth_variant=depth, num_classes=num_classes,
                       width_multiplier=width, input_size=input_size, head=head)


def tiny_loc_config(input_size=32, depth=18, width=1 / 16):
    return ModelConfig(depth_variant=depth, num_classes=2, width_multiplier=width,
                       input_size=input_size, head="loc_head")


def tiny_preprocess(crop=32, eval_scale=36, scale_range=(0.70, 0.80), seed=0):
    return PreprocessConfig(crop_size=crop, eval_scale=eval_scale,
                            scale_range=scale_range, seed=seed)


def traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of one call of fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def tiny_dataset(tmp_path_factory):
    """Two visually distinct classes on a 48px canvas, 6 images each."""
    root = tmp_path_factory.mktemp("tinyds")
    manifest = generate_dataset(2, 6, 48, root, seed=13, scale_range=(0.55, 0.65),
                                center_jitter=0.05, clutter=1)
    return manifest


# the decoded image of one record of `stream_manifests`: 48 px, RGB, uint8
STREAM_IMAGE_BYTES = 48 * 48 * 3


@pytest.fixture(scope="session")
def stream_manifests(tmp_path_factory):
    """16 records on a 48px canvas, then the same records repeated 4 and 64
    times: (N, 4N, warm-up) manifests for peak_growth."""
    root = tmp_path_factory.mktemp("streamds")
    base = generate_dataset(2, 8, 48, root, seed=13, scale_range=(0.55, 0.65),
                            center_jitter=0.05, clutter=1)
    return tuple(DatasetManifest(base.records * k, base.n_classes, base.split) for k in (1, 4, 64))


def peak_growth(run, manifests) -> int:
    """How many bytes the tracemalloc peak of run(manifest) grows by from N
    records to 4N.  An untraced run over the warm-up manifest comes first:
    the interpreter keeps freed small objects (tuples, floats) for reuse,
    and until those caches fill, their growth reads as up to 15 KB more."""
    small, large, warm = manifests
    run(warm)
    return traced_peak(lambda: run(large)) - traced_peak(lambda: run(small))
