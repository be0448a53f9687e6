"""The benchmark's tracer patches program names where their callers look them
up.  A refactor that moves or renames one of them should fail here, not
only when the benchmark runs."""

import importlib
from pathlib import Path

from swpnet import evaluation, layers
from swpnet.evaluation import TwoStagePipeline

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_install_patches_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    spans = importlib.import_module("spans")
    originals = (layers.conv2d, vars(TwoStagePipeline)["predict_batch"], evaluation.crop_to_box)
    forward = [vars(owner)[name] for owner, name, _ in spans.FORWARD_SPANS]

    with spans.Tracer().install():
        assert layers.conv2d is not originals[0]
        assert vars(TwoStagePipeline)["predict_batch"] is not originals[1]
        assert evaluation.crop_to_box is not originals[2]

    assert layers.conv2d is originals[0]
    assert vars(TwoStagePipeline)["predict_batch"] is originals[1]
    assert evaluation.crop_to_box is originals[2]
    assert [vars(owner)[name] for owner, name, _ in spans.FORWARD_SPANS] == forward
