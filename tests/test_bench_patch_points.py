"""The benchmark's tracer patches program names where their callers look them
up.  A refactor that moves or renames one of them should fail here, not
only when the benchmark runs."""

import importlib
from pathlib import Path

from conftest import tiny_cls_config, tiny_loc_config
from swpnet import evaluation, layers
from swpnet.datasynth import DatasetManifest, generate_dataset
from swpnet.evaluation import TwoStagePipeline, evaluate_localisation, evaluate_topk
from swpnet.models import Model

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


def test_eval_paths_reach_the_tracer(monkeypatch, tmp_path):
    """Each evaluator decodes, preprocesses and forwards through the names
    the tracer patches: 5 records at batch 2 are 3 batches per evaluation."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    spans = importlib.import_module("spans")
    full = generate_dataset(2, 3, 48, tmp_path, seed=3, scale_range=(0.55, 0.65), clutter=1)
    manifest = DatasetManifest(full.records[:5], 2, "eval")
    loc_model = Model(tiny_loc_config(), seed=1)
    cls_model = Model(tiny_cls_config(), seed=2)
    with spans.Tracer().install() as tracer:
        evaluate_localisation(loc_model, manifest, batch_size=2)
        evaluate_localisation(loc_model, manifest, preprocess="none", batch_size=2)
        evaluate_topk(cls_model, manifest, batch_size=2)
        evaluate_topk(TwoStagePipeline(loc_model, cls_model), manifest, batch_size=2)

    calls = {key: tracer.calls(key) for key in (
        "imgio.read_ppm", "datasynth.center_crop_transform", "datasynth.to_network_input",
        "binning.resize_largest_side", "binning.crop_to_box", "evaluation.predict_batch")}
    assert calls == {"imgio.read_ppm": 20, "datasynth.center_crop_transform": 15,
                     "datasynth.to_network_input": 15, "binning.resize_largest_side": 10,
                     "binning.crop_to_box": 5, "evaluation.predict_batch": 3}
