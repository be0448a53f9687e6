"""Train the fixed-seed checkpoints that the eval_disk and infer_mem
workloads load, and record their sha256: a localiser, a classifier on
central crops, and a second-stage classifier on box crops.

Run from the repository root (takes a few minutes on one core):

    python3 bench/make_fixtures.py

Same code, same bytes: the models, training seeds and data follow the
criterion 7/8 acceptance fixture, with BLAS pinned to one thread.
"""

from __future__ import annotations

import hashlib
import json
import shutil

import common

common.pin_blas_threads()
common.import_swpnet()

from swpnet.datasynth import PreprocessConfig, crop_dataset_to_boxes, generate_dataset  # noqa: E402
from swpnet.models import Model, save_checkpoint  # noqa: E402
from swpnet.training import TrainConfig, train_classifier, train_localiser  # noqa: E402

TRAIN_SEED = 301


def main() -> None:
    data_dir = common.WORK / "fixture-data"
    shutil.rmtree(data_dir, ignore_errors=True)
    train_m = generate_dataset(common.N_CLASSES, common.TRAIN_PER_CLASS, common.CANVAS, data_dir,
                               seed=TRAIN_SEED, **common.GLYPHS)
    pre = common.train_preprocess()

    loc = Model(common.model_config("loc_head"), seed=4)
    loc_hist = train_localiser(loc, train_m, TrainConfig(lr=0.025, batch_size=8, max_epochs=50, seed=14,
                                                         loss_weights=(1, 1, 2, 2)), pre)
    cls = Model(common.model_config("plain_avgpool_fc"), seed=5)
    cls_hist = train_classifier(cls, train_m, TrainConfig(lr=0.02, batch_size=8, max_epochs=60, seed=15,
                                                          early_stop_accuracy=100.0), pre)

    box_train = crop_dataset_to_boxes(train_m, data_dir / "train_box", target_size=80, quantize_boxes=True)
    box_pre = PreprocessConfig(crop_size=common.INPUT_SIZE, eval_scale=73, scale_range=(0.82, 1.0), seed=2)
    boxcls = Model(common.model_config("plain_avgpool_fc"), seed=6)
    boxcls_hist = train_classifier(boxcls, box_train, TrainConfig(lr=0.02, batch_size=8, max_epochs=60, seed=16,
                                                                  early_stop_accuracy=100.0), box_pre)

    common.FIXTURES.mkdir(parents=True, exist_ok=True)
    record = {}
    for name, model, hist in (("loc.ckpt", loc, loc_hist), ("cls.ckpt", cls, cls_hist),
                              ("boxcls.ckpt", boxcls, boxcls_hist)):
        path = common.FIXTURES / name
        save_checkpoint(model, path)
        record[name] = {"sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                        "epochs": len(hist), "train_accuracy_pct": hist[-1].accuracy}
    common.FIXTURE_RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    shutil.rmtree(data_dir, ignore_errors=True)
    print(json.dumps(record, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
