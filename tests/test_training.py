import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import swpnet
from conftest import STREAM_IMAGE_BYTES, peak_growth, tiny_cls_config, tiny_loc_config, tiny_preprocess
from swpnet.autodiff import Tensor
from swpnet.binning import LOC_OUTPUTS, BoundingBox, encode_box
from swpnet.datasynth import generate_dataset
from swpnet.layers import softmax_cross_entropy
from swpnet.models import (
    Model,
    ModelBuildError,
    feature_map_extent,
    save_checkpoint,
)
from swpnet.swp import SWPSpec
from swpnet.training import (
    EpochStats,
    MomentumSGD,
    TrainConfig,
    HistoryError,
    TrainingDiverged,
    _step,
    history_path,
    lr_at_epoch,
    read_history,
    train_classifier,
    train_localiser,
    write_history,
)


def params_bytes(model):
    return {n: t.data.tobytes() for n, t in model.parameters()}


class TestTrainConfig:
    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=-0.1)

    def test_all_zero_loss_weights_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(loss_weights=(0, 0, 0, 0))

    @pytest.mark.parametrize("weights", [(1.0, 1.0), (1.0, 1.0, 1.0, 1.0, 1.0)])
    def test_loss_weights_need_one_per_output(self, weights):
        with pytest.raises(ValueError, match="one value per localiser output"):
            TrainConfig(loss_weights=weights)

    @pytest.mark.parametrize("name", ["lr", "momentum", "weight_decay", "early_stop_accuracy"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_value_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_loss_weight_rejected_by_name(self, value):
        with pytest.raises(ValueError, match=re.escape(f"loss_weights must be finite, got (1, 1, {value}, 1)")):
            TrainConfig(loss_weights=(1, 1, value, 1))

    @pytest.mark.parametrize("weights", [(1, 1, 0, 0), (1, -1, 1, 1)])
    def test_non_positive_loss_weight_rejected(self, weights):
        with pytest.raises(ValueError, match=re.escape(f"loss weights must be positive, got {weights}")):
            TrainConfig(loss_weights=weights)

    @pytest.mark.parametrize("epochs", [0, -3])
    def test_max_epochs_below_one_rejected_by_name(self, epochs):
        with pytest.raises(ValueError, match=f"^max_epochs must be at least 1, got {epochs}$"):
            TrainConfig(max_epochs=epochs)

    def test_step_decay_schedule(self):
        cfg = TrainConfig(lr=0.1, max_epochs=100)
        assert lr_at_epoch(cfg, 0) == pytest.approx(0.1)
        assert lr_at_epoch(cfg, 49) == pytest.approx(0.1)
        assert lr_at_epoch(cfg, 50) == pytest.approx(0.01)
        assert lr_at_epoch(cfg, 75) == pytest.approx(0.001)

    def test_one_epoch_run_keeps_its_rate(self):
        # both milestones round to epoch 0, where no decay applies
        assert lr_at_epoch(TrainConfig(lr=0.1, max_epochs=1), 0) == 0.1

    def test_two_epoch_run_decays_once(self):
        # both milestones round to epoch 1: one tenfold drop, not a hundredfold
        cfg = TrainConfig(lr=0.1, max_epochs=2)
        assert [lr_at_epoch(cfg, e) for e in (0, 1)] == [0.1, pytest.approx(0.01)]

    @pytest.mark.parametrize("max_epochs, starts", [(3, (1, 2)), (4, (2, 3)), (30, (15, 22))])
    def test_distinct_milestones_each_decay(self, max_epochs, starts):
        cfg = TrainConfig(lr=1.0, max_epochs=max_epochs)
        rates = [lr_at_epoch(cfg, e) for e in range(max_epochs)]
        assert rates == [1.0 * 0.1 ** sum(e >= s for s in starts) for e in range(max_epochs)]


class TestTrainClassifier:
    def test_zero_lr_leaves_parameters_unchanged(self, tiny_dataset):
        model = Model(tiny_cls_config(), seed=1)
        before = params_bytes(model)
        train_classifier(model, tiny_dataset, TrainConfig(lr=0.0, max_epochs=1, seed=0),
                         tiny_preprocess())
        after = params_bytes(model)
        assert before == after

    def test_same_seed_identical_checkpoints(self, tiny_dataset, tmp_path):
        files = []
        for run in range(2):
            model = Model(tiny_cls_config(), seed=3)
            train_classifier(model, tiny_dataset, TrainConfig(lr=0.02, max_epochs=2, seed=5),
                             tiny_preprocess())
            path = tmp_path / f"run{run}.ckpt"
            save_checkpoint(model, path)
            files.append(path.read_bytes())
        assert files[0] == files[1]

    def test_history_shape_and_csv(self, tiny_dataset, tmp_path):
        model = Model(tiny_cls_config(), seed=2)
        history = train_classifier(model, tiny_dataset, TrainConfig(max_epochs=2, seed=1),
                                   tiny_preprocess())
        assert [h.epoch for h in history] == [0, 1]
        assert history[-1].steps == 2 * ((len(tiny_dataset) + 7) // 8)
        ckpt = tmp_path / "m.ckpt"
        assert write_history(ckpt, [], history) == history[-1].steps
        lines = history_path(ckpt).read_text().splitlines()
        assert lines[0] == "epoch,steps,loss,accuracy,lr"
        assert len(lines) == 3
        assert read_history(ckpt) == lines[1:]

    def test_extended_csv_continues_steps(self, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        write_history(a, [], [EpochStats(0, 3, 0.5, 50.0, 0.1), EpochStats(1, 6, 0.4, 60.0, 0.1)])
        assert write_history(b, read_history(a), [EpochStats(2, 3, 0.3, 70.0, 0.01)]) == 9
        assert [row.split(",")[:2] for row in history_path(b).read_text().splitlines()] == [
            ["epoch", "steps"], ["0", "3"], ["1", "6"], ["2", "9"]]

    def test_extend_without_a_file_writes_a_fresh_one(self, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        assert read_history(ckpt) == []
        write_history(ckpt, read_history(ckpt), [EpochStats(2, 3, 0.3, 70.0, 0.01)])
        assert history_path(ckpt).read_text() == "epoch,steps,loss,accuracy,lr\n2,3,0.3,70.0,0.01\n"

    def test_continued_rows_keep_their_bytes(self, tmp_path):
        """A resumed history is copied row for row, not re-formatted, and a
        header-only file continues from step 0."""
        ckpt = tmp_path / "m.ckpt"
        history_path(ckpt).write_text("epoch,steps,loss,accuracy,lr\n0,3,0.50,x,1e-2\n\n")
        assert read_history(ckpt) == ["0,3,0.50,x,1e-2"]
        history_path(ckpt).write_text("epoch,steps,loss,accuracy,lr\n")
        assert read_history(ckpt) == []

    @pytest.mark.parametrize("text, where, message", [
        ("", 1, "expected the header"),
        ("epoch,step,loss,accuracy,lr\n", 1, "expected the header"),
        ("epoch,steps,loss,accuracy,lr\r\n0,3,0.5,50.0,0.1\r\n", 1, "expected the header"),
        ("epoch,steps,loss,accuracy,lr\n0,3,0.5,50.0,0.1\n1,6,0.4\n", 3, "expected 5 fields, got 3"),
        ("epoch,steps,loss,accuracy,lr\n\n0,3,0.5,50.0,0.1\n", 2, "expected 5 fields, got 1"),
        ("epoch,steps,loss,accuracy,lr\n0,3.0,0.5,50.0,0.1\n", 2, "steps must be an integer, got '3.0'"),
        ("epoch,steps,loss,accuracy,lr\n-1,3,0.5,50.0,0.1\n", 2, "epoch must be an integer, got '-1'"),
        ("epoch,steps,loss,accuracy,lr\n0, 3,0.5,50.0,0.1\n", 2, "steps must be an integer"),
    ])
    def test_bad_history_is_named(self, tmp_path, text, where, message):
        ckpt = tmp_path / "m.ckpt"
        history_path(ckpt).write_text(text)
        with pytest.raises(HistoryError, match=f"^{re.escape(str(history_path(ckpt)))}:{where}: {message}"):
            read_history(ckpt)

    def test_non_utf8_history_names_its_line(self, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        history_path(ckpt).write_bytes(b"epoch,steps,loss,accuracy,lr\n0,3,caf\xe9,50.0,0.1\n")
        with pytest.raises(HistoryError, match=r"m\.ckpt\.history\.csv:2: not UTF-8 text"):
            read_history(ckpt)

    def test_class_count_mismatch(self, tiny_dataset):
        model = Model(tiny_cls_config(num_classes=5), seed=1)
        with pytest.raises(ModelBuildError):
            train_classifier(model, tiny_dataset, TrainConfig(max_epochs=1), tiny_preprocess())

    def test_divergence_reports_epoch(self, tiny_dataset):
        model = Model(tiny_cls_config(), seed=1)
        with warnings.catch_warnings(record=True) as caught, pytest.raises(TrainingDiverged) as exc:
            warnings.simplefilter("always")
            train_classifier(model, tiny_dataset,
                             TrainConfig(lr=1e18, weight_decay=1e-4, max_epochs=8, seed=0),
                             tiny_preprocess())
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert exc.value.epoch >= 0
        assert exc.value.step >= 1
        assert f"epoch {exc.value.epoch}, step {exc.value.step}:" in str(exc.value)

    def test_memory_does_not_grow_with_the_manifest(self, stream_manifests):
        """Each batch decodes its own images: 48 more records raise the peak
        of a 1-epoch run by less than one record's decoded image (about 2.5 KB
        here; 334 KiB when every image was decoded before the first step)."""
        def run(manifest):
            train_classifier(Model(tiny_cls_config(), seed=1), manifest,
                             TrainConfig(batch_size=4, max_epochs=1, seed=1), tiny_preprocess())

        assert peak_growth(run, stream_manifests) < STREAM_IMAGE_BYTES


class TestLoneBatch:
    """A batch of one image fails a train-mode batch norm that sees one value
    per channel: an SWP head's, or the final one over a 1x1 feature map.
    Such a run is refused before its first step."""

    @pytest.mark.parametrize("kind, batch_size, reason", [
        ("plain", 11, "the final batch norm over a 1x1 feature map"),
        ("plain", 1, "the final batch norm over a 1x1 feature map"),
        ("swp", 11, "the SWP head's batch norm"),
        ("loc", 11, "the final batch norm over a 1x1 feature map"),
    ])
    def test_refused_by_name_before_the_first_step(self, tiny_dataset, kind, batch_size, reason):
        model, train = {
            "plain": (Model(tiny_cls_config(), seed=1), train_classifier),
            "swp": (Model(tiny_cls_config(input_size=40, head="swp_head"), seed=1,
                          swp_spec=SWPSpec(2, 2, 2), fc_nodes=8), train_classifier),
            "loc": (Model(tiny_loc_config(), seed=1), train_localiser),
        }[kind]
        before = params_bytes(model)
        pre = tiny_preprocess(crop=model.config.input_size, eval_scale=44, scale_range=(0.9, 1.0))
        with pytest.raises(ValueError, match=f"^12 images in batches of {batch_size} leave a batch "
                                             f"of one image, and {reason} needs at least two$"):
            train(model, tiny_dataset, TrainConfig(batch_size=batch_size, max_epochs=1), pre)
        assert params_bytes(model) == before and model.trained_epochs == 0

    def test_plain_head_over_a_larger_map_trains(self, tiny_dataset):
        model = Model(tiny_cls_config(input_size=40), seed=1)
        # README: a final map is 1x1 for inputs of 16 to 36 px
        assert [feature_map_extent(tiny_cls_config(input_size=s)) for s in (16, 36, 37, 40)] == [1, 1, 2, 2]
        history = train_classifier(model, tiny_dataset, TrainConfig(batch_size=11, max_epochs=1),
                                   tiny_preprocess(crop=40, eval_scale=44, scale_range=(0.9, 1.0)))
        assert history[-1].steps == 2


class TestTrainLocaliser:
    def test_step_loss_is_the_left_to_right_sum_of_the_four_cross_entropies(self):
        cfg = tiny_loc_config()
        stepped, reference = Model(cfg, seed=4), Model(cfg, seed=4)
        rng = np.random.default_rng(5)
        batch = Tensor(rng.uniform(size=(4, 3, 32, 32)).astype(np.float32))
        targets = [rng.integers(0, spec.n_bins, size=4) for _, spec in LOC_OUTPUTS]
        opt = MomentumSGD([t for _, t in stepped.parameters()], momentum=0.9, weight_decay=1e-4)
        loss, _ = _step(stepped, opt, batch, targets, (1.0, 1.0, 1.0, 1.0), 0.1)
        parts = [softmax_cross_entropy(o, t).data
                 for o, t in zip(reference.forward(batch, train=True), targets)]
        assert parts[0].dtype == np.float32
        assert loss == float(((parts[0] + parts[1]) + parts[2]) + parts[3])

    def test_constant_boxes_reach_full_accuracy(self, tmp_path):
        # classes 0 and 1 share glyph geometry (hue differs), placement fixed:
        # every box is identical, so the localiser only has to learn constants
        manifest = generate_dataset(2, 5, 32, tmp_path, seed=21,
                                    scale_range=(0.6, 0.6), center_jitter=0.0, clutter=0)
        model = Model(tiny_loc_config(), seed=6)
        cfg = TrainConfig(lr=0.05, max_epochs=30, seed=3, early_stop_accuracy=100.0)
        pre = tiny_preprocess(crop=32, eval_scale=36, scale_range=(1.0, 1.0))
        history = train_localiser(model, manifest, cfg, pre)
        assert history[-1].accuracy == pytest.approx(100.0)

    def test_encode_targets_match_binning(self):
        assert encode_box(BoundingBox(84, 84, 140, 140)) == (12, 12, 20, 20)

    def test_needs_loc_head(self, tiny_dataset):
        model = Model(tiny_cls_config(), seed=1)
        with pytest.raises(ModelBuildError):
            train_localiser(model, tiny_dataset, TrainConfig(max_epochs=1), tiny_preprocess())


# One desk training step (ResNet-18, width 1/8, 64 px, batch 8), importing
# swpnet before numpy as the CLI does; prints the sha256 of its parameters.
DESK_STEP = """
import hashlib
import swpnet
import numpy as np
from swpnet.autodiff import Tensor
from swpnet.models import Model, ModelConfig
from swpnet.training import MomentumSGD, _step
model = Model(ModelConfig(depth_variant=18, num_classes=10, width_multiplier=1 / 8,
                          input_size=64), seed=0)
opt = MomentumSGD([t for _, t in model.parameters()], momentum=0.9, weight_decay=1e-4)
rng = np.random.default_rng(1)
batch = Tensor(rng.uniform(size=(8, 3, 64, 64)).astype(np.float32))
_step(model, opt, batch, [rng.integers(0, 10, size=8)], [1.0], 0.1)
print(hashlib.sha256(b"".join(t.data.tobytes() for _, t in model.parameters())).hexdigest())
"""


def run_without_blas_settings(script: str, **blas_env) -> str:
    """stdout of `script` in a fresh interpreter whose environment sets none
    of the BLAS thread variables but `blas_env`."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(blas_env, PYTHONPATH=str(Path(swpnet.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return run.stdout.strip()


# prints each warning issued while importing numpy and swpnet in `{order}`
IMPORT_WARNINGS = """
import warnings
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    for name in {order}:
        __import__(name)
for w in caught:
    print(w.category.__name__, w.message)
"""
UNPINNED_WARNING = ("RuntimeWarning numpy was imported before swpnet with BLAS threads unpinned; "
                    "checkpoint bytes depend on the core count")


class TestBlasThreads:
    def test_a_step_without_blas_settings_writes_the_one_thread_bytes(self):
        """Importing swpnet first pins BLAS to one thread, so a step's
        weight gradients sum in the same order whatever the core count: a
        step left to OpenBLAS's default, one thread per core, wrote other
        parameter bytes on a 2-core host."""
        assert (run_without_blas_settings(DESK_STEP)
                == run_without_blas_settings(DESK_STEP, OPENBLAS_NUM_THREADS="1"))

    def test_a_step_after_numpy_was_imported_first_writes_the_one_thread_bytes(self):
        """Importing numpy first lets OpenBLAS start one thread per core;
        importing swpnet after it pins the loaded OpenBLAS to one thread."""
        assert (run_without_blas_settings("import numpy\n" + DESK_STEP)
                == run_without_blas_settings(DESK_STEP))

    def test_numpy_loaded_first_without_a_blas_setter_warns(self):
        # a build record naming another BLAS leaves no setter to call
        script = ("import numpy\n"
                  "numpy.show_config = lambda mode=None: {'Build Dependencies': {'blas': {'name': 'mkl'}}}\n"
                  + IMPORT_WARNINGS.format(order=("swpnet",)))
        assert run_without_blas_settings(script) == UNPINNED_WARNING

    @pytest.mark.parametrize("order, blas_env, printed", [
        (("numpy", "swpnet"), {}, ""),
        (("swpnet", "numpy"), {}, ""),
        (("numpy", "swpnet"), {"OPENBLAS_NUM_THREADS": "1"}, ""),
    ], ids=["numpy-first-unpinned", "swpnet-first", "numpy-first-pinned"])
    def test_numpy_loaded_first_with_blas_unpinned_warns(self, order, blas_env, printed):
        assert run_without_blas_settings(IMPORT_WARNINGS.format(order=order), **blas_env) == printed


class TestMomentumSGD:
    def test_update_rule(self):
        from swpnet.autodiff import Tensor
        p = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
        opt = MomentumSGD([p], momentum=0.5, weight_decay=0.0)
        p.grad = np.array([0.1, -0.2], dtype=np.float32)
        opt.step(lr=1.0)
        npt.assert_allclose(p.data, [0.9, 2.2], rtol=1e-6)
        assert p.grad is None       # step clears each gradient it applies
        p.grad = np.array([0.1, -0.2], dtype=np.float32)
        opt.step(lr=1.0)
        # velocity now 0.5*g + g = 1.5g
        npt.assert_allclose(p.data, [0.9 - 0.15, 2.2 + 0.3], rtol=1e-6)
        assert p.grad is None
