import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import swpnet
from conftest import STREAM_IMAGE_BYTES, peak_growth, tiny_cls_config, tiny_loc_config, tiny_preprocess
from swpnet.binning import BoundingBox, encode_box
from swpnet.datasynth import generate_dataset
from swpnet.models import (
    ModelBuildError,
    build_model,
    save_checkpoint,
)
from swpnet.training import (
    EpochStats,
    MomentumSGD,
    TrainConfig,
    TrainingDiverged,
    history_to_csv,
    lr_at_epoch,
    train_classifier,
    train_localiser,
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

    @pytest.mark.parametrize("name", ["lr", "momentum", "weight_decay"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_value_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            TrainConfig(**{name: value})

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
        model = build_model(tiny_cls_config(), seed=1)
        before = params_bytes(model)
        train_classifier(model, tiny_dataset, TrainConfig(lr=0.0, max_epochs=1, seed=0),
                         tiny_preprocess())
        after = params_bytes(model)
        assert before == after

    def test_same_seed_identical_checkpoints(self, tiny_dataset, tmp_path):
        files = []
        for run in range(2):
            model = build_model(tiny_cls_config(), seed=3)
            train_classifier(model, tiny_dataset, TrainConfig(lr=0.02, max_epochs=2, seed=5),
                             tiny_preprocess())
            path = tmp_path / f"run{run}.ckpt"
            save_checkpoint(model, path)
            files.append(path.read_bytes())
        assert files[0] == files[1]

    def test_history_shape_and_csv(self, tiny_dataset, tmp_path):
        model = build_model(tiny_cls_config(), seed=2)
        history = train_classifier(model, tiny_dataset, TrainConfig(max_epochs=2, seed=1),
                                   tiny_preprocess())
        assert [h.epoch for h in history] == [0, 1]
        assert history[-1].steps == 2 * ((len(tiny_dataset) + 7) // 8)
        path = tmp_path / "hist.csv"
        history_to_csv(history, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,steps,loss,accuracy,lr"
        assert len(lines) == 3

    def test_extended_csv_continues_steps(self, tmp_path):
        path = tmp_path / "hist.csv"
        history_to_csv([EpochStats(0, 3, 0.5, 50.0, 0.1), EpochStats(1, 6, 0.4, 60.0, 0.1)], path)
        history_to_csv([EpochStats(2, 3, 0.3, 70.0, 0.01)], path, extend=True)
        assert [row.split(",")[:2] for row in path.read_text().splitlines()] == [
            ["epoch", "steps"], ["0", "3"], ["1", "6"], ["2", "9"]]

    def test_extend_without_a_file_writes_a_fresh_one(self, tmp_path):
        path = tmp_path / "hist.csv"
        history_to_csv([EpochStats(2, 3, 0.3, 70.0, 0.01)], path, extend=True)
        assert path.read_text() == "epoch,steps,loss,accuracy,lr\n2,3,0.3,70.0,0.01\n"

    def test_class_count_mismatch(self, tiny_dataset):
        model = build_model(tiny_cls_config(num_classes=5), seed=1)
        with pytest.raises(ModelBuildError):
            train_classifier(model, tiny_dataset, TrainConfig(max_epochs=1), tiny_preprocess())

    def test_divergence_reports_epoch(self, tiny_dataset):
        model = build_model(tiny_cls_config(), seed=1)
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
            train_classifier(build_model(tiny_cls_config(), seed=1), manifest,
                             TrainConfig(batch_size=4, max_epochs=1, seed=1), tiny_preprocess())

        assert peak_growth(run, stream_manifests) < STREAM_IMAGE_BYTES


class TestTrainLocaliser:
    def test_zero_weight_heads_receive_no_update(self, tiny_dataset):
        model = build_model(tiny_loc_config(), seed=4)
        before = params_bytes(model)
        train_localiser(model, tiny_dataset,
                        TrainConfig(max_epochs=1, seed=2, loss_weights=(1, 1, 0, 0)),
                        tiny_preprocess())
        after = params_bytes(model)
        for name in after:
            if name.startswith("head.w.") or name.startswith("head.h."):
                assert after[name] == before[name], f"{name} moved despite zero loss weight"
        changed = [n for n in after if after[n] != before[n]]
        assert any(n.startswith("head.cx.") for n in changed)

    def test_constant_boxes_reach_full_accuracy(self, tmp_path):
        # classes 0 and 1 share glyph geometry (hue differs), placement fixed:
        # every box is identical, so the localiser only has to learn constants
        manifest = generate_dataset(2, 5, 32, tmp_path, seed=21,
                                    scale_range=(0.6, 0.6), center_jitter=0.0, clutter=0)
        model = build_model(tiny_loc_config(), seed=6)
        cfg = TrainConfig(lr=0.05, max_epochs=30, seed=3, early_stop_accuracy=100.0)
        pre = tiny_preprocess(crop=32, eval_scale=36, scale_range=(1.0, 1.0))
        history = train_localiser(model, manifest, cfg, pre)
        assert history[-1].accuracy == pytest.approx(100.0)

    def test_encode_targets_match_binning(self):
        t = encode_box(BoundingBox(84, 84, 140, 140))
        assert (t.bx, t.by, t.bw, t.bh) == (12, 12, 20, 20)

    def test_needs_loc_head(self, tiny_dataset):
        model = build_model(tiny_cls_config(), seed=1)
        with pytest.raises(ModelBuildError):
            train_localiser(model, tiny_dataset, TrainConfig(max_epochs=1), tiny_preprocess())


# One desk training step (ResNet-18, width 1/8, 64 px, batch 8), importing
# swpnet before numpy as the CLI does; prints the sha256 of its parameters.
DESK_STEP = """
import hashlib
import swpnet
import numpy as np
from swpnet.autodiff import Tensor
from swpnet.models import ModelConfig, build_model
from swpnet.training import MomentumSGD, _step
model = build_model(ModelConfig(depth_variant=18, num_classes=10, width_multiplier=1 / 8,
                                input_size=64), seed=0)
opt = MomentumSGD([t for _, t in model.parameters()], momentum=0.9, weight_decay=1e-4)
rng = np.random.default_rng(1)
batch = Tensor(rng.uniform(size=(8, 3, 64, 64)).astype(np.float32))
_step(model, opt, batch, [rng.integers(0, 10, size=8)], [1.0], 0.1)
print(hashlib.sha256(b"".join(t.data.tobytes() for _, t in model.parameters())).hexdigest())
"""


def desk_step_digest(**blas_env) -> str:
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(blas_env, PYTHONPATH=str(Path(swpnet.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", DESK_STEP], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return run.stdout.strip()


class TestBlasThreads:
    def test_a_step_without_blas_settings_writes_the_one_thread_bytes(self):
        """Importing swpnet first pins BLAS to one thread, so a step's
        weight gradients sum in the same order whatever the core count: a
        step left to OpenBLAS's default, one thread per core, wrote other
        parameter bytes on a 2-core host."""
        assert desk_step_digest() == desk_step_digest(OPENBLAS_NUM_THREADS="1")


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
