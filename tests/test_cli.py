import dataclasses
import errno
import hashlib
import inspect
import re
import shlex
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_cls_config, tiny_loc_config, write_manifest
from swpnet import datasynth, evaluation, models, swp, training
from swpnet.binning import BoundingBox
from swpnet.cli import build_parser, main
from swpnet.datasynth import DatasetManifest, ManifestRecord, load_manifest
from swpnet.models import Model, load_checkpoint, save_checkpoint


def tree_digest(root) -> str:
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def gen_tiny(tmp_path, name="data", classes=2, per_class=6, seed=13):
    out = tmp_path / name
    code = main(["gen-data", "--classes", str(classes), "--per-class", str(per_class),
                 "--canvas", "48", "--seed", str(seed), "--out-dir", str(out),
                 "--scale-min", "0.55", "--scale-max", "0.65", "--jitter", "0.05",
                 "--clutter", "1"])
    assert code == 0
    return out / "train.txt"


def train_tiny(tmp_path, manifest, name="m.ckpt", task="cls", extra=()):
    ckpt = tmp_path / name
    code = main(["train", "--task", task, "--arch", "18", "--width", "0.0625",
                 "--input-size", "32", "--manifest", str(manifest), "--out", str(ckpt),
                 "--epochs", "2", "--batch-size", "4", "--scale-min", "0.70",
                 "--scale-max", "0.80", "--seed", "3", *extra])
    assert code == 0
    return ckpt


class TestGenData:
    def test_count_arithmetic(self, tmp_path, capsys):
        out = tmp_path / "d"
        code = main(["gen-data", "--classes", "4", "--per-class", "25", "--seed", "7",
                     "--out-dir", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "classes: 4  images: 100" in stdout
        assert len(list((out / "images").glob("*.ppm"))) == 100

    def test_deterministic_tree(self, tmp_path):
        a = gen_tiny(tmp_path, "a", seed=7)
        b = gen_tiny(tmp_path, "b", seed=7)
        assert tree_digest(a.parent) == tree_digest(b.parent)

    def test_single_class_is_usage_error(self, tmp_path, capsys):
        code = main(["gen-data", "--classes", "1", "--out-dir", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "usage" in err.lower()

    def test_unknown_flag_exits_2(self, tmp_path):
        assert main(["gen-data", "--does-not-exist", "1", "--out-dir", str(tmp_path)]) == 2

    def test_tree_under_a_symlinked_directory_moves_whole(self, tmp_path, capsys):
        """Each manifest line names images/<file>, so a copy of the tree
        loads after the tree it was copied from is gone."""
        (tmp_path / "real").mkdir()
        (tmp_path / "lnk").symlink_to(tmp_path / "real", target_is_directory=True)
        assert main(["gen-data", "--classes", "2", "--per-class", "1", "--canvas", "64",
                     "--out-dir", str(tmp_path / "lnk" / "ds")]) == 0
        lines = (tmp_path / "real" / "ds" / "train.txt").read_text().splitlines()[1:]
        assert [line.split(",")[0] for line in lines] == ["images/train_00000_c0.ppm",
                                                          "images/train_00001_c1.ppm"]
        shutil.copytree(tmp_path / "real" / "ds", tmp_path / "copy")
        shutil.rmtree(tmp_path / "real")
        capsys.readouterr()
        assert main(["analyze-bins", "--manifest", str(tmp_path / "copy" / "train.txt"),
                     "--out-prefix", str(tmp_path / "hist")]) == 0
        assert "(total 2)" in capsys.readouterr().out
        assert [r.path for r in load_manifest(tmp_path / "copy" / "train.txt").records] == \
            [str((tmp_path / "copy" / line.split(",")[0]).resolve()) for line in lines]


class TestTrain:
    def test_cls_with_swp_head(self, tmp_path, capsys):
        manifest = gen_tiny(tmp_path)
        ckpt = train_tiny(tmp_path, manifest, "swp.ckpt",
                          extra=("--swp", "--swp-masks", "3", "--fc-nodes", "16"))
        model = load_checkpoint(ckpt)
        assert model.config.head == "swp_head"
        assert (ckpt.parent / (ckpt.name + ".history.csv")).exists()

    def test_loc_task_four_heads(self, tmp_path):
        manifest = gen_tiny(tmp_path)
        ckpt = train_tiny(tmp_path, manifest, "loc.ckpt", task="loc")
        model = load_checkpoint(ckpt)
        assert model.config.head == "loc_head"
        assert [d.out_features for d in model.head.outputs] == [25, 25, 40, 40]

    def test_swp_on_loc_task_warns_but_runs(self, tmp_path, capsys):
        manifest = gen_tiny(tmp_path)
        ckpt = train_tiny(tmp_path, manifest, "locswp.ckpt", task="loc",
                          extra=("--swp", "--swp-masks", "2", "--fc-nodes", "8"))
        err = capsys.readouterr().err
        assert "warning" in err.lower()
        model = load_checkpoint(ckpt)
        assert model.config.head == "loc_head"
        assert model.head.swp is not None

    def test_resume_continues_history_numbering(self, tmp_path):
        manifest = gen_tiny(tmp_path)
        ckpt = train_tiny(tmp_path, manifest, "r.ckpt")
        code = main(["train", "--task", "cls", "--manifest", str(manifest),
                     "--out", str(ckpt), "--resume", str(ckpt), "--epochs", "2",
                     "--batch-size", "4", "--scale-min", "0.70", "--scale-max", "0.80",
                     "--seed", "3", "--input-size", "32"])
        assert code == 0
        lines = (ckpt.parent / (ckpt.name + ".history.csv")).read_text().splitlines()
        epochs = [int(row.split(",")[0]) for row in lines[1:]]
        assert epochs == [0, 1, 2, 3]
        # the resumed run's lr schedule starts over at its own epoch 0
        assert [float(row.split(",")[4]) for row in lines[1:]] == pytest.approx([0.01, 0.001, 0.01, 0.001])
        assert load_checkpoint(ckpt).trained_epochs == 4

    def test_resume_reads_model_and_input_size_from_checkpoint(self, tmp_path):
        manifest = gen_tiny(tmp_path)
        first = train_tiny(tmp_path, manifest, "first.ckpt")
        resumed = {}
        for name, size_flag in (("given", ["--input-size", "32"]), ("read", [])):
            ckpt = tmp_path / f"{name}.ckpt"
            ckpt.write_bytes(first.read_bytes())
            Path(str(ckpt) + ".history.csv").write_bytes(Path(str(first) + ".history.csv").read_bytes())
            assert main(["train", "--manifest", str(manifest), "--out", str(ckpt), "--resume", str(ckpt),
                         "--epochs", "1", "--batch-size", "4", "--scale-min", "0.70",
                         "--scale-max", "0.80", "--seed", "3", *size_flag]) == 0
            resumed[name] = ckpt
        assert resumed["read"].read_bytes() == resumed["given"].read_bytes()
        rows = Path(str(resumed["read"]) + ".history.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [["0", "3"], ["1", "6"], ["2", "9"]]

    def test_resume_prints_the_cumulative_steps_of_the_history(self, tmp_path, capsys):
        manifest = gen_tiny(tmp_path)
        ckpt = train_tiny(tmp_path, manifest, "c.ckpt")
        assert "epochs: 2  steps: 6  " in capsys.readouterr().out
        assert main(["train", "--manifest", str(manifest), "--out", str(ckpt), "--resume", str(ckpt),
                     "--epochs", "1", "--batch-size", "4", "--scale-min", "0.70",
                     "--scale-max", "0.80", "--seed", "3"]) == 0
        printed = re.search(r"epochs: (\d+)  steps: (\d+)  ", capsys.readouterr().out)
        last_row = Path(str(ckpt) + ".history.csv").read_text().splitlines()[-1].split(",")
        assert printed.groups() == ("3", "9")
        assert printed.group(2) == last_row[1]

    def test_resume_into_a_new_checkpoint_continues_the_resumed_history(self, tmp_path, capsys):
        manifest = gen_tiny(tmp_path)
        first = train_tiny(tmp_path, manifest, "a.ckpt")
        out = tmp_path / "b.ckpt"
        assert main(["train", "--manifest", str(manifest), "--out", str(out), "--resume", str(first),
                     "--epochs", "1", "--batch-size", "4", "--scale-min", "0.70",
                     "--scale-max", "0.80", "--seed", "3"]) == 0
        assert "epochs: 3  steps: 9  " in capsys.readouterr().out
        rows = Path(str(out) + ".history.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [["0", "3"], ["1", "6"], ["2", "9"]]

    def test_missing_manifest_is_runtime_error(self, tmp_path, capsys):
        code = main(["train", "--manifest", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "x.ckpt")])
        assert code == 1
        assert "error" in capsys.readouterr().err.lower()

    def test_divergence_exits_1_without_checkpoint(self, tmp_path, capsys):
        manifest = gen_tiny(tmp_path)
        capsys.readouterr()
        ckpt = tmp_path / "m.ckpt"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--task", "cls", "--arch", "18", "--width", "0.0625",
                         "--input-size", "32", "--manifest", str(manifest), "--out", str(ckpt),
                         "--epochs", "2", "--batch-size", "4", "--scale-min", "0.70",
                         "--scale-max", "0.80", "--lr", "1e18"])
        captured = capsys.readouterr()
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert code == 1
        assert "training diverged at epoch 0" in captured.err
        assert captured.out == ""
        assert not ckpt.exists()
        assert not Path(str(ckpt) + ".history.csv").exists()

    def test_train_bit_reproducible(self, tmp_path):
        manifest = gen_tiny(tmp_path)
        a = train_tiny(tmp_path, manifest, "a.ckpt")
        b = train_tiny(tmp_path, manifest, "b.ckpt")
        assert a.read_bytes() == b.read_bytes()


class TestResumeHistory:
    """A resumed run continues one history, its checkpoint's, read before
    the first step."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("resume")
        manifest = gen_tiny(root)
        return manifest, train_tiny(root, manifest, "a.ckpt")

    @staticmethod
    def resume(manifest, ckpt, out):
        return main(["train", "--manifest", str(manifest), "--out", str(out), "--resume", str(ckpt),
                     "--epochs", "1", "--batch-size", "4", "--scale-min", "0.70",
                     "--scale-max", "0.80", "--seed", "3"])

    @pytest.mark.parametrize("text, line", [
        ("", 1),
        ("epoch,step,loss,accuracy,lr\n0,3,0.5,50.0,0.01\n", 1),
        ("epoch,steps,loss,accuracy,lr\n0,3,0.5,50.0,0.01\n1,6,0.4,60.0\n", 3),
        ("epoch,steps,loss,accuracy,lr\n0,3,0.5,50.0,0.01\n1,six,0.4,60.0,0.001\n", 3),
    ], ids=["empty", "other-header", "short-row", "non-integer-steps"])
    def test_bad_history_fails_before_the_first_step(self, run, tmp_path, capsys, monkeypatch,
                                                     text, line):
        manifest, first = run
        ckpt = tmp_path / "m.ckpt"
        ckpt.write_bytes(first.read_bytes())
        history = training.history_path(ckpt)
        history.write_text(text)
        steps = []
        step = training._step
        monkeypatch.setattr(training, "_step", lambda *args: steps.append(1) or step(*args))
        capsys.readouterr()
        assert self.resume(manifest, ckpt, ckpt) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {history}:{line}: ")
        assert captured.out == ""
        assert steps == []
        assert ckpt.read_bytes() == first.read_bytes()
        assert history.read_text() == text

    def test_resume_into_another_runs_checkpoint_continues_the_resumed_history(self, run, tmp_path,
                                                                              capsys):
        manifest, first = run
        out = tmp_path / "b.ckpt"
        training.history_path(out).write_text("epoch,steps,loss,accuracy,lr\n0,1,9.0,0.0,0.5\n")
        assert self.resume(manifest, first, out) == 0
        assert "epochs: 3  steps: 9  " in capsys.readouterr().out
        resumed = training.history_path(first).read_text()
        written = training.history_path(out).read_text()
        assert written.startswith(resumed)
        assert written[len(resumed):].split(",")[:2] == ["2", "9"]
        assert written.count("\n") == resumed.count("\n") + 1

    @pytest.mark.parametrize("into", ["m.ckpt", "out.ckpt"])
    def test_negative_trained_epochs_fails_before_writing(self, run, tmp_path, capsys, into):
        manifest, first = run
        ckpt = tmp_path / "m.ckpt"
        model = load_checkpoint(first)
        model.trained_epochs = -2
        save_checkpoint(model, ckpt)
        saved = ckpt.read_bytes()
        capsys.readouterr()
        assert self.resume(manifest, ckpt, tmp_path / into) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: config echo 'trained_epochs' must be at least 0, got -2\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]
        assert ckpt.read_bytes() == saved

    def test_failed_checkpoint_write_keeps_the_old_checkpoint(self, run, tmp_path, capsys,
                                                             monkeypatch):
        manifest, first = run
        ckpt = tmp_path / "m.ckpt"
        ckpt.write_bytes(first.read_bytes())
        history = training.history_path(ckpt)
        history.write_bytes(training.history_path(first).read_bytes())

        class FullDisk:
            """Takes half of a write, then fails as a full disk does."""

            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(data[:len(data) // 2])
                self.f.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        def open_for_models(path, mode="r", *args, **kwargs):
            f = open(path, mode, *args, **kwargs)
            return FullDisk(f) if mode[0] in "wxa" else f

        monkeypatch.setattr(models, "open", open_for_models, raising=False)
        capsys.readouterr()
        assert self.resume(manifest, ckpt, ckpt) == 1
        captured = capsys.readouterr()
        assert "No space left on device" in captured.err and captured.out == ""
        assert ckpt.read_bytes() == first.read_bytes()
        assert history.read_bytes() == training.history_path(first).read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt", "m.ckpt.history.csv"]


class TestEvalAndPipeline:
    def test_eval_cls_prints_topk(self, tmp_path, capsys):
        manifest = gen_tiny(tmp_path)
        ckpt = train_tiny(tmp_path, manifest)
        code = main(["eval", "--ckpt", str(ckpt), "--manifest", str(manifest)])
        assert code == 0
        out = capsys.readouterr().out
        assert "top-1" in out and "top-5" in out

    def test_eval_loc_prints_bins(self, tmp_path, capsys):
        manifest = gen_tiny(tmp_path)
        ckpt = train_tiny(tmp_path, manifest, "loc.ckpt", task="loc")
        code = main(["eval", "--ckpt", str(ckpt), "--manifest", str(manifest)])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean:" in out and "dist0" in out

    def test_pipeline_prints_topk(self, tmp_path, capsys):
        manifest = gen_tiny(tmp_path)
        cls_ckpt = train_tiny(tmp_path, manifest, "c.ckpt")
        loc_ckpt = train_tiny(tmp_path, manifest, "l.ckpt", task="loc")
        code = main(["pipeline", "--loc", str(loc_ckpt), "--cls", str(cls_ckpt),
                     "--manifest", str(manifest)])
        assert code == 0
        assert "top-1" in capsys.readouterr().out

    def test_pipeline_oracle_mode(self, tmp_path, capsys):
        manifest = gen_tiny(tmp_path)
        cls_ckpt = train_tiny(tmp_path, manifest, "c.ckpt")
        code = main(["pipeline", "--cls", str(cls_ckpt), "--manifest", str(manifest), "--oracle"])
        assert code == 0
        assert "top-1" in capsys.readouterr().out

    def test_raw_on_a_classifier_is_usage_error(self, tmp_path, swp_run, capsys):
        manifest, ckpt = swp_run
        assert main(["eval", "--ckpt", str(ckpt), "--manifest", str(manifest), "--raw"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage error: --raw needs a localiser checkpoint; {ckpt} "
                                       "has head 'swp_head'\n")
        assert captured.out == ""
        # the head is known only once the checkpoint loads
        assert main(["eval", "--ckpt", str(tmp_path / "none.ckpt"), "--manifest", str(manifest),
                     "--raw"]) == 1

    def test_oracle_with_loc_is_usage_error(self, tmp_path, swp_run, capsys):
        manifest, ckpt = swp_run
        assert main(["pipeline", "--cls", str(ckpt), "--manifest", str(manifest), "--oracle",
                     "--loc", str(tmp_path / "none.ckpt")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: --oracle crops to ground-truth boxes "
                                       "and takes no --loc\n")
        assert captured.out == ""

    def test_pipeline_without_loc_or_oracle_is_usage_error(self, tmp_path, capsys):
        # the flags are checked before any file is read
        assert main(["pipeline", "--cls", str(tmp_path / "c.ckpt"),
                     "--manifest", str(tmp_path / "eval.txt")]) == 2
        captured = capsys.readouterr()
        assert "usage error: pipeline needs --loc" in captured.err and captured.out == ""


FIXTURES = Path(__file__).resolve().parents[1] / "bench" / "fixtures"


class TestCheckpointsThatDoNotFit:
    """A checkpoint of the wrong head kind, or a classifier whose class count
    is not the manifest's, is a flag value the library rejects: exit 2 with
    the command's usage line, and no report."""

    @pytest.mark.parametrize("command, flags, message", [
        ("pipeline", ["--loc", "cls.ckpt", "--cls", "cls.ckpt"], "needs a loc_head localiser"),
        ("pipeline", ["--loc", "loc.ckpt", "--cls", "loc.ckpt"], "needs a classification second stage"),
        ("bench", ["--ckpt", "cls.ckpt", "--loc-ckpt", "cls.ckpt", "--images", "1"],
         "needs a loc_head localiser"),
        ("eval", ["--ckpt", "cls.ckpt"], "model head has 10 classes, manifest has 2"),
        ("pipeline", ["--oracle", "--cls", "cls.ckpt"], "model head has 10 classes, manifest has 2"),
        ("pipeline", ["--loc", "loc.ckpt", "--cls", "cls.ckpt"], "model head has 10 classes, manifest has 2"),
    ])
    def test_is_usage_error(self, tmp_path, capsys, command, flags, message):
        manifest = gen_tiny(tmp_path)
        capsys.readouterr()
        args = [str(FIXTURES / f) if f.endswith(".ckpt") else f for f in flags]
        if command != "bench":
            args += ["--manifest", str(manifest)]
        assert main([command, *args]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: ") and message in captured.err
        assert f"usage: swpnet {command}" in captured.err
        assert captured.out == ""


class TestBenchHeatmapBins:
    def test_bench_prints_fps_lines(self, tmp_path, capsys):
        manifest = gen_tiny(tmp_path)
        ckpt = train_tiny(tmp_path, manifest)
        code = main(["bench", "--ckpt", str(ckpt), "--batches", "1,2", "--images", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "batch 1:" in out and "batch 2:" in out

    def test_bench_non_finite_forward_exits_1(self, tmp_path, capsys):
        # finite weights, so the checkpoint loads, that overflow to Inf in the forward
        model = Model(tiny_cls_config(input_size=32), seed=4)
        model.stem_conv.weight.data[:] = 3e38
        ckpt = tmp_path / "huge.ckpt"
        save_checkpoint(model, ckpt)
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["bench", "--ckpt", str(ckpt), "--batches", "1", "--images", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert "error: conv2d produced a non-finite value" in captured.err and captured.out == ""

    def test_bench_bad_batches_usage_error(self, tmp_path):
        manifest = gen_tiny(tmp_path)
        ckpt = train_tiny(tmp_path, manifest)
        assert main(["bench", "--ckpt", str(ckpt), "--batches", "1,ab"]) == 2

    def test_heatmap_writes_pgm(self, tmp_path, capsys):
        manifest = gen_tiny(tmp_path)
        for task in ("cls", "loc"):     # an SWP classifier and an SWP localiser
            ckpt = train_tiny(tmp_path, manifest, f"{task}_swp.ckpt", task=task,
                              extra=("--swp", "--swp-masks", "3", "--fc-nodes", "16"))
            out_dir = tmp_path / f"{task}_maps"
            code = main(["heatmap", "--ckpt", str(ckpt), "--manifest", str(manifest),
                         "--out-dir", str(out_dir), "--limit", "2"])
            assert code == 0
            files = sorted(out_dir.glob("*.pgm"))
            assert len(files) == 2
            assert files[0].read_bytes().startswith(b"P5")

    def test_heatmap_requires_swp_head(self, tmp_path):
        manifest = gen_tiny(tmp_path)
        ckpt = train_tiny(tmp_path, manifest)
        assert main(["heatmap", "--ckpt", str(ckpt), "--manifest", str(manifest),
                     "--out-dir", str(tmp_path / "m")]) == 2

    @pytest.mark.parametrize("layout", [("--rows", "5"), ("--rows", "4", "--cols", "4")])
    def test_heatmap_layout_mismatch_is_usage_error_and_writes_nothing(self, tmp_path, swp_run,
                                                                       capsys, layout):
        manifest, ckpt = swp_run     # 3 masks x 32 channels = 96 values
        code = main(["heatmap", "--ckpt", str(ckpt), "--manifest", str(manifest),
                     "--out-dir", str(tmp_path / "maps"), *layout])
        assert code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "cannot hold the 96 SWP values" in err
        assert list(tmp_path.iterdir()) == []

    def test_analyze_bins_totals(self, tmp_path, capsys):
        manifest = gen_tiny(tmp_path)
        code = main(["analyze-bins", "--manifest", str(manifest),
                     "--out-prefix", str(tmp_path / "hist")])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("total 12") == 4
        for key in ("cx", "cy", "w", "h"):
            body = (tmp_path / f"hist_{key}.csv").read_text().splitlines()
            assert sum(int(r.split(",")[1]) for r in body[1:]) == 12

    def test_preprocess_histograms_independent_of_dataset_directory(self, tmp_path):
        tables = []
        for where in ("a", "b/nested"):
            manifest = gen_tiny(tmp_path / where)
            prefix = tmp_path / where / "hist"
            assert main(["analyze-bins", "--manifest", str(manifest), "--preprocess",
                         "--crop", "32", "--out-prefix", str(prefix)]) == 0
            tables.append([Path(f"{prefix}_{key}.csv").read_text() for key in ("cx", "cy", "w", "h")])
        assert tables[0] == tables[1]


@pytest.fixture(scope="module")
def swp_run(tmp_path_factory):
    """A tiny manifest and an SWP-head classifier checkpoint trained on it."""
    root = tmp_path_factory.mktemp("count_flags")
    manifest = gen_tiny(root)
    return manifest, train_tiny(root, manifest, "swp.ckpt",
                                extra=("--swp", "--swp-masks", "3", "--fc-nodes", "16"))


class TestCountFlags:
    @pytest.mark.parametrize("command, flag, value", [
        ("train", "--epochs", "0"),
        ("eval", "--batch-size", "0"),
        ("pipeline", "--batch-size", "-3"),
        ("heatmap", "--limit", "-1"),
        ("gen-data", "--per-class", "0"),
        ("gen-data", "--classes", "0"),
        ("gen-data", "--canvas", "0"),
        ("train", "--input-size", "0"),
        ("analyze-bins", "--crop", "-4"),
    ])
    def test_count_below_one_is_usage_error_and_writes_nothing(self, tmp_path, swp_run, capsys,
                                                                command, flag, value):
        manifest, ckpt = swp_run
        out = tmp_path / "out"
        args = {
            "train": ["--manifest", str(manifest), "--out", str(out), "--arch", "18",
                      "--width", "0.0625", "--input-size", "32"],
            "eval": ["--ckpt", str(ckpt), "--manifest", str(manifest)],
            "pipeline": ["--cls", str(ckpt), "--manifest", str(manifest), "--oracle"],
            "heatmap": ["--ckpt", str(ckpt), "--manifest", str(manifest), "--out-dir", str(out)],
            "gen-data": ["--out-dir", str(out)],
            "analyze-bins": ["--manifest", str(manifest), "--out-prefix", str(out), "--preprocess"],
        }[command]
        assert main([command, *args, flag, value]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err and f"argument {flag}: must be at least 1, got {value}" in err
        assert list(tmp_path.iterdir()) == []

    def test_negative_clutter_is_usage_error_and_writes_nothing(self, tmp_path, capsys):
        assert main(["gen-data", "--out-dir", str(tmp_path / "out"), "--clutter", "-2"]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "argument --clutter: must be at least 0, got -2" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_jitter_is_usage_error_and_writes_nothing(self, tmp_path, capsys, value):
        assert main(["gen-data", "--out-dir", str(tmp_path / "out"), f"--jitter={value}"]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err and f"center_jitter must be finite, got {float(value)}" in err
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize("flag, value", [
        ("--scale-min", "0"),
        ("--scale-max", "0.95"),
        ("--margin", "2"),
        ("--canvas", "16"),
    ])
    def test_bad_gen_data_value_is_usage_error_and_writes_nothing(self, tmp_path, capsys, flag, value):
        assert main(["gen-data", "--out-dir", str(tmp_path / "out"), flag, value]) == 2
        assert "usage:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("split", ["my split", "a,b", "", "a/b"])
    def test_unloadable_split_is_usage_error_and_writes_nothing(self, tmp_path, capsys, split):
        assert main(["gen-data", "--out-dir", str(tmp_path / "out"), "--per-class", "1",
                     "--split", split]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage error: split tag {split!r} is empty or holds "
                                       f"whitespace, a comma or a path separator\n")
        assert "usage: swpnet" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestRejectedFlagValues:
    """A flag value the library rejects is a usage error for every command."""

    @pytest.mark.parametrize("command, flag, value", [
        ("train", "--lr", "-1"),
        ("train", "--lr", "nan"),
        ("train", "--momentum", "nan"),
        ("train", "--weight-decay", "inf"),
        ("train", "--width", "2"),
        ("train", "--input-size", "8"),
        ("train", "--scale-min", "0"),
        ("train", "--scale-max", "inf"),
        ("train", "--early-stop", "nan"),
        ("train", "--early-stop", "inf"),
        ("analyze-bins", "--scale-min", "0"),
        ("analyze-bins", "--scale-max", "inf"),
        ("analyze-bins", "--crop", "4"),
        ("bench", "--batches", "1,ab"),
        ("bench", "--batches", "0"),
    ])
    def test_exits_2_and_writes_nothing(self, tmp_path, swp_run, capsys, command, flag, value):
        manifest, ckpt = swp_run
        out = tmp_path / "out"
        args = {
            "train": ["--manifest", str(manifest), "--out", str(out), "--arch", "18",
                      "--width", "0.0625", "--input-size", "32", "--epochs", "1"],
            "analyze-bins": ["--manifest", str(manifest), "--out-prefix", str(out), "--preprocess",
                             "--crop", "32"],
            "bench": ["--ckpt", str(ckpt), "--images", "1"],
        }[command]
        assert main([command, *args, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: ") and "usage: swpnet" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestLoneBatch:
    """Six images in batches of five leave a batch of one, which a 1x1
    feature map or an SWP head cannot train on: the run fails before its
    first step and writes nothing."""

    @pytest.mark.parametrize("size, extra, reason", [
        ("32", [], "the final batch norm over a 1x1 feature map"),
        ("64", ["--swp"], "the SWP head's batch norm"),
    ])
    def test_fails_before_writing(self, tmp_path, capsys, size, extra, reason):
        assert main(["gen-data", "--classes", "2", "--per-class", "3", "--canvas", "64",
                     "--out-dir", str(tmp_path / "d")]) == 0
        capsys.readouterr()
        out = tmp_path / "m.ckpt"
        assert main(["train", "--arch", "18", "--width", "0.0625", "--batch-size", "5",
                     "--input-size", size, "--epochs", "1", *extra,
                     "--manifest", str(tmp_path / "d" / "train.txt"), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: 6 images in batches of 5 leave a batch of one image, "
                                f"and {reason} needs at least two\n")
        assert captured.out == ""
        assert not out.exists() and not Path(str(out) + ".history.csv").exists()


class TestHeaderOnlyManifest:
    @pytest.mark.parametrize("command", ["train", "eval", "pipeline", "heatmap", "analyze-bins"])
    def test_is_named_error_and_writes_nothing(self, tmp_path, swp_run, capsys, command):
        _, ckpt = swp_run
        manifest = tmp_path / "empty.txt"
        manifest.write_text("classes=2 split=train\n\n")   # a blank line is no record
        out = tmp_path / "out"
        args = {
            "train": ["--out", str(out), "--arch", "18", "--width", "0.0625", "--input-size", "32"],
            "eval": ["--ckpt", str(ckpt)],
            "pipeline": ["--cls", str(ckpt), "--oracle"],
            "heatmap": ["--ckpt", str(ckpt), "--out-dir", str(out)],
            "analyze-bins": ["--out-prefix", str(out)],
        }[command]
        assert main([command, "--manifest", str(manifest), *args]) == 1
        assert f"error: {manifest}: manifest has no records" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [manifest]


class TestTruncatedImage:
    """One image that does not decode is skipped by eval and pipeline and
    still fails training."""

    @pytest.fixture
    def bad_manifest(self, tmp_path, swp_run):
        manifest = load_manifest(swp_run[0])
        rec = manifest.records[0]
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(Path(rec.path).read_bytes()[:-3])
        manifest.records[0] = ManifestRecord(str(bad), rec.class_id, rec.box)
        write_manifest(manifest, tmp_path / "bad.txt")
        return tmp_path / "bad.txt", len(manifest.records)

    @pytest.mark.parametrize("command", ["eval", "pipeline"])
    def test_skipped_and_reported(self, bad_manifest, swp_run, capsys, command):
        path, n_records = bad_manifest
        ckpt = str(swp_run[1])
        args = {"eval": ["--ckpt", ckpt], "pipeline": ["--cls", ckpt, "--oracle"]}[command]
        assert main([command, "--manifest", str(path), *args]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == [f"samples: {n_records - 1}", "skipped: 1"]

    def test_training_still_fails(self, bad_manifest, tmp_path, capsys, monkeypatch):
        """Training fails at the batch that reads the bad image and writes
        nothing.  With seed 4 the first record falls in the epoch's first
        batch, and the last record in its third, after two steps have run."""
        steps = []
        step = training._step
        monkeypatch.setattr(training, "_step", lambda *args: steps.append(1) or step(*args))
        first = load_manifest(bad_manifest[0])
        recs = first.records
        last = tmp_path / "bad_last.txt"
        write_manifest(DatasetManifest([*recs[1:], recs[0]], first.n_classes, first.split), last)
        for manifest, name, steps_run in ((bad_manifest[0], "first.ckpt", 0), (last, "last.ckpt", 2)):
            out = tmp_path / name
            steps.clear()
            assert main(["train", "--manifest", str(manifest), "--out", str(out), "--arch", "18",
                         "--width", "0.0625", "--input-size", "32", "--epochs", "1",
                         "--batch-size", "4", "--seed", "4"]) == 1
            assert f"error: truncated pixel data in {tmp_path / 'bad.ppm'}" in capsys.readouterr().err
            assert len(steps) == steps_run
            assert not out.exists()
            assert not Path(str(out) + ".history.csv").exists()


class TestUnencodableBox:
    """A record whose box lies left of the image is skipped by the raw
    localiser eval and the oracle pipeline, which read its box."""

    @pytest.mark.parametrize("command", ["eval", "pipeline"])
    def test_skipped_and_reported(self, tmp_path, swp_run, capsys, command):
        manifest = load_manifest(swp_run[0])
        rec = manifest.records[3]
        manifest.records[3] = ManifestRecord(rec.path, rec.class_id, BoundingBox(-5.0, 20.0, 4.0, 6.0))
        write_manifest(manifest, tmp_path / "m.txt")
        loc = tmp_path / "loc.ckpt"
        save_checkpoint(Model(tiny_loc_config(), seed=2), loc)
        args = {"eval": ["--ckpt", str(loc), "--raw"],
                "pipeline": ["--cls", str(swp_run[1]), "--oracle"]}[command]
        assert main([command, "--manifest", str(tmp_path / "m.txt"), "--batch-size", "5", *args]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == [f"samples: {len(manifest.records) - 1}",
                                                            "skipped: 1"]


class TestHelpContract:
    @pytest.mark.parametrize("command", ["gen-data", "train", "eval", "pipeline",
                                         "bench", "heatmap", "analyze-bins"])
    def test_every_flag_documents_a_default(self, command, capsys):
        code = main([command, "--help"])
        assert code == 0
        text = capsys.readouterr().out
        for flag in re.findall(r"^\s+(--[\w-]+)", text, flags=re.M):
            if flag in ("--help",):
                continue
            section = text[text.index(flag):]
            entry = section.split("  --", 1)[0]
            assert ("default" in entry) or ("required" not in entry.lower()), \
                f"{command} {flag} lacks a documented default"

    def test_non_integer_seed_env_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SWPNET_SEED", "abc")
        code = main(["gen-data", "--out-dir", str(tmp_path / "d")])
        assert code == 2
        assert "SWPNET_SEED" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_seed_env_override(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SWPNET_SEED", "99")
        main(["gen-data", "--help"])
        text = capsys.readouterr().out
        assert "default: 99" in text

    def test_flag_defaults_equal_the_library_defaults(self):
        """A flag that feeds a library setting declares that setting's own
        default, so the CLI and the library do not drift apart."""
        parse = build_parser().parse_args
        gen = parse(["gen-data", "--out-dir", "d"])
        train = parse(["train", "--manifest", "m", "--out", "o"])
        bins = parse(["analyze-bins", "--manifest", "m", "--out-prefix", "p"])
        ev = parse(["eval", "--ckpt", "c", "--manifest", "m"])
        pipe = parse(["pipeline", "--cls", "c", "--manifest", "m"])
        bench = parse(["bench", "--ckpt", "c"])
        config, pre = training.TrainConfig(), datasynth.PreprocessConfig()
        model = {f.name: f.default for f in dataclasses.fields(models.ModelConfig)}

        def default(fn, name):
            return inspect.signature(fn).parameters[name].default

        pairs = {
            "train --lr": (train.lr, config.lr),
            "train --momentum": (train.momentum, config.momentum),
            "train --weight-decay": (train.weight_decay, config.weight_decay),
            "train --batch-size": (train.batch_size, config.batch_size),
            "train --epochs": (train.epochs, config.max_epochs),
            "train --scale-min/max": ((train.scale_min, train.scale_max), pre.scale_range),
            "analyze-bins --scale-min/max": ((bins.scale_min, bins.scale_max), pre.scale_range),
            "analyze-bins --crop": (bins.crop, pre.crop_size),
            "gen-data --margin": (gen.margin, default(datasynth.generate_dataset, "similarity_margin")),
            "gen-data --scale-min/max": ((gen.scale_min, gen.scale_max),
                                         default(datasynth.generate_dataset, "scale_range")),
            "gen-data --jitter": (gen.jitter, default(datasynth.generate_dataset, "center_jitter")),
            "gen-data --clutter": (gen.clutter, default(datasynth.generate_dataset, "clutter")),
            "gen-data --split": (gen.split, default(datasynth.generate_dataset, "split")),
            "train --swp-masks": (train.swp_masks, swp.SWPSpec().num_masks),
            "train --fc-nodes": (train.fc_nodes, default(models.Model, "fc_nodes")),
            "train --width": (train.width, model["width_multiplier"]),
            "train --input-size": (train.input_size, model["input_size"]),
            "eval --batch-size": (ev.batch_size, default(evaluation.evaluate_topk, "batch_size")),
            "eval --batch-size (localiser)": (ev.batch_size,
                                              default(evaluation.evaluate_localisation, "batch_size")),
            "pipeline --batch-size": (pipe.batch_size, default(evaluation.evaluate_topk, "batch_size")),
            "bench --images": (bench.images, default(evaluation.bench_fps_paired, "n_images")),
            "bench --batches": (bench.batches, default(evaluation.bench_fps_paired, "batch_sizes")),
        }
        assert {name: pair for name, pair in pairs.items() if pair[0] != pair[1]} == {}


def readme_commands() -> list[list[str]]:
    """The arguments of each `swpnet` line in README's CLI walkthrough."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    walkthrough = text.split("## CLI walkthrough", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    lines = walkthrough.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("swpnet ")]


def test_readme_walkthrough_parses():
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"gen-data", "train", "eval", "pipeline", "bench",
                                              "heatmap", "analyze-bins"}
    for argv in commands:
        build_parser().parse_args(argv)
