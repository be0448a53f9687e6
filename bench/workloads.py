"""The three workload bodies.

Each body is built by its set-up (which the harness times as `setup_s`),
runs one warm-up pass with its correctness checks, and then runs whole
units of work, each of which returns the samples its end-to-end metrics are
computed from.  Timed samples are (start, end) perf_counter pairs, turned
into corrected seconds by the run's `HostClock`; units tick that clock
between pieces of work.  Bodies call swpnet's public functions as the CLI
does, through module attributes, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import common
from swpnet import datasynth, evaluation, models, swp, training
from swpnet.autodiff import Tensor
from spans import patched

# eval_disk set-up is rejected when fewer decoded boxes than this land on
# the image; the committed localiser lands 100% on the seeds tried.
MIN_CROP_HIT_RATIO = 0.95
LOGIT_TOLERANCE = dict(rtol=1e-4, atol=1e-5)   # float32, batch-32 row vs batch-1 run


class Checks:
    """Counts checked operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def __call__(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


def median(values) -> float:
    return float(np.median(values))


def p90(values) -> float:
    return float(np.percentile(values, 90))


def seconds(clock, intervals) -> list[float]:
    return [clock.seconds(start, end) for start, end in intervals]


def fixture(name: str):
    """Path of a committed checkpoint, after checking its bytes against fixtures.json."""
    path = common.FIXTURES / name
    if not path.is_file() or not common.FIXTURE_RECORD.is_file():
        raise common.SetupError(f"missing fixture {path} or {common.FIXTURE_RECORD}")
    expected = json.loads(common.FIXTURE_RECORD.read_text(encoding="utf-8"))
    if hashlib.sha256(path.read_bytes()).hexdigest() != expected[name]["sha256"]:
        raise common.SetupError(f"{path} does not match its recorded sha256")
    return path


# -- train_desk ------------------------------------------------------------------

class TrainDesk:
    """train_classifier on the desk glyph set, ending with save_checkpoint."""

    name = "train_desk"
    throughputs = ("train_images_per_s",)
    units_per_round = 1
    EPOCHS = 2            # the first epoch's loss must fall by the last
    BATCH = 8

    def __init__(self, seed: int, workdir):
        self.manifest = datasynth.generate_dataset(
            common.N_CLASSES, common.TRAIN_PER_CLASS, common.CANVAS, workdir / "train",
            seed=seed, **common.GLYPHS)
        self.preprocess = common.train_preprocess()
        self.config = training.TrainConfig(lr=0.02, batch_size=self.BATCH, max_epochs=self.EPOCHS, seed=15)
        self.images = self.EPOCHS * len(self.manifest)
        self.ckpt = workdir / "train_desk.ckpt"
        self.sha256 = None

    def warmup(self, checks: Checks, clock) -> None:
        """Training is its own warm-up: every unit runs from a fresh model."""

    @contextmanager
    def _step_marks(self, marks: list, checks: Checks, clock):
        """Timestamp each loss evaluation, check the loss is finite, and
        tick the clock, so every step lies between two ticks."""
        original = training.softmax_cross_entropy

        def marked(logits, targets):
            loss = original(logits, targets)
            marks.append((perf_counter(), logits.shape[0]))
            checks(math.isfinite(loss.item()), "train_desk: non-finite step loss")
            clock.tick()
            return loss

        with patched(training, "softmax_cross_entropy", marked):
            yield

    def unit(self, checks: Checks, clock) -> dict:
        model = models.Model(common.model_config("plain_avgpool_fc"), seed=5)
        marks: list = []
        with self._step_marks(marks, checks, clock):
            start = perf_counter()
            history = training.train_classifier(model, self.manifest, self.config, self.preprocess)
            end = perf_counter()
        models.save_checkpoint(model, self.ckpt)

        first, last = history[0].loss, history[-1].loss
        checks(math.isfinite(last) and last < first,
               f"train_desk: final loss {last} not below first-epoch loss {first}")
        digest = hashlib.sha256(self.ckpt.read_bytes()).hexdigest()
        self.sha256 = self.sha256 or digest
        checks(digest == self.sha256, "train_desk: same-seed checkpoint bytes differ")

        # one step = loss to next loss: optimiser, backward and the next
        # batch's augmentation and forward; only full batches are kept
        steps = [(a[0], b[0]) for a, b in zip(marks, marks[1:]) if a[1] == self.BATCH]
        return {"train": [(start, end)], "step": steps, "loss_final": [last]}

    def metrics(self, s: dict, clock) -> dict:
        steps_ms = [t * 1e3 for t in seconds(clock, s["step"])]
        return {
            "train_images_per_s": (self.images / median(seconds(clock, s["train"])), "img/s"),
            "train_step_ms_p50": (median(steps_ms), "ms"),
            "train_step_ms_p90": (p90(steps_ms), "ms"),
            "train_loss_final": (s["loss_final"][-1], "nat"),
        }

    def notes(self, s: dict) -> list[str]:
        return [f"train_desk: {len(s['step'])} step samples, {len(s['train'])} "
                f"train_classifier calls of {self.EPOCHS} epochs, checkpoint sha256 {self.sha256}"]


# -- infer_mem -------------------------------------------------------------------

class InferMem:
    """Model.forward(train=False) on in-memory batches, plain and SWP heads."""

    name = "infer_mem"
    throughputs = ("infer_b1_images_per_s", "infer_b32_images_per_s",
                   "infer_swp_b1_images_per_s", "infer_swp_b32_images_per_s")
    # Short units, three per round between the other bodies' units, so the
    # forward calls sample many moments of the run.  Forward calls per unit,
    # and calls between two clock ticks:
    CALLS = {1: 20, 32: 2}
    CALLS_PER_TICK = {1: 2, 32: 1}
    units_per_round = 3

    def __init__(self, seed: int, workdir):
        cls = fixture("cls.ckpt")
        plain = models.load_checkpoint(cls)
        extent = models.feature_map_extent(plain.config)
        swp_model = models.attach_swp_head(models.load_checkpoint(cls), swp.SWPSpec(9, extent, extent))
        self.models = {"": plain, "swp_": swp_model}
        samples = datasynth.synthesize(common.N_CLASSES, 4, common.CANVAS, seed=seed, **common.GLYPHS)
        cfg = evaluation.default_eval_config(common.INPUT_SIZE)
        crops = [datasynth.center_crop_transform(s.image, cfg)[0] for s in samples[:32]]
        batch = datasynth.to_network_input(crops)
        self.inputs = {32: [Tensor(batch)], 1: [Tensor(batch[i:i + 1].copy()) for i in range(32)]}

    def warmup(self, checks: Checks, clock) -> None:
        for tag, model in self.models.items():
            rows = model.forward(self.inputs[32][0], train=False).data
            singles = np.concatenate([model.forward(x, train=False).data for x in self.inputs[1]])
            checks(bool(np.isfinite(rows).all()), f"infer_mem: {tag}b32 logits not finite")
            checks(np.allclose(rows, singles, **LOGIT_TOLERANCE),
                   f"infer_mem: {tag}model batch-32 rows differ from batch-1 runs by "
                   f"{float(np.abs(rows - singles).max())}")

    def unit(self, checks: Checks, clock) -> dict:
        out = {}
        for tag, model in self.models.items():
            for bs, calls in self.CALLS.items():
                inputs = self.inputs[bs]
                times = []
                for i in range(calls):
                    start = perf_counter()
                    logits = model.forward(inputs[i % len(inputs)], train=False)
                    times.append((start, perf_counter()))
                    if (i + 1) % self.CALLS_PER_TICK[bs] == 0:
                        clock.tick()
                    checks(bool(np.isfinite(logits.data).all()), f"infer_mem: {tag}b{bs} logits not finite")
                out[f"{tag}b{bs}"] = times
        return out

    def metrics(self, s: dict, clock) -> dict:
        b1 = seconds(clock, s["b1"])
        return {
            "infer_b1_images_per_s": (1 / median(b1), "img/s"),
            "infer_b1_ms_p90": (p90(b1) * 1e3, "ms"),
            "infer_b32_images_per_s": (32 / median(seconds(clock, s["b32"])), "img/s"),
            "infer_swp_b1_images_per_s": (1 / median(seconds(clock, s["swp_b1"])), "img/s"),
            "infer_swp_b32_images_per_s": (32 / median(seconds(clock, s["swp_b32"])), "img/s"),
        }

    def notes(self, s: dict) -> list[str]:
        return ["infer_mem: " + ", ".join(f"{k} {len(v)} forward calls" for k, v in s.items())]


# -- eval_disk -------------------------------------------------------------------

class EvalDisk:
    """The public calls behind `swpnet eval` (localiser and classifier) and
    `swpnet pipeline`, from on-disk manifests and committed checkpoints, at
    batch 32.  Like the CLI, each command loads its own checkpoints and
    manifest, so those loads count in the throughputs."""

    name = "eval_disk"
    throughputs = ("eval_images_per_s", "pipeline_images_per_s")
    units_per_round = 2
    BATCH = 32

    def __init__(self, seed: int, workdir):
        manifest = datasynth.generate_dataset(
            common.N_CLASSES, common.EVAL_PER_CLASS, common.CANVAS, workdir / "eval",
            seed=seed, split="eval", **common.GLYPHS)
        self.manifest_path = datasynth.manifest_path(workdir / "eval", "eval")
        self.size = len(manifest)
        self.loc, self.cls, self.boxcls = (fixture(n) for n in ("loc.ckpt", "cls.ckpt", "boxcls.ckpt"))
        self.crop_hit_ratio = None

    def warmup(self, checks: Checks, clock) -> None:
        """One pass that counts, from outside, the decoded boxes that miss
        the image and send the pipeline down its central-crop fallback."""
        misses = []
        original = evaluation.crop_to_box

        def counted(image, box):
            try:
                return original(image, box)
            except ValueError:
                misses.append(box)
                raise

        with patched(evaluation, "crop_to_box", counted):
            self.unit(checks, clock)
        self.crop_hit_ratio = (self.size - len(misses)) / self.size
        checks(self.crop_hit_ratio >= MIN_CROP_HIT_RATIO,
               f"eval_disk: set-up rejected, crop hit ratio {self.crop_hit_ratio:.3f} "
               f"< {MIN_CROP_HIT_RATIO}")

    def _manifest(self):
        return datasynth.load_manifest(self.manifest_path)

    def unit(self, checks: Checks, clock) -> dict:
        n = self.size
        t0 = perf_counter()
        loc_report, _ = evaluation.evaluate_localisation(
            models.load_checkpoint(self.loc), self._manifest(), batch_size=self.BATCH)
        clock.tick()
        cls_report = evaluation.evaluate_topk(
            models.load_checkpoint(self.cls), self._manifest(), batch_size=self.BATCH)
        t1 = perf_counter()
        clock.tick()
        pipeline = evaluation.TwoStagePipeline(models.load_checkpoint(self.loc),
                                               models.load_checkpoint(self.boxcls))
        pipe_report = evaluation.evaluate_topk(pipeline, self._manifest(), batch_size=self.BATCH)
        t2 = perf_counter()

        for what, report in (("localisation", loc_report), ("classifier", cls_report),
                             ("pipeline", pipe_report)):
            checks(report.sample_count == n,
                   f"eval_disk: {what} evaluated {report.sample_count} of {n} records")
        for what, report in (("classifier", cls_report), ("pipeline", pipe_report)):
            checks(report.top1 <= report.top5, f"eval_disk: {what} top-1 {report.top1} > top-5 {report.top5}")
        return {"eval": [(t0, t1)], "pipeline": [(t1, t2)],
                "pipeline_top1": [pipe_report.top1], "loc_mean_acc": [loc_report.mean_accuracy]}

    def metrics(self, s: dict, clock) -> dict:
        return {
            "eval_images_per_s": (2 * self.size / median(seconds(clock, s["eval"])), "img/s"),
            "pipeline_images_per_s": (self.size / median(seconds(clock, s["pipeline"])), "img/s"),
            "pipeline_top1_pct": (s["pipeline_top1"][-1], "%"),
            "loc_mean_acc_pct": (s["loc_mean_acc"][-1], "%"),
        }

    def notes(self, s: dict) -> list[str]:
        return [f"eval_disk: {len(s['eval'])} passes over {self.size} images; "
                f"crop hit ratio {self.crop_hit_ratio:.3f} "
                f"({round((1 - self.crop_hit_ratio) * self.size)} central-crop fallbacks)"]


WORKLOADS = {body.name: body for body in (TrainDesk, InferMem, EvalDisk)}
