"""Evaluation surface: top-k metrics, per-output localisation accuracy with
bin-distance statistics, the two-stage localise-then-classify pipeline, and
the inference throughput benchmark."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .binning import (
    LOC_OUTPUTS,
    BoundingBox,
    crop_to_box,
    decode_box,
    encode_box,
    enlarge_box,
    largest_side_size,
    resize_largest_side,
)
from .datasynth import (
    DatasetManifest,
    PreprocessConfig,
    center_crop_transform,
    clip_box,
    load_image,
    to_network_input,
    transform_box,
)
from .imgio import ImageFormatError
from .layers import softmax
from .models import Model, ModelBuildError


def default_eval_config(input_size: int) -> PreprocessConfig:
    """Centre-crop config scaled from the 256-to-224 eval ratio."""
    return PreprocessConfig(crop_size=input_size, eval_scale=max(input_size, round(input_size * 256 / 224)),
                            scale_range=(1.0, 1.0), seed=0)


@dataclass
class MetricsReport:
    sample_count: int
    top1: float | None = None
    top5: float | None = None
    per_output_accuracy: tuple[float, float, float, float] | None = None
    mean_accuracy: float | None = None
    skipped: int = 0        # records left out of sample_count: unreadable image or lost box
    fallbacks: int = 0      # pipeline images classified from the central-crop fallback

    def summary(self) -> str:
        lines = [f"samples: {self.sample_count}"]
        if self.skipped:
            lines.append(f"skipped: {self.skipped}")
        if self.fallbacks:
            lines.append(f"fallbacks: {self.fallbacks}")
        if self.top1 is not None:
            lines.append(f"top-1: {self.top1:.3f}%")
        if self.top5 is not None:
            lines.append(f"top-5: {self.top5:.3f}%")
        if self.per_output_accuracy is not None:
            cx, cy, w, h = self.per_output_accuracy
            lines.append(f"centre-x: {cx:.3f}%  centre-y: {cy:.3f}%  width: {w:.3f}%  height: {h:.3f}%")
            lines.append(f"mean: {self.mean_accuracy:.3f}%")
        return "\n".join(lines)


@dataclass
class BinErrorStats:
    """Distribution of |predicted bin - true bin| per output."""

    counts: dict[str, np.ndarray]

    def fraction_at(self, output: str, distance: int) -> float:
        c = self.counts[output]
        total = c.sum()
        return float(c[distance] / total) if distance < len(c) and total else 0.0

    def fraction_at_least(self, output: str, distance: int) -> float:
        c = self.counts[output]
        total = c.sum()
        return float(c[distance:].sum() / total) if total else 0.0

    def summary(self) -> str:
        lines = []
        for name, _ in LOC_OUTPUTS:
            lines.append(f"{name}: dist0 {self.fraction_at(name, 0):.3f}  "
                         f"dist1 {self.fraction_at(name, 1):.3f}  "
                         f"dist>=3 {self.fraction_at_least(name, 3):.3f}")
        return "\n".join(lines)


def loc_metrics(per_output, sample_count: int) -> MetricsReport:
    per_output = tuple(float(v) for v in per_output)
    if len(per_output) != len(LOC_OUTPUTS):
        raise ValueError(f"expected {len(LOC_OUTPUTS)} per-output accuracies")
    return MetricsReport(sample_count=sample_count, per_output_accuracy=per_output,
                         mean_accuracy=float(np.mean(per_output)))


# -- top-k --------------------------------------------------------------------

def topk_predictions(logits: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k highest logits per row; ties break to the lower
    class id via a stable sort."""
    order = np.argsort(-logits, axis=1, kind="stable")
    return order[:, :k]


def topk_hits(logits: np.ndarray, targets: np.ndarray, k: int) -> int:
    preds = topk_predictions(logits, k)
    return int((preds == np.asarray(targets).reshape(-1, 1)).any(axis=1).sum())


def _forward(model: Model, rasters: list[np.ndarray]) -> list[np.ndarray]:
    """One inference batch; one array of rows per model output."""
    out = model.forward(Tensor(to_network_input(rasters)), train=False)
    return [o.data for o in out] if isinstance(out, list) else [out.data]


def _predicted_bins(model: Model, rasters: list[np.ndarray]) -> np.ndarray:
    """(n, 4) localiser bins by stable argmax: ties break to the lower bin."""
    return np.stack([topk_predictions(o, 1)[:, 0] for o in _forward(model, rasters)], axis=1)


_UNENCODABLE = "{lost} of {n} boxes cannot be encoded"


def _nothing_left(n_records: int, unreadable: list[ImageFormatError], lost: int, lost_cause: str) -> ValueError:
    """The error of an evaluation that skipped all of its n_records."""
    causes = []
    if unreadable:
        causes.append(f"{len(unreadable)} of {n_records} images do not decode (first: {unreadable[0]})")
    if lost:
        causes.append(lost_cause.format(lost=lost, n=n_records))
    return ValueError("no record to evaluate: " + " and ".join(causes))


def _evaluate(manifest: DatasetManifest, prepare, run, batch_size: int, lost_cause: str = _UNENCODABLE):
    """The batching loop of every evaluation.  In manifest order it decodes
    each record's image and turns it into an (input, truth) pair with
    prepare(record, image), or None to skip the record.  Each time
    batch_size inputs are kept, run(inputs) scores them, one row per input,
    so no more than one batch of inputs is held.  Returns (truths, rows,
    skipped); an image that does not decode counts as skipped.  No record
    left is a named ValueError."""
    truths, rows, inputs, unreadable = [], [], [], []
    for rec in manifest.records:
        try:
            image = load_image(rec)
        except ImageFormatError as err:
            unreadable.append(err)
            continue
        pair = prepare(rec, image)
        if pair is None:
            continue
        inputs.append(pair[0])
        truths.append(pair[1])
        if len(inputs) == batch_size:
            rows.append(run(inputs))
            inputs = []
    skipped = len(manifest.records) - len(truths)
    if not truths:
        raise _nothing_left(len(manifest.records), unreadable, skipped - len(unreadable), lost_cause)
    if inputs:
        rows.append(run(inputs))
    return truths, np.concatenate(rows, axis=0), skipped


def _encoded(box: BoundingBox | None) -> tuple[int, ...] | None:
    """The box's bins; None for no box or one the codec cannot encode."""
    try:
        return None if box is None else encode_box(box)
    except ValueError:
        return None


def evaluate_topk(target, manifest: DatasetManifest, batch_size: int = 32) -> MetricsReport:
    """Top-1 and top-5 accuracy of a classification model (central-crop
    preprocessing) or a TwoStagePipeline (its own preprocessing).  A record
    whose image does not decode, or whose box an oracle pipeline cannot
    encode, is skipped and counted in the report's `skipped`.  A classifier
    whose class count is not the manifest's is a ModelBuildError, raised
    before any image is decoded, as is a localiser, whose outputs are
    box bins, not class logits."""
    config = (target.cls_model if isinstance(target, TwoStagePipeline) else target).config
    if config.head == "loc_head":
        raise ModelBuildError("a loc_head localiser has no class logits to score; "
                              "evaluate it with evaluate_localisation")
    classes = config.num_classes
    if classes != manifest.n_classes:
        raise ModelBuildError(f"model head has {classes} classes, manifest has {manifest.n_classes}")
    fallbacks = []
    if isinstance(target, TwoStagePipeline):
        def prepare(rec, image):
            if target.loc_model is None and _encoded(rec.box) is None:
                return None
            return (image, rec.box), rec.class_id

        def run(inputs):
            images, boxes = zip(*inputs)
            logits, details = target.predict_batch(list(images), list(boxes))
            fallbacks.extend(d.used_fallback for d in details)
            return logits
    else:
        cfg = default_eval_config(target.config.input_size)

        def prepare(rec, image):
            return center_crop_transform(image, cfg)[0], rec.class_id

        def run(inputs):
            return _forward(target, inputs)[0]
    labels, logits, skipped = _evaluate(manifest, prepare, run, batch_size)
    top1, top5 = (100.0 * topk_hits(logits, labels, k) / len(labels) for k in (1, 5))
    return MetricsReport(sample_count=len(labels), top1=top1, top5=top5,
                         skipped=skipped, fallbacks=sum(fallbacks))


# -- localisation evaluation ----------------------------------------------------

def evaluate_localisation(model: Model, manifest: DatasetManifest, preprocess: str = "center",
                          batch_size: int = 32) -> tuple[MetricsReport, BinErrorStats]:
    """Per-output bin accuracy via argmax against encoded ground truth.

    preprocess='center' runs the eval centre crop and transforms boxes with
    it; preprocess='none' feeds the raw image resized largest-side-to-input
    (boxes scaled by its per-axis factors).  A record whose image does not
    decode, whose box the centre crop loses, or whose box cannot be encoded
    is skipped and counted in the report's `skipped`.
    """
    if model.config.head != "loc_head":
        raise ModelBuildError("evaluate_localisation needs a loc_head model")
    if preprocess not in ("center", "none"):
        raise ValueError(f"preprocess must be 'center' or 'none', got {preprocess!r}")
    input_size = model.config.input_size
    cfg = default_eval_config(input_size)

    def prepare(rec, image):
        if preprocess == "center":
            crop, sx, sy, ox, oy = center_crop_transform(image, cfg)
            box = clip_box(transform_box(rec.box, sx, sy, ox, oy), cfg.crop_size, cfg.crop_size)
        else:
            rows, cols = largest_side_size(*image.shape[:2], input_size)
            crop = resize_largest_side(image, input_size)
            box = transform_box(rec.box, cols / image.shape[1], rows / image.shape[0], 0.0, 0.0)
        target = _encoded(box)
        return None if target is None else (crop, target)

    lost_cause = "the eval crop lost {lost} of {n} boxes" if preprocess == "center" else _UNENCODABLE
    targets, preds, skipped = _evaluate(manifest, prepare, lambda crops: _predicted_bins(model, crops),
                                        batch_size, lost_cause)
    targets = np.array(targets, dtype=np.int64)
    report = loc_metrics(100.0 * (preds == targets).mean(axis=0), len(targets))
    report.skipped = skipped
    max_bins = max(spec.n_bins for _, spec in LOC_OUTPUTS)
    dists = np.abs(preds - targets)
    return report, BinErrorStats({name: np.bincount(dists[:, col], minlength=max_bins)
                                  for col, (name, _) in enumerate(LOC_OUTPUTS)})


# -- two-stage pipeline ---------------------------------------------------------

@dataclass
class PipelineDetails:
    predicted_box: BoundingBox      # decoded, in localiser input coordinates
    enlarged_box: BoundingBox       # mapped back onto the raw image, then enlarged
    used_fallback: bool


def box_crop(image: np.ndarray, box: BoundingBox, size: int) -> np.ndarray:
    """The second stage's input: the box enlarged by ENLARGE_FACTOR, cropped
    from the image and resized largest-side-to-size.  A box that misses the
    image raises ValueError."""
    return resize_largest_side(crop_to_box(image, enlarge_box(box)), size)


class TwoStagePipeline:
    """Localise then classify.

    With loc_model=None the pipeline runs in ground-truth-oracle mode: the
    manifest box is encoded and decoded through the bin codec in place of a
    network prediction, giving the pipeline's accuracy upper bound.
    """

    def __init__(self, loc_model: Model | None, cls_model: Model):
        if loc_model is not None and loc_model.config.head != "loc_head":
            raise ModelBuildError("two-stage pipeline needs a loc_head localiser")
        if cls_model.config.head == "loc_head":
            raise ModelBuildError("two-stage pipeline needs a classification second stage")
        self.loc_model = loc_model
        self.cls_model = cls_model

    def _stage_one(self, images: list[np.ndarray], gt_boxes) -> list[tuple]:
        """(box bins, sx, sy, ox, oy) per image."""
        if self.loc_model is None:
            if gt_boxes is None or any(b is None for b in gt_boxes):
                raise ValueError("oracle mode needs a ground-truth box per image")
            return [(encode_box(b), 1.0, 1.0, 0.0, 0.0) for b in gt_boxes]
        cfg = default_eval_config(self.loc_model.config.input_size)
        cropped = [center_crop_transform(image, cfg) for image in images]
        bins = _predicted_bins(self.loc_model, [crop for crop, *_ in cropped])
        return [(tuple(map(int, row)), *transform) for row, (_, *transform) in zip(bins, cropped)]

    def _stage_two_crop(self, image: np.ndarray, stage_one: tuple
                        ) -> tuple[np.ndarray, PipelineDetails]:
        """The box crop of the decoded box mapped back onto the raw image,
        or the resized central square when that box misses the image."""
        target, sx, sy, ox, oy = stage_one
        decoded = decode_box(target)
        box = BoundingBox((decoded.cx + ox) / sx, (decoded.cy + oy) / sy, decoded.w / sx, decoded.h / sy)
        size = self.cls_model.config.input_size
        try:
            crop, used_fallback = box_crop(image, box, size), False
        except ValueError:
            h, w = image.shape[:2]
            side = min(h, w)
            y0, x0 = (h - side) // 2, (w - side) // 2
            crop, used_fallback = resize_largest_side(image[y0:y0 + side, x0:x0 + side], size), True
        return crop, PipelineDetails(decoded, enlarge_box(box), used_fallback)

    def predict_batch(self, images: list[np.ndarray], gt_boxes=None
                      ) -> tuple[np.ndarray, list[PipelineDetails]]:
        """Logit rows for a batch of raw images, batching both stages, and
        each image's crop details."""
        stage_one = self._stage_one(images, gt_boxes)
        crops, details = zip(*(self._stage_two_crop(img, s1) for img, s1 in zip(images, stage_one)))
        return _forward(self.cls_model, list(crops))[0], list(details)

    def predict(self, image: np.ndarray, gt_box: BoundingBox | None = None,
                return_details: bool = False):
        """Class probability distribution for one raw image."""
        logits, details = self.predict_batch([image], None if gt_box is None else [gt_box])
        probs = softmax(logits)[0]
        return (probs, details[0]) if return_details else probs


# -- throughput benchmark --------------------------------------------------------

@dataclass
class BenchEntry:
    batch_size: int
    images: int
    seconds: float

    @property
    def fps(self) -> float:
        return self.images / self.seconds


@dataclass
class BenchReport:
    entries: dict[int, BenchEntry]
    echo: list[str]

    def summary(self) -> str:
        lines = list(self.echo)
        for bs in sorted(self.entries):
            e = self.entries[bs]
            lines.append(f"batch {bs}: {e.fps:.1f} images/s ({e.images} images in {e.seconds:.2f}s)")
        return "\n".join(lines)


def _synthetic_rasters(n: int, side: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size=(side, side, 3), dtype=np.uint8) for _ in range(n)]


def _bench_echo(target, is_pipeline: bool, n_images: int) -> list[str]:
    cfg = (target.cls_model if is_pipeline else target).config
    return [f"target: {'two-stage pipeline' if is_pipeline else 'single model'}",
            f"depth: {cfg.depth_variant}  width: {cfg.width_multiplier}  head: {cfg.head}",
            f"input: {cfg.input_size}  dtype: float32  images: {n_images}"]


# untimed warm-up batches, distinct input batches
BENCH_WARMUP_BATCHES = 2
BENCH_POOL_BATCHES = 16


def _make_runner(target, bs: int, seed: int, n_batches: int):
    """Pre-generated input pool plus a callable that runs one batch.  A
    pipeline target is timed with its localiser, so it needs one."""
    is_pipeline = isinstance(target, TwoStagePipeline)
    pool_size = min(n_batches, BENCH_POOL_BATCHES)
    if is_pipeline:
        side = target.loc_model.config.input_size
        pool = [_synthetic_rasters(bs, side, seed + i) for i in range(pool_size)]

        def run(i):
            target.predict_batch(pool[i % pool_size])
    else:
        side = target.config.input_size
        pool = [Tensor(to_network_input(_synthetic_rasters(bs, side, seed + i)))
                for i in range(pool_size)]

        def run(i):
            target.forward(pool[i % pool_size], train=False)

    return run, pool_size


def bench_fps_paired(targets: dict[str, object], batch_sizes=(1, 32), n_images: int = 10000,
                     seed: int = 0) -> dict[str, BenchReport]:
    """Wall-clock images/second per target and batch size over pre-generated
    in-memory batches; warm-up runs and input generation are excluded from
    timing.  Targets take turns batch by batch, so clock or load drift, even
    over a fraction of a second, cancels out of their FPS ratios.  Each
    target still covers n_images per batch size.  Per-op NaN/Inf checks run
    here as in every other command, so a model that produces a non-finite
    value raises NumericsError instead of being timed."""
    if n_images < 1:
        raise ValueError("n_images must be positive")
    for name, target in targets.items():
        if isinstance(target, TwoStagePipeline) and target.loc_model is None:
            raise ValueError(f"bench target {name!r} is an oracle pipeline (loc_model=None); "
                             "a pipeline is timed with its localiser, so it needs one")
    reports = {name: {} for name in targets}
    for bs in batch_sizes:
        n_batches = (n_images + bs - 1) // bs
        runners = {}
        for name, target in targets.items():
            run, pool_size = _make_runner(target, bs, seed, n_batches)
            for i in range(min(BENCH_WARMUP_BATCHES, pool_size)):
                run(i)
            runners[name] = {"run": run, "seconds": 0.0}
        for i in range(n_batches):
            for r in runners.values():
                start = time.perf_counter()
                r["run"](i)
                r["seconds"] += time.perf_counter() - start
        for name, r in runners.items():
            reports[name][bs] = BenchEntry(bs, n_batches * bs, r["seconds"])
    return {name: BenchReport(per_bs, _bench_echo(targets[name],
                                                  isinstance(targets[name], TwoStagePipeline), n_images))
            for name, per_bs in reports.items()}
