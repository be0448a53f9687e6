"""Training loops for the classifier and the four-output localiser.
Everything is deterministic given (config, seed, manifest)."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import GradTape, Tensor
from .binning import LOC_OUTPUTS, encode_box
from .datasynth import DatasetManifest, PreprocessConfig, load_image, preprocess_train, to_network_input
from .layers import softmax_cross_entropy
from .models import Model, ModelBuildError, feature_map_extent


class TrainingDiverged(RuntimeError):
    """`step` is the cumulative optimiser step that failed, counted from 1."""

    def __init__(self, epoch: int, step: int, message: str):
        super().__init__(f"training diverged at epoch {epoch}, step {step}: {message}")
        self.epoch = epoch
        self.step = step


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 8
    max_epochs: int = 30
    seed: int = 0
    # positive per-output weights for the localiser loss, one per LOC_OUTPUTS entry
    loss_weights: tuple[float, ...] = (1.0, 1.0, 1.0, 1.0)
    early_stop_accuracy: float | None = None

    def __post_init__(self):
        for name in ("lr", "momentum", "weight_decay", "early_stop_accuracy"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        # lr == 0 is allowed as a degenerate no-op (useful for harness checks)
        if self.lr < 0:
            raise ValueError(f"lr must not be negative, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be at least 1, got {self.max_epochs}")
        if len(self.loss_weights) != len(LOC_OUTPUTS):
            raise ValueError(f"loss weights need one value per localiser output "
                             f"({len(LOC_OUTPUTS)}), got {len(self.loss_weights)}")
        if not np.isfinite(self.loss_weights).all():
            raise ValueError(f"loss_weights must be finite, got {self.loss_weights}")
        if not all(w > 0 for w in self.loss_weights):
            raise ValueError(f"loss weights must be positive, got {self.loss_weights}")


@dataclass
class EpochStats:
    epoch: int
    steps: int            # cumulative optimiser steps, for iteration-based reading
    loss: float
    accuracy: float
    lr: float


HISTORY_HEADER = "epoch,steps,loss,accuracy,lr"


class HistoryError(ValueError):
    """A run history that a resumed run cannot continue; names `path:line`."""


def history_path(checkpoint) -> Path:
    """The run history kept beside a checkpoint: one row per trained epoch."""
    return Path(str(checkpoint) + ".history.csv")


def read_history(checkpoint) -> list[str]:
    """The rows of `checkpoint`'s history, which a run resumed from it
    continues; none when it has no history.  The file must hold the exact
    header and rows of five fields whose epoch and steps are integers."""
    path = history_path(checkpoint)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return []
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        lineno = data.count(b"\n", 0, err.start) + 1
        raise HistoryError(f"{path}:{lineno}: not UTF-8 text ({err.reason})") from None
    header, *rows = text.rstrip("\n").split("\n")
    if header != HISTORY_HEADER:
        raise HistoryError(f"{path}:1: expected the header {HISTORY_HEADER!r}, got {header!r}")
    for lineno, row in enumerate(rows, start=2):
        fields = row.split(",")
        if len(fields) != 5:
            raise HistoryError(f"{path}:{lineno}: expected 5 fields, got {len(fields)}")
        for name, value in zip(("epoch", "steps"), fields):
            if not (value.isascii() and value.isdigit()):
                raise HistoryError(f"{path}:{lineno}: {name} must be an integer, got {value!r}")
    return rows


def write_history(checkpoint, past: list[str], history: list[EpochStats]) -> int:
    """Write `checkpoint`'s history: the rows `past` of the run it resumed,
    then one row per epoch of `history`, whose steps continue from the last
    of them.  Returns the last row's steps."""
    base = int(past[-1].split(",")[1]) if past else 0
    rows = [f"{h.epoch},{base + h.steps},{h.loss!r},{h.accuracy!r},{h.lr!r}" for h in history]
    history_path(checkpoint).write_text("\n".join([HISTORY_HEADER, *past, *rows]) + "\n",
                                        encoding="utf-8")
    return base + history[-1].steps


class MomentumSGD:
    """v = momentum*v + grad + wd*param; param -= lr * v"""

    def __init__(self, params: list[Tensor], momentum: float, weight_decay: float):
        self.params = [p for p in params if p.requires_grad]
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self, lr: float) -> None:
        """Apply each parameter's gradient, then clear it."""
        for p, v in zip(self.params, self.velocity):
            if p.grad is None:
                continue
            g = p.grad + self.weight_decay * p.data
            p.grad = None
            v *= self.momentum
            v += g
            p.data -= lr * v


# the learning rate drops tenfold at half and again at three quarters of max_epochs
DECAY_MILESTONES = (0.5, 0.75)
DECAY_FACTOR = 0.1


def lr_at_epoch(config: TrainConfig, epoch: int) -> float:
    """The step-decay rate for `epoch`.  Milestones that round to the same
    epoch decay once there, and one that rounds to epoch 0 not at all, so a
    short run does not start at a hundredth of its rate."""
    lr = config.lr
    for start in sorted({int(config.max_epochs * m) for m in DECAY_MILESTONES} - {0}):
        if epoch >= start:
            lr *= DECAY_FACTOR
    return lr


def _step(model: Model, opt: MomentumSGD, batch: Tensor, targets, weights, lr: float
          ) -> tuple[float, float]:
    """One optimiser step on the weighted sum of one softmax cross-entropy
    per head output, added left to right.  Returns (loss, hits): a single
    output's count of correct rows, or the mean over outputs of their hit
    rates times the batch size.  The step's graph is freed when this call
    returns."""
    # an overflow surfaces as this step's NumericsError, not as numpy warnings ahead of it
    with np.errstate(over="ignore", invalid="ignore"):
        with GradTape():
            out = model.forward(batch, train=True)
            outputs = out if isinstance(out, list) else [out]
            total = None
            for output, target, w in zip(outputs, targets, weights):
                part = softmax_cross_entropy(output, target)
                part = part if w == 1.0 else ad.scale(part, w)
                total = part if total is None else ad.add(total, part)
            ad.backward(total)
        opt.step(lr)
    if len(outputs) == 1:
        return total.item(), int((outputs[0].data.argmax(axis=1) == targets[0]).sum())
    rates = [float((o.data.argmax(axis=1) == t).mean()) for o, t in zip(outputs, targets)]
    return total.item(), float(np.mean(rates)) * len(batch.data)


def _run_epochs(model: Model, manifest: DatasetManifest, config: TrainConfig,
                preprocess: PreprocessConfig, targets, weights) -> list[EpochStats]:
    """targets(class_ids, crop_boxes) gives a batch's target column per head output.
    Each batch decodes its own images, so no more than one batch of them is
    held; an image that does not decode fails the step that reads it."""
    records = manifest.records
    n, b = len(records), config.batch_size
    lone = ("the SWP head's batch norm" if model.head.swp is not None else
            "the final batch norm over a 1x1 feature map" if feature_map_extent(model.config) == 1 else "")
    if lone and (b == 1 or n % b == 1):   # these see one value per channel of a lone image
        raise ValueError(f"{n} images in batches of {b} leave a batch of one image, "
                         f"and {lone} needs at least two")
    class_ids = np.array([r.class_id for r in records], dtype=np.int64)
    rng = np.random.default_rng(config.seed)
    params = [t for _, t in model.parameters()]
    opt = MomentumSGD(params, config.momentum, config.weight_decay)
    history: list[EpochStats] = []
    steps = 0
    epoch_base = model.trained_epochs  # resumed runs continue the numbering
    for epoch in range(config.max_epochs):
        lr = lr_at_epoch(config, epoch)
        order = rng.permutation(n)
        epoch_loss = 0.0
        hits = 0.0
        for start in range(0, n, b):
            idx = order[start:start + b]
            crops, crop_boxes = [], []
            for i in idx:
                crop, box = preprocess_train(load_image(records[i]), records[i].box, preprocess, rng)
                crops.append(crop)
                crop_boxes.append(box)
            batch = Tensor(to_network_input(crops))
            steps += 1
            try:
                loss_val, batch_hits = _step(model, opt, batch, targets(class_ids[idx], crop_boxes),
                                             weights, lr)
            except ad.NumericsError as err:
                raise TrainingDiverged(epoch, steps, str(err)) from err
            epoch_loss += loss_val * len(idx)
            hits += batch_hits
        acc = 100.0 * hits / n
        history.append(EpochStats(epoch_base + epoch, steps, epoch_loss / n, acc, lr))
        model.trained_epochs += 1
        if config.early_stop_accuracy is not None and acc >= config.early_stop_accuracy:
            break
    return history


def train_classifier(model: Model, manifest: DatasetManifest, config: TrainConfig,
                     preprocess: PreprocessConfig) -> list[EpochStats]:
    """Momentum-SGD over softmax cross-entropy with train-time augmentation."""
    if model.config.head == "loc_head":
        raise ModelBuildError("train_classifier needs a classification head")
    head_classes = model.config.num_classes
    if head_classes != manifest.n_classes:
        raise ModelBuildError(f"model head has {head_classes} classes, "
                              f"manifest has {manifest.n_classes}")
    if preprocess.crop_size != model.config.input_size:
        raise ModelBuildError("preprocess crop size must match the model input size")
    return _run_epochs(model, manifest, config, preprocess, lambda labels, _boxes: (labels,), (1.0,))


def train_localiser(model: Model, manifest: DatasetManifest, config: TrainConfig,
                    preprocess: PreprocessConfig) -> list[EpochStats]:
    """Weighted sum of the per-output cross-entropies against binned box
    targets, weighted by config.loss_weights."""
    if model.config.head != "loc_head":
        raise ModelBuildError("train_localiser needs a loc_head model")
    if preprocess.crop_size != model.config.input_size:
        raise ModelBuildError("preprocess crop size must match the model input size")

    def box_bins(_labels, crop_boxes):
        return np.array([encode_box(b) for b in crop_boxes], dtype=np.int64).T

    return _run_epochs(model, manifest, config, preprocess, box_bins, config.loss_weights)
