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
from .models import Model, ModelBuildError


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
    # per-output weights for the localiser loss, one per LOC_OUTPUTS entry
    loss_weights: tuple[float, ...] = (1.0, 1.0, 1.0, 1.0)
    early_stop_accuracy: float | None = None

    def __post_init__(self):
        for name in ("lr", "momentum", "weight_decay"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        # lr == 0 is allowed as a degenerate no-op (useful for harness checks)
        if self.lr < 0:
            raise ValueError(f"lr must not be negative, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if len(self.loss_weights) != len(LOC_OUTPUTS):
            raise ValueError(f"loss weights need one value per localiser output "
                             f"({len(LOC_OUTPUTS)}), got {len(self.loss_weights)}")
        if any(w < 0 for w in self.loss_weights) or not any(w > 0 for w in self.loss_weights):
            raise ValueError("loss weights must be non-negative with at least one positive")


@dataclass
class EpochStats:
    epoch: int
    steps: int            # cumulative optimiser steps, for iteration-based reading
    loss: float
    accuracy: float
    lr: float


def history_to_csv(history: list[EpochStats], path, extend: bool = False) -> int:
    """Write `epoch,steps,loss,accuracy,lr` rows and return the last row's
    steps.  With extend, an existing file keeps its rows and the new rows'
    steps continue from its last row; epochs already continue from the
    model's trained epochs."""
    path = Path(path)
    lines = (path.read_text(encoding="utf-8").rstrip("\n").splitlines() if extend and path.exists()
             else ["epoch,steps,loss,accuracy,lr"])
    base = int(lines[-1].split(",")[1]) if len(lines) > 1 else 0
    lines += [f"{h.epoch},{base + h.steps},{h.loss!r},{h.accuracy!r},{h.lr!r}" for h in history]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
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
    per head output; an output with zero weight is skipped entirely, so its
    Dense layer gets no gradient.  Returns (loss, hits): a single output's count
    of correct rows, or the mean over outputs of their hit rates times the
    batch size.  The step's graph is freed when this call returns."""
    # an overflow surfaces as this step's NumericsError, not as numpy warnings ahead of it
    with np.errstate(over="ignore", invalid="ignore"):
        with GradTape():
            out = model.forward(batch, train=True)
            outputs = out if isinstance(out, list) else [out]
            total = None
            for output, target, w in zip(outputs, targets, weights):
                if w == 0.0:
                    continue
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
    """targets(class_ids, crop_boxes) gives a batch's target column per head output."""
    images = [load_image(r) for r in manifest.records]
    class_ids = np.array([r.class_id for r in manifest.records], dtype=np.int64)
    rng = np.random.default_rng(config.seed)
    params = [t for _, t in model.parameters()]
    opt = MomentumSGD(params, config.momentum, config.weight_decay)
    history: list[EpochStats] = []
    steps = 0
    n = len(images)
    epoch_base = model.trained_epochs  # resumed runs continue the numbering
    for epoch in range(config.max_epochs):
        lr = lr_at_epoch(config, epoch)
        order = rng.permutation(n)
        epoch_loss = 0.0
        hits = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            crops, crop_boxes = [], []
            for i in idx:
                crop, box = preprocess_train(images[i], manifest.records[i].box, preprocess, rng)
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
