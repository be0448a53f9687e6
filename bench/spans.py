"""Per-layer spans recorded from outside the program.

`Tracer.install()` replaces each traced public function with a timing
wrapper at the name its caller looks it up by, and puts every original back
on exit.  Spans nest: a span's self time is its duration minus the time of
the spans it encloses, so per-layer times add up without double counting.
Spans are aggregated as they close (calls, self time); nothing per call is
kept.  Backward rules are timed by wrapping each `backward_fn` handed to
`record`, so they count as children of `autodiff.backward`.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from time import perf_counter_ns

from swpnet import autodiff, binning, datasynth, evaluation, layers, models, swp, training

# (owner, attribute, span key).  The owner is where the caller looks the name
# up: `Conv2d.__call__` reads `layers.conv2d`, `_run_epochs` reads
# `training.preprocess_train`, the models read `ad.add` and their own `relu`.
FORWARD_SPANS = (
    (layers, "conv2d", "layers.conv2d.fwd"),
    (layers, "batchnorm", "layers.batchnorm.fwd"),
    (layers, "pool2d", "layers.pool2d.fwd"),
    (layers, "dense", "layers.dense.fwd"),
    (training, "softmax_cross_entropy", "layers.softmax_cross_entropy.fwd"),
    (models, "relu", "autodiff.relu.fwd"),
    (autodiff, "add", "autodiff.add.fwd"),
    (autodiff, "reshape", "autodiff.reshape.fwd"),
    (autodiff, "backward", "autodiff.backward"),
    (swp, "swp_forward", "swp.swp_forward.fwd"),
    (models.Model, "forward", "models.forward"),
    (models, "load_checkpoint", "models.load_checkpoint"),
    (models, "save_checkpoint", "models.save_checkpoint"),
    (training.MomentumSGD, "step", "training.optimizer_step"),
    (training, "train_classifier", "training.loop"),
    (training, "preprocess_train", "datasynth.preprocess_train"),
    (evaluation, "center_crop_transform", "datasynth.center_crop_transform"),
    (training, "to_network_input", "datasynth.to_network_input"),
    (evaluation, "to_network_input", "datasynth.to_network_input"),
    (datasynth, "load_manifest", "datasynth.load_manifest"),
    (datasynth, "read_ppm", "imgio.read_ppm"),
    (datasynth, "bilinear_resize", "binning.bilinear_resize"),
    (binning, "bilinear_resize", "binning.bilinear_resize"),
    (evaluation, "resize_largest_side", "binning.resize_largest_side"),
)

# op name passed to `record` -> span key of its backward rule
BACKWARD_SPANS = {
    "conv2d": "layers.conv2d.bwd",
    "batchnorm": "layers.batchnorm.bwd",
    "avgpool2d": "layers.pool2d.bwd",
    "maxpool2d": "layers.pool2d.bwd",
    "dense": "layers.dense.bwd",
    "softmax_cross_entropy": "layers.softmax_cross_entropy.bwd",
    "relu": "autodiff.relu.bwd",
    "add": "autodiff.add.bwd",
    "reshape": "autodiff.reshape.bwd",
}
RECORD_OWNERS = (autodiff, layers)


@contextmanager
def patched(owner, name, replacement):
    """Set owner.name to replacement, and restore the original on exit."""
    original = vars(owner)[name]
    setattr(owner, name, replacement)
    try:
        yield original
    finally:
        setattr(owner, name, original)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[int]] = {}   # key -> [calls, self ns]
        self.top_level_ns = 0
        self.tape_nodes = 0
        self.tapes = 0
        self.pipeline_images = 0
        self.crop_misses = 0
        self._stack: list[list[int]] = []       # child ns of each open span

    def span(self, key: str, fn):
        stack, stats = self._stack, self.stats

        def timed(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                stack.pop()
                entry = stats.setdefault(key, [0, 0])
                entry[0] += 1
                entry[1] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    self.top_level_ns += duration

        return timed

    def _record_wrapper(self, original):
        def record(inputs, out_data, backward_fn, name="op"):
            key = BACKWARD_SPANS.get(name)
            if key is not None:
                backward_fn = self.span(key, backward_fn)
            return original(inputs, out_data, backward_fn, name)

        return record

    def _tape_class(self, original):
        tracer = self

        class CountingTape(original):
            def __exit__(self, *exc):
                tracer.tape_nodes += len(self)
                tracer.tapes += 1
                return super().__exit__(*exc)

        return CountingTape

    def _predict_batch(self, original):
        def predict_batch(pipeline, images, gt_boxes=None):
            self.pipeline_images += len(images)
            return original(pipeline, images, gt_boxes)

        return self.span("evaluation.predict_batch", predict_batch)

    def _crop_to_box(self, original):
        def crop_to_box(image, box):
            try:
                return original(image, box)
            except ValueError:
                self.crop_misses += 1
                raise

        return self.span("binning.crop_to_box", crop_to_box)

    @contextmanager
    def install(self):
        with ExitStack() as stack:
            def patch(owner, name, replacement):
                stack.enter_context(patched(owner, name, replacement))

            for owner, name, key in FORWARD_SPANS:
                patch(owner, name, self.span(key, vars(owner)[name]))
            for owner in RECORD_OWNERS:
                patch(owner, "record", self._record_wrapper(owner.record))
            patch(training, "GradTape", self._tape_class(training.GradTape))
            pipeline = evaluation.TwoStagePipeline
            patch(pipeline, "predict_batch", self._predict_batch(vars(pipeline)["predict_batch"]))
            patch(evaluation, "crop_to_box", self._crop_to_box(evaluation.crop_to_box))
            yield self

    def self_ms(self, key: str) -> float:
        return self.stats.get(key, (0, 0))[1] / 1e6

    def calls(self, key: str) -> int:
        return self.stats.get(key, (0, 0))[0]


def layer_metrics(tracer: Tracer, units: int) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit).  Times are self times and every
    value is per traced unit of work, except tape_nodes (per training step)
    and crop_hit_ratio (per pipeline image)."""
    out: dict[str, tuple[float, str]] = {}

    def ms(name, *keys):
        out[name] = (sum(tracer.self_ms(k) for k in keys) / units, "ms")

    def calls(name, key):
        out[name] = (tracer.calls(key) / units, "count")

    for op in ("conv2d", "batchnorm", "pool2d", "dense"):
        ms(f"layers.{op}.fwd_ms", f"layers.{op}.fwd")
        ms(f"layers.{op}.bwd_ms", f"layers.{op}.bwd")
        calls(f"layers.{op}.calls", f"layers.{op}.fwd")
    ms("layers.softmax_cross_entropy.ms", "layers.softmax_cross_entropy.fwd",
       "layers.softmax_cross_entropy.bwd")
    calls("layers.softmax_cross_entropy.calls", "layers.softmax_cross_entropy.fwd")

    ms("autodiff.backward.ms", "autodiff.backward")
    calls("autodiff.backward.calls", "autodiff.backward")
    out["autodiff.tape_nodes"] = (tracer.tape_nodes / tracer.tapes if tracer.tapes else 0.0, "count")
    for op in ("relu", "add", "reshape"):
        ms(f"autodiff.{op}.fwd_ms", f"autodiff.{op}.fwd")
        ms(f"autodiff.{op}.bwd_ms", f"autodiff.{op}.bwd")
        calls(f"autodiff.{op}.calls", f"autodiff.{op}.fwd")

    ms("swp.swp_forward.fwd_ms", "swp.swp_forward.fwd")
    calls("swp.swp_forward.calls", "swp.swp_forward.fwd")

    ms("models.forward.self_ms", "models.forward")
    calls("models.forward.calls", "models.forward")
    for fn in ("load_checkpoint", "save_checkpoint"):
        ms(f"models.{fn}.ms", f"models.{fn}")
        calls(f"models.{fn}.calls", f"models.{fn}")

    ms("training.optimizer_step.ms", "training.optimizer_step")
    calls("training.optimizer_step.calls", "training.optimizer_step")
    ms("training.loop.self_ms", "training.loop")
    calls("training.loop.calls", "training.loop")

    for key in ("datasynth.preprocess_train", "datasynth.center_crop_transform",
                "datasynth.to_network_input", "datasynth.load_manifest", "imgio.read_ppm",
                "binning.bilinear_resize", "binning.crop_to_box", "binning.resize_largest_side"):
        ms(f"{key}.ms", key)
        calls(f"{key}.calls", key)

    ms("evaluation.predict_batch.self_ms", "evaluation.predict_batch")
    calls("evaluation.predict_batch.calls", "evaluation.predict_batch")
    images = tracer.pipeline_images
    hit_ratio = (images - tracer.crop_misses) / images if images else 0.0
    out["evaluation.pipeline.crop_hit_ratio"] = (hit_ratio, "ratio")
    out["evaluation.pipeline.fallbacks"] = (tracer.crop_misses / units, "count")
    return out
