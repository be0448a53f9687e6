"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines; the heavier criteria train small models and take a few minutes total.
"""

import hashlib
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from swpnet import autodiff as ad
from swpnet import layers
from swpnet.autodiff import GradTape, Tensor, grad_check
from swpnet.binning import (
    LOCATION_BINS,
    SIZE_BINS,
    BoundingBox,
    crop_to_box,
    decode_bin,
    encode_value,
)
from swpnet.datasynth import (
    PreprocessConfig,
    crop_dataset_to_boxes,
    generate_dataset,
    synthesize,
)
from swpnet.evaluation import (
    TwoStagePipeline,
    bench_fps_paired,
    evaluate_localisation,
    evaluate_topk,
    loc_metrics,
    topk_hits,
    topk_predictions,
)
from swpnet.layers import BatchNorm, Conv2d, Dense, Pool2d, batchnorm, softmax_cross_entropy
from swpnet.models import (
    Block,
    Model,
    ModelConfig,
    attach_swp_head,
    feature_map_extent,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from swpnet.swp import SWPLayer, SWPSpec, swp_forward, swp_heatmap_export, swp_param_count
from swpnet.training import TrainConfig, train_classifier, train_localiser


class criterion:
    """Prints one PASS/FAIL line per criterion, even when asserts blow up."""

    def __init__(self, number, label):
        self.number = number
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.number}] {verdict} - {self.label}")
        return False


def tree_digest(root) -> str:
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness of every layer kind, < 60 s
# ---------------------------------------------------------------------------

GRAD_TOL = 1e-5


def _square_loss(y):
    return ad.sum_all(ad.mul(y, y))


def _relu_inputs(fn):
    """Inputs of every relu that one probe evaluation records on a tape.  A
    fused bn->relu runs here as batchnorm then a separate relu, so its
    pre-relu value is on the tape too."""
    def unfused(x, state, train, relu=False):
        out = batchnorm(x, state, train)
        return ad.relu(out) if relu else out

    with pytest.MonkeyPatch.context() as patch, GradTape() as tape:
        patch.setattr(layers, "batchnorm", unfused)
        fn()
    return [node.inputs[0].data for node in tape.nodes if node.name == "relu"]


def _min_relu_margin(fn):
    inputs = _relu_inputs(fn)
    return min(np.abs(v).min() for v in inputs) if inputs else np.inf


def _scan_seed(build, margin=1e-3, tries=30):
    """First seed whose probe point keeps every relu input off its kink."""
    for seed in range(tries):
        fn = build(seed)
        if _min_relu_margin(fn) > margin:
            return fn
    raise AssertionError("no kink-free probe point found")


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    with criterion(1, "layer gradients match central finite differences (f64, <1e-5)"):
        rng = np.random.default_rng(0)

        conv = Conv2d(2, 3, kernel=3, stride=2, padding=1, rng=rng, dtype=np.float64)
        x = Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True, dtype=np.float64)
        assert grad_check(lambda: _square_loss(conv(x)), [x, conv.weight, conv.bias]) < GRAD_TOL

        bn = BatchNorm(3, dtype=np.float64)
        xb = Tensor(rng.normal(size=(2, 3, 3, 3)), requires_grad=True, dtype=np.float64)
        assert grad_check(lambda: _square_loss(bn(xb, train=True)), [xb, bn.gamma, bn.beta]) < GRAD_TOL

        # max pooling probed where window maxima are unambiguous
        xm = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True, dtype=np.float64)
        assert grad_check(lambda: _square_loss(Pool2d("max", 2, stride=2)(xm)), [xm]) < GRAD_TOL
        xa = Tensor(rng.normal(size=(1, 2, 6, 6)), requires_grad=True, dtype=np.float64)
        assert grad_check(lambda: _square_loss(Pool2d("average", 3, stride=2)(xa)), [xa]) < GRAD_TOL

        dense_spec = Dense(5, 4, rng=rng, dtype=np.float64)
        xd = Tensor(rng.normal(size=(3, 5)), requires_grad=True, dtype=np.float64)
        assert grad_check(lambda: _square_loss(dense_spec(xd)),
                          [xd, dense_spec.weight, dense_spec.bias]) < GRAD_TOL

        swp = SWPLayer(SWPSpec(3, 4, 4), dtype=np.float64)
        swp.masks.data[:] = rng.normal(size=swp.masks.shape)
        xs = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True, dtype=np.float64)
        assert grad_check(lambda: _square_loss(swp_forward(xs, swp)), [xs, swp.masks]) < GRAD_TOL

        # full residual blocks, probe point scanned away from relu kinks
        for bottleneck, ch in ((False, 3), (True, 2)):
            def build(seed, bottleneck=bottleneck, ch=ch):
                srng = np.random.default_rng(100 + seed)
                in_ch = ch * 4 if bottleneck else ch
                block = Block(in_ch, ch, stride=1, skip_preact=False, rng=srng, dtype=np.float64,
                              bottleneck=bottleneck)
                xr = Tensor(srng.normal(size=(2, in_ch, 4, 4)), requires_grad=True, dtype=np.float64)
                params = [xr] + [t for _, t in block.parameters()]
                fn = lambda: _square_loss(block.forward(xr, train=True))
                fn.params = params
                return fn

            fn = _scan_seed(build)
            assert grad_check(fn, fn.params) < GRAD_TOL

        # four-head localiser: composite wiring check; probed parameters sit
        # behind only the final relu, whose 16 inputs are margin-scanned
        def build_loc(seed):
            cfg = ModelConfig(depth_variant=18, num_classes=2, width_multiplier=1 / 64,
                              input_size=24, head="loc_head")
            model = Model(cfg, seed=300 + seed, dtype=np.float64)
            lrng = np.random.default_rng(400 + seed)
            xin = Tensor(lrng.uniform(0, 1, size=(2, 3, 24, 24)), dtype=np.float64)
            targets = [np.array([1, 3]), np.array([0, 2]), np.array([4, 1]), np.array([2, 0])]

            def fn():
                outs = model.forward(xin, train=True)
                total = None
                for out, tgt in zip(outs, targets):
                    part = softmax_cross_entropy(out, tgt)
                    total = part if total is None else ad.add(total, part)
                return total

            last_block = model.all_blocks()[-1]
            fn.params = ([t for _, t in model.head.parameters()]
                         + [model.final_bn.gamma, model.final_bn.beta,
                            last_block.conv2.weight])
            fn.margin_fn = fn
            return fn

        for seed in range(30):
            fn = build_loc(seed)
            final_relu_margin = np.abs(_relu_inputs(fn)[-1]).min()
            if final_relu_margin > 1e-3:
                break
        else:
            raise AssertionError("no kink-free localiser probe point found")
        assert grad_check(fn, fn.params) < GRAD_TOL

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 2: SWP anchors
# ---------------------------------------------------------------------------

def test_criterion_2_swp_anchors():
    with criterion(2, "SWP: 441 params, average-pool equivalence at init, linearity"):
        assert swp_param_count(SWPSpec(9, 7, 7)) == 441

        cfg = ModelConfig(depth_variant=18, num_classes=4, width_multiplier=1 / 8, input_size=64)
        model = Model(cfg, seed=9)
        extent = feature_map_extent(cfg)
        rng = np.random.default_rng(1)
        x = Tensor(rng.uniform(0, 1, size=(2, 3, 64, 64)).astype(np.float32))
        feats = model.backbone(x, train=False)
        pooled = Pool2d("average", extent, stride=1)(feats).data[:, :, 0, 0]
        fresh = SWPLayer(SWPSpec(5, extent, extent))
        out = swp_forward(feats, fresh).data.reshape(2, 5, -1)
        for k in range(5):
            npt.assert_allclose(out[:, k, :], pooled, atol=1e-6)

        layer = SWPLayer(SWPSpec(4, 5, 5))
        layer.masks.data[:] = rng.normal(size=layer.masks.shape).astype(np.float32)
        xa = rng.normal(size=(2, 3, 5, 5)).astype(np.float32)
        xb = rng.normal(size=(2, 3, 5, 5)).astype(np.float32)
        lhs = swp_forward(Tensor(0.6 * xa - 1.7 * xb), layer).data
        rhs = 0.6 * swp_forward(Tensor(xa), layer).data - 1.7 * swp_forward(Tensor(xb), layer).data
        npt.assert_allclose(lhs, rhs, atol=1e-5)


# ---------------------------------------------------------------------------
# criterion 3: parameter accounting at full scale, < 10 s
# ---------------------------------------------------------------------------

def test_criterion_3_parameter_accounting():
    start = time.perf_counter()
    with criterion(3, "21M / 24M / 43M parameter anchors within 10%"):
        c34 = param_count(Model(ModelConfig(depth_variant=34, num_classes=431)))
        assert abs(c34 - 21e6) <= 0.10 * 21e6, f"ResNet-34 count {c34:,}"

        plain50 = Model(ModelConfig(depth_variant=50, num_classes=431))
        c50 = param_count(plain50)
        assert abs(c50 - 24e6) <= 0.10 * 24e6, f"ResNet-50 count {c50:,}"

        attach_swp_head(plain50, SWPSpec(9, 7, 7), fc_nodes=1024)
        cswp = param_count(plain50)
        assert abs(cswp - 43e6) <= 0.10 * 43e6, f"ResNet-50+SWP count {cswp:,}"

        delta = cswp - c50
        hidden_dense = 18432 * 1024
        assert hidden_dense >= 0.95 * delta, f"dense {hidden_dense:,} vs head delta {delta:,}"

        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"parameter accounting took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 4: bin codec, exhaustive 0.1 px scan
# ---------------------------------------------------------------------------

def test_criterion_4_bin_codec():
    with criterion(4, "bin codec: monotone, half-bin roundtrip, overflow clamp"):
        assert decode_bin(0, LOCATION_BINS) == pytest.approx(3.5)
        assert LOCATION_BINS.covered_range == pytest.approx(175.0)
        assert SIZE_BINS.covered_range == pytest.approx(280.0)

        for spec, hi in ((LOCATION_BINS, 175.0), (SIZE_BINS, 280.0)):
            values = np.arange(0.0, hi, 0.1)
            bins = np.array([encode_value(v, spec) for v in values])
            assert (np.diff(bins) >= 0).all(), "encode not monotone"
            decoded = np.array([decode_bin(b, spec) for b in bins])
            assert np.abs(decoded - values).max() <= 3.5 + 1e-9

        for v in np.arange(280.0, 400.0, 0.1):
            assert encode_value(v, SIZE_BINS) == 39


# ---------------------------------------------------------------------------
# criterion 5: metric arithmetic against the reported localisation row
# ---------------------------------------------------------------------------

def test_criterion_5_metric_arithmetic():
    with criterion(5, "mean of per-output accuracies and top-k counting"):
        report = loc_metrics((85.354, 87.380, 77.723, 81.095), sample_count=14939)
        assert report.mean_accuracy == pytest.approx(82.888, abs=1e-3)

        rng = np.random.default_rng(3)
        logits = rng.normal(size=(10, 6))
        targets = logits.argmax(axis=1).copy()
        targets[7] = (targets[7] + 1) % 6
        assert 100.0 * topk_hits(logits, targets, 1) / 10 == pytest.approx(90.0)

        row = np.array([[5.0, 4.0, 3.0, 2.0, 1.0, 0.5]])
        assert topk_hits(row, [2], 1) == 0
        assert topk_hits(row, [2], 5) == 1
        assert topk_predictions(np.zeros((1, 6)), 1)[0, 0] == 0

        for _ in range(20):
            lg = rng.normal(size=(16, 9))
            tg = rng.integers(0, 9, size=16)
            assert topk_hits(lg, tg, 1) <= topk_hits(lg, tg, 5)


# ---------------------------------------------------------------------------
# criterion 6: overfit oracle, bit-identical reruns, < 5 min
# ---------------------------------------------------------------------------

def _overfit_once(manifest, tmp_path, tag):
    cfg = ModelConfig(depth_variant=50, num_classes=4, width_multiplier=1 / 8, input_size=64)
    model = Model(cfg, seed=1)
    pre = PreprocessConfig(crop_size=64, eval_scale=73, scale_range=(0.8, 0.8), seed=0)
    tc = TrainConfig(lr=0.02, batch_size=8, max_epochs=200, seed=7, early_stop_accuracy=99.0)
    history = train_classifier(model, manifest, tc, pre)
    path = tmp_path / f"overfit_{tag}.ckpt"
    save_checkpoint(model, path)
    return history, path.read_bytes()


@pytest.mark.slow
def test_criterion_6_overfit_oracle(tmp_path):
    start = time.perf_counter()
    with criterion(6, "width-1/8 ResNet-50 overfits 4x10 images, reruns bit-identical"):
        manifest = generate_dataset(4, 10, 80, tmp_path / "overfit", seed=42,
                                    scale_range=(0.55, 0.70), center_jitter=0.05, clutter=2)
        history, first = _overfit_once(manifest, tmp_path, "a")
        assert history[-1].accuracy >= 99.0
        assert len(history) <= 200
        losses = [h.loss for h in history[:3]]
        assert all(b < a for a, b in zip(losses, losses[1:])), \
            f"loss not strictly decreasing over the first epochs: {losses}"
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"overfit run took {elapsed:.1f}s"

        _, second = _overfit_once(manifest, tmp_path, "b")
        assert first == second, "same-seed rerun produced different bytes"


# ---------------------------------------------------------------------------
# criteria 7 and 8 share one jittered dataset and trained models
# ---------------------------------------------------------------------------

GLYPHS = dict(scale_range=(0.30, 0.45), center_jitter=0.15, clutter=4, similarity_margin=0.25)
TRAIN_PRE = PreprocessConfig(crop_size=64, eval_scale=73, scale_range=(0.58, 0.72), seed=1)


@pytest.fixture(scope="module")
def two_stage_bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("twostage")
    train_m = generate_dataset(10, 30, 112, root / "train", seed=301, **GLYPHS)
    eval_m = generate_dataset(10, 10, 112, root / "eval", seed=302, split="eval", **GLYPHS)

    loc_cfg = ModelConfig(depth_variant=18, num_classes=10, width_multiplier=1 / 8,
                          input_size=64, head="loc_head")
    loc = Model(loc_cfg, seed=4)
    train_localiser(loc, train_m,
                    TrainConfig(lr=0.025, batch_size=8, max_epochs=50, seed=14,
                                loss_weights=(1, 1, 2, 2)), TRAIN_PRE)

    cls_cfg = ModelConfig(depth_variant=18, num_classes=10, width_multiplier=1 / 8, input_size=64)
    plain = Model(cls_cfg, seed=5)
    train_classifier(plain, train_m,
                     TrainConfig(lr=0.02, batch_size=8, max_epochs=60, seed=15,
                                 early_stop_accuracy=100.0), TRAIN_PRE)

    box_train = crop_dataset_to_boxes(train_m, root / "train_box", target_size=80,
                                      quantize_boxes=True)
    boxcls = Model(cls_cfg, seed=6)
    box_pre = PreprocessConfig(crop_size=64, eval_scale=73, scale_range=(0.82, 1.0), seed=2)
    train_classifier(boxcls, box_train,
                     TrainConfig(lr=0.02, batch_size=8, max_epochs=60, seed=16,
                                 early_stop_accuracy=100.0), box_pre)

    return {"train": train_m, "eval": eval_m, "loc": loc, "plain": plain, "boxcls": boxcls}


@pytest.mark.slow
def test_criterion_7_localisation_oracle(two_stage_bundle):
    with criterion(7, "trained localiser reaches >=90% mean bin accuracy held-out"):
        report, stats = evaluate_localisation(two_stage_bundle["loc"], two_stage_bundle["eval"])
        print(f"  localisation eval: mean {report.mean_accuracy:.2f}% "
              f"per-output {[round(a, 1) for a in report.per_output_accuracy]}")
        print("  " + stats.summary().replace("\n", "\n  "))
        assert report.mean_accuracy >= 90.0
        for name in ("cx", "cy", "w", "h"):
            total = sum(stats.fraction_at(name, d) for d in range(len(stats.counts[name])))
            assert total == pytest.approx(1.0, abs=1e-9)
            # the distance-1 and >=3 fractions are reported, not asserted
            stats.fraction_at(name, 1)
            stats.fraction_at_least(name, 3)


@pytest.mark.slow
def test_criterion_8_pipeline_direction(two_stage_bundle):
    with criterion(8, "two-stage beats plain central crop on jittered eval"):
        eval_m = two_stage_bundle["eval"]
        plain_r = evaluate_topk(two_stage_bundle["plain"], eval_m)
        oracle_r = evaluate_topk(TwoStagePipeline(None, two_stage_bundle["boxcls"]), eval_m)
        two_r = evaluate_topk(TwoStagePipeline(two_stage_bundle["loc"],
                                               two_stage_bundle["boxcls"]), eval_m)
        print(f"  plain {plain_r.top1:.1f}%  oracle two-stage {oracle_r.top1:.1f}%  "
              f"trained two-stage {two_r.top1:.1f}%")
        assert plain_r.top1 <= plain_r.top5
        assert oracle_r.top1 >= plain_r.top1
        assert two_r.top1 >= plain_r.top1 - 1.0

        # crop geometry: enlargement applied exactly once, no hidden scaling
        rng = np.random.default_rng(8)
        image = rng.integers(0, 255, size=(224, 224, 3), dtype=np.uint8)
        pipeline = TwoStagePipeline(None, two_stage_bundle["boxcls"])
        _, details = pipeline.predict(image, gt_box=BoundingBox(112, 112, 100, 80),
                                      return_details=True)
        assert details.enlarged_box.w == pytest.approx(1.10 * details.predicted_box.w, rel=1e-6)
        assert details.enlarged_box.h == pytest.approx(1.10 * details.predicted_box.h, rel=1e-6)

        # ground-truth-box crops keep at least 99% of glyph pixels: the 10%
        # margin absorbs the half-bin decode error on >=110 px boxes
        samples = synthesize(2, 6, 224, seed=77, scale_range=(0.80, 0.85),
                             center_jitter=0.02, clutter=2)
        for s in samples:
            _, det = pipeline.predict(s.image, gt_box=s.box, return_details=True)
            inside = crop_to_box(s.glyph_mask.astype(np.uint8), det.enlarged_box).sum()
            assert inside >= 0.99 * s.glyph_mask.sum()


# ---------------------------------------------------------------------------
# criterion 9: benchmark directionality over >= 10,000 images
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_9_bench_directionality():
    with criterion(9, "batch-32 >= batch-1, pipeline <= single model, SWP within 10%"):
        cfg = ModelConfig(depth_variant=18, num_classes=10, width_multiplier=1 / 16, input_size=64)
        plain = Model(cfg, seed=1)
        extent = feature_map_extent(cfg)
        swp = Model(ModelConfig(depth_variant=18, num_classes=10, width_multiplier=1 / 16,
                                input_size=64, head="swp_head"),
                    seed=1, swp_spec=SWPSpec(9, extent, extent), fc_nodes=64)
        loc = Model(ModelConfig(depth_variant=18, num_classes=10,
                                width_multiplier=1 / 16, input_size=64,
                                head="loc_head"), seed=2)
        pipeline = TwoStagePipeline(loc, plain)
        reports = bench_fps_paired({"plain": plain, "swp": swp, "pipeline": pipeline},
                                   batch_sizes=(1, 32), n_images=10000, seed=0)
        for name, rep in reports.items():
            print(f"  {name}: " + "  ".join(f"batch {b}: {e.fps:.0f}/s"
                                            for b, e in sorted(rep.entries.items())))
        for rep in reports.values():
            for entry in rep.entries.values():
                assert entry.images >= 10000
            assert rep.entries[32].fps >= rep.entries[1].fps
        for bs in (1, 32):
            plain_fps = reports["plain"].entries[bs].fps
            assert reports["pipeline"].entries[bs].fps <= plain_fps
            assert abs(reports["swp"].entries[bs].fps - plain_fps) <= 0.10 * plain_fps


# ---------------------------------------------------------------------------
# criterion 10: round-trips
# ---------------------------------------------------------------------------

def test_criterion_10_round_trips(tmp_path):
    with criterion(10, "checkpoint, dataset, and heatmap round-trips"):
        cfg = ModelConfig(depth_variant=50, num_classes=4, width_multiplier=1 / 16, input_size=64)
        model = Model(cfg, seed=3)
        rng = np.random.default_rng(0)
        warm = Tensor(rng.uniform(0, 1, size=(4, 3, 64, 64)).astype(np.float32))
        model.forward(warm, train=True)  # non-trivial running stats
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        probe = Tensor(rng.uniform(0, 1, size=(2, 3, 64, 64)).astype(np.float32))
        assert model.forward(probe).data.tobytes() == loaded.forward(probe).data.tobytes()
        second = tmp_path / "m2.ckpt"
        save_checkpoint(loaded, second)
        assert path.read_bytes() == second.read_bytes()

        a = generate_dataset(3, 4, 64, tmp_path / "dsa", seed=5)
        b = generate_dataset(3, 4, 64, tmp_path / "dsb", seed=5)
        assert tree_digest(tmp_path / "dsa") == tree_digest(tmp_path / "dsb")
        assert len(a) == len(b) == 12

        grid = swp_heatmap_export(np.full(8, 2.5), (2, 4), tmp_path / "c.pgm")
        assert (grid == 128).all()
        vec = np.random.default_rng(6).permutation(np.arange(24.0) * 12.0)
        grid = swp_heatmap_export(vec, (4, 6), tmp_path / "r.pgm")
        npt.assert_array_equal(np.argsort(grid.reshape(-1), kind="stable"),
                               np.argsort(vec, kind="stable"))
