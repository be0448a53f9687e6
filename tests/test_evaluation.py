from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from conftest import STREAM_IMAGE_BYTES, peak_growth, tiny_cls_config, tiny_loc_config
from swpnet.autodiff import NumericsError, Tensor
from swpnet.binning import BoundingBox
from swpnet.datasynth import (
    DatasetManifest,
    ManifestRecord,
    crop_dataset_to_boxes,
    generate_dataset,
    load_image,
    to_network_input,
)
from swpnet.evaluation import (
    BinErrorStats,
    TwoStagePipeline,
    bench_fps_paired,
    evaluate_localisation,
    evaluate_topk,
    loc_metrics,
    topk_hits,
    topk_predictions,
)
from swpnet.imgio import write_ppm
from swpnet.models import Model, ModelBuildError


class TestTopK:
    def test_truth_ranked_third(self):
        logits = np.array([[5.0, 4.0, 3.0, 2.0, 1.0, 0.0]])
        target = [2]
        assert topk_hits(logits, target, 1) == 0
        assert topk_hits(logits, target, 5) == 1

    def test_all_equal_logits_tie_break_to_class_zero(self):
        logits = np.zeros((3, 7))
        npt.assert_array_equal(topk_predictions(logits, 1)[:, 0], [0, 0, 0])

    def test_hand_counted_ninety_percent(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(10, 5))
        targets = logits.argmax(axis=1)
        targets[3] = (logits[3].argmax() + 1) % 5  # exactly one miss
        assert 100.0 * topk_hits(logits, targets, 1) / 10 == pytest.approx(90.0)

    def test_tie_between_two_classes_prefers_lower(self):
        logits = np.array([[1.0, 3.0, 3.0, 0.0]])
        assert topk_predictions(logits, 1)[0, 0] == 1
        npt.assert_array_equal(topk_predictions(logits, 2)[0], [1, 2])


class TestLocMetrics:
    def test_paper_row_mean(self):
        report = loc_metrics((85.354, 87.380, 77.723, 81.095), sample_count=14939)
        assert report.mean_accuracy == pytest.approx(82.888, abs=1e-3)

    def test_mean_requires_four_outputs(self):
        with pytest.raises(ValueError, match="expected 4 per-output accuracies"):
            loc_metrics((1.0, 2.0), sample_count=2)

    def test_perfect_distance_stats(self):
        counts = {name: np.bincount([0, 0, 0], minlength=40) for name in ("cx", "cy", "w", "h")}
        stats = BinErrorStats(counts)
        for name in ("cx", "cy", "w", "h"):
            assert stats.fraction_at(name, 0) == 1.0
            assert stats.fraction_at(name, 1) == 0.0
            assert stats.fraction_at_least(name, 3) == 0.0

    def test_off_by_one_everywhere(self):
        counts = {name: np.bincount([1, 1, 1, 1], minlength=40) for name in ("cx", "cy", "w", "h")}
        stats = BinErrorStats(counts)
        assert stats.fraction_at("cx", 0) == 0.0
        assert stats.fraction_at("cx", 1) == 1.0

    def test_fractions_sum_to_one(self):
        counts = {name: np.bincount([0, 1, 1, 2, 5], minlength=40) for name in ("cx", "cy", "w", "h")}
        stats = BinErrorStats(counts)
        total = sum(stats.fraction_at("w", d) for d in range(40))
        assert total == pytest.approx(1.0)


class TestEvaluateEndToEnd:
    def test_topk_on_tiny_model(self, tiny_dataset):
        model = Model(tiny_cls_config(), seed=1)
        report = evaluate_topk(model, tiny_dataset)
        assert report.sample_count == len(tiny_dataset)
        assert 0.0 <= report.top1 <= report.top5 <= 100.0

    def test_a_head_that_does_not_fit_the_manifest_fails_before_any_decode(self, tiny_dataset,
                                                                          monkeypatch):
        def no_decode(_record):
            raise AssertionError("an image was decoded")

        monkeypatch.setattr("swpnet.evaluation.load_image", no_decode)
        model = Model(tiny_cls_config(num_classes=3), seed=1)
        for target in (model, TwoStagePipeline(None, model),
                       TwoStagePipeline(Model(tiny_loc_config(), seed=2), model)):
            with pytest.raises(ModelBuildError, match="^model head has 3 classes, manifest has 2$"):
                evaluate_topk(target, tiny_dataset)

    def test_localisation_report_consistent(self, tiny_dataset):
        model = Model(tiny_loc_config(), seed=2)
        report, stats = evaluate_localisation(model, tiny_dataset)
        assert report.mean_accuracy == pytest.approx(np.mean(report.per_output_accuracy), abs=1e-9)
        for name in ("cx", "cy", "w", "h"):
            total = stats.counts[name].sum()
            assert total == report.sample_count
        assert report.skipped == 0
        assert "skipped" not in report.summary()

    def test_localisation_skips_box_lost_by_centre_crop(self, tmp_path):
        # a 4x20 box at x=3 on a 112 px image maps to centre-x -2.04 under
        # the 64 px eval crop, leaving nothing inside the crop
        rng = np.random.default_rng(0)
        records = []
        boxes = [BoundingBox(56, 56, 40, 30), BoundingBox(3, 56, 4, 20), BoundingBox(60, 50, 50, 24)]
        for i, box in enumerate(boxes):
            path = tmp_path / f"{i}.ppm"
            write_ppm(path, rng.integers(0, 256, size=(112, 112, 3), dtype=np.uint8))
            records.append(ManifestRecord(str(path), 0, box))
        model = Model(tiny_loc_config(input_size=64), seed=2)
        report, stats = evaluate_localisation(model, DatasetManifest(records, 2, "eval"))
        assert report.sample_count == 2
        assert report.skipped == 1
        assert stats.counts["cx"].sum() == 2
        assert "skipped: 1" in report.summary().splitlines()

    def test_localisation_raw_mode(self, tiny_dataset):
        model = Model(tiny_loc_config(), seed=2)
        report, _ = evaluate_localisation(model, tiny_dataset, preprocess="none")
        assert report.sample_count == len(tiny_dataset)

    def test_raw_mode_scales_each_box_axis_like_the_image(self, tmp_path):
        # at input 64 a 112-row, 100-column image is resized to 64 x 57, so a
        # box at cx 49.05 sits at 49.05 * 57/100 = 27.96 px (bin 3), not at
        # 49.05 * 64/112 = 28.03 px (bin 4)
        path = tmp_path / "tall.ppm"
        write_ppm(path, np.zeros((112, 100, 3), dtype=np.uint8))
        box = BoundingBox(49.05, 56.0, 40.0, 40.0)
        model = Model(tiny_loc_config(input_size=64), seed=2)
        centre_x = model.head.outputs[0]      # now predicts bin 3 for every input
        centre_x.weight.data[:] = 0.0
        centre_x.bias.data[:] = 0.0
        centre_x.bias.data[3] = 1.0
        manifest = DatasetManifest([ManifestRecord(str(path), 0, box)], 2, "eval")
        report, _ = evaluate_localisation(model, manifest, preprocess="none")
        assert report.per_output_accuracy[0] == 100.0

    def test_localisation_rejects_bad_mode(self, tiny_dataset):
        model = Model(tiny_loc_config(), seed=2)
        with pytest.raises(ValueError):
            evaluate_localisation(model, tiny_dataset, preprocess="sideways")


def truncated_copy(record: ManifestRecord, path) -> ManifestRecord:
    """The record pointing at a copy of its image with the last pixel cut."""
    data = open(record.path, "rb").read()
    with open(path, "wb") as f:
        f.write(data[:-3])
    return ManifestRecord(str(path), record.class_id, record.box)


class TestUnreadableImages:
    """A record whose image does not decode is skipped and counted; the
    other records give the report they give without it."""

    @pytest.fixture
    def with_bad(self, tiny_dataset, tmp_path):
        recs = tiny_dataset.records
        bad = [truncated_copy(recs[i], tmp_path / f"bad{i}.ppm") for i in (0, 5)]
        return DatasetManifest([bad[0], *recs[:5], bad[1], *recs[5:]], tiny_dataset.n_classes, "eval")

    def test_topk_skips_and_counts(self, tiny_dataset, with_bad):
        model = Model(tiny_cls_config(), seed=1)
        clean = evaluate_topk(model, tiny_dataset, batch_size=4)
        report = evaluate_topk(model, with_bad, batch_size=4)
        assert (report.sample_count, report.skipped) == (len(tiny_dataset), 2)
        assert (report.top1, report.top5) == (clean.top1, clean.top5)
        assert "skipped: 2" in report.summary().splitlines()

    def test_localisation_skips_and_counts(self, tiny_dataset, with_bad):
        model = Model(tiny_loc_config(), seed=2)
        clean, clean_stats = evaluate_localisation(model, tiny_dataset, batch_size=4)
        report, stats = evaluate_localisation(model, with_bad, batch_size=4)
        assert (report.sample_count, report.skipped) == (len(tiny_dataset), 2)
        assert report.per_output_accuracy == clean.per_output_accuracy
        for name in stats.counts:
            npt.assert_array_equal(stats.counts[name], clean_stats.counts[name])

    def test_pipeline_skips_and_counts(self, tiny_dataset, with_bad):
        pipeline = TwoStagePipeline(Model(tiny_loc_config(), seed=8),
                                    Model(tiny_cls_config(input_size=32), seed=9))
        clean = evaluate_topk(pipeline, tiny_dataset, batch_size=4)
        report = evaluate_topk(pipeline, with_bad, batch_size=4)
        assert report == replace(clean, skipped=2)
        assert "skipped: 2" in report.summary().splitlines()

    def test_nothing_left_is_named(self, tiny_dataset, tmp_path):
        bad = DatasetManifest([truncated_copy(r, tmp_path / f"bad{i}.ppm")
                               for i, r in enumerate(tiny_dataset.records[:2])], 2, "eval")
        named = r"no record to evaluate: 2 of 2 images do not decode \(first: truncated pixel data in .*bad0\.ppm\)$"
        cls_model = Model(tiny_cls_config(input_size=32), seed=9)
        with pytest.raises(ValueError, match=named):
            evaluate_topk(cls_model, bad)
        with pytest.raises(ValueError, match=named):
            evaluate_localisation(Model(tiny_loc_config(), seed=2), bad)
        with pytest.raises(ValueError, match=named):
            evaluate_topk(TwoStagePipeline(None, cls_model), bad)

    def test_unreadable_and_lost_boxes_both_named(self, tiny_dataset, tmp_path):
        rec = tiny_dataset.records[0]
        lost = ManifestRecord(rec.path, rec.class_id, BoundingBox(1.0, 1.0, 2.0, 2.0))
        bad = truncated_copy(rec, tmp_path / "bad.ppm")
        with pytest.raises(ValueError, match=r"1 of 2 images do not decode .* and the eval crop lost 1 of 2 boxes$"):
            evaluate_localisation(Model(tiny_loc_config(), seed=2), DatasetManifest([bad, lost], 2, "eval"))


class TestSkipsAcrossBatches:
    """An unreadable image and an unusable box mid-manifest, at batch sizes
    that divide neither the record count nor the kept count: each report
    equals the report on the clean manifest without the records it skips."""

    # left of every image: the centre crop loses it, the codec cannot encode it
    OFF_IMAGE = BoundingBox(-5.0, 20.0, 4.0, 6.0)

    @pytest.fixture
    def manifests(self, tiny_dataset, tmp_path):
        """(mixed, mixed without its unreadable record, clean)"""
        recs = tiny_dataset.records
        unreadable = truncated_copy(recs[2], tmp_path / "bad.ppm")
        off_image = ManifestRecord(recs[6].path, recs[6].class_id, self.OFF_IMAGE)
        mixed = [*recs[:3], unreadable, *recs[3:7], off_image, *recs[7:]]
        return tuple(DatasetManifest(r, tiny_dataset.n_classes, "eval")
                     for r in (mixed, [r for r in mixed if r is not unreadable], recs))

    @pytest.mark.parametrize("batch_size", [5, 9])
    @pytest.mark.parametrize("kind", ["model", "pipeline", "oracle"])
    def test_topk(self, manifests, batch_size, kind):
        mixed, readable, clean = manifests
        cls_model = Model(tiny_cls_config(input_size=32), seed=9)
        target = {"model": cls_model,
                  "pipeline": TwoStagePipeline(Model(tiny_loc_config(), seed=8), cls_model),
                  "oracle": TwoStagePipeline(None, cls_model)}[kind]
        # only the oracle reads the box; the others keep the off-image record
        expected = evaluate_topk(target, clean if kind == "oracle" else readable, batch_size=batch_size)
        report = evaluate_topk(target, mixed, batch_size=batch_size)
        assert report == replace(expected, skipped=2 if kind == "oracle" else 1)

    @pytest.mark.parametrize("batch_size", [5, 9])
    @pytest.mark.parametrize("preprocess", ["center", "none"])
    def test_localisation(self, manifests, batch_size, preprocess):
        mixed, _, clean = manifests
        model = Model(tiny_loc_config(), seed=2)
        expected, expected_stats = evaluate_localisation(model, clean, preprocess, batch_size)
        report, stats = evaluate_localisation(model, mixed, preprocess, batch_size)
        assert report == replace(expected, skipped=2)
        for name in stats.counts:
            npt.assert_array_equal(stats.counts[name], expected_stats.counts[name])

    def test_no_encodable_box_left_is_named(self, tiny_dataset):
        off_image = DatasetManifest([ManifestRecord(r.path, r.class_id, self.OFF_IMAGE)
                                     for r in tiny_dataset.records[:2]], 2, "eval")
        named = r"^no record to evaluate: 2 of 2 boxes cannot be encoded$"
        with pytest.raises(ValueError, match=named):
            evaluate_localisation(Model(tiny_loc_config(), seed=2), off_image, preprocess="none")
        with pytest.raises(ValueError, match=named):
            evaluate_topk(TwoStagePipeline(None, Model(tiny_cls_config(), seed=9)), off_image)
        with pytest.raises(ValueError, match=r"^no record to evaluate: the eval crop lost 2 of 2 boxes$"):
            evaluate_localisation(Model(tiny_loc_config(), seed=2), off_image)


class TestStreaming:
    @pytest.mark.parametrize("kind", ["model", "pipeline"])
    def test_memory_does_not_grow_with_the_manifest(self, stream_manifests, kind):
        """Evaluation holds one batch of inputs: 48 more records raise its
        peak by less than one record's decoded image (about 3-4 KB here, for
        the per-record truths and logit rows; 155 KiB for the classifier and
        336 KiB for the pipeline when every record was prepared first)."""
        cls_model = Model(tiny_cls_config(), seed=1)
        target = {"model": cls_model,
                  "pipeline": TwoStagePipeline(Model(tiny_loc_config(), seed=8), cls_model)}[kind]
        assert peak_growth(lambda manifest: evaluate_topk(target, manifest, batch_size=4),
                           stream_manifests) < STREAM_IMAGE_BYTES


class TestTwoStagePipeline:
    def test_oracle_crop_contains_glyph(self):
        from swpnet.datasynth import synthesize
        samples = synthesize(2, 3, 96, seed=31, scale_range=(0.5, 0.6), center_jitter=0.1)
        cls_model = Model(tiny_cls_config(input_size=32), seed=3)
        pipeline = TwoStagePipeline(None, cls_model)
        for s in samples:
            probs, details = pipeline.predict(s.image, gt_box=s.box, return_details=True)
            assert probs.shape == (2,)
            assert probs.sum() == pytest.approx(1.0, abs=1e-5)
            assert not details.used_fallback

    def test_enlargement_applied_exactly_once(self):
        rng = np.random.default_rng(5)
        image = rng.integers(0, 255, size=(224, 224, 3), dtype=np.uint8)
        cls_model = Model(tiny_cls_config(input_size=32), seed=4)
        pipeline = TwoStagePipeline(None, cls_model)
        gt = BoundingBox(112, 112, 100, 80)
        _, details = pipeline.predict(image, gt_box=gt, return_details=True)
        assert details.enlarged_box.w == pytest.approx(1.10 * details.predicted_box.w, rel=1e-6)
        assert details.enlarged_box.h == pytest.approx(1.10 * details.predicted_box.h, rel=1e-6)

    def test_oracle_crop_matches_box_crop_dataset(self, tmp_path):
        """The second stage sees, bit for bit, the crops it is trained on."""
        manifest = generate_dataset(2, 2, 64, tmp_path / "raw", seed=17, scale_range=(0.5, 0.6), clutter=1)
        cls_model = Model(tiny_cls_config(input_size=32), seed=18)
        derived = crop_dataset_to_boxes(manifest, tmp_path / "box", target_size=32, quantize_boxes=True)
        pipeline = TwoStagePipeline(None, cls_model)
        for rec, crop_rec in zip(manifest.records, derived.records):
            logits, details = pipeline.predict_batch([load_image(rec)], [rec.box])
            expected = cls_model.forward(Tensor(to_network_input([load_image(crop_rec)])), train=False)
            assert not details[0].used_fallback
            assert logits.tobytes() == expected.data.tobytes()

    def test_unusable_box_falls_back_to_central_crop(self):
        pipeline = corner_box_pipeline()
        rng = np.random.default_rng(7)
        image = rng.integers(0, 255, size=(100, 100, 3), dtype=np.uint8)
        probs, details = pipeline.predict(image, return_details=True)
        assert details.used_fallback
        assert probs.shape == (2,)

    def test_fallbacks_counted_in_report_not_logged(self, tmp_path, caplog):
        rng = np.random.default_rng(7)
        records = []
        for i in range(5):
            path = tmp_path / f"{i}.ppm"
            write_ppm(path, rng.integers(0, 255, size=(100, 100, 3), dtype=np.uint8))
            records.append(ManifestRecord(str(path), i % 2, BoundingBox(50, 50, 40, 40)))
        with caplog.at_level("DEBUG"):
            report = evaluate_topk(corner_box_pipeline(), DatasetManifest(records, 2, "eval"),
                                   batch_size=2)
        assert report.sample_count == 5
        assert report.fallbacks == 5
        assert "fallbacks: 5" in report.summary().splitlines()
        assert not [r for r in caplog.records if r.levelname == "WARNING"]

    def test_single_image_predict(self):
        loc_model = Model(tiny_loc_config(), seed=8)
        cls_model = Model(tiny_cls_config(input_size=32), seed=9)
        rng = np.random.default_rng(10)
        image = rng.integers(0, 255, size=(64, 64, 3), dtype=np.uint8)
        probs = TwoStagePipeline(loc_model, cls_model).predict(image)
        assert probs.shape == (2,)
        assert np.isfinite(probs).all()

    def test_pipeline_evaluate_topk(self, tiny_dataset):
        cls_model = Model(tiny_cls_config(input_size=32), seed=11)
        pipeline = TwoStagePipeline(None, cls_model)
        report = evaluate_topk(pipeline, tiny_dataset)
        assert report.sample_count == len(tiny_dataset)
        assert report.top5 == 100.0     # two classes: the top five cover both


def model_outputs(loc_model):
    return loc_model.head.outputs


def corner_box_pipeline():
    """A pipeline whose localiser is rigged to predict the far corner with a
    tiny box, which maps fully outside a small image."""
    loc_model = Model(tiny_loc_config(), seed=5)
    for layer, hot in zip(model_outputs(loc_model), (24, 24, 0, 0)):
        layer.weight.data[:] = 0.0
        layer.bias.data[:] = 0.0
        layer.bias.data[hot] = 10.0
    cls_model = Model(tiny_cls_config(input_size=32), seed=6)
    return TwoStagePipeline(loc_model, cls_model)


class TestBench:
    def test_report_structure(self):
        model = Model(tiny_cls_config(input_size=32), seed=12)
        report = bench_fps_paired({"target": model}, batch_sizes=(1, 4), n_images=24, seed=0)["target"]
        assert set(report.entries) == {1, 4}
        for entry in report.entries.values():
            assert entry.fps > 0
            assert entry.images >= 24
        assert any("depth" in line for line in report.echo)
        assert "batch 1:" in report.summary()

    def test_pipeline_bench_runs(self):
        loc_model = Model(tiny_loc_config(), seed=13)
        cls_model = Model(tiny_cls_config(input_size=32), seed=14)
        pipeline = TwoStagePipeline(loc_model, cls_model)
        report = bench_fps_paired({"target": pipeline}, batch_sizes=(4,), n_images=8, seed=1)["target"]
        assert report.entries[4].images >= 8

    def test_oracle_pipeline_is_rejected_by_name(self):
        cls_model = Model(tiny_cls_config(input_size=32), seed=14)
        model = Model(tiny_cls_config(input_size=32), seed=12)
        targets = {"model": model, "oracle": TwoStagePipeline(None, cls_model)}
        with pytest.raises(ValueError, match="bench target 'oracle' is an oracle pipeline"):
            bench_fps_paired(targets, batch_sizes=(1,), n_images=1)

    def test_nan_weight_raises_instead_of_being_timed(self):
        model = Model(tiny_cls_config(input_size=32), seed=16)
        model.stem_conv.weight.data[0, 0, 0, 0] = np.nan
        with pytest.raises(NumericsError, match="conv2d produced a non-finite value"):
            bench_fps_paired({"target": model}, batch_sizes=(1,), n_images=1)

    def test_rejects_zero_images(self):
        model = Model(tiny_cls_config(input_size=32), seed=15)
        with pytest.raises(ValueError):
            bench_fps_paired({"target": model}, batch_sizes=(1,), n_images=0)
