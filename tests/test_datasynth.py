import hashlib
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from swpnet import datasynth
from swpnet.binning import BoundingBox
from swpnet.datasynth import (
    DataSynthError,
    DatasetManifest,
    ManifestRecord,
    PreprocessConfig,
    bin_histogram,
    center_crop_transform,
    crop_dataset_to_boxes,
    generate_dataset,
    load_image,
    load_manifest,
    make_class_specs,
    preprocess_train,
    save_histograms,
    save_manifest,
    synthesize,
    to_network_input,
    transform_box,
)
from swpnet.imgio import write_ppm
from test_binning import reference_bilinear_resize


def tree_digest(root) -> str:
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


class TestClassSpecs:
    def test_rejects_single_class(self):
        with pytest.raises(DataSynthError):
            make_class_specs(1)

    def test_specs_pairwise_distinct(self):
        specs = make_class_specs(8, similarity_margin=0.25)
        seen = {(s.body_aspect, s.cabin_offset, s.wheel_radius, s.body_rgb) for s in specs}
        assert len(seen) == 8

    def test_margin_too_large(self):
        with pytest.raises(DataSynthError):
            make_class_specs(1000, similarity_margin=1.0)


class TestGeneration:
    def test_bit_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_dataset(4, 10, 256, a, seed=7)
        generate_dataset(4, 10, 256, b, seed=7)
        assert tree_digest(a) == tree_digest(b)

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_dataset(2, 2, 64, a, seed=1)
        generate_dataset(2, 2, 64, b, seed=2)
        assert tree_digest(a) != tree_digest(b)

    def test_record_count(self, tmp_path):
        manifest = generate_dataset(4, 10, 128, tmp_path, seed=3)
        assert len(manifest) == 40
        assert manifest.n_classes == 4

    def test_box_contains_every_glyph_pixel(self):
        samples = synthesize(3, 4, 96, seed=5)
        for s in samples:
            rows = np.flatnonzero(s.glyph_mask.any(axis=1))
            cols = np.flatnonzero(s.glyph_mask.any(axis=0))
            assert s.box.cx - s.box.w / 2 <= cols[0]
            assert cols[-1] + 1 <= s.box.cx + s.box.w / 2
            assert s.box.cy - s.box.h / 2 <= rows[0]
            assert rows[-1] + 1 <= s.box.cy + s.box.h / 2

    def test_single_class_rejected(self, tmp_path):
        with pytest.raises(DataSynthError):
            generate_dataset(1, 5, 64, tmp_path)

    def test_canvas_too_small(self, tmp_path):
        with pytest.raises(DataSynthError):
            generate_dataset(2, 1, 16, tmp_path)


class TestManifests:
    def test_roundtrip(self, tmp_path):
        manifest = generate_dataset(3, 2, 64, tmp_path, seed=1)
        loaded = load_manifest(tmp_path / "train.txt")
        assert len(loaded) == len(manifest)
        for a, b in zip(loaded.records, manifest.records):
            assert a.class_id == b.class_id
            assert a.box == b.box
            assert Path(a.path) == Path(b.path)

    def test_missing_image_rejected(self, tmp_path):
        manifest = generate_dataset(2, 1, 64, tmp_path, seed=1)
        Path(manifest.records[0].path).unlink()
        with pytest.raises(DataSynthError):
            load_manifest(tmp_path / "train.txt")

    def test_short_record_line_names_file_and_line(self, tmp_path):
        generate_dataset(2, 1, 64, tmp_path, seed=1)
        path = tmp_path / "train.txt"
        lines = path.read_text().splitlines()
        lines[2] = "images/x.ppm,0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataSynthError, match=r"train\.txt:3: expected 6 fields"):
            load_manifest(path)

    def test_header_without_classes_names_file_and_line(self, tmp_path):
        generate_dataset(2, 1, 64, tmp_path, seed=1)
        path = tmp_path / "train.txt"
        lines = path.read_text().splitlines()
        lines[0] = "split=train"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataSynthError, match=r"train\.txt:1: header"):
            load_manifest(path)

    @pytest.mark.parametrize("classes", [-3, 0])
    def test_class_count_below_one_names_file_and_line(self, tmp_path, classes):
        path = tmp_path / "train.txt"
        path.write_text(f"classes={classes} split=train\n")
        with pytest.raises(DataSynthError, match=r"train\.txt:1: class count must be at least 1"):
            load_manifest(path)

    def test_single_class_subset_round_trips(self, tmp_path):
        manifest = generate_dataset(2, 2, 64, tmp_path / "src", seed=1)
        one = [ManifestRecord(r.path, 0, r.box) for r in manifest.records if r.class_id == 1]
        save_manifest(DatasetManifest(one, 1, manifest.split), tmp_path / "one.txt")
        loaded = load_manifest(tmp_path / "one.txt")
        assert loaded.n_classes == 1
        assert [r.class_id for r in loaded.records] == [0, 0]


class TestManifestPaths:
    """A record's path is str((manifest_dir / rel).resolve()), symlinks and
    `..` included, and a missing image names that resolved path."""

    @pytest.fixture
    def tree(self, tmp_path):
        real = tmp_path / "real" / "images"
        real.mkdir(parents=True)
        for name in ("a.ppm", "b.ppm"):
            write_ppm(real / name, np.zeros((2, 2, 3), dtype=np.uint8))
        data = tmp_path / "data"
        (data / "sub").mkdir(parents=True)
        (data / "images_link").symlink_to(real, target_is_directory=True)
        (data / "a_link.ppm").symlink_to(real / "a.ppm")
        (data / "chain.ppm").symlink_to(data / "a_link.ppm")
        (data / "dangling.ppm").symlink_to(real / "gone.ppm")
        return data

    @staticmethod
    def load(manifest_dir: Path, rels: list[str]) -> list[str]:
        path = manifest_dir / "m.txt"
        path.write_text("classes=1 split=eval\n" + "".join(f"{rel},0,1.0,1.0,1.0,1.0\n" for rel in rels))
        return [r.path for r in load_manifest(path).records]

    @pytest.mark.parametrize("rel", [
        "images_link/a.ppm",                 # symlinked images directory
        "images_link/../images/b.ppm",       # `..` after a symlinked directory
        "a_link.ppm",                        # symlinked image
        "chain.ppm",                         # symlink to a symlink
        "./images_link/./b.ppm",
        "sub/../images_link/b.ppm",
        "../real/images/a.ppm",
        "images_link/",                      # a directory passes the existence check
    ])
    def test_path_equals_full_resolve(self, tree, rel):
        assert self.load(tree, [rel]) == [str((tree / rel).resolve())]

    def test_absolute_and_repeated_directories(self, tree):
        rels = [str(tree / "a_link.ppm"), "images_link/a.ppm", "images_link/b.ppm", "images_link/a.ppm"]
        assert self.load(tree, rels) == [str((tree / rel).resolve()) for rel in rels]

    def test_manifest_in_symlinked_directory(self, tree, tmp_path):
        (tmp_path / "data_link").symlink_to(tree, target_is_directory=True)
        rels = ["images_link/a.ppm", "../data/a_link.ppm"]
        assert self.load(tmp_path / "data_link", rels) == \
            [str((tmp_path / "data_link" / rel).resolve()) for rel in rels]

    @pytest.mark.parametrize("rel", ["images_link/missing.ppm", "nowhere/a.ppm", "dangling.ppm",
                                     "a_link.ppm/x.ppm"])
    def test_missing_image_names_resolved_path(self, tree, rel):
        expected = f"manifest references missing image {(tree / rel).resolve()}"
        with pytest.raises(DataSynthError) as err:
            self.load(tree, [rel])
        assert str(err.value) == expected

    def test_nul_byte_names_manifest_line_and_path(self, tree):
        with pytest.raises(DataSynthError) as err:
            self.load(tree, ["images_link/a.ppm", "a\0b.ppm"])
        assert str(err.value) == \
            f"{tree / 'm.txt'}:3: cannot resolve image path 'a\\x00b.ppm': embedded null byte"

    @pytest.mark.parametrize("rel", ["loop1", "loop1/a.ppm"])
    def test_symlink_loop_names_manifest_line_and_path(self, tree, rel):
        (tree / "loop1").symlink_to(tree / "loop2")
        (tree / "loop2").symlink_to(tree / "loop1")
        with pytest.raises(DataSynthError) as err:
            self.load(tree, [rel])
        assert str(err.value).startswith(f"{tree / 'm.txt'}:2: cannot resolve image path {rel!r}: ")
        assert "loop" in str(err.value).split(": ", 2)[2].lower()


class TestPreprocessTrain:
    def test_identity_transform(self):
        box = BoundingBox(10, 12, 6, 4)
        out = transform_box(box, 1.0, 1.0, 0.0, 0.0)
        assert out == box

    def test_scale_doubles_box(self):
        box = BoundingBox(10, 12, 6, 4)
        out = transform_box(box, 2.0, 2.0, 0.0, 0.0)
        assert (out.cx, out.cy, out.w, out.h) == (20, 24, 12, 8)

    def test_box_rides_crop(self):
        samples = synthesize(2, 2, 96, seed=8)
        cfg = PreprocessConfig(crop_size=64, eval_scale=72, scale_range=(0.8, 1.1), seed=0)
        rng = np.random.default_rng(0)
        for s in samples:
            crop, box = preprocess_train(s.image, s.box, cfg, rng)
            assert crop.shape == (64, 64, 3)
            assert 0 <= box.cx <= 64 and 0 <= box.cy <= 64
            assert box.w > 0 and box.h > 0

    def test_box_transform_consistent_with_pixels(self):
        # glyph pixels found inside the crop must lie within the adjusted box
        samples = synthesize(2, 3, 96, seed=9)
        cfg = PreprocessConfig(crop_size=64, eval_scale=72, scale_range=(1.0, 1.0), seed=0)
        rng = np.random.default_rng(1)
        for s in samples:
            crop, box = preprocess_train(s.image, s.box, cfg, rng)
            mask = s.glyph_mask  # scale 1.0 keeps pixel identity; recover offset by matching
            # with scale fixed at 1.0 the crop is a pure translation
            # find the wheel colour to locate glyph pixels inside the crop
            glyph_px = np.argwhere((crop == (28, 28, 34)).all(axis=2))
            if glyph_px.size == 0:
                continue
            ys, xs = glyph_px[:, 0], glyph_px[:, 1]
            tol = 1.0
            assert xs.min() >= box.cx - box.w / 2 - tol
            assert xs.max() <= box.cx + box.w / 2 + tol
            assert ys.min() >= box.cy - box.h / 2 - tol
            assert ys.max() <= box.cy + box.h / 2 + tol

    def test_degenerate_crops_resampled_to_validity(self):
        # glyph tucked in a corner of a large canvas: random 32-crops of the
        # 128-canvas mostly miss it, the guard must still return a live box
        from swpnet.datasynth import render_glyph
        spec = make_class_specs(2)[0]
        for seed in range(12):
            img = np.full((128, 128, 3), 190, dtype=np.uint8)
            box, _ = render_glyph(img, spec, 18.0, 14.0, 16.0)
            cfg = PreprocessConfig(crop_size=32, eval_scale=32, scale_range=(1.0, 1.0), seed=0)
            crop, adj = preprocess_train(img, box, cfg, np.random.default_rng(seed))
            assert adj.w >= 2 and adj.h >= 2

    def test_rescale_below_crop_rejected(self):
        img = np.zeros((64, 64, 3), dtype=np.uint8)
        cfg = PreprocessConfig(crop_size=60, eval_scale=64, scale_range=(0.5, 0.5), seed=0)
        with pytest.raises(DataSynthError):
            preprocess_train(img, BoundingBox(32, 32, 10, 10), cfg, np.random.default_rng(0))


def reference_preprocess_train(image, box, config, rng):
    """preprocess_train as it was before it resampled only the kept crop:
    the whole rescaled image, then a slice of it."""
    h, w = image.shape[:2]
    crop = config.crop_size
    factor = rng.uniform(*config.scale_range)
    new_h, new_w = round(h * factor), round(w * factor)
    if new_h < crop or new_w < crop:
        raise DataSynthError(f"rescaled image {new_w}x{new_h} smaller than crop {crop}")
    resized = reference_bilinear_resize(image, new_h, new_w)
    sx, sy = new_w / w, new_h / h
    scaled_box = transform_box(box, sx, sy, 0.0, 0.0)

    for _ in range(datasynth._CROP_RETRIES):
        ox = int(rng.integers(0, new_w - crop + 1))
        oy = int(rng.integers(0, new_h - crop + 1))
        shifted = transform_box(scaled_box, 1.0, 1.0, ox, oy)
        clipped = datasynth.clip_box(shifted, crop, crop)
        if clipped is not None:
            return np.ascontiguousarray(resized[oy:oy + crop, ox:ox + crop]), clipped

    ox = int(np.clip(round(scaled_box.cx - crop / 2.0), 0, new_w - crop))
    oy = int(np.clip(round(scaled_box.cy - crop / 2.0), 0, new_h - crop))
    shifted = transform_box(scaled_box, 1.0, 1.0, ox, oy)
    clipped = datasynth.clip_box(shifted, crop, crop)
    if clipped is None:
        raise DataSynthError("glyph unrecoverable after crop resampling")
    return np.ascontiguousarray(resized[oy:oy + crop, ox:ox + crop]), clipped


def reference_center_crop_transform(image, config):
    h, w = image.shape[:2]
    if h <= w:
        new_h, new_w = config.eval_scale, max(config.crop_size, round(w * config.eval_scale / h))
    else:
        new_h, new_w = max(config.crop_size, round(h * config.eval_scale / w)), config.eval_scale
    resized = reference_bilinear_resize(image, new_h, new_w)
    ox = (new_w - config.crop_size) // 2
    oy = (new_h - config.crop_size) // 2
    crop = np.ascontiguousarray(resized[oy:oy + config.crop_size, ox:ox + config.crop_size])
    return crop, new_w / w, new_h / h, float(ox), float(oy)


def run_both(fn, reference, *args, seed):
    """(outcome, rng state after) of fn and of reference on the same seed;
    an outcome is the returned value or the DataSynthError message."""
    results = []
    for f in (fn, reference):
        rng = np.random.default_rng(seed)
        try:
            outcome = f(*args, rng)
        except DataSynthError as err:
            outcome = str(err)
        results.append((outcome, rng.bit_generator.state))
    return results


class TestPreprocessOracle:
    """The windowed resample gives the crops, boxes and rng streams of the
    whole-image resample; crops are compared byte for byte."""

    CASES = [  # (canvas, crop, scale range)
        (96, 64, (0.8, 1.3)),     # the train default range
        (112, 64, (0.7, 1.6)),
        (96, 48, (0.5, 0.9)),     # downscale only
        (96, 96, (1.0, 1.4)),     # crop as large as the unscaled image
    ]

    @pytest.mark.parametrize("canvas, crop, scale_range", CASES)
    def test_preprocess_train_matches_reference(self, canvas, crop, scale_range):
        cfg = PreprocessConfig(crop_size=crop, eval_scale=crop, scale_range=scale_range)
        for sample in synthesize(2, 2, canvas, seed=canvas + crop):
            for seed in range(40):
                (got, got_state), (want, want_state) = run_both(
                    preprocess_train, reference_preprocess_train, sample.image, sample.box, cfg, seed=seed)
                assert got_state == want_state
                assert got[1] == want[1]
                assert got[0].shape == want[0].shape and got[0].tobytes() == want[0].tobytes()

    def test_recentred_fallback_matches_reference(self, monkeypatch):
        # a 4 px box in the corner of a 200 px image: most random 16 px crops
        # miss it, so most seeds reach the re-centred crop after 8 draws
        image = np.random.default_rng(3).integers(0, 256, size=(200, 200, 3), dtype=np.uint8)
        box = BoundingBox(6.0, 190.0, 4.0, 4.0)
        cfg = PreprocessConfig(crop_size=16, eval_scale=16, scale_range=(1.0, 1.5))
        real_clip = datasynth.clip_box
        clip_calls = []
        monkeypatch.setattr(datasynth, "clip_box", lambda *a: clip_calls.append(a) or real_clip(*a))
        fallbacks = 0
        for seed in range(60):
            clip_calls.clear()
            (got, got_state), (want, want_state) = run_both(
                preprocess_train, reference_preprocess_train, image, box, cfg, seed=seed)
            fallbacks += len(clip_calls) == 2 * (datasynth._CROP_RETRIES + 1)  # both sides
            assert got_state == want_state
            assert got[1] == want[1]
            assert got[0].tobytes() == want[0].tobytes()
        assert fallbacks >= 30

    def test_unrecoverable_glyph_same_error_and_rng_state(self):
        image = np.zeros((64, 64, 3), dtype=np.uint8)
        box = BoundingBox(1.0, 1.0, 2.0, 2.0)    # clips to a 1.5 px side in any crop
        cfg = PreprocessConfig(crop_size=32, eval_scale=32, scale_range=(0.5, 0.5))
        (got, got_state), (want, want_state) = run_both(
            preprocess_train, reference_preprocess_train, image, box, cfg, seed=0)
        assert got == want == "glyph unrecoverable after crop resampling"
        assert got_state == want_state

    @pytest.mark.parametrize("shape", [(112, 112, 3), (96, 150, 3), (150, 96, 3), (40, 41, 3), (64, 64, 3)])
    @pytest.mark.parametrize("crop, eval_scale", [(64, 73), (32, 36), (64, 64)])
    def test_center_crop_transform_matches_reference(self, shape, crop, eval_scale):
        image = np.random.default_rng(sum(shape)).integers(0, 256, size=shape, dtype=np.uint8)
        cfg = PreprocessConfig(crop_size=crop, eval_scale=eval_scale)
        got = center_crop_transform(image, cfg)
        want = reference_center_crop_transform(image, cfg)
        assert got[1:] == want[1:]
        assert got[0].shape == want[0].shape and got[0].tobytes() == want[0].tobytes()


class TestPreprocessEval:
    def test_central_crop_of_256(self):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 255, size=(256, 256, 3), dtype=np.uint8)
        out = center_crop_transform(img, PreprocessConfig())[0]
        npt.assert_array_equal(out, img[16:240, 16:240])

    def test_shortest_side_rule_wide_image(self):
        img = np.zeros((256, 512, 3), dtype=np.uint8)
        crop, sx, sy, ox, oy = center_crop_transform(img, PreprocessConfig())
        assert crop.shape == (224, 224, 3)
        assert sy == pytest.approx(1.0)
        assert sx == pytest.approx(1.0)
        assert (ox, oy) == (144.0, 16.0)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 255, size=(300, 270, 3), dtype=np.uint8)
        a = center_crop_transform(img, PreprocessConfig())[0]
        b = center_crop_transform(img, PreprocessConfig())[0]
        assert a.tobytes() == b.tobytes()


class TestNetworkInput:
    @staticmethod
    def two_pass(arr):
        """The formula to_network_input replaced: cast, then divide."""
        return np.ascontiguousarray(arr.transpose(0, 3, 1, 2).astype(np.float32) / 255.0)

    def images(self):
        # every byte value, in every channel and position, over 4 images
        values = np.random.default_rng(2).permutation(np.arange(256 * 3, dtype=np.int64) % 256)
        return values.astype(np.uint8).reshape(4, 8, 8, 3)

    def check(self, got, want):
        assert got.dtype == np.float32 and got.flags.c_contiguous
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_array_input_bytes(self):
        imgs = self.images()
        self.check(to_network_input(imgs), self.two_pass(imgs))

    def test_list_input_bytes(self):
        imgs = self.images()
        self.check(to_network_input(list(imgs)), self.two_pass(imgs))


class TestHistograms:
    def test_each_histogram_sums_to_record_count(self, tmp_path):
        manifest = generate_dataset(3, 4, 128, tmp_path, seed=4)
        counts = bin_histogram(manifest)
        for key in ("cx", "cy", "w", "h"):
            assert counts[key].sum() == len(manifest)

    def test_constant_boxes_single_bin(self):
        records = [type("R", (), {"path": f"p{i}", "class_id": 0,
                                  "box": BoundingBox(84, 84, 140, 140)})() for i in range(5)]
        manifest = DatasetManifest(records, 1, "eval")
        counts = bin_histogram(manifest)
        assert counts["cx"][12] == 5 and (counts["cx"] > 0).sum() == 1
        assert counts["w"][20] == 5 and (counts["w"] > 0).sum() == 1

    def test_overflow_lands_in_last_bin(self):
        records = [type("R", (), {"path": "p", "class_id": 0,
                                  "box": BoundingBox(84, 84, 300, 140)})()]
        manifest = DatasetManifest(records, 1, "eval")
        counts = bin_histogram(manifest)
        assert counts["w"][39] == 1

    def test_reorder_invariance_with_preprocess(self, tmp_path):
        manifest = generate_dataset(2, 4, 96, tmp_path, seed=5)
        cfg = PreprocessConfig(crop_size=64, eval_scale=72, scale_range=(0.8, 1.0), seed=3)
        fwd = bin_histogram(manifest, preprocess=cfg)
        rev = DatasetManifest(list(reversed(manifest.records)), manifest.n_classes, manifest.split)
        bwd = bin_histogram(rev, preprocess=cfg)
        for key in fwd:
            npt.assert_array_equal(fwd[key], bwd[key])

    def test_csv_export(self, tmp_path):
        manifest = generate_dataset(2, 2, 96, tmp_path, seed=6)
        counts = bin_histogram(manifest)
        paths = save_histograms(counts, tmp_path / "hist")
        assert [p.name for p in paths] == ["hist_cx.csv", "hist_cy.csv", "hist_w.csv", "hist_h.csv"]
        body = paths[0].read_text().splitlines()
        assert body[0] == "bin,count"
        assert sum(int(line.split(",")[1]) for line in body[1:]) == len(manifest)


class TestBoxCropDataset:
    def test_derived_images_have_target_size(self, tmp_path):
        manifest = generate_dataset(2, 2, 96, tmp_path / "src", seed=7)
        derived = crop_dataset_to_boxes(manifest, tmp_path / "dst", target_size=64)
        assert len(derived) == len(manifest)
        img = load_image(derived.records[0])
        assert img.shape == (64, 64, 3)

    def test_box_missing_its_image_raises_by_name_and_writes_nothing(self, tmp_path):
        manifest = generate_dataset(2, 2, 48, tmp_path / "src", seed=7)
        records = list(manifest.records)
        bad = records[2]
        records[2] = ManifestRecord(bad.path, bad.class_id, BoundingBox(500.0, 500.0, bad.box.w, bad.box.h))
        bad_manifest = DatasetManifest(records, manifest.n_classes, manifest.split)
        with pytest.raises(DataSynthError) as err:
            crop_dataset_to_boxes(bad_manifest, tmp_path / "dst", target_size=32)
        assert bad.path in str(err.value)
        assert str(records[2].box) in str(err.value)
        assert not (tmp_path / "dst").exists()   # no PPM, no manifest, no directory
