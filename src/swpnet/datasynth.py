"""Deterministic synthetic dataset of vehicle-like glyphs with exact
bounding boxes, manifest I/O, train/eval pre-processing, and bin-occupancy
histograms.

A glyph is a side-view silhouette: a body slab, a cabin block whose
horizontal position varies by class, and two wheels.  Classes are points on
a parameter grid whose axes are spaced by a similarity margin, so any two
classes differ in at least one parameter by that margin.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import stat
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binning import LOC_OUTPUTS, BoundingBox, bilinear_resize, decode_box, encode_box, encode_value
from .imgio import read_ppm, write_ppm


class DataSynthError(ValueError):
    pass


# -- class specs --------------------------------------------------------------

_ASPECT_RANGE = (1.6, 3.0)        # body width / glyph height
_CABIN_RANGE = (0.05, 0.5)        # cabin offset as fraction of free span
_WHEEL_RANGE = (0.10, 0.24)       # wheel radius as fraction of glyph height
_HUE_RANGE = (0.0, 1.0)           # position on a fixed colour wheel


@dataclass(frozen=True)
class GlyphClassSpec:
    class_id: int
    body_aspect: float
    cabin_offset: float
    wheel_radius: float
    body_rgb: tuple[int, int, int]
    cabin_rgb: tuple[int, int, int]


def _levels(lo: float, hi: float, margin: float, periodic: bool = False) -> list[float]:
    n = max(2, int(1.0 / margin) + 1)
    return list(np.linspace(lo, hi, n, endpoint=not periodic))


def _hue_rgb(h: float, value: float) -> tuple[int, int, int]:
    # crude saturated colour wheel; enough to make classes chromatic
    r = 0.5 + 0.5 * math.cos(2 * math.pi * h)
    g = 0.5 + 0.5 * math.cos(2 * math.pi * (h - 1 / 3))
    b = 0.5 + 0.5 * math.cos(2 * math.pi * (h - 2 / 3))
    return tuple(int(round(value * c)) for c in (r, g, b))


def make_class_specs(n_classes: int, similarity_margin: float = 0.25) -> list[GlyphClassSpec]:
    """First n_classes points of a deterministic grid over the glyph
    parameters; axis levels are spaced at least `similarity_margin` apart
    in normalised units."""
    if n_classes < 2:
        raise DataSynthError("a classification task needs at least 2 classes")
    if not 0 < similarity_margin <= 1:
        raise DataSynthError(f"similarity margin must lie in (0, 1], got {similarity_margin}")
    # last axis varies fastest: hue first, geometry later
    axes = [
        _levels(*_ASPECT_RANGE, similarity_margin),
        _levels(*_WHEEL_RANGE, similarity_margin),
        _levels(*_CABIN_RANGE, similarity_margin),
        _levels(*_HUE_RANGE, similarity_margin, periodic=True),
    ]
    combos = itertools.product(*axes)
    specs = []
    for class_id, (aspect, wheel, cabin, hue) in enumerate(itertools.islice(combos, n_classes)):
        specs.append(GlyphClassSpec(
            class_id=class_id,
            body_aspect=aspect,
            cabin_offset=cabin,
            wheel_radius=wheel,
            body_rgb=_hue_rgb(hue, 150.0),
            cabin_rgb=_hue_rgb(hue + 0.17, 95.0),
        ))
    if len(specs) < n_classes:
        raise DataSynthError(f"margin {similarity_margin} only yields "
                             f"{len(specs)} distinguishable classes")
    return specs


# -- rendering ----------------------------------------------------------------

_WHEEL_RGB = (28, 28, 34)


def render_glyph(canvas: np.ndarray, spec: GlyphClassSpec, cx: float, cy: float,
                 height: float) -> tuple[BoundingBox, np.ndarray]:
    """Paint one glyph onto the canvas in place; returns the exact pixel
    bounding box and the boolean glyph mask."""
    h_img, w_img = canvas.shape[:2]
    gh = height
    gw = gh * spec.body_aspect
    x0, y0 = cx - gw / 2.0, cy - gh / 2.0
    ys, xs = np.mgrid[0:h_img, 0:w_img]
    mask = np.zeros((h_img, w_img), dtype=bool)

    def rect(rx0, ry0, rx1, ry1):
        return (xs >= rx0) & (xs < rx1) & (ys >= ry0) & (ys < ry1)

    # body slab across the full glyph width
    body = rect(x0, y0 + 0.34 * gh, x0 + gw, y0 + 0.80 * gh)
    # cabin block on top, shifted by the class's offset fraction
    cab_w = 0.42 * gw
    cab_x = x0 + spec.cabin_offset * (gw - cab_w)
    cabin = rect(cab_x, y0, cab_x + cab_w, y0 + 0.36 * gh)
    # wheels tangent to the glyph bottom
    r = spec.wheel_radius * gh
    wy = y0 + gh - r
    wheels = np.zeros_like(mask)
    for wx in (x0 + 0.22 * gw, x0 + 0.78 * gw):
        wheels |= (xs - wx) ** 2 + (ys - wy) ** 2 <= r * r

    for part, rgb in ((body, spec.body_rgb), (cabin, spec.cabin_rgb), (wheels, _WHEEL_RGB)):
        canvas[part] = rgb
        mask |= part

    if not mask.any():
        raise DataSynthError("glyph fell entirely outside the canvas")
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    py0, py1 = int(rows[0]), int(rows[-1]) + 1
    px0, px1 = int(cols[0]), int(cols[-1]) + 1
    box = BoundingBox((px0 + px1) / 2.0, (py0 + py1) / 2.0, float(px1 - px0), float(py1 - py0))
    return box, mask


def _paint_background(canvas: np.ndarray, rng: np.random.Generator, clutter: int) -> None:
    h, w = canvas.shape[:2]
    base = int(rng.integers(168, 212))
    noise = rng.integers(-6, 7, size=(h, w, 1), dtype=np.int16)
    canvas[:] = np.clip(base + noise, 0, 255).astype(np.uint8)
    for _ in range(clutter):
        shade = int(rng.integers(120, 160))
        cw = int(rng.integers(max(2, w // 10), max(3, w // 3)))
        ch = int(rng.integers(max(2, h // 10), max(3, h // 3)))
        x = int(rng.integers(0, max(1, w - cw)))
        y = int(rng.integers(0, max(1, h - ch)))
        canvas[y:y + ch, x:x + cw] = (shade, shade, shade + 6)


@dataclass
class Sample:
    image: np.ndarray
    class_id: int
    box: BoundingBox
    glyph_mask: np.ndarray


def synthesize(n_classes: int, per_class: int, canvas: int, similarity_margin: float = 0.25,
               seed: int = 0, scale_range: tuple[float, float] = (0.45, 0.70),
               center_jitter: float = 0.10, clutter: int = 3) -> list[Sample]:
    """Render the full sample list in memory, reproducibly from the seed.

    Glyph width is drawn from scale_range (fractions of the canvas side) and
    the centre is jittered by up to center_jitter * canvas in each axis.
    """
    if per_class < 1:
        raise DataSynthError("per_class must be at least 1")
    if not 0 < scale_range[0] <= scale_range[1] <= 0.92:
        raise DataSynthError(f"scale range must lie in (0, 0.92], got {scale_range}")
    specs = make_class_specs(n_classes, similarity_margin)
    max_aspect = max(s.body_aspect for s in specs)
    if scale_range[0] * canvas / max_aspect < 10:
        raise DataSynthError(f"canvas {canvas} too small: min-scale glyph height "
                             f"{scale_range[0] * canvas / max_aspect:.1f} px is unrenderable")

    streams = np.random.SeedSequence(seed).spawn(n_classes * per_class)
    samples = []
    for idx, stream in enumerate(streams):
        spec = specs[idx // per_class]
        rng = np.random.default_rng(stream)
        image = np.zeros((canvas, canvas, 3), dtype=np.uint8)
        _paint_background(image, rng, clutter)
        gw = rng.uniform(*scale_range) * canvas
        gh = gw / spec.body_aspect
        jit = center_jitter * canvas
        lo_x, hi_x = gw / 2.0 + 1, canvas - gw / 2.0 - 1
        lo_y, hi_y = gh / 2.0 + 1, canvas - gh / 2.0 - 1
        cx = float(np.clip(canvas / 2.0 + rng.uniform(-jit, jit), lo_x, hi_x))
        cy = float(np.clip(canvas / 2.0 + rng.uniform(-jit, jit), lo_y, hi_y))
        box, mask = render_glyph(image, spec, cx, cy, gh)
        samples.append(Sample(image, spec.class_id, box, mask))
    return samples


# -- manifests ----------------------------------------------------------------

@dataclass
class ManifestRecord:
    path: str
    class_id: int
    box: BoundingBox


@dataclass
class DatasetManifest:
    records: list[ManifestRecord]
    n_classes: int
    split: str

    def __len__(self) -> int:
        return len(self.records)


def save_manifest(manifest: DatasetManifest, path) -> None:
    path = Path(path)
    lines = [f"classes={manifest.n_classes} split={manifest.split}"]
    for rec in manifest.records:
        rel = os.path.relpath(rec.path, path.parent)
        b = rec.box
        lines.append(f"{rel},{rec.class_id},{b.cx!r},{b.cy!r},{b.w!r},{b.h!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _resolve_image(base: Path, rel: str, real_dirs: dict[str, str]) -> str:
    """str((base / rel).resolve()) for a manifest record's image, or a
    DataSynthError when the image is missing.  real_dirs caches each
    resolved directory for one manifest; a file is only lstat-ed, and a
    symlinked one is resolved in full."""
    head, name = os.path.split(rel)
    if name not in ("", ".", ".."):
        real_dir = real_dirs.get(head)
        if real_dir is None:
            real_dir = real_dirs[head] = str((base / head).resolve())
        img_path = os.path.join(real_dir, name)
        try:
            if not stat.S_ISLNK(os.lstat(img_path).st_mode):
                return img_path
        except (FileNotFoundError, NotADirectoryError):
            raise DataSynthError(f"manifest references missing image {img_path}") from None
    img_path = (base / rel).resolve()
    if not img_path.exists():
        raise DataSynthError(f"manifest references missing image {img_path}")
    return str(img_path)


def load_manifest(path) -> DatasetManifest:
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as err:
        raise DataSynthError(f"{path}: not UTF-8 text ({err.reason} at byte {err.start})") from None
    if not lines:
        raise DataSynthError(f"empty manifest {path}")
    try:
        header = dict(tok.split("=", 1) for tok in lines[0].split())
        n_classes = int(header["classes"])
    except (KeyError, ValueError):
        raise DataSynthError(f"{path}:1: header must read 'classes=<n> split=<tag>', "
                             f"got {lines[0]!r}") from None
    if n_classes < 1:
        raise DataSynthError(f"{path}:1: class count must be at least 1, got {n_classes}")
    records, real_dirs = [], {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 6:
            raise DataSynthError(f"{path}:{lineno}: expected 6 fields 'path,class_id,cx,cy,w,h', "
                                 f"got {len(fields)}")
        rel, cid, cx, cy, w, h = fields
        try:
            class_id, box = int(cid), BoundingBox(float(cx), float(cy), float(w), float(h))
        except ValueError as err:
            raise DataSynthError(f"{path}:{lineno}: {err}") from None
        try:
            img_path = _resolve_image(path.parent, rel, real_dirs)
        except DataSynthError:
            raise
        except (ValueError, OSError, RuntimeError) as err:  # a NUL byte, a symlink loop
            raise DataSynthError(f"{path}:{lineno}: cannot resolve image path {rel!r}: {err}") from None
        records.append(ManifestRecord(img_path, class_id, box))
    if not records:
        raise DataSynthError(f"{path}: manifest has no records")
    ids = {r.class_id for r in records}
    if min(ids) < 0 or max(ids) >= n_classes:
        raise DataSynthError(f"class ids {sorted(ids)} not dense in [0, {n_classes})")
    return DatasetManifest(records, n_classes, header.get("split", "train"))


def _write_dataset(items, n_classes: int, out_dir, split: str) -> DatasetManifest:
    """Write each (image, class_id, box) of items as a PPM under
    out_dir/images, then the split's manifest, and return the manifest."""
    out_dir = Path(out_dir)
    (out_dir / "images").mkdir(parents=True, exist_ok=True)
    records = []
    for idx, (image, class_id, box) in enumerate(items):
        img_path = out_dir / "images" / f"{split}_{idx:05d}_c{class_id}.ppm"
        write_ppm(img_path, image)
        records.append(ManifestRecord(str(img_path.resolve()), class_id, box))
    manifest = DatasetManifest(records, n_classes, split)
    save_manifest(manifest, manifest_path(out_dir, split))
    return manifest


def generate_dataset(n_classes: int, per_class: int, canvas: int, out_dir,
                     similarity_margin: float = 0.25, seed: int = 0, split: str = "train",
                     scale_range: tuple[float, float] = (0.45, 0.70),
                     center_jitter: float = 0.10, clutter: int = 3) -> DatasetManifest:
    """Render, then write PPM images plus a manifest file, and return the
    manifest.  Bad arguments raise DataSynthError before anything is written."""
    samples = synthesize(n_classes, per_class, canvas, similarity_margin, seed,
                         scale_range, center_jitter, clutter)
    return _write_dataset(((s.image, s.class_id, s.box) for s in samples), n_classes, out_dir, split)


def manifest_path(out_dir, split: str) -> Path:
    return Path(out_dir) / f"{split}.txt"


# -- pre-processing -----------------------------------------------------------

@dataclass(frozen=True)
class PreprocessConfig:
    """Train-time random rescale + crop, and eval-time centre crop.

    The rescale range is a declared default; crop_size must fit inside the
    smallest rescaled image and eval_scale must be at least crop_size.
    """

    crop_size: int = 224
    eval_scale: int = 256
    scale_range: tuple[float, float] = (0.8, 1.3)
    seed: int = 0

    def __post_init__(self):
        if self.crop_size < 8:
            raise DataSynthError(f"crop size {self.crop_size} too small")
        if self.eval_scale < self.crop_size:
            raise DataSynthError(f"eval scale {self.eval_scale} below crop size {self.crop_size}")
        if not 0 < self.scale_range[0] <= self.scale_range[1]:
            raise DataSynthError(f"bad scale range {self.scale_range}")


def transform_box(box: BoundingBox, sx: float, sy: float, ox: float, oy: float) -> BoundingBox:
    """Scale then translate a box: output pixels = input * s - offset."""
    return BoundingBox(box.cx * sx - ox, box.cy * sy - oy, box.w * sx, box.h * sy)


# a clipped box with a side below this many pixels counts as lost
MIN_BOX_SIDE = 2.0


def clip_box(box: BoundingBox, width: int, height: int) -> BoundingBox | None:
    """Intersect the box with [0, width) x [0, height); None when degenerate."""
    x0 = max(0.0, box.cx - box.w / 2.0)
    x1 = min(float(width), box.cx + box.w / 2.0)
    y0 = max(0.0, box.cy - box.h / 2.0)
    y1 = min(float(height), box.cy + box.h / 2.0)
    if x1 - x0 < MIN_BOX_SIDE or y1 - y0 < MIN_BOX_SIDE:
        return None
    return BoundingBox((x0 + x1) / 2.0, (y0 + y1) / 2.0, x1 - x0, y1 - y0)


_CROP_RETRIES = 8


def preprocess_train(image: np.ndarray, box: BoundingBox, config: PreprocessConfig,
                     rng: np.random.Generator) -> tuple[np.ndarray, BoundingBox]:
    """Random rescale then random crop; the box rides the same transform and
    is clipped to the crop.  Crops that lose the glyph are resampled a bounded
    number of times, then the crop window is re-centred on the glyph."""
    h, w = image.shape[:2]
    crop = config.crop_size
    factor = rng.uniform(*config.scale_range)
    new_h, new_w = round(h * factor), round(w * factor)
    if new_h < crop or new_w < crop:
        raise DataSynthError(f"rescaled image {new_w}x{new_h} smaller than crop {crop}")
    sx, sy = new_w / w, new_h / h
    scaled_box = transform_box(box, sx, sy, 0.0, 0.0)

    # The crop is chosen from box geometry alone; only the kept window of
    # the rescaled image is then resampled.
    for _ in range(_CROP_RETRIES):
        ox = int(rng.integers(0, new_w - crop + 1))
        oy = int(rng.integers(0, new_h - crop + 1))
        shifted = transform_box(scaled_box, 1.0, 1.0, ox, oy)
        clipped = clip_box(shifted, crop, crop)
        if clipped is not None:
            break
    else:
        ox = int(np.clip(round(scaled_box.cx - crop / 2.0), 0, new_w - crop))
        oy = int(np.clip(round(scaled_box.cy - crop / 2.0), 0, new_h - crop))
        shifted = transform_box(scaled_box, 1.0, 1.0, ox, oy)
        clipped = clip_box(shifted, crop, crop)
        if clipped is None:
            raise DataSynthError("glyph unrecoverable after crop resampling")
    return bilinear_resize(image, new_h, new_w, (oy, ox, crop, crop)), clipped


def center_crop_transform(image: np.ndarray, config: PreprocessConfig
                          ) -> tuple[np.ndarray, float, float, float, float]:
    """Resize the shortest side to eval_scale, take the central crop, and
    return (crop, sx, sy, ox, oy) so boxes can ride or invert the transform."""
    h, w = image.shape[:2]
    if h <= w:
        new_h, new_w = config.eval_scale, max(config.crop_size, round(w * config.eval_scale / h))
    else:
        new_h, new_w = max(config.crop_size, round(h * config.eval_scale / w)), config.eval_scale
    ox = (new_w - config.crop_size) // 2
    oy = (new_h - config.crop_size) // 2
    crop = bilinear_resize(image, new_h, new_w, (oy, ox, config.crop_size, config.crop_size))
    return crop, new_w / w, new_h / h, float(ox), float(oy)


def to_network_input(images) -> np.ndarray:
    """Stack a list of HWC uint8 rasters into a [B, 3, H, W] float32 batch in [0, 1]."""
    nchw = np.stack(images).transpose(0, 3, 1, 2)   # one pass: cast, divide and lay out NCHW
    return np.divide(nchw, np.float32(255), out=np.empty(nchw.shape, np.float32), dtype=np.float32)


def load_image(record: ManifestRecord) -> np.ndarray:
    return read_ppm(record.path)


# -- histograms ---------------------------------------------------------------

def _record_rng(seed: int, image: np.ndarray) -> np.random.Generator:
    digest = hashlib.sha256(repr(image.shape).encode("ascii") + image.tobytes()).digest()
    key = int.from_bytes(digest[:8], "little")
    return np.random.default_rng(np.random.SeedSequence([seed, key]))


def bin_histogram(manifest: DatasetManifest,
                  preprocess: PreprocessConfig | None = None) -> dict[str, np.ndarray]:
    """Occupancy counts per bin for each LOC_OUTPUTS entry, optionally after
    train pre-processing.  Per-record rng streams derive from the image
    content, so totals are invariant under manifest reordering and do not
    depend on where the dataset lives."""
    counts = {name: np.zeros(spec.n_bins, dtype=np.int64) for name, spec in LOC_OUTPUTS}
    for rec in manifest.records:
        box = rec.box
        if preprocess is not None:
            image = load_image(rec)
            _, box = preprocess_train(image, rec.box, preprocess, _record_rng(preprocess.seed, image))
        for name, spec in LOC_OUTPUTS:
            counts[name][encode_value(getattr(box, name), spec)] += 1
    return counts


def save_histograms(counts: dict[str, np.ndarray], prefix) -> list[Path]:
    """One CSV per output, rows of bin,count."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    paths = []
    for key, _ in LOC_OUTPUTS:
        p = prefix.parent / f"{prefix.name}_{key}.csv"
        lines = ["bin,count"] + [f"{i},{int(c)}" for i, c in enumerate(counts[key])]
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(p)
    return paths


# -- derived datasets ---------------------------------------------------------

def crop_dataset_to_boxes(manifest: DatasetManifest, out_dir, target_size: int,
                          quantize_boxes: bool = False) -> DatasetManifest:
    """Write a derived dataset of per-record box crops for training the
    second-stage classifier: evaluation.box_crop, the crop the two-stage
    pipeline feeds it, at target_size.

    quantize_boxes routes each box through the bin codec first, so the crop
    framing matches what decoded predictions produce at inference time.

    Every record is cropped, and its crop (target_size² × 3 bytes) held,
    before anything is written: a box that misses its image raises
    DataSynthError naming the record, and writes nothing.
    """
    from .evaluation import box_crop   # evaluation imports this module

    full = BoundingBox(target_size / 2.0, target_size / 2.0, float(target_size), float(target_size))
    items = []
    for rec in manifest.records:
        image = load_image(rec)
        box = decode_box(encode_box(rec.box)) if quantize_boxes else rec.box
        try:
            crop = box_crop(image, box, target_size)
        except ValueError as err:
            raise DataSynthError(f"{rec.path}: box {rec.box} gives no crop: {err}") from None
        items.append((crop, rec.class_id, full))
    return _write_dataset(items, manifest.n_classes, out_dir, f"{manifest.split}_boxcrop")
