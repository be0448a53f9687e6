"""Binned-classification encoding of bounding boxes and the crop/resize
geometry used by the two-stage localise-then-classify flow.

Boxes are (centre x, centre y, width, height) in pixels, x rightward and y
downward from the top-left corner.  A bin b covers the half-open interval
[b*size, (b+1)*size); values at or beyond the covered range clamp into the
last bin, and a prediction decodes to its bin midpoint.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BinSpec:
    n_bins: int
    bin_size: float = 7.0

    def __post_init__(self):
        if self.n_bins < 1 or self.bin_size <= 0:
            raise ValueError(f"invalid bin spec {self}")

    @property
    def covered_range(self) -> float:
        return self.n_bins * self.bin_size


# 25 bins of 7 px cover locations 0..175; 40 bins of 7 px cover sizes 0..280.
LOCATION_BINS = BinSpec(25, 7.0)
SIZE_BINS = BinSpec(40, 7.0)
# The localiser's outputs in head order: each names a BoundingBox field and
# the bins it is classified into.  Head sizes and every per-output loop
# derive from this table.
LOC_OUTPUTS = (("cx", LOCATION_BINS), ("cy", LOCATION_BINS), ("w", SIZE_BINS), ("h", SIZE_BINS))


@dataclass(frozen=True)
class BoundingBox:
    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        for name, v in (("cx", self.cx), ("cy", self.cy), ("w", self.w), ("h", self.h)):
            if not math.isfinite(v):
                raise ValueError(f"box {name} is not finite")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box sides must be positive, got w={self.w}, h={self.h}")


def encode_value(v: float, spec: BinSpec) -> int:
    v = float(v)
    if not math.isfinite(v) or v < 0:
        raise ValueError(f"cannot encode value {v}")
    return min(int(v // spec.bin_size), spec.n_bins - 1)


def decode_bin(b: int, spec: BinSpec) -> float:
    if not 0 <= b < spec.n_bins:
        raise ValueError(f"bin {b} outside [0, {spec.n_bins})")
    return b * spec.bin_size + spec.bin_size / 2.0


def encode_box(box: BoundingBox) -> tuple[int, ...]:
    """One bin id per LOC_OUTPUTS entry, in table order."""
    return tuple(encode_value(getattr(box, name), spec) for name, spec in LOC_OUTPUTS)


def decode_box(target: tuple[int, ...]) -> BoundingBox:
    return BoundingBox(*(decode_bin(b, spec) for b, (_, spec) in zip(target, LOC_OUTPUTS)))


ENLARGE_FACTOR = 1.10   # the paper's 10% margin around a box before cropping


def enlarge_box(box: BoundingBox) -> BoundingBox:
    """Scale width and height by ENLARGE_FACTOR about the unchanged centre."""
    return BoundingBox(box.cx, box.cy, box.w * ENLARGE_FACTOR, box.h * ENLARGE_FACTOR)


def crop_to_box(image: np.ndarray, box: BoundingBox) -> np.ndarray:
    """Crop the pixel rectangle under the box, rounded outward to whole
    pixels and intersected with the image bounds."""
    if image.size == 0:
        raise ValueError("empty image")
    h, w = image.shape[:2]
    x0 = max(0, math.floor(box.cx - box.w / 2.0))
    x1 = min(w, math.ceil(box.cx + box.w / 2.0))
    y0 = max(0, math.floor(box.cy - box.h / 2.0))
    y1 = min(h, math.ceil(box.cy + box.h / 2.0))
    if x1 <= x0 or y1 <= y0:
        raise ValueError(f"box {box} does not intersect a {w}x{h} image")
    return np.ascontiguousarray(image[y0:y1, x0:x1])


def _integer(value, what: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _taps(start: int, count: int, src: int, out: int):
    """Source index pairs and float32 far-tap weights of output pixels
    start..start+count-1 along one axis of a src -> out resample."""
    pos = np.clip((np.arange(start, start + count) + 0.5) * (src / out) - 0.5, 0, src - 1)
    lo = np.floor(pos).astype(np.int64)
    return lo, np.minimum(lo + 1, src - 1), (pos - lo).astype(np.float32)


def bilinear_resize(image: np.ndarray, out_h: int, out_w: int,
                    window: tuple[int, int, int, int] | None = None) -> np.ndarray:
    """Separable bilinear resample of a uint8 RGB image, rows then columns,
    in float32, rounded back to uint8.

    window=(top, left, rows, cols) returns only that block of the
    out_h x out_w result, read from just the source rows and columns it
    needs; each of its pixels equals the full resize's bit for bit.
    """
    if image.size == 0:
        raise ValueError("empty image")
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise ValueError(f"expected an [H, W, 3] uint8 image, got shape {image.shape} dtype {image.dtype}")
    out_h, out_w = _integer(out_h, "output height"), _integer(out_w, "output width")
    if out_h < 1 or out_w < 1:
        raise ValueError(f"bad output size {out_h}x{out_w}")
    if window is None:
        window = (0, 0, out_h, out_w)
    elif len(window) != 4:
        raise ValueError(f"window must be (top, left, rows, cols), got {window!r}")
    top, left, rows, cols = (_integer(v, "window field") for v in window)
    if min(top, left) < 0 or min(rows, cols) < 1 or top + rows > out_h or left + cols > out_w:
        raise ValueError(f"window {tuple(window)} extends past the {out_h}x{out_w} output")
    h, w = image.shape[:2]
    y0, y1, wy = _taps(top, rows, h, out_h)
    x0, x1, wx = _taps(left, cols, w, out_w)

    # Row pass over the source columns the window reads, in place; each
    # value is src[y0] * (1 - wy) + src[y1] * wy rounded as float32.
    c0 = int(x0[0])
    src = image[:, c0:int(x1[-1]) + 1]
    taps = np.take(src, np.concatenate((y0, y1)), axis=0).astype(np.float32)
    near, far = taps[:rows], taps[rows:]
    near *= (1 - wy)[:, None, None]
    far *= wy[:, None, None]
    near += far

    # Column pass over whole contiguous (column, channel) rows; each value is
    # a convex combination of bytes, so rint alone lands it in [0, 255].
    out = np.take(near, x0 - c0, axis=1).reshape(rows, cols * 3)
    right = np.take(near, x1 - c0, axis=1).reshape(rows, cols * 3)
    out *= np.repeat(1 - wx, 3)
    right *= np.repeat(wx, 3)
    out += right
    return np.rint(out, out=out).astype(np.uint8).reshape(rows, cols, 3)


def largest_side_size(h: int, w: int, target: int) -> tuple[int, int]:
    """(rows, cols) of an h x w image resized so its largest side is target;
    the short side rounds to whole pixels, so each axis has its own scale."""
    if h >= w:
        return target, max(1, round(w * target / h))
    return max(1, round(h * target / w)), target


def resize_largest_side(image: np.ndarray, target: int) -> np.ndarray:
    """Aspect-preserving resize of a uint8 RGB image so its largest side
    equals `target`, then zero-pad (bottom/right) to a target x target square."""
    if image.size == 0:
        raise ValueError("empty image")
    new_h, new_w = largest_side_size(*image.shape[:2], target)
    out = np.zeros((target, target, 3), dtype=np.uint8)
    out[:new_h, :new_w] = bilinear_resize(image, new_h, new_w)
    return out
