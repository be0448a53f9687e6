import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swpnet.binning import (
    LOCATION_BINS,
    SIZE_BINS,
    BoundingBox,
    bilinear_resize,
    crop_to_box,
    decode_bin,
    decode_box,
    encode_box,
    encode_value,
    enlarge_box,
    resize_largest_side,
)


class TestEncodeDecode:
    def test_zero_maps_to_bin_zero(self):
        assert encode_value(0.0, LOCATION_BINS) == 0

    def test_overflow_clamps_to_last_bin(self):
        assert encode_value(300.0, SIZE_BINS) == 39

    def test_just_under_range(self):
        assert encode_value(174.9, LOCATION_BINS) == 24

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_value(-1.0, LOCATION_BINS)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            encode_value(float("nan"), LOCATION_BINS)

    def test_decode_bin_zero(self):
        assert decode_bin(0, LOCATION_BINS) == pytest.approx(3.5)

    def test_decode_last_location_bin(self):
        assert decode_bin(24, LOCATION_BINS) == pytest.approx(171.5)
        assert LOCATION_BINS.covered_range == pytest.approx(175.0)
        assert SIZE_BINS.covered_range == pytest.approx(280.0)

    def test_decode_out_of_range(self):
        with pytest.raises(ValueError):
            decode_bin(25, LOCATION_BINS)
        with pytest.raises(ValueError):
            decode_bin(-1, LOCATION_BINS)

    @given(st.floats(min_value=0.0, max_value=174.999))
    @settings(max_examples=200, deadline=None)
    def test_half_bin_roundtrip_bound(self, v):
        decoded = decode_bin(encode_value(v, LOCATION_BINS), LOCATION_BINS)
        assert abs(decoded - v) <= 3.5

    @given(st.lists(st.floats(min_value=0.0, max_value=500.0), min_size=2, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_encode_monotone(self, values):
        values = sorted(values)
        bins = [encode_value(v, SIZE_BINS) for v in values]
        assert bins == sorted(bins)

    def test_decode_strictly_increasing(self):
        mids = [decode_bin(b, SIZE_BINS) for b in range(SIZE_BINS.n_bins)]
        assert all(a < b for a, b in zip(mids, mids[1:]))


class TestBoxCodec:
    def test_encode_example(self):
        assert encode_box(BoundingBox(84, 84, 140, 140)) == (12, 12, 20, 20)

    def test_decode_example(self):
        b = decode_box((12, 12, 20, 20))
        assert (b.cx, b.cy, b.w, b.h) == pytest.approx((87.5, 87.5, 143.5, 143.5))

    def test_width_overflow(self):
        assert encode_box(BoundingBox(84, 84, 300, 140)) == (12, 12, 39, 20)

    def test_invalid_box(self):
        with pytest.raises(ValueError):
            BoundingBox(10, 10, 0, 5)
        with pytest.raises(ValueError):
            BoundingBox(float("inf"), 10, 5, 5)


class TestEnlargeBox:
    def test_ten_percent(self):
        out = enlarge_box(BoundingBox(100, 100, 50, 70))
        assert (out.cx, out.cy) == (100, 100)
        assert (out.w, out.h) == pytest.approx((55.0, 77.0))

    def test_area_scales_by_square(self):
        box = BoundingBox(0, 0.5, 12, 9)
        out = enlarge_box(box)
        assert out.w * out.h == pytest.approx(1.21 * box.w * box.h)

    @given(st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=50, deadline=None)
    def test_commutes_with_translation(self, dx, dy):
        box = BoundingBox(60, 40, 20, 10)
        a = enlarge_box(BoundingBox(box.cx + dx, box.cy + dy, box.w, box.h))
        b = enlarge_box(box)
        assert (a.cx - dx, a.cy - dy, a.w, a.h) == pytest.approx((b.cx, b.cy, b.w, b.h))


class TestCropToBox:
    def test_full_cover_returns_image(self):
        img = np.arange(48, dtype=np.uint8).reshape(4, 4, 3)
        out = crop_to_box(img, BoundingBox(2, 2, 4, 4))
        npt.assert_array_equal(out, img)

    def test_centred_2x2(self):
        img = np.arange(16, dtype=np.uint8).reshape(4, 4)
        out = crop_to_box(img, BoundingBox(2, 2, 2, 2))
        npt.assert_array_equal(out, img[1:3, 1:3])

    def test_fully_outside_errors(self):
        img = np.zeros((4, 4), dtype=np.uint8)
        with pytest.raises(ValueError):
            crop_to_box(img, BoundingBox(100, 100, 2, 2))

    def test_rounds_outward(self):
        img = np.zeros((10, 10), dtype=np.uint8)
        out = crop_to_box(img, BoundingBox(5.0, 5.0, 2.5, 2.5))
        # [3.75, 6.25) rounds outward to [3, 7)
        assert out.shape == (4, 4)

    @given(st.floats(1, 9), st.floats(1, 9), st.floats(0.5, 12), st.floats(0.5, 12))
    @settings(max_examples=100, deadline=None)
    def test_output_never_exceeds_box_or_image(self, cx, cy, w, h):
        img = np.zeros((10, 10), dtype=np.uint8)
        out = crop_to_box(img, BoundingBox(cx, cy, w, h))
        assert out.shape[0] <= min(int(np.ceil(h)) + 1, 10)
        assert out.shape[1] <= min(int(np.ceil(w)) + 1, 10)


class TestResizeLargestSide:
    def test_wide_image_padded(self):
        img = np.full((224, 448, 3), 200, dtype=np.uint8)
        out = resize_largest_side(img, 224)
        assert out.shape == (224, 224, 3)
        assert (out[:112] == 200).all()
        assert (out[112:] == 0).all()

    def test_identity_size(self):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 255, size=(224, 224, 3), dtype=np.uint8)
        npt.assert_array_equal(resize_largest_side(img, 224), img)

    def test_upscales_small_images(self):
        img = np.full((10, 10, 3), 77, dtype=np.uint8)
        out = resize_largest_side(img, 224)
        assert out.shape == (224, 224, 3)
        npt.assert_array_equal(out, np.full((224, 224, 3), 77, dtype=np.uint8))

    def test_bilinear_constant_preserved(self):
        img = np.full((13, 31, 3), 99, dtype=np.uint8)
        npt.assert_array_equal(bilinear_resize(img, 7, 50),
                               np.full((7, 50, 3), 99, dtype=np.uint8))

    def test_bilinear_gradient_monotone(self):
        ramp = np.zeros((4, 64, 3), dtype=np.uint8)
        ramp[:] = np.linspace(0, 255, 64).astype(np.uint8)[:, None]
        out = bilinear_resize(ramp, 4, 16).astype(np.int64)
        assert (np.diff(out, axis=1) > 0).all()


def reference_bilinear_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """The whole-image resample that the windowed one must reproduce."""
    if out_h < 1 or out_w < 1:
        raise ValueError(f"bad output size {out_h}x{out_w}")
    h, w = image.shape[:2]
    src = image.astype(np.float32)

    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0, h - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0, w - 1)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0).astype(np.float32)[:, None, None]
    wx = (xs - x0).astype(np.float32)[None, :, None]

    rows = src[y0] * (1 - wy) + src[y1] * wy
    out = rows[:, x0] * (1 - wx) + rows[:, x1] * wx
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def edge_windows(out_h: int, out_w: int) -> list[tuple[int, int, int, int]]:
    """The full output, a block and a single pixel at each corner, a strip
    along each edge, and an interior block where there is room."""
    rh, rw = max(1, out_h // 2), max(1, out_w // 2)
    wins = [(0, 0, out_h, out_w), (0, 0, rh, rw), (out_h - rh, out_w - rw, rh, rw),
            (0, out_w - rw, rh, rw), (out_h - rh, 0, rh, rw),
            (0, 0, 1, out_w), (out_h - 1, 0, 1, out_w), (0, 0, out_h, 1), (0, out_w - 1, out_h, 1),
            (0, 0, 1, 1), (out_h - 1, out_w - 1, 1, 1), (0, out_w - 1, 1, 1), (out_h - 1, 0, 1, 1)]
    if out_h > 2 and out_w > 2:
        wins.append((1, 1, out_h - 2, out_w - 2))
    return wins


def oracle_image(dtype, shape, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if dtype == np.uint8:
        return rng.integers(0, 256, size=shape, dtype=np.uint8)
    return (rng.normal(size=shape) * 100).astype(dtype)


class TestBilinearResizeOracle:
    """Every output pixel of a uint8 RGB image, windowed or not, equals the
    reference's bit for bit; the bytes are compared, so a last-digit
    rounding change fails.  The reference clips to [0, 255] before its cast
    and the resampler does not, so the all-0 and all-255 images pin that
    rint alone keeps every value in range."""

    SIZES = [((9, 13), (20, 31)),      # upscale
             ((40, 37), (11, 9)),      # downscale
             ((17, 50), (30, 12)),     # up in rows, down in columns
             ((112, 112), (73, 73)),   # the desk eval rescale before its 64 px crop
             ((9, 13), (1, 1)),        # 1x1 output
             ((1, 1), (5, 4)),         # 1x1 source
             ((6, 1), (1, 7))]

    @pytest.mark.parametrize("dtype", [np.uint8, np.float32], ids=["uint8", "float32"])
    @pytest.mark.parametrize("channels", [None, 3], ids=["2d", "3d"])
    @pytest.mark.parametrize("src, out", SIZES, ids=[f"{s[0]}x{s[1]}-{o[0]}x{o[1]}" for s, o in SIZES])
    def test_windows_match_full_reference_slice(self, dtype, channels, src, out):
        shape = src if channels is None else src + (channels,)
        image = oracle_image(dtype, shape, seed=sum(shape))
        if channels is None or dtype != np.uint8:
            # only uint8 RGB is resampled; a 2-D or float image is refused by name
            with pytest.raises(ValueError, match=re.escape(f"got shape {shape} dtype {image.dtype}")):
                bilinear_resize(image, *out)
            return
        self.check_windows(image, out)

    @pytest.mark.parametrize("fill", [0, 255])
    @pytest.mark.parametrize("src, out", SIZES, ids=[f"{s[0]}x{s[1]}-{o[0]}x{o[1]}" for s, o in SIZES])
    def test_extreme_bytes_match_reference(self, fill, src, out):
        # three of these all-255 resizes reach 255.00002-255.00003 in float32
        self.check_windows(np.full(src + (3,), fill, dtype=np.uint8), out)

    @staticmethod
    def check_windows(image, out):
        full = reference_bilinear_resize(image, *out)
        for top, left, rows, cols in edge_windows(*out):
            got = bilinear_resize(image, *out, window=(top, left, rows, cols))
            want = full[top:top + rows, left:left + cols]
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (top, left, rows, cols)
        assert bilinear_resize(image, *out).tobytes() == full.tobytes()

    @given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 40), st.integers(1, 40),
           st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_windows_match_reference(self, h, w, out_h, out_w, seed, data):
        image = oracle_image(np.uint8, (h, w, 3), seed)
        top = data.draw(st.integers(0, out_h - 1))
        left = data.draw(st.integers(0, out_w - 1))
        rows = data.draw(st.integers(1, out_h - top))
        cols = data.draw(st.integers(1, out_w - left))
        want = reference_bilinear_resize(image, out_h, out_w)[top:top + rows, left:left + cols]
        assert bilinear_resize(image, out_h, out_w, (top, left, rows, cols)).tobytes() == want.tobytes()


class TestBilinearResizeRejects:
    def test_empty_image(self):
        with pytest.raises(ValueError, match="empty image"):
            bilinear_resize(np.zeros((0, 5, 3), dtype=np.uint8), 4, 4)

    @pytest.mark.parametrize("shape, dtype", [((4, 4, 4), np.uint8), ((4, 4, 1), np.uint8),
                                              ((4, 4, 3), np.uint16), ((4, 4, 3), np.float64),
                                              ((2, 4, 4, 3), np.uint8)])
    def test_other_kinds_named(self, shape, dtype):
        image = np.zeros(shape, dtype=dtype)
        message = re.escape(f"expected an [H, W, 3] uint8 image, got shape {shape} dtype {image.dtype}")
        with pytest.raises(ValueError, match=message):
            bilinear_resize(image, 3, 3)
        with pytest.raises(ValueError, match=message):
            resize_largest_side(image, 3)

    @pytest.mark.parametrize("size", [(2.5, 3), (3, 2.0), ("3", 3)])
    def test_non_integer_output_size(self, size):
        with pytest.raises(ValueError, match="must be an integer"):
            bilinear_resize(np.zeros((4, 4, 3), dtype=np.uint8), *size)

    @pytest.mark.parametrize("window", [(0, 0, 4, 3), (0, 1, 3, 3), (-1, 0, 2, 2), (0, 0, 0, 2), (2, 2, 2, 1)])
    def test_window_past_output(self, window):
        with pytest.raises(ValueError, match="extends past the 3x3 output"):
            bilinear_resize(np.zeros((4, 4, 3), dtype=np.uint8), 3, 3, window)

    @pytest.mark.parametrize("window", [(0, 0, 2), (0, 0.5, 1, 1)])
    def test_malformed_window(self, window):
        with pytest.raises(ValueError, match="window"):
            bilinear_resize(np.zeros((4, 4, 3), dtype=np.uint8), 3, 3, window)

    def test_numpy_integer_sizes_accepted(self):
        out = bilinear_resize(np.zeros((4, 4, 3), dtype=np.uint8), np.int64(3), np.int32(2))
        assert out.shape == (3, 2, 3)
