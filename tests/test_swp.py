import numpy as np
import numpy.testing as npt
import pytest

from swpnet import autodiff as ad
from swpnet.autodiff import Tensor, grad_check
from swpnet.swp import SWPLayer, SWPSpec, swp_forward, swp_heatmap_export, swp_param_count


class TestSWPForward:
    def test_uniform_masks_reduce_to_average_pool(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(2, 5, 7, 7)).astype(np.float32)
        layer = SWPLayer(SWPSpec(num_masks=3, mask_h=7, mask_w=7))
        out = layer(Tensor(feats)).data.reshape(2, 3, 5)
        gap = feats.mean(axis=(2, 3))
        for k in range(3):
            npt.assert_allclose(out[:, k, :], gap, atol=1e-6)

    def test_delta_mask_picks_single_pixel(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(1, 4, 3, 3)).astype(np.float32)
        layer = SWPLayer(SWPSpec(num_masks=1, mask_h=3, mask_w=3))
        layer.masks.data[:] = 0.0
        layer.masks.data[0, 2, 1] = 1.0
        out = layer(Tensor(feats)).data.reshape(4)
        npt.assert_allclose(out, feats[0, :, 2, 1], atol=1e-7)

    def test_output_width_is_k_times_c(self):
        feats = Tensor(np.zeros((1, 2048, 7, 7), dtype=np.float32))
        layer = SWPLayer(SWPSpec(9, 7, 7))
        assert layer(feats).shape == (1, 9 * 2048)
        assert 9 * 2048 == 18432

    def test_spatial_mismatch_rejected(self):
        layer = SWPLayer(SWPSpec(2, 8, 8))
        with pytest.raises(ad.ShapeMismatch):
            layer(Tensor(np.zeros((1, 3, 7, 7), dtype=np.float32)))

    def test_linearity(self):
        rng = np.random.default_rng(2)
        layer = SWPLayer(SWPSpec(4, 5, 5))
        layer.masks.data[:] = rng.normal(size=layer.masks.shape).astype(np.float32)
        x = rng.normal(size=(2, 3, 5, 5)).astype(np.float32)
        y = rng.normal(size=(2, 3, 5, 5)).astype(np.float32)
        a, b = 0.7, -1.3
        lhs = layer(Tensor(a * x + b * y)).data
        rhs = a * layer(Tensor(x)).data + b * layer(Tensor(y)).data
        npt.assert_allclose(lhs, rhs, atol=1e-5)

    def test_grad_check_masks_and_features(self):
        rng = np.random.default_rng(3)
        layer = SWPLayer(SWPSpec(2, 3, 3), dtype=np.float64)
        layer.masks.data[:] = rng.normal(size=layer.masks.shape)
        feats = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True, dtype=np.float64)

        def f():
            y = swp_forward(feats, layer)
            return ad.sum_all(ad.mul(y, y))

        assert grad_check(f, [layer.masks, feats]) < 1e-5


class TestParamCount:
    def test_default_nine_7x7_masks(self):
        assert swp_param_count(SWPSpec(9, 7, 7)) == 441

    def test_single_mask(self):
        assert swp_param_count(SWPSpec(1, 1, 1)) == 1

    def test_rectangular_masks(self):
        assert swp_param_count(SWPSpec(4, 3, 5)) == 60

    def test_layer_parameters_match_spec(self):
        layer = SWPLayer(SWPSpec(9, 7, 7))
        assert sum(t.size for _, t in layer.parameters()) == 441

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SWPSpec(0, 7, 7)


class TestHeatmapExport:
    def test_constant_vector_is_mid_gray(self, tmp_path):
        path = tmp_path / "const.pgm"
        grid = swp_heatmap_export(np.full(12, 3.5), (3, 4), path)
        npt.assert_array_equal(grid, np.full((3, 4), 128, dtype=np.uint8))
        assert path.read_bytes() == b"P5\n4 3\n255\n" + grid.tobytes()

    def test_minmax_endpoints(self, tmp_path):
        grid = swp_heatmap_export(np.array([0.0, 7.5]), (1, 2), tmp_path / "e.pgm")
        npt.assert_array_equal(grid, [[0, 255]])

    def test_argmax_is_lightest_pixel(self, tmp_path):
        rng = np.random.default_rng(4)
        vec = rng.permutation(np.linspace(-3, 3, 24))
        grid = swp_heatmap_export(vec, (4, 6), tmp_path / "r.pgm")
        assert grid.reshape(-1).argmax() == vec.argmax()

    def test_rank_order_preserved(self, tmp_path):
        rng = np.random.default_rng(5)
        # values spaced well beyond the 8-bit quantisation step
        vec = rng.permutation(np.arange(20, dtype=np.float64) * 10.0)
        grid = swp_heatmap_export(vec, (2, 10), tmp_path / "o.pgm")
        npt.assert_array_equal(np.argsort(grid.reshape(-1), kind="stable"),
                               np.argsort(vec, kind="stable"))

    def test_layout_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            swp_heatmap_export(np.zeros(10), (3, 4), tmp_path / "x.pgm")

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            swp_heatmap_export(np.zeros(4), (2, 2), tmp_path / "missing_dir" / "x.pgm")
