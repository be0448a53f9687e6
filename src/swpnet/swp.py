"""Spatially-weighted pooling: K learnable spatial masks pool a C-channel
feature map into a K*C vector, plus grayscale heatmap export of that vector."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import DEFAULT_DTYPE, ShapeMismatch, Tensor, record
from .imgio import write_pgm


@dataclass(frozen=True)
class SWPSpec:
    num_masks: int = 9
    mask_h: int = 7
    mask_w: int = 7

    def __post_init__(self):
        if self.num_masks < 1 or self.mask_h < 1 or self.mask_w < 1:
            raise ValueError(f"invalid SWP spec {self}")


def swp_param_count(spec: SWPSpec) -> int:
    return spec.num_masks * spec.mask_h * spec.mask_w


class SWPLayer:
    """Holds the K learnable masks.

    Masks are raw unconstrained weights initialised uniformly to 1/(h*w), so
    a freshly built layer reproduces global average pooling exactly and
    training is free to learn suppression.
    """

    def __init__(self, spec: SWPSpec, dtype=DEFAULT_DTYPE):
        self.spec = spec
        init = np.full((spec.num_masks, spec.mask_h, spec.mask_w),
                       1.0 / (spec.mask_h * spec.mask_w), dtype=dtype)
        self.masks = Tensor(init, requires_grad=True)

    def parameters(self):
        return [("masks", self.masks)]

    def __call__(self, features: Tensor) -> Tensor:
        return swp_forward(features, self)


def swp_forward(features: Tensor, state: SWPLayer) -> Tensor:
    """out[b, k*C + c] = sum_ij masks[k, i, j] * features[b, c, i, j]."""
    if features.data.ndim != 4:
        raise ShapeMismatch(f"swp_forward expects [batch, C, H, W], got {features.shape}")
    batch, channels, h, w = features.shape
    k, mh, mw = state.masks.shape
    if (h, w) != (mh, mw):
        raise ShapeMismatch(f"feature map {h}x{w} does not match masks {mh}x{mw}")
    # matmul over the flattened spatial axis; [B, C, K] -> k-major [B, K*C]
    flat = features.data.reshape(batch * channels, h * w)
    mixed = (flat @ state.masks.data.reshape(k, h * w).T).reshape(batch, channels, k)
    out = np.ascontiguousarray(mixed.transpose(0, 2, 1)).reshape(batch, k * channels)
    need_f = features.requires_grad

    def bwd(g):
        g3 = g.reshape(batch, k, channels)
        gf = np.einsum("bkc,khw->bchw", g3, state.masks.data) if need_f else None
        gm = np.einsum("bkc,bchw->khw", g3, features.data)
        return gf, gm.astype(state.masks.data.dtype, copy=False)

    return record((features, state.masks), out.astype(features.data.dtype, copy=False), bwd, "swp")


def swp_heatmap_export(values: np.ndarray, layout: tuple[int, int], path) -> np.ndarray:
    """Min-max normalise an array to [0, 255] and write it as a binary PGM.

    A constant vector maps to uniform mid-gray 128.  Returns the pixel grid.
    """
    vec = np.asarray(values, dtype=np.float64).reshape(-1)
    rows, cols = int(layout[0]), int(layout[1])
    if rows * cols != vec.size:
        raise ValueError(f"layout {rows}x{cols} cannot hold {vec.size} values")
    vmin, vmax = vec.min(), vec.max()
    if vmax == vmin:
        pixels = np.full(vec.shape, 128, dtype=np.uint8)
    else:
        pixels = np.rint((vec - vmin) / (vmax - vmin) * 255.0).astype(np.uint8)
    grid = pixels.reshape(rows, cols)
    write_pgm(path, grid)
    return grid
