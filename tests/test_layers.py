import gc
import itertools
import math
import os
import signal
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import swpnet
from conftest import traced_peak
from swpnet import autodiff as ad
from swpnet import layers
from swpnet.autodiff import GradTape, Tensor, backward, grad_check
from swpnet.layers import BatchNorm, Conv2d, Dense, Pool2d, softmax_cross_entropy
from swpnet.models import ModelConfig, build_model


def conv_loop_oracle(x, w, b, stride, padding):
    """Six-nested-loop cross-correlation in float64."""
    bs, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((bs, cout, oh, ow))
    for n in range(bs):
        for o in range(cout):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for c in range(cin):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[n, c, i * stride + u, j * stride + v] * float(w[o, c, u, v])
                    out[n, o, i, j] = acc + (float(b[o]) if b is not None else 0.0)
    return out


def conv_tensordot_reference(x, w, stride, padding, g):
    """conv2d forward, gx and gw as computed before im2col: a tensordot over
    the sliding-window view, and one tensordot per kernel offset for gx."""
    kh, kw = w.shape[2:]
    _, _, h, wd = x.shape
    p, s = padding, stride
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    oh = (xp.shape[2] - kh) // s + 1
    ow = (xp.shape[3] - kw) // s + 1
    windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::s, ::s]
    out = np.ascontiguousarray(np.tensordot(windows, w, axes=([1, 4, 5], [1, 2, 3])).transpose(0, 3, 1, 2))
    gw = np.tensordot(g, windows, axes=([0, 2, 3], [0, 2, 3]))
    gx_pad = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            part = np.tensordot(g, w[:, :, i, j], axes=([1], [0]))
            gx_pad[:, :, i:i + s * oh:s, j:j + s * ow:s] += part.transpose(0, 3, 1, 2)
    return out, gx_pad[:, :, p:p + h, p:p + wd], gw


class TestConv2d:
    def test_identity_kernel_exact(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(1, 1, 5, 5)).astype(np.float32))
        spec = Conv2d(1, 1, kernel=1, bias=False)
        spec.weight.data[:] = 1.0
        out = spec(x)
        npt.assert_array_equal(out.data[0, 0], x.data[0, 0])

    def test_all_ones_3x3_sums_to_nine(self):
        x = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        spec = Conv2d(1, 1, kernel=3, bias=False)
        spec.weight.data[:] = 1.0
        out = spec(x)
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == pytest.approx(9.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(1, 3, 8, 8)).astype(np.float32)
        spec = Conv2d(3, 2, kernel=3, stride=2, padding=1, rng=rng)
        out = spec(Tensor(x))
        oracle = conv_loop_oracle(x, spec.weight.data, spec.bias.data, 2, 1)
        assert out.shape == oracle.shape
        npt.assert_allclose(out.data, oracle, atol=1e-5)

    def test_channel_mismatch(self):
        with pytest.raises(ad.ShapeMismatch):
            Conv2d(3, 2, kernel=3)(Tensor(np.zeros((1, 2, 8, 8), dtype=np.float32)))

    def test_window_exceeds_padded_input(self):
        with pytest.raises(ad.ShapeMismatch):
            Conv2d(1, 1, kernel=7)(Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32)))

    def test_grad_check(self):
        rng = np.random.default_rng(8)
        spec = Conv2d(2, 3, kernel=3, stride=2, padding=1, rng=rng, dtype=np.float64)
        x = Tensor(rng.normal(size=(1, 2, 6, 6)), requires_grad=True, dtype=np.float64)
        err = grad_check(lambda: ad.sum_all(ad.mul(y := spec(x), y)), [x, spec.weight, spec.bias])
        assert err < 1e-5

    @pytest.mark.parametrize("kernel, stride, padding", [(1, 2, 0), (7, 2, 3)],
                             ids=["shortcut_1x1_s2", "stem_7x7_s2_p3"])
    def test_grad_check_block_shapes(self, kernel, stride, padding):
        rng = np.random.default_rng(9)
        spec = Conv2d(2, 3, kernel=kernel, stride=stride, padding=padding, bias=False,
                      rng=rng, dtype=np.float64)
        x = Tensor(rng.normal(size=(2, 2, 7, 7)), requires_grad=True, dtype=np.float64)
        err = grad_check(lambda: ad.sum_all(ad.mul(y := spec(x), y)), [x, spec.weight])
        assert err < 1e-5

    @pytest.mark.parametrize("kernel, stride, padding, batch",
                             list(itertools.product((1, 3, 7), (1, 2), (0, 1, 3), (1, 8))))
    def test_bit_equal_to_tensordot_reference(self, kernel, stride, padding, batch):
        rng = np.random.default_rng(kernel * 100 + stride * 10 + padding + batch)
        spec = Conv2d(5, 6, kernel=kernel, stride=stride, padding=padding, bias=False, rng=rng)
        # non-square inputs catch a height/width swap in the gather index
        for size in ((9, 9), (9, 11), (11, 9)):
            x = Tensor(rng.normal(size=(batch, 5) + size).astype(np.float32), requires_grad=True)
            with GradTape():
                out = spec(x)
                g = rng.normal(size=out.shape).astype(np.float32)
                gx, gw = out._node.backward_fn(g)
            ref_out, ref_gx, ref_gw = conv_tensordot_reference(x.data, spec.weight.data, stride, padding, g)
            assert np.array_equal(out.data, ref_out), size
            assert np.array_equal(gx, ref_gx), size
            assert np.array_equal(gw, ref_gw), size

    def test_1x1_batch1_bit_equal_with_wide_channels(self):
        # At batch 1 a 1x1 stride-1 conv's operand is a transposed view of
        # the input; with 32 channels OpenBLAS sums a contiguous copy of it
        # in another order, which the 5-channel cases above do not show.
        rng = np.random.default_rng(11)
        spec = Conv2d(32, 8, kernel=1, bias=False, rng=rng)
        x = Tensor(rng.normal(size=(1, 32, 4, 4)).astype(np.float32))
        g = np.zeros((1, 8, 4, 4), dtype=np.float32)
        ref_out, _, _ = conv_tensordot_reference(x.data, spec.weight.data, 1, 0, g)
        assert np.array_equal(spec(x).data, ref_out)


def window_index_reference(channels, hp, wp, kh, kw, s):
    """Flat offsets of every window, read off a sliding-window view of an
    image that holds its own offsets."""
    offsets = np.arange(channels * hp * wp).reshape(channels, hp, wp)
    windows = sliding_window_view(offsets, (kh, kw), axis=(1, 2))[:, ::s, ::s]
    return windows.transpose(1, 2, 0, 3, 4).reshape(-1, channels * kh * kw)


def assert_cached_index_matches_reference(shapes):
    """_window_index caches exactly `shapes`, and each entry still holds the
    reference offsets: a hit for every shape, and no miss."""
    info = layers._window_index.cache_info()
    assert info.currsize == len(shapes)
    for shape in shapes:
        assert np.array_equal(layers._window_index(*shape), window_index_reference(*shape)), shape
    assert layers._window_index.cache_info().misses == info.misses


class TestGatherIndexCache:
    def test_desk_model_one_entry_per_shape_independent_of_batch(self, monkeypatch):
        layers._window_index.cache_clear()
        conv_shapes = set()
        conv2d = layers.conv2d

        def seen_conv(x, spec):
            _, c, h, w = x.shape
            k, s, p = spec.kernel_h, spec.stride, spec.padding
            if (k, s, p) != (1, 1, 0):          # 1x1 stride-1 convs read the input in place
                conv_shapes.add((c, h + 2 * p, w + 2 * p, k, k, s))
            return conv2d(x, spec)

        monkeypatch.setattr(layers, "conv2d", seen_conv)
        model = build_model(ModelConfig(depth_variant=18, num_classes=10, width_multiplier=1 / 8,
                                        input_size=64), seed=0)
        rng = np.random.default_rng(0)
        model.forward(Tensor(rng.uniform(size=(1, 3, 64, 64)).astype(np.float32)), train=False)
        assert conv_shapes and layers._window_index.cache_info().currsize == len(conv_shapes)
        after_b1 = {shape: layers._window_index(*shape) for shape in conv_shapes}
        assert layers._window_index.cache_info().misses == len(conv_shapes)
        model.forward(Tensor(rng.uniform(size=(32, 3, 64, 64)).astype(np.float32)), train=False)
        assert_cached_index_matches_reference(conv_shapes)
        # pooling, forward and backward, reads strided views and indexes nothing
        with GradTape():
            backward(ad.sum_all(model.forward(Tensor(rng.uniform(size=(2, 3, 64, 64)).astype(np.float32)),
                                              train=True)))
        assert_cached_index_matches_reference(conv_shapes)
        monkeypatch.setattr(layers, "LANES", 2)
        model.forward(Tensor(rng.uniform(size=(32, 3, 64, 64)).astype(np.float32)), train=False)
        assert_cached_index_matches_reference(conv_shapes)
        assert all(layers._window_index(*shape) is idx for shape, idx in after_b1.items())

    def test_a_gather_into_out_allocates_no_copy_of_its_index(self):
        # the desk stem's 3-image chunk: 7x7 windows at stride 2 over 70 x 70
        # padded pixels, a [1024, 147] index of 1.2 MB
        shape = (3, 70, 70, 7, 7, 2)
        rows = np.random.default_rng(4).uniform(size=(3, 3 * 70 * 70)).astype(np.float32)
        out = np.empty((3, 32 * 32, 3 * 7 * 7), dtype=np.float32)
        index = window_index_reference(*shape)
        assert index.nbytes > 1_000_000
        layers._gather_windows(rows, *shape, out=out)       # the index is built here, not traced
        assert traced_peak(lambda: layers._gather_windows(rows, *shape, out=out)) < index.nbytes // 20
        assert np.array_equal(out, rows[:, index])


# the src directory this swpnet was imported from, for a subprocess's PYTHONPATH
SRC = str(Path(swpnet.__file__).resolve().parents[1])
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def desk_model():
    """The benchmark's desk classifier shape, randomly initialised."""
    return build_model(ModelConfig(depth_variant=18, num_classes=10, width_multiplier=1 / 8,
                                   input_size=64), seed=0)


def gather_spy(monkeypatch):
    """Record the output of every _gather_windows call."""
    calls = []
    gather = layers._gather_windows

    def spy(*args, **kwargs):
        cols = gather(*args, **kwargs)
        calls.append(cols)
        return cols

    monkeypatch.setattr(layers, "_gather_windows", spy)
    return calls


# the desk stem, 7x7/2 p3 over 3 channels of 64 px, gathers these bytes per image
STEM_COLUMN_BYTES = 32 * 32 * 3 * 7 * 7 * 4
# and writes these: 8 channels of 32 x 32
STEM_ACTIVATION_BYTES = 8 * 32 * 32 * 4


CONV_GEOMETRIES = list(itertools.product((1, 3, 7), (1, 2), (0, 1, 3)))


def assert_chunks_match_reference(calls, kernel, stride, padding, channels):
    """An untaped conv of 24 images equals the tensordot reference bit for
    bit, and gathers whole images, each once, in chunks whose GEMMs stay
    above the size OpenBLAS gives its small-matrix kernel; `calls` is a
    gather_spy list."""
    batch = 24
    rng = np.random.default_rng(kernel * 100 + stride * 10 + padding)
    spec = Conv2d(*channels, kernel=kernel, stride=stride, padding=padding, bias=False, rng=rng)
    for size in ((9, 9), (9, 11), (11, 9)):
        calls.clear()
        x = Tensor(rng.normal(size=(batch, channels[0]) + size).astype(np.float32))
        out = spec(x)
        g = np.zeros(out.shape, dtype=np.float32)
        ref_out, _, _ = conv_tensordot_reference(x.data, spec.weight.data, stride, padding, g)
        assert np.array_equal(out.data, ref_out), (kernel, stride, padding, channels, size)
        if (kernel, stride, padding) == (1, 1, 0):
            continue                  # reads the input in place: no gather
        assert sum(len(cols) for cols in calls) == batch
        macs_per_image = out.shape[2] * out.shape[3] * spec.weight.data.size
        if len(calls) > 1:
            assert min(len(cols) for cols in calls) * macs_per_image > layers.SMALL_GEMM_MACS


class TestChunkedConv:
    """A conv that no tape keeps gathers and multiplies its batch in chunks
    of whole images; its output bytes do not depend on the chunking."""

    @pytest.mark.parametrize("kernel, stride, padding", CONV_GEOMETRIES)
    @pytest.mark.parametrize("channels", [(5, 6), (16, 32)], ids=["narrow", "wide"])
    def test_small_budget_bit_equal_to_tensordot_reference(self, monkeypatch, kernel, stride,
                                                           padding, channels):
        monkeypatch.setattr(layers, "IM2COL_BYTES", 1)
        assert_chunks_match_reference(gather_spy(monkeypatch), kernel, stride, padding, channels)

    @pytest.mark.parametrize("lanes", [1, 2, 3])
    def test_small_budget_in_lanes_bit_equal_to_tensordot_reference(self, monkeypatch, lanes):
        monkeypatch.setattr(layers, "LANES", lanes)
        monkeypatch.setattr(layers, "IM2COL_BYTES", 1)
        calls = gather_spy(monkeypatch)
        for kernel, stride, padding in CONV_GEOMETRIES:
            for channels in ((5, 6), (16, 32)):
                assert_chunks_match_reference(calls, kernel, stride, padding, channels)

    def test_wide_small_budget_splits_the_batch(self, monkeypatch):
        monkeypatch.setattr(layers, "IM2COL_BYTES", 1)
        calls = gather_spy(monkeypatch)
        rng = np.random.default_rng(3)
        spec = Conv2d(16, 32, kernel=3, padding=1, bias=False, rng=rng)
        x = Tensor(rng.normal(size=(24, 16, 11, 9)).astype(np.float32))
        out = spec(x)
        ref_out, _, _ = conv_tensordot_reference(x.data, spec.weight.data, 1, 1, np.zeros_like(out.data))
        assert np.array_equal(out.data, ref_out)
        assert len(calls) > 2

    def test_pointwise_one_image_chunks_multiply_the_batch_layout(self, monkeypatch):
        # one image's GEMM here exceeds SMALL_GEMM_MACS, so each image is a
        # chunk, whose columns are a transposed view of the input
        monkeypatch.setattr(layers, "IM2COL_BYTES", 1)
        rng = np.random.default_rng(8)
        spec = Conv2d(64, 64, kernel=1, bias=False, rng=rng)
        x = Tensor(rng.normal(size=(4, 64, 16, 16)).astype(np.float32))
        out = spec(x)
        ref_out, _, _ = conv_tensordot_reference(x.data, spec.weight.data, 1, 0, np.zeros_like(out.data))
        assert np.array_equal(out.data, ref_out)

    def test_stem_at_real_budget_equals_reference(self, monkeypatch):
        calls = gather_spy(monkeypatch)
        rng = np.random.default_rng(4)
        spec = Conv2d(3, 8, kernel=7, stride=2, padding=3, bias=False, rng=rng)
        x = Tensor(rng.uniform(size=(32, 3, 64, 64)).astype(np.float32))
        out = spec(x)
        ref_out, _, _ = conv_tensordot_reference(x.data, spec.weight.data, 2, 3, np.zeros_like(out.data))
        assert np.array_equal(out.data, ref_out)
        assert len(calls) > 1
        assert max(cols.nbytes for cols in calls) <= layers.IM2COL_BYTES
        assert sum(cols.nbytes for cols in calls) == 32 * STEM_COLUMN_BYTES

    def test_tape_free_forward_gathers_at_most_the_budget(self, monkeypatch):
        calls = gather_spy(monkeypatch)
        model = desk_model()
        rng = np.random.default_rng(5)
        model.forward(Tensor(rng.uniform(size=(64, 3, 64, 64)).astype(np.float32)), train=False)
        assert calls and max(cols.nbytes for cols in calls) <= layers.IM2COL_BYTES

    @pytest.mark.parametrize("kernel, stride, padding", [(1, 1, 0), (3, 1, 1), (7, 2, 3)])
    def test_open_tape_keeps_the_whole_matrix(self, monkeypatch, kernel, stride, padding):
        monkeypatch.setattr(layers, "IM2COL_BYTES", 1)
        calls = gather_spy(monkeypatch)
        rng = np.random.default_rng(6)
        spec = Conv2d(16, 32, kernel=kernel, stride=stride, padding=padding, bias=False, rng=rng)
        x = Tensor(rng.normal(size=(24, 16, 11, 9)).astype(np.float32), requires_grad=True)
        with GradTape():
            out = spec(x)
            g = rng.normal(size=out.shape).astype(np.float32)
            gx, gw = out._node.backward_fn(g)
        ref_out, ref_gx, ref_gw = conv_tensordot_reference(x.data, spec.weight.data, stride, padding, g)
        assert np.array_equal(out.data, ref_out)
        assert np.array_equal(gx, ref_gx)
        assert np.array_equal(gw, ref_gw)
        assert len(calls) == (kernel != 1)

    def test_forward_memory_per_image_is_below_half_a_stem_matrix(self):
        """Between batch 32 and 64, the tracemalloc peak of a desk forward
        grows by less per image than half the stem's columns for one image:
        a forward that built each conv's whole matrix grew by ~0.7 MB."""
        peaks = forward_peaks(desk_model(), (32, 64), seed=7)
        assert (peaks[64] - peaks[32]) / 32 < STEM_COLUMN_BYTES / 2


def forward_peaks(model, batches, seed):
    """tracemalloc peak of a warm inference forward at each batch size."""
    rng = np.random.default_rng(seed)
    peaks = {}
    for batch in batches:
        x = Tensor(rng.uniform(size=(batch, 3, 64, 64)).astype(np.float32))
        model.forward(x, train=False)       # fills the gather-index cache
        peaks[batch] = traced_peak(lambda: model.forward(x, train=False))
    return peaks


def lane_threads() -> set:
    return {t for t in threading.enumerate() if t.name.startswith("swpnet-lane")}


def on_lane_thread() -> bool:
    return threading.current_thread().name.startswith("swpnet-lane")


class LaneFault(RuntimeError):
    pass


def desk_stem(seed=9):
    """The desk stem conv and a batch of 32 for it: 11 chunks of at most 3
    images each at the real IM2COL_BYTES."""
    rng = np.random.default_rng(seed)
    spec = Conv2d(3, 8, kernel=7, stride=2, padding=3, bias=False, rng=rng)
    return spec, Tensor(rng.uniform(size=(32, 3, 64, 64)).astype(np.float32))


class TestLanes:
    """An untaped conv runs chunk c of its batch on lane c % lanes: lane 0
    on the calling thread, the others on swpnet-lane threads."""

    def test_two_lanes_run_alternate_chunks_on_two_threads(self, monkeypatch):
        monkeypatch.setattr(layers, "LANES", 2)
        lanes, gather = [], layers._gather_windows

        def spy(rows, *args, **kwargs):
            lanes.append((on_lane_thread(), len(rows)))
            return gather(rows, *args, **kwargs)

        monkeypatch.setattr(layers, "_gather_windows", spy)
        spec, x = desk_stem()
        out = spec(x)
        ref_out, _, _ = conv_tensordot_reference(x.data, spec.weight.data, 2, 3, np.zeros_like(out.data))
        assert np.array_equal(out.data, ref_out)
        # chunks 0, 2, ..., 10 here, chunks 1, 3, ..., 9 on a lane thread
        assert sorted(lanes) == sorted([(False, 32 * (c + 1) // 11 - 32 * c // 11) for c in range(0, 11, 2)]
                                       + [(True, 32 * (c + 1) // 11 - 32 * c // 11) for c in range(1, 11, 2)])
        # a stage-0 desk conv fits one chunk, and still splits in two
        lanes.clear()
        spec = Conv2d(8, 8, kernel=3, padding=1, bias=False, rng=np.random.default_rng(1))
        x = Tensor(np.random.default_rng(2).normal(size=(32, 8, 15, 15)).astype(np.float32))
        out = spec(x)
        ref_out, _, _ = conv_tensordot_reference(x.data, spec.weight.data, 1, 1, np.zeros_like(out.data))
        assert np.array_equal(out.data, ref_out)
        assert sorted(lanes) == [(False, 16), (True, 16)]

    def test_a_lane_error_reaches_the_caller_and_the_next_forward_succeeds(self, monkeypatch):
        monkeypatch.setattr(layers, "LANES", 2)
        spec, x = desk_stem()
        expected = spec(x).data.tobytes()
        gather = layers._gather_windows

        def failing(*args, **kwargs):
            if on_lane_thread():          # lane 1's first chunk: the second chunk
                raise LaneFault("chunk 1")
            return gather(*args, **kwargs)

        monkeypatch.setattr(layers, "_gather_windows", failing)
        with pytest.raises(LaneFault, match="chunk 1"):
            spec(x)
        monkeypatch.setattr(layers, "_gather_windows", gather)
        assert spec(x).data.tobytes() == expected

    def test_the_caller_raises_only_after_every_lane_has_finished(self, monkeypatch):
        monkeypatch.setattr(layers, "LANES", 2)
        spec, x = desk_stem()
        finished, gather = [], layers._gather_windows

        def slow_lane(*args, **kwargs):
            if not on_lane_thread():
                raise LaneFault("chunk 0")
            time.sleep(0.01)
            cols = gather(*args, **kwargs)
            finished.append(cols)
            return cols

        monkeypatch.setattr(layers, "_gather_windows", slow_lane)
        with pytest.raises(LaneFault, match="chunk 0"):
            spec(x)
        assert len(finished) == 5         # chunks 1, 3, 5, 7 and 9

    def test_a_taped_step_and_a_batch_1_forward_start_no_lane_thread(self, monkeypatch):
        monkeypatch.setattr(layers, "LANES", 2)
        monkeypatch.setattr(layers, "_LANE_TASKS", None)
        before = lane_threads()
        model = desk_model()
        rng = np.random.default_rng(11)
        model.forward(Tensor(rng.uniform(size=(1, 3, 64, 64)).astype(np.float32)), train=False)
        with GradTape():
            backward(ad.sum_all(model.forward(Tensor(rng.uniform(size=(8, 3, 64, 64)).astype(np.float32)),
                                              train=True)))
        assert layers._LANE_TASKS is None
        assert lane_threads() == before

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
    def test_a_child_forked_after_a_laned_forward_runs_its_own_lanes(self, monkeypatch):
        monkeypatch.setattr(layers, "LANES", 2)
        model = desk_model()
        x = Tensor(np.random.default_rng(12).uniform(size=(32, 3, 64, 64)).astype(np.float32))
        expected = model.forward(x, train=False).data.tobytes()
        assert lane_threads()
        pid = os.fork()
        if pid == 0:   # the child exits 0 on equal bytes; SIGALRM ends a forward that hangs
            try:
                signal.alarm(20)
                os._exit(0 if model.forward(x, train=False).data.tobytes() == expected else 1)
            finally:
                os._exit(2)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    @pytest.mark.parametrize("threads, lanes", [("1", layers._usable_cores()), ("2", 1)])
    def test_a_blas_that_threads_its_own_gemms_gets_one_lane(self, threads, lanes):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        env.update(OPENBLAS_NUM_THREADS=threads, PYTHONPATH=SRC)
        script = "import swpnet.layers as layers; print(layers.LANES)"
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                             timeout=60, check=True)
        assert int(run.stdout) == lanes


class TestBatchNorm:
    def test_train_mode_normalises(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(3.0, 2.0, size=(4, 3, 5, 5)).astype(np.float32))
        bn = BatchNorm(3)
        out = bn(x, train=True)
        mean = out.data.mean(axis=(0, 2, 3))
        var = out.data.var(axis=(0, 2, 3))
        npt.assert_allclose(mean, 0.0, atol=1e-4)
        npt.assert_allclose(var, 1.0, atol=1e-4)

    def test_affine_scale_shift(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(4, 2, 3, 3)).astype(np.float32))
        bn = BatchNorm(2)
        base = bn(x, train=True).data
        bn.gamma.data[:] = 2.0
        bn.beta.data[:] = 5.0
        out = bn(x, train=True).data
        npt.assert_allclose(out, 2.0 * base + 5.0, atol=1e-5)

    def test_infer_matches_hand_formula(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        bn = BatchNorm(3)
        mu = np.array([0.5, -1.0, 2.0], dtype=np.float32)
        var = np.array([1.5, 0.25, 4.0], dtype=np.float32)
        bn.running_mean[:] = mu
        bn.running_var[:] = var
        bn.gamma.data[:] = np.array([1.0, 2.0, 0.5])
        bn.beta.data[:] = np.array([0.0, 1.0, -1.0])
        out = bn(Tensor(x), train=False).data
        expected = ((x - mu.reshape(1, 3, 1, 1)) / np.sqrt(var.reshape(1, 3, 1, 1) + layers.BN_EPS)
                    * bn.gamma.data.reshape(1, 3, 1, 1) + bn.beta.data.reshape(1, 3, 1, 1))
        npt.assert_allclose(out, expected, atol=1e-6)

    def test_infer_mode_mutates_nothing(self):
        bn = BatchNorm(2)
        before = (bn.running_mean.copy(), bn.running_var.copy())
        bn(Tensor(np.random.default_rng(0).normal(size=(2, 2, 3, 3)).astype(np.float32)), train=False)
        npt.assert_array_equal(bn.running_mean, before[0])
        npt.assert_array_equal(bn.running_var, before[1])

    def test_running_stats_update_with_momentum(self):
        rng = np.random.default_rng(4)
        x = rng.normal(2.0, 3.0, size=(8, 1, 4, 4)).astype(np.float32)
        bn = BatchNorm(1)
        bn(Tensor(x), train=True)
        npt.assert_allclose(bn.running_mean, 0.1 * x.mean(), atol=1e-5)
        npt.assert_allclose(bn.running_var, 0.9 * 1.0 + 0.1 * x.var(), atol=1e-4)

    def test_single_element_train_rejected(self):
        bn = BatchNorm(2)
        with pytest.raises(ValueError):
            bn(Tensor(np.zeros((1, 2, 1, 1), dtype=np.float32)), train=True)

    def test_grad_check_train_mode(self):
        rng = np.random.default_rng(5)
        bn = BatchNorm(2, dtype=np.float64)
        x = Tensor(rng.normal(size=(3, 2, 2, 2)), requires_grad=True, dtype=np.float64)
        neg_tgt = Tensor(-rng.normal(size=(3, 2, 2, 2)), dtype=np.float64)

        def f():
            d = ad.add(bn(x, train=True), neg_tgt)
            return ad.sum_all(ad.mul(d, d))

        assert grad_check(f, [x, bn.gamma, bn.beta]) < 1e-5

    @pytest.mark.parametrize("train", [False, True])
    @pytest.mark.parametrize("relu", [False, True])
    def test_bit_equal_to_kept_xhat_reference(self, train, relu):
        rng = np.random.default_rng(10 + 2 * train + relu)
        bn, ref = bn_pair(rng, 4)
        x = Tensor(rng.normal(1.0, 2.0, size=(8, 4, 6, 6)).astype(np.float32), requires_grad=True)
        with GradTape():
            out = bn(x, train, relu=relu)
            g = rng.normal(size=out.shape).astype(np.float32)
            grads = out._node.backward_fn(g)
        for got, want in zip((out.data, *grads, bn.running_mean, bn.running_var),
                             batchnorm_kept_xhat_reference(x.data, ref, train, relu, g)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_desk_tape_keeps_no_activation_but_the_output(self):
        """A batch norm's backward rebuilds x̂ from the input its node holds:
        the only activation-sized array its closure keeps is its output."""
        model = desk_model()
        x = Tensor(np.random.default_rng(9).uniform(size=(8, 3, 64, 64)).astype(np.float32))
        with GradTape() as tape:
            model.forward(x, train=True)
        output_of = {id(t._node): t.data for node in tape.nodes for t in node.inputs
                     if t._node is not None}
        bn_nodes = [node for node in tape.nodes if node.name == "batchnorm"]
        assert len(bn_nodes) == 17
        for node in bn_nodes:
            kept = [cell.cell_contents for cell in node.backward_fn.__closure__
                    if isinstance(cell.cell_contents, np.ndarray)
                    and cell.cell_contents.size == node.inputs[0].data.size]
            assert len(kept) == 1 and kept[0] is output_of[id(node)]

    def test_desk_forward_memory_per_image_is_below_two_stem_activations(self):
        """Inference batch norm writes into one buffer, so between batch 32
        and 64 a desk forward's peak grows by less per image than two of the
        stem's [8, 32, 32] activations: with three temporaries per batch
        norm it grew by 0.139 MB, and with one by 0.033 MB."""
        peaks = forward_peaks(desk_model(), (32, 64), seed=7)
        assert (peaks[64] - peaks[32]) / 32 < 2 * STEM_ACTIVATION_BYTES


def batchnorm_kept_xhat_reference(x, bn, train, relu, g):
    """batchnorm forward and backward as computed when the op kept x̂ and
    built gamma·x̂ in a temporary: out, gx, ggamma, gbeta and the running
    statistics."""
    axes, shape = (0, 2, 3), (1, -1, 1, 1)
    gamma, beta = bn.gamma.data.reshape(shape), bn.beta.data.reshape(shape)
    n = x.size // x.shape[1]
    if train:
        mean = x.mean(axis=axes, keepdims=True)
        d = x - mean
        var = np.square(d).sum(axis=axes, keepdims=True) / n
        running_mean = (0.9 * bn.running_mean + 0.1 * mean.reshape(-1)).astype(np.float32)
        running_var = (0.9 * bn.running_var + 0.1 * var.reshape(-1)).astype(np.float32)
    else:
        d = x - bn.running_mean.reshape(shape)
        var = bn.running_var.reshape(shape)
        running_mean, running_var = bn.running_mean, bn.running_var
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = d * inv
    out = gamma * xhat
    out += beta
    if relu:
        g = (g * (out > 0)).astype(np.float32)
        out = np.maximum(out, 0)
    if train:
        dxhat = g * gamma
        gx = (inv / n) * (n * dxhat - dxhat.sum(axis=axes, keepdims=True)
                          - xhat * (dxhat * xhat).sum(axis=axes, keepdims=True))
    else:
        gx = g * gamma * inv
    return out, gx, (g * xhat).sum(axis=axes), g.sum(axis=axes), running_mean, running_var


def bn_pair(rng, channels, dtype=np.float32):
    """Two batch norms with the same random gamma, beta and running stats."""
    pair = (BatchNorm(channels, dtype=dtype), BatchNorm(channels, dtype=dtype))
    gamma = rng.normal(size=channels)
    beta = rng.normal(size=channels)
    mean = rng.normal(size=channels)
    var = rng.uniform(0.5, 2.0, size=channels)
    for bn in pair:
        bn.gamma.data[:] = gamma
        bn.beta.data[:] = beta
        bn.running_mean[:] = mean
        bn.running_var[:] = var
    return pair


class TestFusedBatchNormRelu:
    """batchnorm(..., relu=True) is relu(batchnorm(...)) as one recorded op."""

    @pytest.mark.parametrize("train", [False, True])
    @pytest.mark.parametrize("batch", [1, 32])
    def test_bytes_equal_to_relu_of_batchnorm(self, train, batch):
        rng = np.random.default_rng(batch + 2 * train)
        fused_bn, plain_bn = bn_pair(rng, 4)
        x_data = rng.normal(size=(batch, 4, 5, 5)).astype(np.float32)
        g = Tensor(rng.normal(size=(batch, 4, 5, 5)).astype(np.float32))
        results = []
        for bn, run in ((fused_bn, lambda bn, x: bn(x, train, relu=True)),
                        (plain_bn, lambda bn, x: ad.relu(bn(x, train)))):
            x = Tensor(x_data.copy(), requires_grad=True)
            with GradTape() as tape:
                out = run(bn, x)
                backward(ad.sum_all(ad.mul(out, g)))
            results.append((out.data, x.grad, bn.gamma.grad, bn.beta.grad,
                            bn.running_mean, bn.running_var, len(tape)))
        fused, plain = results
        assert (fused[0] == 0).any() and (fused[0] > 0).any()
        for got, want in zip(fused[:6], plain[:6]):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert fused[6] == plain[6] - 1   # one op fewer on the tape

    @pytest.mark.parametrize("train", [False, True])
    def test_grad_check(self, train):
        rng = np.random.default_rng(21)
        bn, _ = bn_pair(rng, 2, dtype=np.float64)
        x = Tensor(rng.normal(size=(3, 2, 2, 2)), requires_grad=True, dtype=np.float64)
        neg_tgt = Tensor(-rng.normal(size=(3, 2, 2, 2)), dtype=np.float64)

        def f():
            d = ad.add(bn(x, train, relu=True), neg_tgt)
            return ad.sum_all(ad.mul(d, d))

        assert (bn(x, train, relu=True).data == 0).any()   # some relus are closed
        assert grad_check(f, [x, bn.gamma, bn.beta]) < 1e-5

    @pytest.mark.parametrize("train", [False, True])
    @pytest.mark.parametrize("param", ["gamma", "beta"])
    def test_non_finite_caught_before_the_relu(self, train, param):
        """A -inf gamma makes half a channel -inf, a -inf beta all of it; the
        relu would turn each of those into 0, and the check still fires."""
        rng = np.random.default_rng(8)
        bn, _ = bn_pair(rng, 3)
        getattr(bn, param).data[0] = -np.inf
        x = Tensor(rng.normal(size=(2, 3, 4, 4)).astype(np.float32))
        with pytest.raises(ad.NumericsError, match="batchnorm produced a non-finite value"):
            bn(x, train, relu=True)

    def test_model_records_no_separate_relu(self):
        model = build_model(ModelConfig(18, 3, width_multiplier=1 / 16, input_size=32), seed=1)
        x = Tensor(np.random.default_rng(2).normal(size=(2, 3, 32, 32)).astype(np.float32))
        for train in (False, True):
            with GradTape() as tape:
                model.forward(x, train=train)
            names = [node.name for node in tape.nodes]
            assert "relu" not in names
            assert names.count("batchnorm") == 17
            assert len(names) == 49


def maxpool_gather_oracle(x, size, stride, g):
    """Max pool forward and backward as computed before the strided running
    maximum: gather every window, take_along_axis at its argmax, and scatter
    g with a 4-array np.add.at."""
    batch, channels, h, w = x.shape
    oh, ow = (h - size) // stride + 1, (w - size) // stride + 1
    flat = layers._gather_windows(x.reshape(batch * channels, -1), 1, h, w, size, size, stride)
    flat = flat.reshape(batch, channels, oh, ow, size * size)
    arg = flat.argmax(axis=4)
    out = np.take_along_axis(flat, arg[..., None], axis=4)[..., 0]
    gx = np.zeros_like(x)
    b_idx, c_idx, oh_idx, ow_idx = np.indices(arg.shape)
    np.add.at(gx, (b_idx, c_idx, oh_idx * stride + arg // size, ow_idx * stride + arg % size), g)
    return out, gx


def global_average_backward_oracle(x, g):
    """Global average pool backward as a loop of single-pixel slice adds."""
    gx = np.zeros_like(x)
    share = g / (x.shape[2] * x.shape[3])
    for i in range(x.shape[2]):
        for j in range(x.shape[3]):
            gx[:, :, i:i + 1, j:j + 1] += share
    return gx


def with_signed_zeros(rng, values):
    """values in float32 with about a quarter of them set to 0.0 or -0.0 (a
    relu itself leaves no -0.0)."""
    values = values.astype(np.float32)
    zero = rng.uniform(size=values.shape) < 0.25
    values[zero] = np.where(rng.uniform(size=zero.sum()) < 0.5, -0.0, 0.0)
    return values


class TestPool2d:
    @pytest.mark.parametrize("size,stride", [(3, 2), (2, 2), (3, 1)])
    @pytest.mark.parametrize("batch", [1, 8])
    def test_max_bit_equal_to_gather_oracle(self, size, stride, batch):
        rng = np.random.default_rng(100 * size + 10 * stride + batch)
        for hw in ((13, 12), (8, 8)):
            half_steps = np.round(rng.normal(size=(batch, 5) + hw) * 2) / 2   # many ties
            for values in (np.maximum(half_steps, 0), half_steps):
                data = with_signed_zeros(rng, values)
                x = Tensor(data, requires_grad=True)
                with GradTape():
                    out = Pool2d("max", size, stride=stride)(x)
                    g = with_signed_zeros(rng, rng.normal(size=out.shape))
                    (gx,) = out._node.backward_fn(g)
                ref_out, ref_gx = maxpool_gather_oracle(data, size, stride, g)
                assert out.data.shape == ref_out.shape and out.data.dtype == ref_out.dtype
                assert out.data.tobytes() == ref_out.tobytes(), (hw, size, stride)
                assert gx.tobytes() == ref_gx.tobytes(), (hw, size, stride)

    def test_max_shared_peak_sums_every_window_in_window_order(self):
        """The centre of a 5x5 map is the maximum of all nine 3x3 stride-1
        windows, so its gradient is a sum of nine values; they are chosen so
        that summing them in another order gives other bytes."""
        data = np.zeros((1, 1, 5, 5), dtype=np.float32)
        data[0, 0, 2, 2] = 1.0
        g = np.array([1.0, 3e7, -3e7, 0.5, 1e-3, 7.0, -2.5, 1e8, -1e8],
                     dtype=np.float32).reshape(1, 1, 3, 3)
        x = Tensor(data, requires_grad=True)
        with GradTape():
            (gx,) = Pool2d("max", 3, stride=1)(x)._node.backward_fn(g)
        _, ref_gx = maxpool_gather_oracle(data, 3, 1, g)
        assert gx.tobytes() == ref_gx.tobytes()
        in_order, reversed_order = np.float32(0), np.float32(0)
        for a, b in zip(g.reshape(-1), g.reshape(-1)[::-1]):
            in_order, reversed_order = in_order + a, reversed_order + b
        assert gx[0, 0, 2, 2] == in_order != reversed_order
        assert np.count_nonzero(gx) == 1

    def test_max_infinite_gradient_reaches_only_the_earliest_maximum(self):
        rng = np.random.default_rng(12)
        data = np.round(rng.normal(size=(2, 3, 9, 9)) * 2).astype(np.float32)   # many ties
        x = Tensor(data, requires_grad=True)
        with GradTape():
            out = Pool2d("max", 3, stride=2)(x)
            g = np.zeros(out.shape, dtype=np.float32)
            g[1, 2, 1, 3] = np.inf
            (gx,) = out._node.backward_fn(g)
        _, ref_gx = maxpool_gather_oracle(data, 3, 2, g)
        assert gx.tobytes() == ref_gx.tobytes()
        assert np.count_nonzero(gx) == 1 and np.isposinf(gx).sum() == 1
        assert not np.isnan(gx).any()

    def test_max_tie_of_signed_zeros_keeps_the_first(self):
        for first, second in ((-0.0, 0.0), (0.0, -0.0)):
            x = np.array([[[[first, second], [second, second]]]], dtype=np.float32)
            out = Pool2d("max", 2, stride=2)(Tensor(x)).data
            assert np.signbit(out[0, 0, 0, 0]) == np.signbit(np.float32(first))

    @pytest.mark.parametrize("shape", [(1, 8, 2, 2), (8, 16, 4, 4), (3, 5, 7, 7)])
    def test_global_average_backward_bit_equal_to_slice_loop(self, shape):
        rng = np.random.default_rng(sum(shape))
        x = Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
        with GradTape():
            out = Pool2d("average", shape[2], stride=1)(x)
            g = with_signed_zeros(rng, rng.normal(size=out.shape))
            (gx,) = out._node.backward_fn(g)
        assert gx.tobytes() == global_average_backward_oracle(x.data, g).tobytes()
        assert not np.signbit(gx[np.broadcast_to(g == 0, gx.shape)]).any()   # 0.0 + -0.0 is +0.0

    def test_average_7x7_is_scalar_mean(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 2, 7, 7)).astype(np.float32)
        out = Pool2d("average", 7, stride=1)(Tensor(x))
        assert out.shape == (1, 2, 1, 1)
        npt.assert_allclose(out.data[0, :, 0, 0], x.mean(axis=(2, 3))[0], atol=1e-6)

    @pytest.mark.parametrize("shape", [(1, 32, 2, 2), (8, 64, 2, 2), (3, 40, 7, 7), (2, 16, 4, 4)])
    def test_global_average_bit_equal_to_window_mean(self, shape):
        x = np.random.default_rng(7).normal(2.0, 3.0, size=shape).astype(np.float32)
        windows = sliding_window_view(x, shape[2:], axis=(2, 3))
        out = Pool2d("average", shape[2], stride=1)(Tensor(x))
        assert np.array_equal(out.data, windows.mean(axis=(4, 5)))

    def test_max_of_constant_map(self):
        x = Tensor(np.full((1, 1, 6, 6), 3.25, dtype=np.float32))
        out = Pool2d("max", 2, stride=2)(x)
        npt.assert_array_equal(out.data, np.full((1, 1, 3, 3), 3.25, dtype=np.float32))

    def test_max_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 1, 4, 4)).astype(np.float32)
        out = Pool2d("max", 2, stride=2)(Tensor(x))
        expected = np.zeros((2, 2), dtype=np.float32)
        for i in range(2):
            for j in range(2):
                expected[i, j] = x[0, 0, 2 * i:2 * i + 2, 2 * j:2 * j + 2].max()
        npt.assert_array_equal(out.data[0, 0], expected)

    def test_window_overrun(self):
        with pytest.raises(ad.ShapeMismatch):
            Pool2d("max", 5)(Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32)))

    def test_max_backward_ties_go_to_lowest_flat_index(self):
        x = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32), requires_grad=True)
        with GradTape():
            backward(ad.sum_all(Pool2d("max", 2)(x)))
        npt.assert_array_equal(x.grad[0, 0], [[1, 0], [0, 0]])

    def test_average_backward_distributes(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 3, 6, 6)).astype(np.float32), requires_grad=True)
        with GradTape():
            out = Pool2d("average", 3, stride=2)(x)
            backward(ad.sum_all(out))
        assert x.grad.sum() == pytest.approx(out.data.size, rel=1e-6)

    def test_grad_check_both_kinds(self):
        rng = np.random.default_rng(9)
        for kind in ("max", "average"):
            x = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True, dtype=np.float64)

            def f(kind=kind, x=x):
                y = Pool2d(kind, 2, stride=2)(x)
                return ad.sum_all(ad.mul(y, y))

            assert grad_check(f, [x]) < 1e-5


class TestDense:
    def test_identity_weights(self):
        spec = Dense(3, 3)
        spec.weight.data[:] = np.eye(3, dtype=np.float32)
        spec.bias.data[:] = 0.0
        x = np.arange(6, dtype=np.float32).reshape(2, 3)
        npt.assert_array_equal(spec(Tensor(x)).data, x)

    def test_zero_weights_bias_rows(self):
        spec = Dense(3, 4)
        spec.weight.data[:] = 0.0
        spec.bias.data[:] = np.array([1, 2, 3, 4], dtype=np.float32)
        out = spec(Tensor(np.ones((2, 3), dtype=np.float32)))
        npt.assert_array_equal(out.data, np.tile(spec.bias.data, (2, 1)))

    def test_matches_matmul_oracle(self):
        rng = np.random.default_rng(10)
        spec = Dense(3, 4, rng=rng)
        x = rng.normal(size=(2, 3)).astype(np.float32)
        expected = x @ spec.weight.data.T + spec.bias.data
        npt.assert_allclose(spec(Tensor(x)).data, expected, atol=1e-6)

    def test_extent_mismatch(self):
        with pytest.raises(ad.ShapeMismatch):
            Dense(3, 4)(Tensor(np.zeros((2, 5), dtype=np.float32)))

    def test_grad_check(self):
        rng = np.random.default_rng(11)
        spec = Dense(3, 2, rng=rng, dtype=np.float64)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True, dtype=np.float64)

        def f():
            y = spec(x)
            return ad.sum_all(ad.mul(y, y))

        assert grad_check(f, [x, spec.weight, spec.bias]) < 1e-5


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_431_classes(self):
        logits = Tensor(np.zeros((2, 431), dtype=np.float32))
        loss = softmax_cross_entropy(logits, [7, 123])
        assert loss.item() == pytest.approx(math.log(431), rel=1e-5)

    def test_saturated_target_logit(self):
        row = np.zeros((1, 5), dtype=np.float32)
        row[0, 2] = 1e6
        loss = softmax_cross_entropy(Tensor(row), [2])
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_matches_f64_scalar_loop(self):
        rng = np.random.default_rng(12)
        logits = rng.normal(size=(2, 5)).astype(np.float32)
        targets = [3, 0]
        total = 0.0
        for row, t in zip(logits.astype(np.float64), targets):
            e = [math.exp(v) for v in row]
            total += -math.log(e[t] / sum(e))
        loss = softmax_cross_entropy(Tensor(logits), targets)
        assert loss.item() == pytest.approx(total / 2, abs=1e-6)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(13)
        probs = layers.softmax(rng.normal(size=(4, 9)).astype(np.float32))
        npt.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_shift_invariance(self):
        rng = np.random.default_rng(14)
        logits = rng.normal(size=(3, 6)).astype(np.float32)
        l1 = softmax_cross_entropy(Tensor(logits), [0, 1, 2]).item()
        l2 = softmax_cross_entropy(Tensor(logits + 10.0), [0, 1, 2]).item()
        assert l1 == pytest.approx(l2, abs=1e-6)

    def test_out_of_range_target(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(Tensor(np.zeros((1, 4), dtype=np.float32)), [4])

    def test_grad_check(self):
        rng = np.random.default_rng(15)
        logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True, dtype=np.float64)
        assert grad_check(lambda: softmax_cross_entropy(logits, [1, 0, 3]), [logits]) < 1e-5


class TestGraphLifetime:
    def test_step_graph_freed_without_cyclic_gc(self):
        rng = np.random.default_rng(4)
        conv = Conv2d(2, 3, kernel=3, padding=1, bias=False, rng=rng)
        bn = BatchNorm(3)
        x = Tensor(rng.normal(size=(2, 2, 5, 5)).astype(np.float32))
        gc.collect()
        gc.disable()
        try:
            with GradTape():
                feats = conv(x)
                normed = bn(feats, train=True)
                act = ad.relu(normed)
                flat = ad.reshape(act, (2, 75))
                loss = softmax_cross_entropy(flat, [0, 1])
                backward(loss)
            refs = [weakref.ref(t) for t in (feats, normed, act, flat, loss)]
            del feats, normed, act, flat, loss
            assert [r() for r in refs] == [None] * len(refs)
        finally:
            gc.enable()
        assert conv.weight.grad is not None and bn.gamma.grad is not None
