"""Layer vocabulary: convolution, batch normalisation, pooling, dense, and
softmax cross-entropy, each with a vectorised forward and a fused backward
rule recorded on the gradient tape."""

from __future__ import annotations

import functools
import math

import numpy as np

from .autodiff import DEFAULT_DTYPE, ShapeMismatch, Tensor, active_tape, record


def he_normal(rng: np.random.Generator, shape, fan_in: int, dtype=DEFAULT_DTYPE) -> np.ndarray:
    """Fan-in-scaled normal init for relu networks."""
    return (rng.standard_normal(shape) * math.sqrt(2.0 / fan_in)).astype(dtype)


def _init_weight(rng: np.random.Generator | None, shape, fan_in: int, dtype) -> np.ndarray:
    return np.zeros(shape, dtype=dtype) if rng is None else he_normal(rng, shape, fan_in, dtype)


class Conv2d:
    """2-d cross-correlation with zero padding.

    Weight layout is [out, in, kh, kw]; convs that feed a batch-norm layer
    are built without bias.  The weight is He-initialised from rng, or left
    zero with no draw when rng is None (for a caller that sets it).
    """

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: np.random.Generator | None = None, dtype=DEFAULT_DTYPE):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_h = self.kernel_w = kernel
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel, kernel)
        self.weight = Tensor(_init_weight(rng, shape, in_channels * kernel * kernel, dtype),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels, dtype=dtype), requires_grad=True) if bias else None

    def parameters(self):
        params = [("weight", self.weight)]
        if self.bias is not None:
            params.append(("bias", self.bias))
        return params

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self)


def _window_offsets(channels: int, hp: int, wp: int, kh: int, kw: int, s: int):
    """(pixel, offset): the flat offset in a flattened `[C, hp, wp]` image of
    each output pixel's window corner, `[oh·ow]`, and of each (c, i, j)
    channel and kernel offset from it, `[C·kh·kw]`."""
    oh, ow = (hp - kh) // s + 1, (wp - kw) // s + 1
    pixel = (np.arange(oh)[:, None] * (s * wp) + np.arange(ow) * s).reshape(-1)
    offset = (np.arange(channels)[:, None, None] * (hp * wp)
              + np.arange(kh)[:, None] * wp + np.arange(kw)).reshape(-1)
    return pixel, offset


@functools.cache
def _window_index(channels: int, hp: int, wp: int, kh: int, kw: int, s: int) -> np.ndarray:
    """Flat offsets of every kh x kw window at stride s of a flattened
    `[C, hp, wp]` image, `[oh·ow, C·kh·kw]`, built once per shape and
    cached.  It stays writeable, as np.take copies any other index on every
    call; its one reader, _gather_windows, never writes it."""
    pixel, offset = _window_offsets(channels, hp, wp, kh, kw, s)
    return pixel[:, None] + offset


def _gather_windows(rows: np.ndarray, channels: int, hp: int, wp: int, kh: int, kw: int,
                    s: int, out: np.ndarray | None = None) -> np.ndarray:
    """Every kh x kw window at stride s of each row of `rows`, a flattened
    `[C, hp, wp]` image: `[N, oh·ow, C·kh·kw]`, with (y, x) output pixels
    along axis 1 and (c, i, j) channel and kernel offsets along axis 2,
    written into `out` when one is given.

    The offsets lie in range by construction: mode="wrap" skips np.take's
    per-offset bounds error path, which measured ~25% faster on the desk
    model's conv shapes."""
    return rows.take(_window_index(channels, hp, wp, kh, kw, s), axis=1, out=out, mode="wrap")


@functools.cache
def _window_columns(channels: int, hp: int, wp: int, kh: int, kw: int, s: int,
                    chunks: int) -> tuple[np.ndarray, ...]:
    """_window_index transposed, `[C·kh·kw, oh·ow]`, cut into `chunks`
    balanced blocks of whole output pixels, each a contiguous array: block
    c holds pixels oh·ow·c // chunks up to oh·ow·(c + 1) // chunks.  Built
    once per shape and chunk count and cached, and writeable for the reason
    _window_index gives."""
    pixel, offset = _window_offsets(channels, hp, wp, kh, kw, s)
    return tuple(offset[:, None] + pixel[pixel.size * c // chunks:pixel.size * (c + 1) // chunks]
                 for c in range(chunks))


def _gather_pixels(rows: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The windows of a batch-innermost `[C·hp·wp, N]` padded input `rows`
    at the output pixels of `index`, a block of _window_columns: `[C·kh·kw,
    pixels, N]`, written into `out`.  Each offset copies the N floats of
    one input pixel, one per image."""
    return rows.take(index, axis=0, out=out, mode="wrap")


def _row_floats(kw: int) -> int:
    """A kernel row of kw floats read as whole 16-byte items of 4 floats."""
    return -(-kw // 4) * 4


def _wide_layout(wp: int, kw: int, s: int) -> tuple[int, int]:
    """How a wide gather lays out padded rows of wp columns: (wq, copies).
    Each phase copy has rows of wq floats, a multiple of 4 that holds the
    last window's _row_floats(kw) floats, so no item straddles two rows.  A
    window starting at column s·x reads the copy shifted left by s·x mod 4,
    which takes `copies` values, 4 // gcd(s, 4): copy k is shifted by
    4k / copies."""
    ow = (wp - kw) // s + 1
    return -(-(s * (ow - 1) + _row_floats(kw)) // 4) * 4, 4 // math.gcd(s, 4)


@functools.cache
def _wide_index(channels: int, hp: int, wp: int, kh: int, kw: int, s: int) -> np.ndarray:
    """Item offsets of every kh x kw window at stride s in the flattened
    `[copies, C, hp, wq]` phase copies of a `[C, hp, wp]` padded image (see
    _wide_layout): `[oh·ow, C·kh·kq/4]` for kq = _row_floats(kw), built
    once per shape and cached, and writeable for the reason _window_index
    gives."""
    wq, copies = _wide_layout(wp, kw, s)
    oh, ow, items = (hp - kh) // s + 1, (wp - kw) // s + 1, wq // 4
    x = np.arange(ow) * s
    copy = x % 4 * copies // 4
    pixel = ((np.arange(oh)[:, None] * s + copy * (channels * hp)) * items + x // 4).reshape(-1)
    offset = ((np.arange(channels)[:, None, None] * hp + np.arange(kh)[:, None]) * items
              + np.arange(_row_floats(kw) // 4)).reshape(-1)
    return pixel[:, None] + offset


def _gather_wide(images: np.ndarray, phases: np.ndarray, p: int, kh: int, kw: int, s: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """_gather_windows for float32 images `[N, C, h, w]` padded by p, with
    each kernel row read as kq = _row_floats(kw) floats: `[N, oh·ow,
    C·kh·kq]`, the columns past kw of each row being the floats that follow
    it, written into `out` when one is given.

    `phases` is a zeroed `[N, copies, C, h + 2p, wq]` float32 buffer, or one
    that only earlier calls of the same shape wrote.  Each phase copy gets
    the image columns some window reads, shifted by its phase, and nothing
    else: the padding, and every column past the last window's reach, stay
    zero.  np.take copies the 4-float items as complex128 values, which
    moves their bits unchanged."""
    n, channels, h, w = images.shape
    hp, wp = h + 2 * p, w + 2 * p
    reach = s * ((wp - kw) // s) + kw - p      # image columns that some window reads
    copies = phases.shape[1]
    for k in range(copies):
        shift = 4 * k // copies
        lo, hi = max(0, shift - p), min(w, reach)
        phases[:, k, :, p:p + h, lo + p - shift:hi + p - shift] = images[..., lo:hi]
    rows = phases.reshape(n, -1).view(np.complex128)
    index = _wide_index(channels, hp, wp, kh, kw, s)
    items = None if out is None else out.view(np.complex128)
    return rows.take(index, axis=1, out=items, mode="wrap").view(np.float32)


# Cap on the bytes of one chunk's im2col columns in a conv that no tape
# will keep; see conv2d.
IM2COL_BYTES = 2 << 20
# OpenBLAS hands a GEMM of at most this many multiply-adds to a small-matrix
# kernel that sums in another order than its blocked kernel does, so a conv
# splits its batch only into chunks whose GEMMs are larger.
SMALL_GEMM_MACS = 100 ** 3
# OpenBLAS's blocked sgemm sums a GEMM's depth in one block up to this many
# columns and splits a deeper one where the depth sets, so zero columns
# leave every sum unchanged only while the padded depth stays within it.
SGEMM_K_BLOCK = 448


def conv2d(x: Tensor, spec: Conv2d) -> Tensor:
    if x.data.ndim != 4:
        raise ShapeMismatch(f"conv2d expects [batch, C, H, W], got {x.shape}")
    batch, channels, h, w = x.shape
    if channels != spec.in_channels:
        raise ShapeMismatch(f"conv2d: input has {channels} channels, spec expects {spec.in_channels}")
    kh, kw, s, p = spec.kernel_h, spec.kernel_w, spec.stride, spec.padding
    hp, wp = h + 2 * p, w + 2 * p
    if kh > hp or kw > wp:
        raise ShapeMismatch(f"conv2d: {kh}x{kw} window exceeds padded input {hp}x{wp}")
    oh = (hp - kh) // s + 1
    ow = (wp - kw) // s + 1
    inputs = (x, spec.weight) if spec.bias is None else (x, spec.weight, spec.bias)
    wmat = spec.weight.data.reshape(spec.out_channels, -1)
    pixels, depth = oh * ow, channels * kh * kw
    macs = pixels * depth * spec.out_channels       # one image's GEMM
    dtype = x.data.dtype
    untaped = active_tape() is None or not any(t.requires_grad for t in inputs)

    # im2col: one row per output pixel, one column per (channel, kernel
    # offset); the same matrix np.tensordot would build, multiplied by the
    # weight matrix in one row-major GEMM.  A conv that a tape will keep
    # builds it whole, for backward, as do a float64 conv, a one-filter conv
    # and any conv whose whole-batch GEMM is small enough for OpenBLAS's
    # small-matrix kernel (every desk conv at batch 1).  Untaped, such a
    # conv hands on a batch-innermost input's layout (see below).
    #
    # A float32 conv that no tape keeps, with two or more filters and a
    # whole-batch GEMM above SMALL_GEMM_MACS, lays its input out
    # batch-innermost: it pads it into one `[C, hp, wp, N]` buffer, gathers
    # the columns `[C·kh·kw, pixels, N]` of a balanced chunk of output
    # pixels at a time (_gather_pixels), each chunk's columns at most
    # IM2COL_BYTES unless that would make its GEMM small, and multiplies
    # `wmat @ cols` into that chunk's columns of one `[O, oh, ow, N]`
    # product.  It returns the product as an `[N, O, oh, ow]` view, which
    # batch norm, relu and add keep, so the next conv pads it with a plain
    # copy.  Above SMALL_GEMM_MACS the blocked kernel sums each output over
    # the columns in the same order whichever operand is transposed and
    # whatever the GEMM's extents, so this changes no byte of what the
    # row-major GEMM gives.  A one-filter GEMM is a matrix-vector product,
    # which numpy hands to gemv, whose two orientations sum differently.
    #
    # A float32 conv that no tape keeps gathers each kernel row as whole
    # 4-float items (_gather_wide) when that adds at most a quarter more
    # columns, and multiplies a weight matrix with a zero column for each
    # added one.  Such a column reads padding, a zero past the last window's
    # reach, or a value that some window reads (at a stride of at most kw
    # the windows leave no column between them), so on a finite input each
    # zero product adds +-0 and leaves the blocked kernel's sums as they
    # were, as long as the unpadded GEMM is too large for the small-matrix
    # kernel and the padded depth stays within SGEMM_K_BLOCK.  It splits its
    # batch into balanced chunks of whole images, each chunk's columns at
    # most IM2COL_BYTES (or one image), and pads, gathers and multiplies one
    # chunk at a time into its images of `out`.
    kq = _row_floats(kw)
    wide = (4 * kq <= 5 * kw and s <= kw and dtype == np.float32 and untaped
            and macs > SMALL_GEMM_MACS and channels * kh * kq <= SGEMM_K_BLOCK)
    inner = (not wide and untaped and dtype == np.float32 and spec.out_channels > 1
             and batch * macs > SMALL_GEMM_MACS)
    # A 1x1 stride-1 unpadded conv gathers nothing: its columns are the
    # input, laid out channels-last, or batch-innermost as it is.
    pointwise = kh == kw == 1 and s == 1 and not p
    gemm_w, chunks = wmat, 1
    if wide:
        gemm_w = np.zeros((spec.out_channels, channels, kh, kq), dtype=dtype)
        gemm_w[..., :kw] = spec.weight.data
        gemm_w = gemm_w.reshape(spec.out_channels, -1)
        wq, copies = _wide_layout(wp, kw, s)
        width = gemm_w.shape[1]
        chunks = -(-batch // max(1, IM2COL_BYTES // (pixels * width * x.data.itemsize)))
    if inner:
        xt = x.data.transpose(1, 2, 3, 0)
        if p:
            xp = np.zeros((channels, hp, wp, batch), dtype=dtype)
            xp[:, p:p + h, p:p + w] = xt
        else:
            xp = np.ascontiguousarray(xt)
        prod = np.empty((spec.out_channels, pixels * batch), dtype=dtype)
        if pointwise:
            np.matmul(wmat, xp.reshape(channels, -1), out=prod)
        else:
            per_chunk = max(1, IM2COL_BYTES // (batch * depth * x.data.itemsize))
            most = pixels // (SMALL_GEMM_MACS // (batch * depth * spec.out_channels) + 1)
            chunks = max(1, min(-(-pixels // per_chunk), most))
            col_buf = np.empty(depth * -(-pixels // chunks) * batch, dtype=dtype)
            rows = xp.reshape(-1, batch)
            for c, index in enumerate(_window_columns(channels, hp, wp, kh, kw, s, chunks)):
                lo, hi = batch * (pixels * c // chunks), batch * (pixels * (c + 1) // chunks)
                cols = _gather_pixels(rows, index, out=col_buf[:depth * (hi - lo)].reshape(depth, -1, batch))
                np.matmul(wmat, cols.reshape(depth, -1), out=prod[:, lo:hi])
        out = prod.reshape(-1, oh, ow, batch).transpose(3, 0, 1, 2)
    elif chunks > 1:
        out = np.empty((batch, spec.out_channels, oh, ow), dtype=dtype)
        largest = -(-batch // chunks)
        # one phase, column and product buffer, reused by every chunk; the
        # padding stays zero, as only the columns windows read are rewritten
        phases = np.zeros((largest, copies, channels, hp, wq), dtype=dtype)
        col_buf = np.empty((largest * pixels, width), dtype=dtype)
        prod_buf = np.empty((largest * pixels, spec.out_channels), dtype=dtype)
        for c in range(chunks):
            lo, hi = batch * c // chunks, batch * (c + 1) // chunks
            n = hi - lo
            cols = col_buf[:n * pixels]
            _gather_wide(x.data[lo:hi], phases[:n], p, kh, kw, s, out=cols.reshape(n, pixels, width))
            prod = np.matmul(cols, gemm_w.T, out=prod_buf[:n * pixels])
            out[lo:hi] = prod.reshape(n, oh, ow, -1).transpose(0, 3, 1, 2)
    else:
        # at batch 1 the pointwise columns are a transposed view of the
        # input, and OpenBLAS sums a contiguous copy differently where the
        # GEMM may be small
        if pointwise:
            cols = x.data.transpose(0, 2, 3, 1).reshape(-1, channels)
        elif wide:
            cols = _gather_wide(x.data, np.zeros((batch, copies, channels, hp, wq), dtype=dtype),
                                p, kh, kw, s).reshape(-1, width)
        else:
            xp = x.data
            if p:
                xp = np.zeros((batch, channels, hp, wp), dtype=dtype)
                xp[:, :, p:p + h, p:p + w] = x.data
            cols = _gather_windows(xp.reshape(batch, -1), channels, hp, wp, kh, kw, s).reshape(-1, depth)
        prod = (cols @ gemm_w.T).reshape(batch, oh, ow, -1)
        if batch > 1 and untaped and x.data.transpose(1, 2, 3, 0).flags.c_contiguous:
            # the same transposing copy, into the batch-innermost layout it was given
            out = np.ascontiguousarray(prod.transpose(3, 1, 2, 0)).transpose(3, 0, 1, 2)
        else:
            out = np.ascontiguousarray(prod.transpose(0, 3, 1, 2))
    if spec.bias is not None:
        out += spec.bias.data.reshape(1, -1, 1, 1)

    need_x = x.requires_grad

    def bwd(g):
        gw = (g.transpose(1, 0, 2, 3).reshape(spec.out_channels, -1) @ cols).reshape(spec.weight.shape)
        gx = None
        if need_x:
            # GEMM rows in (y, x, b) order and a channels-last col2im buffer,
            # so each kernel offset's add runs over long spans, not rows of
            # ow; every element still sums its offsets in (i, j) order.  gx
            # is handed on as a slice of a padded NCHW array, because the
            # reductions downstream sum in an order that follows the layout.
            gcols = g.transpose(2, 3, 0, 1).reshape(-1, spec.out_channels) @ wmat
            gcols = gcols.reshape(oh, ow, batch, channels, kh, kw)
            acc = np.zeros((hp, wp, batch, channels), dtype=cols.dtype)
            for i in range(kh):
                for j in range(kw):
                    acc[i:i + s * oh:s, j:j + s * ow:s] += gcols[..., i, j]
            gx_pad = np.ascontiguousarray(acc.transpose(2, 3, 0, 1))
            gx = gx_pad[:, :, p:p + h, p:p + w] if p else gx_pad
        if spec.bias is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3))

    return record(inputs, out, bwd, "conv2d")


BN_EPS = 1e-5        # added to the variance before its square root
BN_MOMENTUM = 0.9    # share of the old running estimate kept per train step


class BatchNorm:
    """Batch normalisation over the channel axis of [B, C, H, W] or [B, C]
    inputs.  Train mode normalises by batch statistics and updates the
    running estimates; infer mode reads running statistics and mutates
    nothing."""

    def __init__(self, channels: int, dtype=DEFAULT_DTYPE):
        self.channels = channels
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def parameters(self):
        return [("gamma", self.gamma), ("beta", self.beta)]

    def buffers(self):
        return [("running_mean", self.running_mean), ("running_var", self.running_var)]

    def __call__(self, x: Tensor, train: bool, relu: bool = False) -> Tensor:
        return batchnorm(x, self, train, relu=relu)


def _bn_axes(shape) -> tuple:
    if len(shape) == 4:
        return (0, 2, 3)
    if len(shape) == 2:
        return (0,)
    raise ShapeMismatch(f"batchnorm expects [B, C, H, W] or [B, C], got {list(shape)}")


def batchnorm(x: Tensor, state: BatchNorm, train: bool, relu: bool = False) -> Tensor:
    """Normalise x per channel, then scale by gamma and shift by beta.

    relu=True fuses the relu that follows every batch norm of a
    pre-activation net into this one recorded op, with the bytes of
    relu(batchnorm(x)) forward and backward.  The finite check runs on the
    pre-relu value, so a -inf that the relu would zero is still caught."""
    axes = _bn_axes(x.shape)
    if x.shape[1] != state.channels:
        raise ShapeMismatch(f"batchnorm: {x.shape[1]} channels vs state {state.channels}")
    pshape = (1, state.channels) + (1,) * (len(x.shape) - 2)
    gamma = state.gamma.data.reshape(pshape)
    beta = state.beta.data.reshape(pshape)

    if train:
        n = int(np.prod([x.shape[a] for a in axes]))
        if n < 2:
            raise ValueError("batchnorm train mode needs at least 2 elements per channel")
        # reductions sum in memory order: take them over a row-major copy
        # of a batch-innermost input
        data = np.ascontiguousarray(x.data)
        mean = data.mean(axis=axes, keepdims=True)
        out = data - mean
        var = np.square(out).sum(axis=axes, keepdims=True) / n   # x.var's own formula
        m = BN_MOMENTUM
        state.running_mean = (m * state.running_mean + (1.0 - m) * mean.reshape(-1)).astype(state.running_mean.dtype)
        state.running_var = (m * state.running_var + (1.0 - m) * var.reshape(-1)).astype(state.running_var.dtype)
    else:
        mean = state.running_mean.reshape(pshape)
        var = state.running_var.reshape(pshape)
        out = x.data - mean
    inv = 1.0 / np.sqrt(var + BN_EPS)
    # one buffer: x - mean, then x̂ = (x - mean)·inv, then gamma·x̂ + beta
    out *= inv
    out *= gamma
    out += beta
    need_x = x.requires_grad

    def bwd(g):
        if relu:
            g = g * (out > 0)   # autodiff.relu's rule
        xhat = (x.data - mean) * inv   # rebuilt from the input, not kept
        gx = None
        if need_x and train:
            dxhat = g * gamma
            gx = (inv / n) * (n * dxhat
                              - dxhat.sum(axis=axes, keepdims=True)
                              - xhat * (dxhat * xhat).sum(axis=axes, keepdims=True))
        elif need_x:
            gx = g * gamma * inv
        return gx, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    result = record((x, state.gamma, state.beta), out, bwd, "batchnorm")
    if relu:
        np.maximum(out, 0, out=out)   # after the check: the relu hides a -inf
    return result


class Pool2d:
    """Max or average pooling over square windows; windows that do not fully
    fit are dropped.

    Max forward returns, bit for bit, the window's value at its argmax, and
    max backward routes the gradient to that argmax, with lowest-flat-index
    tie-break (so a tie of 0.0 and -0.0 keeps the earlier one's sign);
    average backward distributes uniformly.
    """

    def __init__(self, kind: str, size: int, stride: int = 1):
        if kind not in ("max", "average"):
            raise ValueError(f"pool kind must be 'max' or 'average', got {kind!r}")
        self.kind = kind
        self.size = size
        self.stride = stride

    def __call__(self, x: Tensor) -> Tensor:
        return pool2d(x, self)


def pool2d(x: Tensor, spec: Pool2d) -> Tensor:
    if x.data.ndim != 4:
        raise ShapeMismatch(f"pool2d expects [batch, C, H, W], got {x.shape}")
    h, w = x.shape[2:]
    k, s = spec.size, spec.stride
    if k > h or k > w:
        raise ShapeMismatch(f"pool2d: {k}x{k} window overruns {h}x{w} input")
    oh = (h - k) // s + 1
    ow = (w - k) // s + 1
    is_max = spec.kind == "max"

    def windows(a):
        """One strided [B, C, oh, ow] view of `a` per window offset, in (i, j) order."""
        return [a[:, :, i:i + s * oh:s, j:j + s * ow:s] for i in range(k) for j in range(k)]

    if not is_max and (k, k) == (h, w):   # as in the heads: one mean over each map
        out = x.data.mean(axis=(2, 3), keepdims=True)
    else:
        # A running maximum (or sum) over the offsets.  The running value is
        # np.maximum's second operand, which it returns on a tie (0.0 against
        # -0.0 included), so the earliest maximum wins, as argmax's does.
        views = windows(x.data)
        out = views[0].copy()
        for view in views[1:]:
            (np.maximum if is_max else np.add)(view, out, out=out)
        if not is_max:
            out /= k * k

    def bwd(g):
        if is_max:   # each window's earliest maximum: the first view equal to out
            hits, free = [], np.ones(out.shape, dtype=bool)
            for view in views:
                hits.append((view == out) & free)
                free &= ~hits[-1]
        else:
            share = g / (k * k)
        # A later window reaches a pixel at an earlier offset, so adding from
        # the last offset to the first sums each pixel's shares in window
        # order.  np.where, unlike g * hit, adds 0.0 where g is inf.
        gx = np.zeros(x.shape, dtype=x.data.dtype)
        gviews = windows(gx)
        for n in reversed(range(k * k)):
            gviews[n] += np.where(hits[n], g, 0) if is_max else share
        return (gx,)

    return record((x,), out, bwd, "maxpool2d" if is_max else "avgpool2d")


class Dense:
    """Fully connected layer: input @ weight.T + bias.  The weight is
    initialised as Conv2d's is."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator | None = None, dtype=DEFAULT_DTYPE):
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(_init_weight(rng, (out_features, in_features), in_features, dtype),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_features, dtype=dtype), requires_grad=True)

    def parameters(self):
        return [("weight", self.weight), ("bias", self.bias)]

    def __call__(self, x: Tensor) -> Tensor:
        return dense(x, self)


def dense(x: Tensor, spec: Dense) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeMismatch(f"dense expects [batch, features], got {x.shape}")
    if x.shape[1] != spec.in_features:
        raise ShapeMismatch(f"dense: input width {x.shape[1]} vs spec {spec.in_features}")
    out = x.data @ spec.weight.data.T + spec.bias.data
    need_x = x.requires_grad

    def bwd(g):
        gx = g @ spec.weight.data if need_x else None
        return gx, g.T @ x.data, g.sum(axis=0)

    return record((x, spec.weight, spec.bias), out, bwd, "dense")


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax of a plain array, stabilised by max subtraction."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean negative log-likelihood of integer class targets."""
    if logits.data.ndim != 2:
        raise ShapeMismatch(f"softmax_cross_entropy expects [batch, classes], got {logits.shape}")
    batch, n_classes = logits.shape
    t = np.asarray(targets, dtype=np.int64).reshape(-1)
    if t.shape[0] != batch:
        raise ShapeMismatch(f"{t.shape[0]} targets for batch of {batch}")
    if t.min() < 0 or t.max() >= n_classes:
        raise ValueError(f"target id out of range [0, {n_classes})")

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    probs = np.exp(z)
    norm = probs.sum(axis=1, keepdims=True)
    loss = np.asarray((np.log(norm[:, 0]) - z[np.arange(batch), t]).mean())
    probs /= norm

    def bwd(g):
        grad = probs.copy()
        grad[np.arange(batch), t] -= 1.0
        return ((g * grad / batch).astype(logits.data.dtype),)

    return record((logits,), loss.astype(logits.data.dtype), bwd, "softmax_cross_entropy")
