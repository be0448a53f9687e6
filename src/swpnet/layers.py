"""Layer vocabulary: convolution, batch normalisation, pooling, dense, and
softmax cross-entropy, each with a vectorised forward and a fused backward
rule recorded on the gradient tape."""

from __future__ import annotations

import functools
import math
import os
import queue
import threading

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


@functools.cache
def _window_index(channels: int, hp: int, wp: int, kh: int, kw: int, s: int) -> np.ndarray:
    """Flat offsets of every kh x kw window at stride s of a flattened
    `[C, hp, wp]` image, `[oh·ow, C·kh·kw]`, built once per shape and shared
    by every thread.  It stays writeable, as np.take copies any other index
    on every call; its one reader, _gather_windows, never writes it."""
    oh, ow = (hp - kh) // s + 1, (wp - kw) // s + 1
    pixel = (np.arange(oh)[:, None] * (s * wp) + np.arange(ow) * s).reshape(-1)
    offset = (np.arange(channels)[:, None, None] * (hp * wp)
              + np.arange(kh)[:, None] * wp + np.arange(kw)).reshape(-1)
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


# Cap on the bytes of one chunk's im2col columns in a conv that no tape
# will keep; see conv2d.
IM2COL_BYTES = 2 << 20
# OpenBLAS hands a GEMM of at most this many multiply-adds to a small-matrix
# kernel that sums in another order than its blocked kernel does, so a conv
# splits its batch only into chunks whose GEMMs are larger.
SMALL_GEMM_MACS = 100 ** 3


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


# Lanes a conv that no tape keeps spreads its chunks over: one per core this
# process may run on, when BLAS runs one thread per GEMM (swpnet/__init__.py
# asks for that before numpy loads).  A BLAS left to thread its own GEMMs
# gets one lane, so the two never contend for the cores.
LANES = _usable_cores() if os.environ.get("OPENBLAS_NUM_THREADS") == "1" else 1

# Work for the threads that run lanes 1, 2, ... of a conv, each a tuple
# (work, lane, done): the threads are started on first use, and a forked
# child, which inherits none of them, starts its own.
_LANE_TASKS: queue.SimpleQueue | None = None
_LANE_LOCK = threading.Lock()


def _forget_lanes() -> None:
    global _LANE_TASKS, _LANE_LOCK
    _LANE_TASKS, _LANE_LOCK = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_lanes)


def _serve_lanes(tasks: queue.SimpleQueue) -> None:
    while True:
        _run_lane(*tasks.get())


def _run_lane(work, lane: int, done: queue.SimpleQueue) -> None:
    """One lane's work, whose error goes to the conv's caller.  A call of
    its own, so that nothing of the conv (its buffers, its output) outlives
    the task in the lane thread's locals."""
    try:
        work(lane)
    except BaseException as err:
        done.put((lane, err))
    else:
        done.put((lane, None))


def _run_lanes(work, lanes: int) -> None:
    """work(0) on this thread and work(1), ..., work(lanes - 1) on the lane
    threads.  Returns once every lane has finished, raising the error of the
    lowest lane that failed."""
    global _LANE_TASKS
    if lanes == 1:
        return work(0)
    with _LANE_LOCK:
        if _LANE_TASKS is None:
            _LANE_TASKS = queue.SimpleQueue()
            for n in range(1, LANES):
                threading.Thread(target=_serve_lanes, args=(_LANE_TASKS,),
                                 name=f"swpnet-lane-{n}", daemon=True).start()
        tasks = _LANE_TASKS
    done = queue.SimpleQueue()
    for lane in range(1, lanes):
        tasks.put((work, lane, done))
    try:
        work(0)
    finally:
        outcomes = sorted(done.get() for _ in range(1, lanes))
    for _, err in outcomes:
        if err is not None:
            raise err


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

    # im2col: one row per output pixel, one column per (channel, kernel
    # offset); the same matrix np.tensordot would build.  A conv that a tape
    # will keep builds it whole, for backward.  Any other conv splits its
    # batch into balanced chunks of whole images, each chunk's columns at
    # most IM2COL_BYTES (or one image), and into at least one chunk per lane,
    # unless that would make a GEMM small enough for OpenBLAS's small-matrix
    # kernel.  Chunk c runs on lane c % lanes, which pads, gathers and
    # multiplies it into its images of `out`.  The blocked kernel sums each
    # output row over the same columns in the same order whatever the GEMM's
    # row count or the columns' layout, so neither the chunking nor the
    # lanes change a byte of what the whole matrix gives.
    chunks = lanes = 1
    if batch > 1 and (active_tape() is None or not any(t.requires_grad for t in inputs)):
        per_chunk = max(1, IM2COL_BYTES // (pixels * depth * x.data.itemsize))
        most = batch // (SMALL_GEMM_MACS // (pixels * depth * spec.out_channels) + 1)
        lanes = max(1, min(LANES, most))
        chunks = max(lanes, min(-(-batch // per_chunk), most))
    # A 1x1 stride-1 unpadded conv reads the input in place: for one image
    # this is a transposed view, and at batch 1, where the GEMM may be small,
    # OpenBLAS sums a contiguous copy differently.
    pointwise = kh == kw == 1 and s == 1 and not p
    dtype = x.data.dtype
    if chunks == 1:
        if pointwise:
            cols = x.data.transpose(0, 2, 3, 1).reshape(-1, channels)
        else:
            xp = x.data
            if p:
                xp = np.zeros((batch, channels, hp, wp), dtype=dtype)
                xp[:, :, p:p + h, p:p + w] = x.data
            cols = _gather_windows(xp.reshape(batch, -1), channels, hp, wp, kh, kw, s).reshape(-1, depth)
        out = np.ascontiguousarray((cols @ wmat.T).reshape(batch, oh, ow, -1).transpose(0, 3, 1, 2))
    else:
        out = np.empty((batch, spec.out_channels, oh, ow), dtype=dtype)
        largest = -(-batch // chunks)
        # each lane's pad, column and product buffers, made here so that a
        # lane allocates nothing large; a pad's border stays zero, as only
        # the interior is rewritten
        buffers = [(np.zeros((largest, channels, hp, wp), dtype=dtype) if p else None,
                    np.empty((largest * pixels, depth), dtype=dtype),
                    np.empty((largest * pixels, spec.out_channels), dtype=dtype))
                   for _ in range(lanes)]

        def run_lane(lane):
            xp, col_buf, prod_buf = buffers[lane]
            for c in range(lane, chunks, lanes):
                lo, hi = batch * c // chunks, batch * (c + 1) // chunks
                n, part = hi - lo, x.data[lo:hi]
                cols = col_buf[:n * pixels]
                if pointwise and n == 1:
                    cols = part.transpose(0, 2, 3, 1).reshape(-1, channels)
                elif pointwise:
                    cols.reshape(n, oh, ow, channels)[...] = part.transpose(0, 2, 3, 1)
                else:
                    if p:
                        xp[:n, :, p:p + h, p:p + w] = part
                        part = xp[:n]
                    _gather_windows(part.reshape(n, -1), channels, hp, wp, kh, kw, s,
                                    out=cols.reshape(n, pixels, depth))
                prod = np.matmul(cols, wmat.T, out=prod_buf[:n * pixels])
                out[lo:hi] = prod.reshape(n, oh, ow, -1).transpose(0, 3, 1, 2)

        _run_lanes(run_lane, lanes)
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
        mean = x.data.mean(axis=axes, keepdims=True)
        out = x.data - mean
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
