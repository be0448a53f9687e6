"""Dense tensors with reverse-mode automatic differentiation on a gradient tape.

Storage is a row-major flat numpy array per tensor.  float32 is the working
precision for training and inference; float64 is used for gradient
verification, where finite differences need the extra headroom.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32
FLOAT_DTYPES = (np.float32, np.float64)


class AutodiffError(Exception):
    """Base class for tensor and tape usage errors."""


class ShapeMismatch(AutodiffError):
    """Operands have incompatible shapes or extents."""


class NumericsError(AutodiffError):
    """An operation produced NaN or Inf."""


class _ThreadTapes(threading.local):
    """Each thread's stack of open GradTapes, innermost last."""

    def __init__(self):
        self.tapes: list = []


_state = _ThreadTapes()


def active_tape():
    """The innermost open GradTape on this thread, or None."""
    stack = _state.tapes
    return stack[-1] if stack else None


class Tensor:
    """A dense n-dimensional float array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        if any(extent < 1 for extent in arr.shape):
            raise ShapeMismatch(f"zero extent in shape {arr.shape}")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._node = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatch(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={list(self.shape)}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


class _OpNode:
    """One recorded op.  Nodes point back only at their inputs, never at
    their output, so a step's graph is freed by reference counting as soon
    as its last tensor and its tape go."""

    __slots__ = ("inputs", "backward_fn", "name")

    def __init__(self, inputs: tuple, backward_fn: Callable, name: str):
        self.inputs = inputs
        self.backward_fn = backward_fn
        self.name = name


class GradTape:
    """Switches recording on for its `with` block and lists the ops recorded
    in it, in forward order.  Tensors do not point back at their tape, so
    the graph lives as long as the tape or the tensors do, not longer."""

    def __init__(self):
        self._nodes: list[_OpNode] = []

    @property
    def nodes(self) -> tuple:
        return tuple(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __enter__(self) -> "GradTape":
        _state.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _state.tapes.pop()
        if popped is not self:
            raise AutodiffError("GradTape exited out of order")
        return False


def record(inputs: Sequence[Tensor], out_data: np.ndarray, backward_fn: Callable, name: str = "op") -> Tensor:
    """Wrap an op result, raising NumericsError if it holds a NaN or Inf, and,
    when a tape is open and gradients are needed, push a node whose
    backward_fn(out_grad) returns one grad (or None) per input.

    out_data must already be a float ndarray in its inputs' dtype: it is
    wrapped as it is, without Tensor.__init__'s conversions, since this runs
    once per op of every forward."""
    if not np.isfinite(out_data).all():
        raise NumericsError(f"{name} produced a non-finite value")
    if not out_data.size:
        raise ShapeMismatch(f"zero extent in shape {out_data.shape}")
    needs_grad = False
    for t in inputs:
        if t.requires_grad:
            needs_grad = True
            break
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = needs_grad
    out.grad = None
    out._node = None
    tapes = _state.tapes
    if not needs_grad or not tapes:
        return out
    node = _OpNode(tuple(inputs), backward_fn, name)
    tapes[-1]._nodes.append(node)
    out._node = node
    return out


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------


def _binary(a: Tensor, b: Tensor, fwd, da, db, name: str) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatch(f"{name}: shapes {a.shape} and {b.shape} are not equal")
    out = fwd(a.data, b.data)

    def bwd(g):
        return (da(g) if a.requires_grad else None), (db(g) if b.requires_grad else None)

    return record((a, b), out, bwd, name)


def _sum_in_layout(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x + y in x's memory layout, where numpy would fall back to row-major
    when the two differ: a residual block's batch-innermost conv output
    keeps its layout through an NCHW shortcut.  Such a y is copied into x's
    layout and x added to it, which numpy does about five times faster
    than one mixed-layout add, with the same bytes, as float addition
    commutes."""
    if x.strides == y.strides or x.flags.c_contiguous and y.flags.c_contiguous:
        return x + y
    out = np.empty_like(x)
    out[...] = y
    out += x
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, _sum_in_layout, lambda g: g, lambda g: g, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, lambda x, y: x * y,
                   lambda g: g * b.data, lambda g: g * a.data, "mul")


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0)

    def bwd(g):
        return ((g * (x.data > 0)).astype(x.data.dtype),)

    return record((x,), out, bwd, "relu")


def scale(x: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    out = x.data * factor

    def bwd(g):
        return (g * factor,)

    return record((x,), out, bwd, "scale")


def sum_all(x: Tensor) -> Tensor:
    out = np.asarray(x.data.sum())

    def bwd(g):
        return (np.broadcast_to(g, x.shape).astype(x.data.dtype),)

    return record((x,), out, bwd, "sum")


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != x.size:
        raise ShapeMismatch(f"cannot reshape {x.shape} to {list(shape)}")
    out = x.data.reshape(shape)

    def bwd(g):
        return (g.reshape(x.shape),)

    return record((x,), out, bwd, "reshape")


# ---------------------------------------------------------------------------
# backward pass and gradient verification
# ---------------------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Populate .grad on every requires_grad leaf reachable from loss.

    Runs inside the GradTape that recorded loss.  The tape lists ops in
    record order, a topological order, so walking it backwards reaches each
    op after all of its consumers and sums each tensor's incoming gradients
    in the same order on every call.  Repeated calls without zeroing
    accumulate one unit of gradient per call; intermediate gradients live in
    transient buffers and are discarded.
    """
    if loss.data.size != 1:
        raise AutodiffError(f"loss must be a scalar, got shape {list(loss.shape)}")
    tape = active_tape()
    if tape is None:
        raise AutodiffError("backward must run inside the GradTape that recorded the loss")
    if loss._node is None:
        raise AutodiffError("loss is detached: it was not recorded on any tape")
    transient: dict[_OpNode, np.ndarray] = {loss._node: np.ones_like(loss.data)}
    leaf_grads: list[tuple[Tensor, np.ndarray]] = []
    for node in reversed(tape._nodes):
        g = transient.pop(node, None)
        if g is None:
            continue
        grads = node.backward_fn(g)
        for t, gt in zip(node.inputs, grads):
            if gt is None:
                continue
            if t._node is None:
                if t.requires_grad:
                    leaf_grads.append((t, gt))
            else:
                prev = transient.get(t._node)
                transient[t._node] = gt if prev is None else prev + gt
    if transient:
        names = ", ".join(sorted({node.name for node in transient}))
        raise AutodiffError(f"loss depends on ops recorded on another tape ({names})")
    # leaves change only once the whole walk has succeeded
    for t, gt in leaf_grads:
        t.grad = gt.copy() if t.grad is None else t.grad + gt


GRAD_CHECK_EPS = 1e-4   # central-difference step, sized for float64 parameters


def grad_check(function: Callable[[], Tensor], params: Sequence[Tensor]) -> float:
    """Max relative error between tape gradients and central finite differences.

    `function` takes no arguments, closes over `params`, and must return a
    scalar deterministically; params must be float64 leaves.
    """
    params = list(params)
    for p in params:
        if p.data.dtype != np.float64:
            raise AutodiffError("grad_check requires float64 parameters")
        if not p.requires_grad:
            raise AutodiffError("grad_check parameters must have requires_grad set")

    probe_a = function()
    probe_b = function()
    if probe_a.data.size != 1:
        raise AutodiffError("grad_check function must return a scalar")
    if probe_a.data.tobytes() != probe_b.data.tobytes():
        raise AutodiffError("grad_check function is non-deterministic across probe evaluations")

    for p in params:
        p.grad = None
    with GradTape():
        backward(function())
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    for p in params:
        p.grad = None

    worst = 0.0
    for p, ana in zip(params, analytic):
        flat = p.data.reshape(-1)
        ana_flat = ana.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + GRAD_CHECK_EPS
            f_plus = function().item()
            flat[i] = saved - GRAD_CHECK_EPS
            f_minus = function().item()
            flat[i] = saved
            fd = (f_plus - f_minus) / (2.0 * GRAD_CHECK_EPS)
            err = abs(ana_flat[i] - fd) / max(1.0, abs(fd))
            if err > worst:
                worst = err
    return worst
