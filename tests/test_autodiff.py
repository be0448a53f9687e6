import threading

import numpy as np
import numpy.testing as npt
import pytest

from swpnet import autodiff as ad
from swpnet import layers
from swpnet.autodiff import (
    GradTape,
    Tensor,
    backward,
    grad_check,
)
from swpnet.layers import BatchNorm, Conv2d, Dense, Pool2d, dense
from swpnet.models import Model, ModelConfig
from swpnet.swp import SWPLayer, SWPSpec


def linear(weight: Tensor, rows: Tensor) -> Tensor:
    """rows @ weight.T through layers.dense with a zero, untracked bias."""
    spec = Dense(weight.shape[1], weight.shape[0], dtype=weight.dtype)
    spec.weight = weight
    spec.bias = Tensor(np.zeros(weight.shape[0], dtype=weight.dtype))
    return dense(rows, spec)


class TestTensorCreate:
    def test_sequence_fill(self):
        t = Tensor([1, 2, 3])
        npt.assert_array_equal(t.data, np.array([1, 2, 3], dtype=np.float32))
        assert t.dtype == np.float32

    def test_length_mismatch(self):
        with pytest.raises(ad.ShapeMismatch):
            ad.reshape(Tensor([1, 2, 3]), (2,))

    def test_zero_extent(self):
        with pytest.raises(ad.ShapeMismatch):
            Tensor(np.ones((2, 0), dtype=np.float32))


class TestElementwise:
    def test_relu(self):
        out = ad.relu(Tensor([-1, 0, 2]))
        npt.assert_array_equal(out.data, [0, 0, 2])

    def test_add_identity(self):
        x = Tensor(np.random.default_rng(1).normal(0.0, 1.0, size=4).astype(np.float32))
        out = ad.add(x, Tensor(np.zeros(4, dtype=np.float32)))
        npt.assert_array_equal(out.data, x.data)

    def test_mul_matches_scalar_loop(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=4).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        expected = [float(a[i]) * float(b[i]) for i in range(4)]
        out = ad.mul(Tensor(a), Tensor(b))
        npt.assert_allclose(out.data, expected, rtol=1e-6)

    def test_unequal_shapes_raise(self):
        # a bias row against a batch of rows: equal shapes only, no broadcasting
        x = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        bias = Tensor(np.array([1.0, 2.0, 3.0], dtype=np.float32), requires_grad=True)
        for op in (ad.add, ad.mul):
            with GradTape() as tape, pytest.raises(ad.ShapeMismatch, match="not equal"):
                op(x, bias)
            assert len(tape) == 0

    def test_non_broadcastable(self):
        with pytest.raises(ad.ShapeMismatch):
            ad.add(Tensor(np.ones((2, 3), dtype=np.float32)), Tensor(np.ones(2, dtype=np.float32)))


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor([1, 2, 3], requires_grad=True)
        with GradTape():
            loss = ad.sum_all(ad.mul(x, x))
            backward(loss)
        npt.assert_allclose(x.grad, [2, 4, 6], rtol=1e-6)

    def test_constant_loss_zero_grads(self):
        x = Tensor([1, 2, 3], requires_grad=True)
        with GradTape():
            loss = ad.sum_all(ad.scale(ad.mul(x, x), 0.0))
            backward(loss)
        npt.assert_array_equal(x.grad, [0, 0, 0])

    def test_linear_grad_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True, dtype=np.float64)
        x = Tensor(rng.normal(size=(3, 2)).T, dtype=np.float64)
        err = grad_check(lambda: ad.sum_all(linear(w, x)), [w])
        assert err < 1e-5

    def test_non_scalar_loss(self):
        x = Tensor([1, 2, 3], requires_grad=True)
        with GradTape():
            y = ad.mul(x, x)
            with pytest.raises(ad.AutodiffError):
                backward(y)

    def test_detached_loss(self):
        x = Tensor([1.0], requires_grad=True, dtype=np.float32)
        with GradTape(), pytest.raises(ad.AutodiffError, match="detached"):
            backward(x)

    def test_backward_outside_its_tape(self):
        x = Tensor([1, 2], requires_grad=True)
        with GradTape():
            loss = ad.sum_all(ad.mul(x, x))
        with pytest.raises(ad.AutodiffError, match="inside the GradTape"):
            backward(loss)
        assert x.grad is None

    def test_backward_across_two_tapes(self):
        x = Tensor([1, 2], requires_grad=True)
        with GradTape():
            y = ad.mul(x, x)
        with GradTape():
            loss = ad.sum_all(y)
            with pytest.raises(ad.AutodiffError, match=r"another tape \(mul\)"):
                backward(loss)
        with GradTape():
            loss = ad.sum_all(ad.mul(x, x))
            with GradTape(), pytest.raises(ad.AutodiffError, match=r"another tape \(sum\)"):
                backward(loss)

    def test_other_tape_error_leaves_no_partial_gradient(self):
        # the scale branch reaches x before the walk finds the foreign mul
        x = Tensor([1, 2], requires_grad=True)
        with GradTape():
            a = ad.mul(x, x)
        with GradTape():
            loss = ad.sum_all(ad.add(a, ad.scale(x, 3.0)))
            with pytest.raises(ad.AutodiffError, match=r"another tape \(mul\)"):
                backward(loss)
        assert x.grad is None

    def test_repeated_backward_accumulates(self):
        x = Tensor([1, 2], requires_grad=True)
        with GradTape():
            loss = ad.sum_all(ad.mul(x, x))
            backward(loss)
            once = x.grad.copy()
            backward(loss)
        npt.assert_allclose(x.grad, 2 * once, rtol=1e-7)

    def test_replay_bit_identical(self):
        rng = np.random.default_rng(7)
        w = Tensor(rng.normal(size=(5, 5)).astype(np.float32), requires_grad=True)
        x = Tensor(rng.normal(size=(5, 5)).astype(np.float32).T)
        with GradTape():
            loss = ad.sum_all(ad.relu(linear(w, x)))
            backward(loss)
            first = x if False else w.grad.copy()
            w.grad = None
            backward(loss)
        assert w.grad.tobytes() == first.tobytes()

    def test_tape_is_topologically_ordered(self):
        x = Tensor([1, 2, 3], requires_grad=True)
        with GradTape() as tape:
            y = ad.mul(x, x)
            z = ad.add(y, x)
            ad.sum_all(z)
        position = {node: i for i, node in enumerate(tape.nodes)}
        assert [node.name for node in tape.nodes] == ["mul", "add", "sum"]
        for i, node in enumerate(tape.nodes):
            for inp in node.inputs:
                if inp._node is not None:
                    assert position[inp._node] < i, "input recorded after its consumer"

    def test_shared_intermediate_fanout(self):
        # y used twice: d/dx of (x*x + x*x) = 4x
        x = Tensor([1.0, 3.0], requires_grad=True, dtype=np.float32)
        with GradTape():
            y = ad.mul(x, x)
            backward(ad.sum_all(ad.add(y, y)))
        npt.assert_allclose(x.grad, [4.0, 12.0], rtol=1e-6)


class TestNumerics:
    def test_nan_raises_when_enabled(self):
        x = Tensor(np.array([1e30], dtype=np.float32))
        with np.errstate(over="ignore"), pytest.raises(ad.NumericsError):
            ad.mul(ad.mul(x, x), ad.mul(x, x))



def every_op(dtype):
    """(name, output) for each recorded op on random inputs of one dtype."""
    rng = np.random.default_rng(9)

    def t(*shape):
        return Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)

    x, v = t(2, 3, 6, 6), t(4, 5)
    bn4, bn2 = BatchNorm(3, dtype=dtype), BatchNorm(5, dtype=dtype)
    out = [("add", ad.add(v, v)), ("mul", ad.mul(v, v)), ("relu", ad.relu(v)),
           ("scale", ad.scale(v, 0.5)), ("sum", ad.sum_all(v)), ("reshape", ad.reshape(v, (5, 4))),
           ("conv2d", Conv2d(3, 4, 3, 1, 1, bias=False, rng=rng, dtype=dtype)(x)),
           ("conv2d+bias", Conv2d(3, 4, 1, 2, 0, rng=rng, dtype=dtype)(x)),
           ("maxpool2d", Pool2d("max", 3, 2)(x)), ("avgpool2d", Pool2d("average", 2, 2)(x)),
           ("global avgpool2d", Pool2d("average", 6)(x)),
           ("dense", Dense(5, 3, rng=rng, dtype=dtype)(v)),
           ("softmax_cross_entropy", layers.softmax_cross_entropy(v, [0, 1, 2, 3])),
           ("swp", SWPLayer(SWPSpec(2, 6, 6), dtype=dtype)(x))]
    for train in (False, True):
        for relu in (False, True):
            out += [(f"batchnorm {train=} {relu=}", bn4(x, train, relu=relu)),
                    (f"batchnorm [B, C] {train=} {relu=}", bn2(v, train, relu=relu))]
    return out


class TestRecord:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_op_returns_its_input_dtype(self, dtype):
        for name, out in every_op(dtype):
            assert type(out.data) is np.ndarray, name
            assert out.dtype == dtype, name
            assert out.requires_grad, name

    def test_requires_grad_outside_a_tape(self):
        w = Tensor([1.0, -2.0], requires_grad=True)
        c = Tensor([3.0, 4.0])
        for out, wanted in ((ad.add(w, c), True), (ad.add(c, w), True), (ad.add(c, c), False),
                            (ad.relu(w), True), (ad.relu(c), False)):
            assert out.requires_grad is wanted
            assert out._node is None
            assert out.grad is None

    def test_no_node_for_inputs_that_need_no_grad(self):
        c = Tensor([3.0, 4.0])
        with GradTape() as tape:
            out = ad.add(c, c)
        assert len(tape) == 0 and out._node is None and not out.requires_grad

    def test_zero_extent_output_rejected(self):
        with pytest.raises(ad.ShapeMismatch, match="zero extent"):
            ad.record((), np.zeros((0, 3), dtype=np.float32), lambda g: (), "op")

    def test_untaped_forward_leaves_another_threads_tape_alone(self):
        """Thread B holds an open tape while this thread runs a forward with
        none: B's tape gets no node, and B still records its own ops."""
        model = Model(ModelConfig(18, 3, width_multiplier=1 / 16, input_size=32), seed=1)
        x = Tensor(np.random.default_rng(2).normal(size=(2, 3, 32, 32)).astype(np.float32))
        opened, forward_done = threading.Event(), threading.Event()
        seen = {}

        def hold_tape():
            w = Tensor([1.0, -2.0], requires_grad=True)
            with GradTape() as tape:
                opened.set()
                forward_done.wait(timeout=60)
                seen["before"] = len(tape)
                ad.relu(w)
                seen["after"] = len(tape)

        holder = threading.Thread(target=hold_tape)
        holder.start()
        assert opened.wait(timeout=60)
        try:
            for train in (False, True):
                out = model.forward(x, train=train)
                assert out._node is None and out.requires_grad
        finally:
            forward_done.set()
            holder.join(timeout=60)
        assert not holder.is_alive()
        assert seen == {"before": 0, "after": 1}


class TestGradCheck:
    def test_quadratic_form_beats_closed_form(self):
        rng = np.random.default_rng(21)
        a = Tensor(rng.normal(size=(4, 4)), dtype=np.float64)
        x = Tensor(rng.normal(size=(4, 1)), requires_grad=True, dtype=np.float64)

        a_t = Tensor(a.data.T)

        def quad():
            row = ad.reshape(x, (1, 4))
            return ad.sum_all(ad.mul(linear(a_t, row), row))

        err = grad_check(quad, [x])
        assert err < 1e-7
        # independent closed form: grad = (A + A^T) x
        x.grad = None
        with GradTape():
            backward(quad())
        closed = (a.data + a.data.T) @ x.data
        npt.assert_allclose(x.grad, closed, rtol=1e-9, atol=1e-12)

    def test_relu_network_away_from_kinks(self):
        rng = np.random.default_rng(3)
        w1 = Tensor(rng.normal(size=(6, 4)), requires_grad=True, dtype=np.float64)
        w2 = Tensor(rng.normal(size=(1, 6)), requires_grad=True, dtype=np.float64)
        x = Tensor((rng.normal(size=(4, 2)) + 0.5).T, dtype=np.float64)

        def net():
            return ad.sum_all(linear(w2, ad.relu(linear(w1, x))))

        with GradTape() as tape:
            net()
        relu_inputs = [node.inputs[0].data for node in tape.nodes if node.name == "relu"]
        assert relu_inputs, "the probe recorded no relu"
        assert min(np.abs(v).min() for v in relu_inputs) > 1e-3, "probe point too close to a relu kink"
        assert grad_check(net, [w1, w2]) < 1e-5

    def test_linear_function_near_exact(self):
        rng = np.random.default_rng(4)
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True, dtype=np.float64)
        x = Tensor(rng.normal(size=(3, 3)).T, dtype=np.float64)
        assert grad_check(lambda: ad.sum_all(linear(w, x)), [w]) < 1e-9

    def test_rejects_f32_params(self):
        w = Tensor([1.0, 2.0], requires_grad=True, dtype=np.float32)
        with pytest.raises(ad.AutodiffError):
            grad_check(lambda: ad.sum_all(w), [w])

    def test_rejects_nondeterministic_function(self):
        w = Tensor([1.0, 2.0], requires_grad=True, dtype=np.float64)
        counter = {"n": 0}

        def wobbly():
            counter["n"] += 1
            return ad.sum_all(ad.scale(w, 1.0 + 0.1 * counter["n"]))

        with pytest.raises(ad.AutodiffError):
            grad_check(wobbly, [w])
