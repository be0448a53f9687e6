import numpy as np
import numpy.testing as npt
import pytest

from swpnet import autodiff as ad
from swpnet.autodiff import (
    GradTape,
    Tensor,
    backward,
    grad_check,
)
from swpnet.layers import Dense, dense


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
