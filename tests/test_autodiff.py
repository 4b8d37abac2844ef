import inspect

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqssl import autodiff as ad
from seqssl.errors import DegenerateVector, IndexOutOfRange, NotScalar, ShapeMismatch


class TestMatmul:
    def test_identity(self):
        i2 = np.eye(2)
        out = ad.matmul(ad.Tensor(i2), ad.Tensor(i2))
        assert np.array_equal(out.data, i2)

    def test_identity_right(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(ad.Tensor(a), ad.Tensor(np.eye(2)))
        assert np.array_equal(out.data, a)

    def test_hand_product(self):
        out = ad.matmul(ad.Tensor([[1.0, 2.0]]), ad.Tensor([[3.0], [4.0]]))
        assert out.data.item() == 11.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))


class TestL2Normalize:
    def test_three_four(self):
        out = ad.l2_normalize(ad.Tensor([3.0, 4.0]))
        np.testing.assert_allclose(out.data, [0.6, 0.8], atol=1e-15)

    def test_already_unit(self):
        out = ad.l2_normalize(ad.Tensor([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1.0, 0.0, 0.0])

    def test_zero_vector(self):
        with pytest.raises(DegenerateVector):
            ad.l2_normalize(ad.Tensor([0.0, 0.0]))


class TestSoftmaxTemp:
    def test_uniform(self):
        out = ad.softmax_temp(ad.Tensor([2.0, 2.0, 2.0]), 0.5)
        np.testing.assert_allclose(out.data, np.ones(3) / 3)

    def test_two_one(self):
        out = ad.softmax_temp(ad.Tensor([2.0, 1.0]), 1.0)
        np.testing.assert_allclose(out.data, [0.7311, 0.2689], atol=1e-4)

    def test_sharpening(self):
        out = ad.softmax_temp(ad.Tensor([2.0, 1.0]), 0.01)
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            logits = rng.uniform(-50, 50, size=8)
            out = ad.softmax_temp(ad.Tensor(logits), 0.7)
            assert abs(out.data.sum() - 1.0) < 1e-12
            shifted = ad.softmax_temp(ad.Tensor(logits + 123.0), 0.7)
            np.testing.assert_allclose(out.data, shifted.data, atol=1e-12)


class TestCrossEntropy:
    def test_perfect(self):
        assert ad.cross_entropy(ad.Tensor([0.0, 1.0, 0.0]), 1).item() == 0.0

    def test_uniform4(self):
        out = ad.cross_entropy(ad.Tensor(np.ones(4) / 4), 2)
        assert out.item() == pytest.approx(np.log(4), abs=1e-12)

    def test_uniform2_logits(self):
        probs = ad.softmax_temp(ad.Tensor([0.3, 0.3]), 1.0)
        out = ad.cross_entropy(probs, 0)
        assert out.item() == pytest.approx(np.log(2), abs=1e-12)

    def test_bad_index(self):
        with pytest.raises(IndexOutOfRange):
            ad.cross_entropy(ad.Tensor([0.5, 0.5]), 2)


class TestBackward:
    def test_sum_grad(self):
        w = ad.parameter([1.0, 2.0, 3.0])
        ad.tsum(w).backward()
        np.testing.assert_array_equal(w.grad, [1.0, 1.0, 1.0])

    def test_quadratic_grad(self):
        w = ad.parameter([1.0, -2.0, 0.5])
        loss = ad.scale(ad.dot(w, w), 0.5)
        loss.backward()
        np.testing.assert_allclose(w.grad, w.data)

    def test_not_scalar(self):
        w = ad.parameter([1.0, 2.0])
        with pytest.raises(NotScalar):
            w.backward()

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))

        def run():
            w = ad.parameter(a)
            loss = ad.tsum(ad.tanh(ad.matmul(w, ad.Tensor(rng.standard_normal(4)))))
            return loss

        rng = np.random.default_rng(0)
        a1 = run(); rng = np.random.default_rng(0); a2 = run()
        w1, w2 = a1._parents[0]._parents[0]._parents[0], a2._parents[0]._parents[0]._parents[0]
        a1.backward(); a2.backward()
        assert np.array_equal(w1.grad, w2.grad)

    def test_teacher_constant_has_no_grad(self):
        const = ad.Tensor(np.ones(3))
        w = ad.parameter(np.ones(3))
        ad.dot(const, w).backward()
        assert const.grad is None


class TestGradcheck:
    def test_dot_self(self):
        err = ad.gradcheck(lambda w: ad.dot(w, w), ad.Tensor([1.0, -2.0, 3.0]))
        assert err < 1e-6

    def test_softmax_dot_composite(self):
        c = np.array([0.2, -1.0, 0.7])

        def f(w):
            return ad.dot(ad.softmax_temp(w, 0.3), ad.Tensor(c))

        err = ad.gradcheck(f, ad.Tensor([0.1, 0.5, -0.4]))
        assert err < 1e-4

    def test_constant(self):
        err = ad.gradcheck(lambda w: ad.scale(ad.tsum(w), 0.0), ad.Tensor([1.0, 2.0]))
        assert err == 0.0

    def test_softplus_values_and_gradient(self):
        x = ad.Tensor([-50.0, -1.0, 0.0, 1.0, 50.0], requires_grad=True)
        y = ad.softplus(x)
        np.testing.assert_allclose(y.data, np.logaddexp(0.0, x.data),
                                   atol=1e-15)
        assert y.data[0] > 0.0  # stable, no underflow to exactly 0 needed
        assert y.data[2] == pytest.approx(np.log(2.0))
        err = ad.gradcheck(lambda w: ad.tsum(ad.softplus(w)),
                           ad.Tensor([0.3, -0.7, 1.2]))
        assert err < 1e-8

    def test_every_op_at_random_points(self):
        # composite touching matmul, add, tanh, exp, log, mean_rows,
        # l2_normalize, dot, softmax_temp, cross_entropy
        tgt = ad.Tensor(np.random.default_rng(11).normal(size=3))

        def f(w):
            m = ad.tanh(ad.add(ad.matmul(ad.Tensor(rng0), w), ad.Tensor(bias)))
            pooled = ad.mean_rows(m)
            u = ad.l2_normalize(pooled)
            c = ad.dot(u, tgt)
            p = ad.softmax_temp(pooled, 0.5)
            ce = ad.cross_entropy(p, 1)
            return ad.add(ad.add(c, ce), ad.log(ad.exp(ad.tsum(m))))

        for trial in range(10):
            rng = np.random.default_rng(100 + trial)
            rng0 = rng.normal(size=(4, 3))
            bias = rng.normal(size=3)
            point = ad.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
            assert ad.gradcheck(f, point) < 1e-4


X_CONST = np.linspace(-0.5, 0.5, 12).reshape(4, 3)


def two_tensor_loss(w, b, act=ad.tanh):
    """Scalar loss of a (3, 2) weight and a (2,) bias through most ops."""
    h = act(ad.add(ad.matmul(ad.Tensor(X_CONST), w), b))
    pooled = ad.mean_rows(h)
    ce = ad.cross_entropy(ad.softmax_temp(pooled, 0.5), 0)
    spread = ad.log(ad.tsum(ad.exp(ad.scale(pooled, 0.5))))
    return ad.add(ad.sub(ce, spread), ad.softplus(ad.dot(b, b)))


def tanh_doubled_backward(a):
    """tanh whose backward returns twice the true gradient."""
    a = ad.as_tensor(a)
    y = np.tanh(a.data)
    return ad._node(y, (a,), lambda g: a._accum(2.0 * g * (1.0 - y * y)))


weights = hnp.arrays(np.float64, (3, 2), elements=st.floats(-1.0, 1.0))
biases = hnp.arrays(np.float64, (2,), elements=st.floats(-1.0, 1.0))


def three_losses(w, b):
    """A correct loss, the same loss through a doubled tanh backward, and a
    sum whose graph shares every node of the first loss."""
    first = two_tensor_loss(w, b)
    return [first, two_tensor_loss(w, b, act=tanh_doubled_backward),
            ad.add(first, two_tensor_loss(w, b, act=ad.softplus))]


class TestGradcheckParams:
    @settings(max_examples=50, deadline=None)
    @given(w0=weights, b0=biases)
    def test_correct_backward_passes(self, w0, b0):
        w, b = ad.parameter(w0), ad.parameter(b0)
        [err] = ad.gradcheck_params(lambda: [two_tensor_loss(w, b)], [w, b])
        assert err < 1e-6
        np.testing.assert_array_equal(w.data, w0)   # every probe restored
        np.testing.assert_array_equal(b.data, b0)

    @settings(max_examples=50, deadline=None)
    @given(w0=weights, b0=biases)
    def test_doubled_backward_is_caught(self, w0, b0):
        w, b = ad.parameter(w0), ad.parameter(b0)
        [err] = ad.gradcheck_params(
            lambda: [two_tensor_loss(w, b, act=tanh_doubled_backward)], [w, b])
        assert err > 1e-4

    @settings(max_examples=30, deadline=None)
    @given(w0=weights, b0=biases)
    def test_several_outputs_match_one_at_a_time(self, w0, b0):
        w, b = ad.parameter(w0), ad.parameter(b0)
        errs = ad.gradcheck_params(lambda: three_losses(w, b), [w, b])
        alone = [ad.gradcheck_params(lambda: [three_losses(w, b)[k]], [w, b])
                 for k in range(3)]
        assert [[e] for e in errs] == alone
        assert errs[0] < 1e-6 and errs[2] < 1e-6
        assert errs[1] > 1e-4
        np.testing.assert_array_equal(w.data, w0)
        np.testing.assert_array_equal(b.data, b0)

    @staticmethod
    def flagged_params():
        # two parameters and a constant whose flag must stay False
        return (ad.parameter(X_CONST[:3, :2]), ad.parameter([0.1, -0.2]),
                ad.Tensor([0.3, 0.7]))

    def test_perturbed_passes_run_on_constants(self):
        w, b, c = params = self.flagged_params()
        seen = []

        def loss():
            seen.append(tuple(p.requires_grad for p in params))
            return [two_tensor_loss(w, b)]

        [err] = ad.gradcheck_params(loss, list(params))
        assert err < 1e-6
        assert seen[0] == (True, True, False)      # the analytic pass
        assert set(seen[1:]) == {(False, False, False)}
        assert len(seen) == 1 + 2 * (6 + 2 + 2)
        assert [p.requires_grad for p in params] == [True, True, False]

    def test_flags_restored_when_loss_fn_raises(self):
        w, b, c = params = self.flagged_params()
        calls = []

        def loss():
            calls.append(None)
            if len(calls) > 1:                     # the first perturbed pass
                raise RuntimeError("loss failed")
            return [two_tensor_loss(w, b)]

        with pytest.raises(RuntimeError, match="loss failed"):
            ad.gradcheck_params(loss, list(params))
        assert [p.requires_grad for p in params] == [True, True, False]


rows_by_cols = hnp.arrays(
    np.float64, st.tuples(st.integers(1, 12), st.integers(1, 70)),
    elements=st.floats(-500.0, 500.0))


class TestBitIdentity:
    """The tape's forward and backward arithmetic, pinned to the plain numpy
    expressions it must reproduce bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(x=rows_by_cols)
    def test_mean_rows_is_numpy_mean(self, x):
        assert np.array_equal(ad.mean_rows(x).data, x.mean(axis=0))

    @settings(max_examples=200, deadline=None)
    @given(x=rows_by_cols)
    def test_softplus_gradient_is_the_sigmoid(self, x):
        g = np.cos(x)   # any upstream gradient
        p = ad.parameter(x)
        ad.softplus(p)._backward_fn(g)
        assert np.array_equal(p.grad, g * (1 / (1 + np.exp(-x))))


def _vec(n=3, seed=0):
    return np.random.default_rng(seed).uniform(0.5, 1.5, size=n)


def _mat(r=4, c=3, seed=1):
    return np.random.default_rng(seed).uniform(0.5, 1.5, size=(r, c))


# every op of the tape, as (name, op, input arrays)
OPS = [
    ("add", ad.add, (_vec(), _vec(seed=2))),
    ("add-bias", ad.add, (_mat(), _vec())),
    ("sub", ad.sub, (_vec(), _vec(seed=2))),
    ("scale", lambda a: ad.scale(a, 0.5), (_vec(),)),
    ("matmul-2d", ad.matmul, (_mat(), _mat(3, 2))),
    ("matmul-1d", ad.matmul, (_mat(), _vec())),
    ("dot", ad.dot, (_vec(), _vec(seed=2))),
    ("tanh", ad.tanh, (_vec(),)),
    ("softplus", ad.softplus, (_vec(),)),
    ("exp", ad.exp, (_vec(),)),
    ("log", ad.log, (_vec(),)),
    ("tsum", ad.tsum, (_vec(),)),
    ("mean_rows", ad.mean_rows, (_mat(),)),
    ("l2_normalize", ad.l2_normalize, (_vec(),)),
    ("softmax_temp", lambda a: ad.softmax_temp(a, 0.5), (_vec(),)),
    ("cross_entropy", lambda a: ad.cross_entropy(a, 1), (_vec(),)),
]
# the public autodiff functions that build tensors but are not ops
NOT_OPS = {"as_tensor", "parameter", "gradcheck", "gradcheck_params"}


def test_ops_names_every_public_op():
    public = {name for name, f in vars(ad).items()
              if inspect.isfunction(f) and f.__module__ == ad.__name__
              and not name.startswith("_")}
    assert {name.split("-")[0] for name, _, _ in OPS} == public - NOT_OPS


class TestConstantsRecordNothing:
    @pytest.mark.parametrize("name,op,arrays", OPS, ids=[o[0] for o in OPS])
    def test_all_constant_inputs_give_a_bare_result(self, name, op, arrays):
        out = op(*[ad.Tensor(a) for a in arrays])
        assert out.requires_grad is False
        assert out._parents == ()
        assert out._backward_fn is None
        # while one parameter among the inputs puts the op on the tape
        for k in range(len(arrays)):
            args = [ad.parameter(a) if i == k else ad.Tensor(a)
                    for i, a in enumerate(arrays)]
            out = op(*args)
            assert out.requires_grad is True
            assert args[k] in out._parents
