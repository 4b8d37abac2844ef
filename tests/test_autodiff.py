import ast
import inspect
import os
import re

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqssl import autodiff as ad
from test_backbone import (REFERENCE_OPS, add_bias, dot, exp, l2_normalize,
                           log, matmul, mean_rows, softmax_temp, softplus,
                           sub, tanh, tsum)


class TestMatmul:
    def test_identity(self):
        i2 = np.eye(2)
        out = matmul(ad.Tensor(i2), ad.Tensor(i2))
        assert np.array_equal(out.data, i2)

    def test_identity_right(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(ad.Tensor(a), ad.Tensor(np.eye(2)))
        assert np.array_equal(out.data, a)

    def test_hand_product(self):
        out = matmul(ad.Tensor([[1.0, 2.0]]), ad.Tensor([[3.0], [4.0]]))
        assert out.data.item() == 11.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError,
                           match=r"matmul: inner dims \(2, 3\) @ \(2, 3\)"):
            matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))


class TestL2Normalize:
    def test_three_four(self):
        out = l2_normalize(ad.Tensor([3.0, 4.0]))
        np.testing.assert_allclose(out.data, [0.6, 0.8], atol=1e-15)

    def test_already_unit(self):
        out = l2_normalize(ad.Tensor([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1.0, 0.0, 0.0])

    def test_zero_vector(self):
        with pytest.raises(ValueError, match="below floor"):
            l2_normalize(ad.Tensor([0.0, 0.0]))


class TestSoftmaxTemp:
    def test_uniform(self):
        out = softmax_temp(ad.Tensor([2.0, 2.0, 2.0]), 0.5)
        np.testing.assert_allclose(out.data, np.ones(3) / 3)

    def test_two_one(self):
        out = softmax_temp(ad.Tensor([2.0, 1.0]), 1.0)
        np.testing.assert_allclose(out.data, [0.7311, 0.2689], atol=1e-4)

    def test_sharpening(self):
        out = softmax_temp(ad.Tensor([2.0, 1.0]), 0.01)
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            logits = rng.uniform(-50, 50, size=8)
            out = softmax_temp(ad.Tensor(logits), 0.7)
            assert abs(out.data.sum() - 1.0) < 1e-12
            shifted = softmax_temp(ad.Tensor(logits + 123.0), 0.7)
            np.testing.assert_allclose(out.data, shifted.data, atol=1e-12)


class TestCrossEntropy:
    def test_perfect(self):
        assert ad.cross_entropy(ad.Tensor([0.0, 1.0, 0.0]), 1).item() == 0.0

    def test_uniform4(self):
        out = ad.cross_entropy(ad.Tensor(np.ones(4) / 4), 2)
        assert out.item() == pytest.approx(np.log(4), abs=1e-12)

    def test_uniform2_logits(self):
        probs = softmax_temp(ad.Tensor([0.3, 0.3]), 1.0)
        out = ad.cross_entropy(probs, 0)
        assert out.item() == pytest.approx(np.log(2), abs=1e-12)

    def test_bad_index(self):
        with pytest.raises(IndexError, match="class index 2 for 2 classes"):
            ad.cross_entropy(ad.Tensor([0.5, 0.5]), 2)


class TestBackward:
    def test_sum_grad(self):
        w = ad.parameter([1.0, 2.0, 3.0])
        tsum(w).backward()
        np.testing.assert_array_equal(w.grad, [1.0, 1.0, 1.0])

    def test_quadratic_grad(self):
        w = ad.parameter([1.0, -2.0, 0.5])
        loss = ad.scale(dot(w, w), 0.5)
        loss.backward()
        np.testing.assert_allclose(w.grad, w.data)

    def test_not_scalar(self):
        w = ad.parameter([1.0, 2.0])
        with pytest.raises(ValueError, match="backward requires a scalar"):
            w.backward()

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))

        def run():
            w = ad.parameter(a)
            loss = tsum(tanh(matmul(w, ad.Tensor(rng.standard_normal(4)))))
            return loss

        rng = np.random.default_rng(0)
        a1 = run(); rng = np.random.default_rng(0); a2 = run()
        w1, w2 = a1._parents[0]._parents[0]._parents[0], a2._parents[0]._parents[0]._parents[0]
        a1.backward(); a2.backward()
        assert np.array_equal(w1.grad, w2.grad)

    def test_teacher_constant_has_no_grad(self):
        const = ad.Tensor(np.ones(3))
        w = ad.parameter(np.ones(3))
        dot(const, w).backward()
        assert const.grad is None


class TestGradcheck:
    def test_dot_self(self):
        err = ad.gradcheck(lambda w: dot(w, w), ad.Tensor([1.0, -2.0, 3.0]))
        assert err < 1e-6

    def test_softmax_dot_composite(self):
        c = np.array([0.2, -1.0, 0.7])

        def f(w):
            return dot(softmax_temp(w, 0.3), ad.Tensor(c))

        err = ad.gradcheck(f, ad.Tensor([0.1, 0.5, -0.4]))
        assert err < 1e-4

    def test_constant(self):
        err = ad.gradcheck(lambda w: ad.scale(tsum(w), 0.0), ad.Tensor([1.0, 2.0]))
        assert err == 0.0

    def test_every_op_at_random_points(self):
        # composite touching matmul, add_bias, add, tanh, exp, log,
        # mean_rows, l2_normalize, dot, softmax_temp, cross_entropy
        tgt = ad.Tensor(np.random.default_rng(11).normal(size=3))

        def f(w):
            m = tanh(add_bias(matmul(ad.Tensor(rng0), w), ad.Tensor(bias)))
            pooled = mean_rows(m)
            u = l2_normalize(pooled)
            c = dot(u, tgt)
            p = softmax_temp(pooled, 0.5)
            ce = ad.cross_entropy(p, 1)
            return ad.add(ad.add(c, ce), log(exp(tsum(m))))

        for trial in range(10):
            rng = np.random.default_rng(100 + trial)
            rng0 = rng.normal(size=(4, 3))
            bias = rng.normal(size=3)
            point = ad.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
            assert ad.gradcheck(f, point) < 1e-4


X_CONST = np.linspace(-0.5, 0.5, 12).reshape(4, 3)


def two_tensor_loss(w, b, act=tanh):
    """Scalar loss of a (3, 2) weight and a (2,) bias through most ops."""
    h = act(add_bias(matmul(ad.Tensor(X_CONST), w), b))
    pooled = mean_rows(h)
    ce = ad.cross_entropy(softmax_temp(pooled, 0.5), 0)
    spread = log(tsum(exp(ad.scale(pooled, 0.5))))
    return ad.add(sub(ce, spread), softplus(dot(b, b)))


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
            ad.add(first, two_tensor_loss(w, b, act=softplus))]


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
        assert np.array_equal(mean_rows(x).data, x.mean(axis=0))


def _vec(n=3, seed=0):
    return np.random.default_rng(seed).uniform(0.5, 1.5, size=n)


@pytest.mark.parametrize("sa,sb", [((4, 3), (3,)), ((3,), (4, 3)),
                                   ((3,), ()), ((2, 3), (3, 2))])
def test_add_takes_equal_shapes_only(sa, sb):
    # a bias over rows is the tests' add_bias; add broadcasts nothing
    with pytest.raises(ValueError,
                       match=re.escape(f"add: {sa} vs {sb}")):
        ad.add(ad.parameter(np.ones(sa)), ad.Tensor(np.ones(sb)))


# every op of the tape, as (name, op, input arrays)
OPS = [
    ("add", ad.add, (_vec(), _vec(seed=2))),
    ("scale", lambda a: ad.scale(a, 0.5), (_vec(),)),
    ("cross_entropy", lambda a: ad.cross_entropy(a, 1), (_vec(),)),
]
# the public autodiff functions that build tensors but are not ops
NOT_OPS = {"as_tensor", "parameter", "gradcheck", "gradcheck_params"}


def public_ops():
    return {name for name, f in vars(ad).items()
            if inspect.isfunction(f) and f.__module__ == ad.__name__
            and not name.startswith("_")} - NOT_OPS


def test_ops_names_every_public_op():
    assert {name.split("-")[0] for name, _, _ in OPS} == public_ops()


def test_every_public_op_has_a_caller_in_the_package():
    # an op that only the tests call belongs with the reference ops in
    # tests/test_backbone.py; a caller is a call of the op through a name
    # bound to the autodiff module or imported from it
    pkg = os.path.dirname(ad.__file__)
    called = set()
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py") or name == "autodiff.py":
            continue
        with open(os.path.join(pkg, name)) as f:
            tree = ast.parse(f.read())
        modules, direct = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None and alias.name == "autodiff":
                        modules.add(alias.asname or alias.name)
                    elif node.module == "autodiff":
                        direct.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                    and f.value.id in modules):
                called.add(f.attr)
            elif isinstance(f, ast.Name) and f.id in direct:
                called.add(f.id)
    assert public_ops() - called == set()


class TestConstantsRecordNothing:
    @pytest.mark.parametrize("name,op,arrays", OPS + REFERENCE_OPS,
                             ids=[o[0] for o in OPS + REFERENCE_OPS])
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
