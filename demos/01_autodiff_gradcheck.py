"""The autodiff core: build a small differentiable computation, run the
backward pass, and confirm every gradient against central finite differences.

The same gradcheck machinery later certifies every training loss.
"""

import numpy as np

import seqssl.autodiff as ad

rng = np.random.default_rng(0)

# A miniature "encoder + classifier": matmul -> softplus -> mean-pool ->
# softmax -> cross-entropy, with softplus written as log(1 + exp(.)) from the
# tape's own ops. Only `w` is treated as learnable.
x = ad.Tensor(rng.normal(size=(5, 3)))
w = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
b = ad.Tensor(rng.normal(size=4), requires_grad=True)
ones = ad.Tensor(np.ones((5, 4)))


def loss_of(weights):
    h = ad.log(ad.add(ad.exp(ad.add(ad.matmul(x, weights), b)), ones))
    pooled = ad.mean_rows(h)
    probs = ad.softmax_temp(pooled, 0.5)
    return ad.cross_entropy(probs, target=2)

loss = loss_of(w)
loss.backward()
print(f"loss value          : {loss.item():.6f}")
print(f"dL/dw (first row)   : {w.grad[0]}")

# gradcheck perturbs every entry of w by +-1e-5 and compares the numeric
# slope against the analytic gradient; the returned number is the worst
# relative error.
err = ad.gradcheck(loss_of, w)
print(f"max relative error  : {err:.3e}")
assert err < 1e-6

# The graph refuses silent shape mistakes instead of broadcasting:
try:
    ad.matmul(w, x)
except ValueError as e:
    print(f"shape guard         : {e}")
