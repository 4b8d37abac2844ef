"""The autodiff core: build a small differentiable computation, run the
backward pass, and confirm every gradient against central finite differences.

The same gradcheck machinery later certifies every training loss.
"""

import numpy as np

import seqssl.autodiff as ad
from seqssl import backbone as bb

rng = np.random.default_rng(0)

# A miniature encoder + classifier from the package's own tape nodes: the
# temporal encoder (tanh, temporal mixing, softplus) -> mean-pool -> softmax
# head -> cross-entropy on class 2, plus a tenth of the cross-entropy on
# class 0 through the generic add and scale ops. Every parameter of the
# encoder and the classifier is learnable.
dims = bb.ModelDims(d_in=3, d_h=4, d_e=3, d_k=3, n_classes=4, clip_len=5,
                    n_scales=1)
params = bb.ParamSet.init(dims, rng, trainable=True)
clip = bb.Clip(frames=rng.normal(size=(5, 3)), stride=1)
learnable = [params.params[k] for k in ("enc.W1", "enc.b1", "enc.M",
                                        "cls.W", "cls.b")]
w = params.params["cls.W"]


def loss_of():
    probs = bb.classify(params, bb.encode(params, clip))
    return ad.add(ad.cross_entropy(probs, target=2),
                  ad.scale(ad.cross_entropy(probs, target=0), 0.1))


loss = loss_of()
loss.backward()
print(f"loss value          : {loss.item():.6f}")
print(f"dL/dW (first row)   : {w.grad[0]}")

# gradcheck perturbs every entry of every learnable tensor by +-1e-5 and
# compares the numeric slope against the analytic gradient; the returned
# number is the worst relative error.
[err] = ad.gradcheck_params(lambda: [loss_of()], learnable)
print(f"max relative error  : {err:.3e}")
assert err < 1e-6

# The graph refuses silent shape mistakes instead of broadcasting:
try:
    ad.add(w, clip.frames)
except ValueError as e:
    print(f"shape guard         : {e}")
