"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Only the operations the training losses actually need are provided. A tensor
without ``requires_grad`` is a plain constant: no graph is recorded through
it, so teacher-side computations cost nothing at backward time. On the
forward side an op whose inputs are all constants returns a bare result: it
records no parents or backward closure on the tape, and work that only the
backward pass needs (such as the encoder's sigmoid) is left to the closure.

Six chains of ops are fused into one node each through ``_node``, because
on the training path their cost was per-node overhead rather than
arithmetic:

- ``backbone.encode``: matmul, add, tanh, sub, softplus (the tokens of one
  clip);
- ``backbone.classify``: matmul, add, softmax_temp;
- ``backbone.spatial_embed``: matmul, add, l2_normalize;
- ``backbone.temporal_embed``: mean_rows, matmul, add;
- ``mtl.alignment_loss``: softmax_temp of the student and of the constant
  teacher logits, log, dot, scale by -1;
- ``acl.acl_loss``: the InfoNCE, matmul, scale, exp and tsum for the
  positives and for the negatives, add, log, log, sub.

Their backward closures make the same ``_accum`` calls, with the same
expressions in the same order, as the op-by-op chains did on the tape, and
each node's parents are ordered so that ``backward``'s depth-first search
meets them as it met the chain's, so the gradients are bit-identical. The
tests keep those chains as the reference that the fused nodes are checked
against (``tests/test_backbone.py``), together with the ops that only the
chains use: ``matmul``, ``exp``, ``log``, ``softmax_temp``, ``tanh``,
``softplus``, ``sub``, ``dot``, ``tsum`` and ``l2_normalize``.
"""

from __future__ import annotations

import numpy as np


ETA_NORM = 1e-12


class Tensor:
    """A float64 array plus an optional backward closure.

    The graph is held through ``_parents`` references; ``backward`` does an
    iterative topological sort, so it visits each node exactly once and is
    deterministic.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward_fn = None

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    def _accum(self, g):
        if self.grad is None:
            self.grad = np.zeros(self.data.shape)
        self.grad += g

    def zero_grad(self):
        self.grad = None

    def backward(self):
        if self.data.shape != ():
            raise ValueError(f"backward requires a scalar, got shape {self.data.shape}")
        # tensors hash by identity, so the visited set holds the nodes
        topo = []
        visited = set()
        stack = [(self, False)]
        push, pop, visit = stack.append, stack.pop, visited.add
        while stack:
            node, processed = pop()
            if processed:
                topo.append(node)
                continue
            if node in visited:
                continue
            visit(node)
            push((node, True))
            for p in node._parents:
                if p.requires_grad and p not in visited:
                    push((p, False))
        self._accum(np.ones(()))
        for node in reversed(topo):
            if node._backward_fn is not None:
                node._backward_fn(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data):
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def _node(data, parents, backward_fn):
    out = Tensor(data)
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = parents
            out._backward_fn = backward_fn
            break
    return out


def add(a, b):
    """Elementwise sum; a 1-D bias may be broadcast over the rows of a 2-D tensor."""
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.data.shape, b.data.shape
    if sa == sb:
        def bwd(g):
            if a.requires_grad:
                a._accum(g)
            if b.requires_grad:
                b._accum(g)
    elif len(sa) == 2 and len(sb) == 1 and sa[1] == sb[0]:
        def bwd(g):
            if a.requires_grad:
                a._accum(g)
            if b.requires_grad:
                b._accum(g.sum(axis=0))
    else:
        raise ValueError(f"add: {sa} vs {sb}")
    return _node(a.data + b.data, (a, b), bwd)


def scale(a, c):
    a = as_tensor(a)
    c = float(c)

    def bwd(g):
        a._accum(g * c)

    return _node(a.data * c, (a,), bwd)


def mean_rows(a):
    """Mean over axis 0 of a 2-D tensor (temporal pooling)."""
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ValueError(f"mean_rows expects 2-D, got {a.shape}")
    t = a.data.shape[0]

    def bwd(g):
        # += in _accum broadcasts the row gradient over the t rows
        a._accum(g / t)

    # np.mean's own sum and division, without its Python wrapper
    return _node(np.add.reduce(a.data, axis=0) / t, (a,), bwd)


def _unit(v):
    """A 1-D array v's unit vector v / ||v|| and its norm ||v||; a norm
    below ETA_NORM raises."""
    n = np.linalg.norm(v)
    if n < ETA_NORM:
        raise ValueError(f"norm {n} below floor {ETA_NORM}")
    return v / n, n


def _softmax(x, tau):
    """Temperature softmax of a 1-D array x, subtract-max stabilized."""
    if x.ndim != 1:
        raise ValueError(f"softmax expects 1-D, got {x.shape}")
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    z = x / tau
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def cross_entropy(x, target):
    """-log p(target) of a probability vector x."""
    x = as_tensor(x)
    if x.data.ndim != 1:
        raise ValueError(f"cross_entropy expects 1-D, got {x.shape}")
    k = x.data.shape[0]
    if not (isinstance(target, (int, np.integer)) and 0 <= target < k):
        raise IndexError(f"class index {target} for {k} classes")

    def bwd(g):
        gz = np.zeros_like(x.data)
        gz[target] = -float(g) / x.data[target]
        x._accum(gz)

    return _node(-np.log(x.data[target]), (x,), bwd)


def gradcheck_params(loss_fn, params):
    """Max relative errors between backward() gradients and central
    differences, over every entry of every tensor in ``params``.

    ``loss_fn()`` must rebuild a sequence of scalar losses from the current
    ``.data`` of ``params``; the result holds one worst error per scalar, in
    the same order. Each entry is perturbed in place to +1e-5 and -1e-5
    once, every scalar is read from those two calls, and the entry is
    restored. Those calls run with ``requires_grad`` off on every tensor in
    ``params``; each tensor's flag is restored afterwards, also on error.
    Each scalar's analytic gradient comes from a fresh ``loss_fn()`` and one
    ``backward()``: the tape accumulates into intermediate nodes, so a graph
    cannot be backpropagated twice. Relative error per entry is
    |analytic - numeric| / max(1, |analytic|).
    """
    outs = loss_fn()
    analytic = []
    for k in range(len(outs)):
        if k:
            outs = loss_fn()
        for p in params:
            p.zero_grad()
        outs[k].backward()
        analytic.append([p.grad.copy() if p.grad is not None
                         else np.zeros_like(p.data) for p in params])
    worst = [0.0] * len(analytic)
    eps = 1e-5  # the central-difference step
    # forward values do not depend on the tape, so the perturbed passes run
    # on constants and record nothing; each flag comes back afterwards
    flags = [p.requires_grad for p in params]
    try:
        for p in params:
            p.requires_grad = False
        for i, p in enumerate(params):
            for idx in np.ndindex(p.data.shape):
                keep = p.data[idx]
                p.data[idx] = keep + eps
                f_plus = [t.item() for t in loss_fn()]
                p.data[idx] = keep - eps
                f_minus = [t.item() for t in loss_fn()]
                p.data[idx] = keep
                for k, grads in enumerate(analytic):
                    g = grads[i][idx]
                    numeric = (f_plus[k] - f_minus[k]) / (2.0 * eps)
                    worst[k] = max(worst[k],
                                   abs(g - numeric) / max(1.0, abs(g)))
    finally:
        for p, flag in zip(params, flags):
            p.requires_grad = flag
    return worst


def gradcheck(f, point):
    """gradcheck_params of the single scalar f at a copy of one point (a
    Tensor or an array)."""
    p = parameter(point.data if isinstance(point, Tensor) else point)
    return gradcheck_params(lambda: [f(p)], [p])[0]
