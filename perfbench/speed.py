"""Machine-speed calibration of the untraced measurements.

The benchmark's machine is shared. Other tenants slow its cores by up to 2.3
times, for seconds to minutes at a time, and the slowdown counts as CPU time
as well as wall time, so neither clock alone is steady. While a measured
piece of work runs, a ``Sampler`` interrupts it every ``PERIOD_S`` of wall
time (``SIGALRM``) and runs a fixed calibration slice in the same process.
The slices sample the speed of the same core at the same moments as the work.
Their time is taken out of the work's time, and the work done since the
previous slice is scaled by ``reference slice time / this slice's time``:
the figure reads in seconds at the reference speed. Scaling each stretch by
its own slice, rather than the whole by the mean slice, keeps the estimate
right when the speed changes within the work. A change to the program leaves
the slices as they are, so it moves the scaled figure by its full share.

A slice has two parts, because a neighbour slows different kinds of code by
different amounts, and the program mixes them:

- ``interpreter_part``: object creation, attribute access, small tuples and
  list building, as module import, the program's autodiff graph and its
  Python control flow are.
- ``_Tape``: the forward and backward pass of a tiny clip encoder on the
  benchmark's own closure-based tape over small float64 numpy arrays, as the
  program's encoder and losses are. It is the benchmark's code, not the
  program's.

Set-up samples use the interpreter part alone: set-up includes numpy's
import, and a signal handler must not import a module while another import
is under way.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.02
# set-up takes about 0.1 s at the reference speed: sample it 4 times as often
SETUP_PERIOD_S = 0.005


class _Node:
    __slots__ = ("value", "parents")

    def __init__(self, value, parents=()):
        self.value = value
        self.parents = parents


def interpreter_part(iters=360):
    acc = 0
    for i in range(iters):
        a = _Node(i)
        b = _Node(i + 1, (a,))
        c = _Node(b.value * 2, (a, b))
        acc += len(c.parents) + c.value % 7
        acc += sum([p.value for p in c.parents])
    return acc


class _Var:
    __slots__ = ("data", "grad", "parents", "back")

    def __init__(self, data, parents=(), back=None):
        self.data, self.grad = data, None
        self.parents, self.back = parents, back

    def acc(self, g):
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g


class _Tape:
    """Forward and backward of tanh(X W1 + b1) -> M . -> softplus -> mean
    pool -> W2 -> softmax cross-entropy, on a closure-based tape."""

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((8, 16))
        self.w1 = rng.standard_normal((16, 32)) * 0.2
        self.b1 = np.zeros(32)
        self.m = rng.standard_normal((8, 8)) * 0.1
        self.w2 = rng.standard_normal((32, 8)) * 0.2

    @staticmethod
    def matmul(a, b):
        def back(g):
            a.acc(g @ b.data.T)
            b.acc(a.data.T @ g)
        return _Var(a.data @ b.data, (a, b), back)

    @staticmethod
    def add_row(a, b):
        def back(g):
            a.acc(g)
            b.acc(g.sum(axis=0))
        return _Var(a.data + b.data, (a, b), back)

    def tanh(self, a):
        y = self.np.tanh(a.data)
        return _Var(y, (a,), lambda g: a.acc(g * (1.0 - y * y)))

    def softplus(self, a):
        np = self.np
        return _Var(np.logaddexp(0.0, a.data), (a,),
                    lambda g: a.acc(g / (1.0 + np.exp(-a.data))))

    def mean_rows(self, a):
        n = a.data.shape[0]
        return _Var(a.data.mean(axis=0, keepdims=True), (a,),
                    lambda g: a.acc(self.np.broadcast_to(g / n,
                                                         a.data.shape)))

    def xent(self, z, k):
        np = self.np
        e = np.exp(z.data - z.data.max())
        p = e / e.sum()

        def back(g):
            d = p.copy()
            d[0, k] -= 1.0
            z.acc(g * d)
        return _Var(np.array(-np.log(p[0, k])), (z,), back)

    def backward(self, root):
        topo, seen, stack = [], set(), [(root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
            elif id(node) not in seen:
                seen.add(id(node))
                stack.append((node, True))
                stack.extend((p, False) for p in node.parents)
        root.grad = self.np.ones_like(root.data)
        for node in reversed(topo):
            if node.back is not None:
                node.back(node.grad)

    def __call__(self, reps=5):
        loss = None
        for k in range(reps):
            w1, b1 = _Var(self.w1), _Var(self.b1)
            m, w2 = _Var(self.m), _Var(self.w2)
            h = self.tanh(self.add_row(self.matmul(_Var(self.x), w1), b1))
            pooled = self.mean_rows(self.softplus(self.matmul(m, h)))
            loss = self.xent(self.matmul(pooled, w2), k)
            self.backward(loss)
        return float(loss.data)


# Reference time of each part: about the fastest it ran on the machine the
# README describes, when no other tenant slowed it.
REF_INTERPRETER_S = 3.7e-4
REF_TAPE_S = 3.5e-4


class Sampler:
    """Context manager that runs a calibration slice every ``PERIOD_S`` and
    scales the enclosed wall and CPU time to the reference speed.

    ``with_tape=False`` leaves out the numpy part, for work that imports
    numpy; ``period_s`` sets how often a slice runs. After the block,
    ``wall_s`` and ``cpu_s`` are the scaled figures and ``raw_wall_s``,
    ``raw_cpu_s``, ``slices`` and ``speed`` (reference slice time over
    measured slice time, 1 at the reference speed) are kept for reporting.
    """

    def __init__(self, with_tape=True, period_s=PERIOD_S):
        self.period_s = period_s
        self.tape = _Tape() if with_tape else None
        self.ref_s = REF_INTERPRETER_S + (REF_TAPE_S if with_tape else 0.0)
        self.slices = 0
        self.slice_wall = 0.0
        self.wall_s = self.cpu_s = 0.0

    def _run_slice(self, *_):
        w0, c0 = time.perf_counter(), time.process_time()
        interpreter_part()
        if self.tape is not None:
            self.tape()
        w1, c1 = time.perf_counter(), time.process_time()
        # the work since the previous slice ran at this slice's speed
        self.wall_s += (w0 - self._wall_mark) * self.ref_s / (w1 - w0)
        self.cpu_s += (c0 - self._cpu_mark) * self.ref_s / (c1 - c0)
        self._wall_mark, self._cpu_mark = w1, c1
        self.slice_wall += w1 - w0
        self.slices += 1

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._run_slice)
        self._wall0 = self._wall_mark = time.perf_counter()
        self._cpu0 = self._cpu_mark = time.process_time()
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.raw_wall_s = time.perf_counter() - self._wall0
        self.raw_cpu_s = time.process_time() - self._cpu0
        # the work after the last slice (all of it, if none ran) is scaled
        # by one more slice
        self._run_slice()
        self.speed = self.ref_s * self.slices / self.slice_wall
        return False
