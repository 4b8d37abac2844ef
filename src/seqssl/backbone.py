"""Tiny temporal encoder with classifier, spatial head and per-scale temporal heads.

The encoder is a per-frame affine map with tanh followed by one learned
temporal mixing layer: a row-stochastic T x T matrix applied over the time
axis, then the shifted softplus log(1 + exp(x)) - log 2, which is zero at
zero. Row-stochastic mixing keeps constant input constant while remaining
sensitive to frame order.

The same parameter layout is instantiated twice: a trainable student and an
EMA teacher whose tensors never require grad.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

INIT_SCALE = 0.1
# The per-frame map needs preactivations of order one for tanh curvature to
# react to amplitude changes, and the signed mixing filters need enough
# magnitude for the convex post-mixing nonlinearity to register within-clip
# swings; head weights stay small.
ENC_W1_SCALE = 1.0
ENC_MIX_SCALE = 4.0
TEMP_HEAD_SCALE = 0.01


@dataclass
class ModelDims:
    d_in: int
    d_h: int
    d_e: int
    d_k: int
    n_classes: int
    clip_len: int
    n_scales: int


@dataclass
class Clip:
    frames: np.ndarray          # (T, d_in)
    stride: int
    start: int = 0


@dataclass
class EncodedClip:
    """A clip's tokens as a plain array, and their temporal mean as the one
    tape node that every head reads."""
    tokens: np.ndarray          # (T, d_h)
    pooled: ad.Tensor           # (d_h,)


class ParamSet:
    """Named parameter tensors for one network role (student or teacher)."""

    def __init__(self, dims: ModelDims, params: dict):
        self.dims = dims
        self.params = params
        # encode's two constants, shared by all its calls with these
        # parameters: the uniform T x T mixing part and the T x d_h softplus
        # shift, read-only so that no caller can change them
        t = dims.clip_len
        self.unif = np.full((t, t), 1.0 / t)
        self.shift = np.full((t, dims.d_h), np.log(2.0))
        self.unif.flags.writeable = self.shift.flags.writeable = False

    @classmethod
    def init(cls, dims: ModelDims, rng: np.random.Generator, trainable: bool):
        def weight(*shape, scale=INIT_SCALE):
            return rng.uniform(-scale, scale, size=shape)

        arrays = {
            "enc.W1": weight(dims.d_in, dims.d_h, scale=ENC_W1_SCALE),
            "enc.b1": np.zeros(dims.d_h),
            "enc.M": weight(dims.clip_len, dims.clip_len, scale=ENC_MIX_SCALE),
            "cls.W": weight(dims.n_classes, dims.d_h),
            "cls.b": np.zeros(dims.n_classes),
            "spat.W": weight(dims.d_e, dims.d_h),
            "spat.b": np.zeros(dims.d_e),
        }
        for n in range(1, dims.n_scales + 1):
            # near-zero start: alignment targets open close to uniform, so
            # cross-scale pressure ramps up only once the heads carry signal
            # instead of random projections of the freshly-seeded encoder
            arrays[f"temp{n}.W"] = weight(dims.d_k, dims.d_h, scale=TEMP_HEAD_SCALE)
            arrays[f"temp{n}.b"] = np.zeros(dims.d_k)
        params = {k: ad.Tensor(v, requires_grad=trainable) for k, v in arrays.items()}
        return cls(dims, params)

    def copy_as_teacher(self):
        params = {k: ad.Tensor(v.data.copy()) for k, v in self.params.items()}
        return ParamSet(self.dims, params)

    def names(self):
        return sorted(self.params)

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()


def encode(params: ParamSet, clip: Clip) -> EncodedClip:
    """Tokens of one clip as an array, and their temporal mean as one tape
    node for the whole encoder."""
    dims = params.dims
    if clip.frames.shape != (dims.clip_len, dims.d_in):
        raise ValueError(
            f"clip frames {clip.frames.shape}, expected {(dims.clip_len, dims.d_in)}")
    x = np.asarray(clip.frames, dtype=np.float64)
    w1, b1, m = (params.params[k] for k in ("enc.W1", "enc.b1", "enc.M"))
    h = np.tanh(x @ w1.data + b1.data)
    # Temporal mixing with rows constrained to sum to 1: each row is the
    # uniform average plus a zero-mean free part. Constant-in-time input
    # therefore passes through unchanged (identical token rows), while the
    # zero-mean part can realize signed difference filters that pick up
    # within-clip variation. The uniform part is a constant of the ParamSet.
    unif = params.unif
    mix = (m.data - m.data @ unif) + unif
    # Shifted softplus (convex, zero at zero) after mixing: for a clip whose
    # features fluctuate in time, signed mixing outputs swing around their
    # mean and convexity turns that swing into a positive shift of the pooled
    # feature (Jensen's gap), so temporal variation survives the temporal
    # mean-pool. The -log(2) shift keeps activations roughly centered, so
    # normalized embeddings of different clips do not all collapse toward one
    # orthant direction. The shift is a constant of the ParamSet too.
    pre = mix @ h
    tokens = np.logaddexp(0.0, pre) - params.shift
    t = dims.clip_len

    # The backward replays, one for one, the accumulations that the op-by-op
    # tape (matmul, add, tanh, sub, softplus, mean_rows) made: only this node
    # reads its internal values, so the tape ran those ops back to back. The
    # sigmoid is left to the backward, so a teacher call never computes it.
    def bwd(g):
        # mean_rows' accumulation into the zeroed tokens gradient
        g_tokens = np.zeros(tokens.shape)
        g_tokens += g / t
        g = g_tokens * (1.0 / (1.0 + np.exp(-pre)))
        g_mix = g @ h.T
        g_h = mix.T @ g
        if m.requires_grad:
            m._accum(g_mix)
            m._accum((-g_mix) @ unif.T)
        g_h = g_h * (1.0 - h * h)
        if b1.requires_grad:
            b1._accum(g_h.sum(axis=0))
        if w1.requires_grad:
            w1._accum(x.T @ g_h)

    # np.mean's own sum and division, without its Python wrapper
    pooled = ad._node(np.add.reduce(tokens, axis=0) / t, (w1, b1, m), bwd)
    return EncodedClip(tokens=tokens, pooled=pooled)


def classify(params: ParamSet, enc: EncodedClip) -> ad.Tensor:
    """Class probability vector (softmax of the classifier head), one tape
    node whose backward replays the op-by-op tape's order: b, W, pooled."""
    w, b, pooled = params.params["cls.W"], params.params["cls.b"], enc.pooled
    z = w.data @ pooled.data + b.data
    z = z - z.max()
    e = np.exp(z)
    y = e / e.sum()

    def bwd(g):
        g = y * (g - np.dot(g, y))
        if b.requires_grad:
            b._accum(g)
        if w.requires_grad:
            w._accum(np.outer(g, pooled.data))
        if pooled.requires_grad:
            pooled._accum(w.data.T @ g)

    return ad._node(y, (w, b, pooled), bwd)


def spatial_embed(params: ParamSet, enc: EncodedClip) -> ad.Tensor:
    """L2-normalized spatial embedding of the pooled clip feature, one tape
    node whose backward replays the op-by-op tape (matmul, add,
    l2_normalize): b, W, pooled."""
    w, b, pooled = params.params["spat.W"], params.params["spat.b"], enc.pooled
    u, n = ad._unit(w.data @ pooled.data + b.data)

    def bwd(g):
        g = (g - u * np.dot(u, g)) / n
        if b.requires_grad:
            b._accum(g)
        if w.requires_grad:
            w._accum(np.outer(g, pooled.data))
        if pooled.requires_grad:
            pooled._accum(w.data.T @ g)

    # parents in this order, so that backward's search meets b, pooled and
    # W in the order it met them in the op-by-op chain
    return ad._node(u, (w, pooled, b), bwd)


def temporal_embed(params: ParamSet, scale_index: int, pooled) -> ad.Tensor:
    """Logits of the scale-specific temporal head on a pooled (d_h,) clip
    feature (a Tensor or an array), one tape node whose backward replays the
    op-by-op tape (matmul, add): b, W, pooled.

    A constant stack of features, such as the teacher's (B, d_h) targets,
    gives a (B, d_k) stack of logits, each row with the same bits as its
    feature alone: the head is a stacked matrix-vector product, not one
    matrix product over the stack, whose rounding differs. Only a single
    feature may reach the tape.
    """
    if not 1 <= scale_index <= params.dims.n_scales:
        raise IndexError(
            f"scale {scale_index} outside 1..{params.dims.n_scales}")
    pooled = ad.as_tensor(pooled)
    w = params.params[f"temp{scale_index}.W"]
    b = params.params[f"temp{scale_index}.b"]
    if pooled.data.ndim != 1 and (w.requires_grad or b.requires_grad
                                  or pooled.requires_grad):
        raise ValueError(f"temporal_embed: a {pooled.shape} stack of "
                         "features on the tape")

    def bwd(g):
        if b.requires_grad:
            b._accum(g)
        if w.requires_grad:
            w._accum(np.outer(g, pooled.data))
        if pooled.requires_grad:
            pooled._accum(w.data.T @ g)

    logits = np.matmul(w.data, pooled.data[..., None])[..., 0] + b.data
    # the search meets b, pooled and W in the op-by-op chain's order
    return ad._node(logits, (w, pooled, b), bwd)


def ema_update(teacher: ParamSet, student: ParamSet, m: float) -> None:
    """teacher <- m * teacher + (1 - m) * student, elementwise, in place."""
    for k in student.names():
        pt, ps = teacher.params[k], student.params[k]
        if pt.data.shape != ps.data.shape:
            raise ValueError(f"ema_update: {k} {pt.data.shape} vs {ps.data.shape}")
        pt.data = m * pt.data + (1.0 - m) * ps.data


def config_hash(resolved_config: dict) -> str:
    blob = json.dumps(resolved_config, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def save_checkpoint(path, student: ParamSet, teacher: ParamSet, cfg_hash: str) -> None:
    payload = {
        "config_hash": cfg_hash,
        "params": {
            "student": {k: v.data.tolist() for k, v in student.params.items()},
            "teacher": {k: v.data.tolist() for k, v in teacher.params.items()},
        },
    }
    write_atomic(path, lambda f: json.dump(payload, f))


def write_atomic(path, write) -> None:
    """Fill path by write(f), on a text file without newline translation,
    through a temporary file in the same directory and a rename, so that a
    reader sees the old file or the whole new one and a failed write leaves
    the old file as it was."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="") as f:
            write(f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise

