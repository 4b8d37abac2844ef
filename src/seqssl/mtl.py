"""Multi-scale temporal learning: clip sampling over strides, cross-scale
calibration of long-term key tokens against the short-term query, and the
temperature-sharpened alignment loss."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from . import autodiff as ad
from .backbone import Clip, ParamSet, encode, temporal_embed
from .synthgen import clip_span, extract_clip


@dataclass
class CalibrationResult:
    attention: np.ndarray          # (T,)
    calibrated_tokens: np.ndarray  # (T, d_h)


def sample_multiscale(video_frames: np.ndarray, strides, clip_len: int,
                      rng: np.random.Generator) -> List[Clip]:
    """One clip per stride, each from an independent random start offset:
    the short-term clip (first stride) first, then the long-term clips."""
    length = video_frames.shape[0]
    need = clip_span(clip_len, max(strides))
    if length < need:
        raise ValueError(f"video length {length}, need {need}")
    clips = []
    for stride in strides:
        start = int(rng.integers(0, length - clip_span(clip_len, stride) + 1))
        clips.append(extract_clip(video_frames, start, stride, clip_len))
    return clips


def calibrate(query_tokens: np.ndarray,
              key_tokens: np.ndarray) -> CalibrationResult:
    """Per-frame cosine attention between query and key token rows; each key
    row is multiplied by its signed cosine to the matching query row. Frames
    orthogonal to the query go to zero, and anti-correlated frames are
    sign-flipped at full weight rather than suppressed (the attention is not
    clamped at zero). Both sides are teacher constants, so this is plain
    array arithmetic with no tape."""
    q, k = query_tokens, key_tokens
    if q.ndim != 2 or q.shape != k.shape:
        raise ValueError(f"calibrate: {q.shape} vs {k.shape}")
    nq = np.linalg.norm(q, axis=1)
    nk = np.linalg.norm(k, axis=1)
    if nq.min() < ad.ETA_NORM or nk.min() < ad.ETA_NORM:
        raise ValueError("calibrate on near-zero row")
    attention = (q * k).sum(axis=1) / (nq * nk)
    return CalibrationResult(attention=attention,
                             calibrated_tokens=k * attention[:, None])


def alignment_loss(student_logits, teacher_logits, tau_s: float,
                   tau_t: float) -> ad.Tensor:
    """Cross-entropy H(P^k, P^q) between the sharpened teacher distribution
    and the student distribution, one tape node.

    The teacher logits are a constant (an array or a Tensor without grad);
    a Tensor that requires grad raises ValueError rather than losing its
    gradient. The backward replays the op-by-op tape (scale by -1, dot, log,
    softmax_temp) on the student logits.
    """
    if isinstance(teacher_logits, ad.Tensor) and teacher_logits.requires_grad:
        raise ValueError("alignment_loss: the teacher logits must be a "
                         "constant, got a Tensor that requires grad")
    z_q = ad.as_tensor(student_logits)
    p_q = ad._softmax(z_q.data, tau_s)
    p_k = ad._softmax(ad.as_tensor(teacher_logits).data, tau_t)

    def bwd(g):
        g = (g * -1.0) * p_k / p_q
        z_q._accum(p_q * (g - np.dot(g, p_q)) / tau_s)

    return ad._node(np.dot(p_k, np.log(p_q)) * -1.0, (z_q,), bwd)


def teacher_scale_logits(teacher: ParamSet, weak: List[Clip]):
    """Uncentred teacher logits of the calibrated long-term tokens, one array
    per long-term scale. ``weak`` holds the weak views, short-term clip first.

    The calibration query is the teacher's view of the short clip: the whole
    target side stays constant in student parameters, so alignment cannot be
    gamed by steering the attention instead of the representation, and the
    calibration runs on the teacher's token arrays.
    """
    q_tokens = encode(teacher, weak[0]).tokens.data
    out = []
    for n, long_clip in enumerate(weak[1:], start=1):
        calib = calibrate(q_tokens, encode(teacher, long_clip).tokens.data)
        out.append(temporal_embed(teacher, n, calib.calibrated_tokens).data)
    return out


def mtl_loss_from_clips(strong_short: Clip, student: ParamSet, targets,
                        tau_s: float, tau_t: float) -> ad.Tensor:
    """Mean over the long-term scales of the alignment loss between the
    student's temporal logits of the strong short-term clip and
    ``targets[n-1]``, the teacher logits of scale n (constants)."""
    qstar_tokens = encode(student, strong_short).tokens    # aligned student repr
    total = None
    for n, target in enumerate(targets, start=1):
        loss_n = alignment_loss(temporal_embed(student, n, qstar_tokens),
                                target, tau_s, tau_t)
        total = loss_n if total is None else ad.add(total, loss_n)
    return ad.scale(total, 1.0 / len(targets))
