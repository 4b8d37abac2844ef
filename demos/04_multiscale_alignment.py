"""Cross-scale temporal alignment: sample a short-stride clip and longer-
stride clips from the same synthetic video, calibrate the long clips against
the short one with per-frame cosine attention, and compute the sharpened
alignment loss per scale.
"""

import numpy as np

from seqssl import mtl
from seqssl import trainer as tr
from seqssl.backbone import encode, temporal_embed
from seqssl.synthgen import (DatasetConfig, SynthDataset, clip_span,
                             strong_augment, weak_augment)

ds = SynthDataset(DatasetConfig(seed=0))
cfg = tr.TrainConfig(seed=0)
state = tr.TrainerState(cfg, ds)
rng = np.random.default_rng(4)

rec = ds.unlabeled[0]
frames = ds.frames(rec)
clips = mtl.sample_multiscale(frames, cfg.strides, cfg.clip_len, rng)
spans = [(c.stride, clip_span(cfg.clip_len, c.stride)) for c in clips]
print(f"clip strides and frame spans: {spans}")

# Calibration: identical token sequences get attention exactly 1 everywhere;
# unrelated content is scaled down before alignment.
q = encode(state.student, clips[0]).tokens
k_same = mtl.calibrate(q, q)
print(f"self-calibration attention  : {k_same.attention.round(6)}")

# the views are drawn in training's order (weak short, strong short, then
# the weak longs); the teacher's logits come for a batch of items, here one
# (row 0), the trainer centres them by the state's running centres (zero at
# the start of training) and the loss aligns the student to those targets
weak = [weak_augment(clips[0], rng, frames)]
strong_short = strong_augment(clips[0], rng, frames)
weak += [weak_augment(c, rng, frames) for c in clips[1:]]
targets = [z[0] - c for z, c in zip(
    mtl.teacher_scale_logits(state.teacher, [weak]), state.mtl_centers)]
loss = mtl.mtl_loss_from_clips(strong_short, state.student, targets, tr.TAU_S,
                               tr.TAU_T)
print(f"alignment loss (mean over scales): {loss.item():.4f}")
q_teacher = encode(state.teacher, weak[0]).tokens
pooled = encode(state.student, strong_short).pooled
for n, target in enumerate(targets, start=1):
    scale_loss = mtl.alignment_loss(temporal_embed(state.student, n, pooled),
                                    target, tr.TAU_S, tr.TAU_T).item()
    mean_attn = mtl.calibrate(
        q_teacher, encode(state.teacher, weak[n]).tokens).attention.mean()
    stride = cfg.strides[n]
    print(f"  scale {n} (stride {stride:2d}): loss={scale_loss:.4f}, "
          f"mean attention={mean_attn:.4f}")
