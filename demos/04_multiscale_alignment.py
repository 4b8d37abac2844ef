"""Cross-scale temporal alignment: sample a short-stride clip and longer-
stride clips from the same synthetic video, calibrate the long clips against
the short one with per-frame cosine attention, and compute the sharpened
alignment loss per scale.
"""

import numpy as np

from seqssl import mtl
from seqssl import trainer as tr
from seqssl.backbone import encode
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
q = encode(state.student, clips[0]).tokens.data
k_same = mtl.calibrate(q, q)
print(f"self-calibration attention  : {k_same.attention.round(6)}")

# the views are drawn in training's order (weak short, strong short, then
# the weak longs); the teacher logits are centred by the state's running
# centres (zero at the start of training)
weak = [weak_augment(clips[0], rng, frames)]
strong_short = strong_augment(clips[0], rng, frames)
weak += [weak_augment(c, rng, frames) for c in clips[1:]]
loss, per_scale = mtl.mtl_loss_from_clips(
    weak, strong_short, state.student, state.teacher, tr.TAU_S, tr.TAU_T,
    state.mtl_centers)
print(f"alignment loss (mean over scales): {loss.item():.4f}")
for n, (scale_loss, mean_attn) in enumerate(per_scale, start=1):
    stride = cfg.strides[n]
    print(f"  scale {n} (stride {stride:2d}): loss={scale_loss:.4f}, "
          f"mean attention={mean_attn:.4f}")
