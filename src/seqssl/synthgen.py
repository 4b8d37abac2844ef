"""Deterministic synthetic sequence dataset.

Each class is a unit spatial signature modulated by a periodic amplitude
motif: frame_t = signature * motif(t) + noise. Classes come in confusable
pairs that differ in exactly one factor:

* spatially-confusable pair: identical signatures and frequency, different
  waveform shape (only temporal structure separates them);
* temporally-confusable pair: identical motifs, near-orthogonal signatures
  (only spatial structure separates them).

Waveform shape shows up as the within-clip amplitude distribution, a
statistic that survives resampling at any clip stride, so short- and
long-stride views of a video carry consistent temporal evidence.

A video is pure in (class_id, video_index, seed, config), and
SynthDataset.frames memoizes each video it makes. A video is one
(video_len, d_in) float64 array: 38.4 KB at the default 300 x 16, and about
18 MB for the 480 videos (400 training, 80 eval) a default run touches. The
cache stays because videos are revisited: a 5-epoch run of the benchmark's
train-both spec asks for 3,110 videos, and regenerating one costs about
0.14 ms on a 2-core Xeon, most of it the seeded noise draw.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List

import numpy as np

from . import autodiff as ad
from .backbone import Clip


@dataclass
class DatasetConfig:
    n_classes: int = 8
    per_class: int = 50
    labeled_fraction: float = 0.05
    d_in: int = 16
    video_len: int = 300
    noise: float = 0.05
    seed: int = 0


@dataclass
class SynthClass:
    class_id: int
    spatial_signature: np.ndarray
    motif_kind: str
    motif_freq: float
    confusion_partner: int


@dataclass
class VideoRecord:
    source_id: int
    class_id: int
    video_index: int
    labeled: bool


def _motif(kind: str, freq: float, phase: float, t: np.ndarray) -> np.ndarray:
    theta = 2.0 * np.pi * freq * t + phase
    if kind == "sin":
        base = np.sin(theta)
    elif kind == "square":
        base = np.sign(np.sin(theta))
    elif kind == "tri":
        base = (2.0 / np.pi) * np.arcsin(np.sin(theta))
    elif kind == "chirp":
        base = np.sin(theta * (1.0 + t / (2.0 * t[-1] if t[-1] > 0 else 1.0)))
    else:
        raise ValueError(f"unknown motif kind {kind!r}")
    # deep modulation: the within-clip amplitude distribution is the temporal
    # fingerprint that separates waveforms, so give it plenty of dynamic
    # range (sign flips included — the video mean stays at 1.0)
    return 1.0 + 0.9 * base


def _build_classes(cfg: DatasetConfig) -> List[SynthClass]:
    if cfg.n_classes % 2 != 0:
        raise ValueError("n_classes must be even (classes are paired)")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xC1A5]))
    classes = []
    n_pairs = cfg.n_classes // 2
    spatial_kind_pairs = (("sin", "square"), ("tri", "sin"))
    twin_kinds = ("chirp", "square")
    for p in range(n_pairs):
        a, b = 2 * p, 2 * p + 1
        # whole periods per video, so the video-average amplitude carries no
        # phase information a linear probe could exploit
        freq = (3.0 + p) / cfg.video_len
        if p % 2 == 0:
            # spatially confusable: shared signature and frequency, different
            # waveform shape. The within-clip amplitude distribution (a
            # square wave pins amplitude at the extremes, a sine sweeps
            # through them) is the only separating evidence, and it reads
            # the same at every clip stride.
            kind_a, kind_b = spatial_kind_pairs[(p // 2) % len(spatial_kind_pairs)]
            sig = ad._unit(rng.normal(size=cfg.d_in))[0]
            classes.append(SynthClass(a, sig, kind_a, freq, confusion_partner=b))
            classes.append(SynthClass(b, sig.copy(), kind_b, freq,
                                      confusion_partner=a))
        else:
            # temporally confusable: shared motif, orthogonal signatures
            kind = twin_kinds[(p // 2) % len(twin_kinds)]
            s1 = ad._unit(rng.normal(size=cfg.d_in))[0]
            s2 = rng.normal(size=cfg.d_in)
            s2 = ad._unit(s2 - np.dot(s2, s1) * s1)[0]
            classes.append(SynthClass(a, s1, kind, freq, confusion_partner=b))
            classes.append(SynthClass(b, s2, kind, freq, confusion_partner=a))
    return classes


def labeled_per_class(cfg: DatasetConfig) -> int:
    """How many of each class's videos are labeled (at least one)."""
    if not 0.0 < cfg.labeled_fraction <= 1.0:
        raise ValueError("labeled_fraction must be in (0, 1]")
    return max(1, int(np.floor(cfg.per_class * cfg.labeled_fraction)))


class SynthDataset:
    """Regenerable dataset: class definitions plus labeled/unlabeled records."""

    def __init__(self, cfg: DatasetConfig):
        n_labeled = labeled_per_class(cfg)
        self.cfg = cfg
        self.classes = _build_classes(cfg)
        self._frame_cache = {}
        self.labeled: List[VideoRecord] = []
        self.unlabeled: List[VideoRecord] = []
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x5B11]))
        for c in range(cfg.n_classes):
            order = rng.permutation(cfg.per_class)
            chosen = set(order[:n_labeled].tolist())
            for v in range(cfg.per_class):
                rec = VideoRecord(source_id=c * cfg.per_class + v, class_id=c,
                                  video_index=v, labeled=v in chosen)
                (self.labeled if rec.labeled else self.unlabeled).append(rec)

    def frames(self, rec: VideoRecord) -> np.ndarray:
        """Regenerate the (video_len, d_in) frame matrix of one video.

        Generation is pure in (class_id, video_index, seed); results are
        memoized since videos are revisited every epoch.
        """
        key = (rec.class_id, rec.video_index)
        cached = self._frame_cache.get(key)
        if cached is not None:
            return cached
        cfg = self.cfg
        cls = self.classes[rec.class_id]
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, rec.class_id, rec.video_index]))
        phase = rng.uniform(0.0, 2.0 * np.pi)
        t = np.arange(cfg.video_len, dtype=np.float64)
        amp = _motif(cls.motif_kind, cls.motif_freq, phase, t)
        noise = cfg.noise * rng.standard_normal((cfg.video_len, cfg.d_in))
        out = amp[:, None] * cls.spatial_signature[None, :] + noise
        out.setflags(write=False)
        self._frame_cache[key] = out
        return out

    def manifest(self) -> dict:
        return {
            "config": asdict(self.cfg),
            "videos": [
                {"source_id": r.source_id, "class_id": r.class_id,
                 "labeled": r.labeled}
                for r in sorted(self.labeled + self.unlabeled,
                                key=lambda r: r.source_id)
            ],
        }


def clip_span(clip_len: int, stride: int) -> int:
    """Number of video frames a clip of clip_len frames at stride covers."""
    return (clip_len - 1) * stride + 1


def extract_clip(frames: np.ndarray, start: int, stride: int,
                 clip_len: int) -> Clip:
    """The clip of clip_len frames at stride from frame start, as a
    read-only strided view of the video's frames (no copy)."""
    need = clip_span(clip_len, stride)
    if start < 0 or start + need > frames.shape[0]:
        raise ValueError(
            f"start {start}, span {need}, video length {frames.shape[0]}")
    view = frames[start:start + need:stride]
    view.flags.writeable = False
    return Clip(frames=view, stride=stride, start=start)


def weak_augment(clip: Clip, rng: np.random.Generator,
                 video_frames: np.ndarray) -> Clip:
    """Global scaling in [0.9, 1.1] plus +-1 frame start jitter, re-cut
    from the source video; a jitter past either end of the video is
    dropped."""
    factor = rng.uniform(0.9, 1.1)
    jitter = int(rng.integers(-1, 2))
    if jitter != 0:
        span = clip_span(clip.frames.shape[0], clip.stride)
        start = clip.start + jitter
        if 0 <= start and start + span <= video_frames.shape[0]:
            clip = extract_clip(video_frames, start, clip.stride,
                                clip.frames.shape[0])
    return Clip(frames=clip.frames * factor, stride=clip.stride,
                start=clip.start)


def strong_augment(clip: Clip, rng: np.random.Generator,
                   video_frames: np.ndarray) -> Clip:
    """weak_augment, then per-channel scaling in [0.7, 1.3] and channel
    dropout with probability 0.1 per input dimension."""
    out = weak_augment(clip, rng, video_frames)
    d_in = out.frames.shape[1]
    chan_scale = rng.uniform(0.7, 1.3, size=d_in)
    keep = (rng.random(d_in) >= 0.1).astype(np.float64)
    out.frames = out.frames * (chan_scale * keep)[None, :]
    return out


def difficulty_check(ds: SynthDataset) -> float:
    """Worst-case held-out accuracy of a linear classifier on time-averaged
    frames over the spatially-confusable pairs; this must stay near chance
    for the dataset to be temporally hard.
    """
    worst = 0.0
    seen = set()
    for cls in ds.classes:
        partner = cls.confusion_partner
        if (partner, cls.class_id) in seen:
            continue
        other = ds.classes[partner]
        if not np.allclose(cls.spatial_signature, other.spatial_signature):
            continue  # temporally-confusable pair: spatially separable by design
        seen.add((cls.class_id, partner))
        recs = [r for r in ds.labeled + ds.unlabeled
                if r.class_id in (cls.class_id, partner)]
        feats = np.stack([ds.frames(r).mean(axis=0) for r in recs])
        labels = np.array([1.0 if r.class_id == cls.class_id else -1.0 for r in recs])
        order = np.random.default_rng(ds.cfg.seed).permutation(len(recs))
        cut = len(recs) // 2
        tr, te = order[:cut], order[cut:]
        x_tr = np.hstack([feats[tr], np.ones((cut, 1))])
        w, *_ = np.linalg.lstsq(x_tr, labels[tr], rcond=None)
        x_te = np.hstack([feats[te], np.ones((len(te), 1))])
        acc = float(np.mean(np.sign(x_te @ w) == labels[te]))
        worst = max(worst, acc)
    return worst
