"""Adaptive contrastive learning: candidate construction, GMM reliability
scoring, threshold selection with the low-reliability fallback, and the
contrastive loss."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import gmm
from .protobank import MemoryBank

@dataclass
class AclSelection:
    """One anchor's contrastive sets; the shapes hold for any bank, an empty
    one included (m = 0)."""
    positives: np.ndarray              # (k+1, d_e): kept records, f^p last
    negatives: np.ndarray              # (m, d_e): the other bank records
    anchor_reliability: float
    used_fallback: bool


def build_candidates(bank: MemoryBank, pseudo_label: int,
                     f_score: np.ndarray) -> np.ndarray:
    """Initial positive set as one (k+1, d_h) array of scoring vectors: the
    same-pseudo-class bank records, then the anchor's own (last)."""
    return np.concatenate((bank.candidates_of(pseudo_label),
                           np.asarray(f_score, dtype=np.float64)[None]))


def score_candidates(sets: list) -> list:
    """Reliability scores for each (candidates, prototype) set, from one
    two-component GMM per set; all of the sets' mixtures are fitted in one
    batch.

    Distances are cosines to the set's class prototype. Sets too small or
    too concentrated for a meaningful mixture get score 1.0 everywhere. A
    set whose class has no prototype yet (None) gets None. A set of at
    least gmm.MIN_POINTS candidates with a non-finite distance raises
    ValueError.
    """
    dists = [None] * len(sets)
    for i, (candidates, prototype) in enumerate(sets):
        if prototype is not None:
            stacked = np.asarray(candidates, dtype=np.float64)
            norms = np.linalg.norm(stacked, axis=1) * np.linalg.norm(prototype)
            dists[i] = stacked @ prototype / norms
    # written as "not ... <" so that a NaN spread is fitted, and refused
    fitted = [i for i, d in enumerate(dists) if d is not None
              and len(d) >= gmm.MIN_POINTS and not d.std() < gmm.MIN_SPREAD]
    scores = [None if d is None else np.ones(len(d)) for d in dists]
    for i, fit in zip(fitted, gmm.fit_gmm_many([dists[i] for i in fitted])):
        scores[i] = gmm.reliability_many(fit, dists[i])
    return scores


def select(bank: MemoryBank, pseudo_label: int, f_p: np.ndarray,
           scores: Optional[np.ndarray], epsilon: float) -> AclSelection:
    """Threshold the scored candidates; fall back to {f^p} vs the whole bank
    when the anchor's own score is not above epsilon, or with reliability 0
    when ``scores`` is None because the pseudo-class has no prototype yet.

    ``scores`` must be aligned with build_candidates order (the class's bank
    records in insertion order, then the anchor's own score last). The
    selection holds the bank's own array or fresh rows of it, and bank
    arrays never change, so later pushes leave a selection as it is.
    """
    f_p = np.asarray(f_p, dtype=np.float64)
    emb = bank.embeddings
    gamma_fp = 0.0 if scores is None else float(scores[-1])
    if scores is None or gamma_fp <= epsilon:
        return AclSelection(
            positives=f_p[None], negatives=emb,
            anchor_reliability=gamma_fp, used_fallback=True)

    labels = bank.labels
    keep = np.zeros(len(labels), dtype=bool)
    keep[labels == pseudo_label] = np.asarray(scores[:-1]) > epsilon
    return AclSelection(
        positives=np.concatenate((emb[keep], f_p[None])),
        negatives=emb[~keep], anchor_reliability=gamma_fp,
        used_fallback=False)


def acl_loss(anchor, sel: AclSelection, tau: float) -> ad.Tensor:
    """-log of the positive exponential-sum share; differentiable in the
    anchor, one tape node.

    Bank entries and f^p are teacher-side constants and carry no gradient.
    Positives and negatives may be arrays of rows or lists of vectors. The
    backward replays the op-by-op tape (matmul, scale, exp and tsum per
    set, add, log, log, sub): the anchor gets the negatives' contribution,
    then the positives'.
    """
    if not len(sel.positives):
        raise ValueError("selection has no positive samples")
    anchor = ad.as_tensor(anchor)
    c = 1.0 / tau
    pos = np.asarray(sel.positives, dtype=np.float64)
    e_pos = np.exp((pos @ anchor.data) * c)
    s_pos = e_pos.sum()
    neg, total = None, s_pos
    if len(sel.negatives):
        neg = np.asarray(sel.negatives, dtype=np.float64)
        e_neg = np.exp((neg @ anchor.data) * c)
        total = s_pos + e_neg.sum()

    def bwd(g):
        g_total = g / total
        if neg is not None:
            anchor._accum(neg.T @ (g_total * e_neg * c))
        g_pos = g_total + (-g) / s_pos
        anchor._accum(pos.T @ (g_pos * e_pos * c))

    return ad._node(np.log(total) - np.log(s_pos), (anchor,), bwd)
