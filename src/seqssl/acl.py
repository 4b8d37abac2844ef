"""Adaptive contrastive learning: candidate construction, GMM reliability
scoring, threshold selection with the low-reliability fallback, and the
contrastive loss."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import autodiff as ad
from . import gmm
from .errors import EmptyPositives, PrototypeMissing
from .protobank import MemoryBank

@dataclass
class AclSelection:
    anchor: object                     # Tensor (student side) or array
    positives: List[np.ndarray]        # kept bank records, then f^p last
    negatives: List[np.ndarray]
    anchor_reliability: float
    used_fallback: bool


def build_candidates(bank: MemoryBank, pseudo_label: int,
                     f_score: np.ndarray) -> list:
    """Initial positive set, as scoring vectors: the same-pseudo-class bank
    records plus the anchor's own (last)."""
    return bank.candidates_of(pseudo_label) + [np.asarray(f_score, dtype=np.float64)]


def score_candidates(sets: list) -> list:
    """Reliability scores for each (candidates, prototype) set, from one
    two-component GMM per set; all of the sets' mixtures are fitted in one
    batch.

    Distances are cosines to the set's class prototype. Sets too small or
    too concentrated for a meaningful mixture get score 1.0 everywhere.
    """
    dists = []
    for candidates, prototype in sets:
        if prototype is None:
            raise PrototypeMissing("no prototype for the candidate class")
        stacked = np.stack([np.asarray(c, dtype=np.float64) for c in candidates])
        norms = np.linalg.norm(stacked, axis=1) * np.linalg.norm(prototype)
        dists.append(stacked @ prototype / norms)
    fitted = [i for i, d in enumerate(dists)
              if len(d) >= gmm.MIN_POINTS and d.std() >= gmm.MIN_SPREAD]
    scores = [np.ones(len(d)) for d in dists]
    for i, fit in zip(fitted, gmm.fit_gmm_many([dists[i] for i in fitted])):
        scores[i] = gmm.reliability_many(fit, dists[i])
    return scores


def select(bank: MemoryBank, pseudo_label: int, anchor, f_p: np.ndarray,
           scores: Optional[np.ndarray], epsilon: float) -> AclSelection:
    """Threshold the scored candidates; fall back to {f^p} vs the whole bank
    when the anchor's own score is not above epsilon, or with reliability 0
    when ``scores`` is None because the pseudo-class has no prototype yet.

    ``scores`` must be aligned with build_candidates order (the class's bank
    records in insertion order, then the anchor's own score last).
    """
    f_p = np.asarray(f_p, dtype=np.float64)
    gamma_fp = 0.0 if scores is None else float(scores[-1])
    if scores is None or gamma_fp <= epsilon:
        return AclSelection(
            anchor=anchor, positives=[f_p],
            negatives=bank.all_embeddings(), anchor_reliability=gamma_fp,
            used_fallback=True)

    positives, negatives = [], []
    candidate_scores = iter(scores)
    for emb, _, lab in bank.entries:
        if lab == pseudo_label and next(candidate_scores) > epsilon:
            positives.append(emb)
        else:
            negatives.append(emb)
    return AclSelection(
        anchor=anchor, positives=positives + [f_p],
        negatives=negatives, anchor_reliability=gamma_fp, used_fallback=False)


def acl_loss(sel: AclSelection, tau: float) -> ad.Tensor:
    """-log of the positive exponential-sum share; differentiable in the anchor.

    Bank entries and f^p are teacher-side constants and carry no gradient.
    """
    if not sel.positives:
        raise EmptyPositives("selection has no positive samples")
    anchor = ad.as_tensor(sel.anchor)
    pos = ad.Tensor(np.stack(sel.positives))
    s_pos = ad.tsum(ad.exp(ad.scale(ad.matmul(pos, anchor), 1.0 / tau)))
    if sel.negatives:
        neg = ad.Tensor(np.stack(sel.negatives))
        s_neg = ad.tsum(ad.exp(ad.scale(ad.matmul(neg, anchor), 1.0 / tau)))
        total = ad.add(s_pos, s_neg)
    else:
        total = s_pos
    return ad.sub(ad.log(total), ad.log(s_pos))
