"""EMA class prototypes from labeled data and the FIFO memory bank of
pseudo-labeled teacher embeddings."""

from __future__ import annotations

from collections import deque

import numpy as np

from .errors import IndexOutOfRange, NotNormalized, PrototypeMissing

UNIT_TOL = 1e-6


class PrototypeTable:
    """One EMA embedding per class, built from labeled samples only.

    Prototypes are plain convex combinations of unit vectors and are not
    re-normalized; cosine distance is norm-invariant anyway.
    """

    def __init__(self, n_classes: int, dim: int):
        self.prototypes = np.zeros((n_classes, dim))
        self.initialized = np.zeros(n_classes, dtype=bool)

    def update(self, class_id: int, f_l: np.ndarray, beta: float) -> None:
        if not 0 <= class_id < self.prototypes.shape[0]:
            raise IndexOutOfRange(f"class {class_id}")
        if self.initialized[class_id]:
            self.prototypes[class_id] = (
                (1.0 - beta) * f_l + beta * self.prototypes[class_id])
        else:
            self.prototypes[class_id] = np.array(f_l, dtype=np.float64)
            self.initialized[class_id] = True

    def get(self, class_id: int) -> np.ndarray:
        if not 0 <= class_id < self.prototypes.shape[0]:
            raise IndexOutOfRange(f"class {class_id}")
        if not self.initialized[class_id]:
            raise PrototypeMissing(f"class {class_id} has no prototype yet")
        return self.prototypes[class_id]


class MemoryBank:
    """Bounded FIFO of (f_p, f_score, pseudo_label) records.

    ``f_p`` is the teacher's unit projection-head embedding, which the
    contrastive loss draws positives and negatives from. ``f_score`` is the
    unit pooled embedding of the same clip, which reliability scoring
    compares with the class prototype.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries = deque()

    def __len__(self):
        return len(self.entries)

    def push(self, embedding: np.ndarray, score: np.ndarray,
             pseudo_label: int) -> None:
        for v in (embedding, score):
            if abs(np.linalg.norm(v) - 1.0) > UNIT_TOL:
                raise NotNormalized(f"norm {np.linalg.norm(v)}")
        self.entries.append((np.array(embedding, dtype=np.float64),
                             np.array(score, dtype=np.float64),
                             int(pseudo_label)))
        if len(self.entries) > self.capacity:
            self.entries.popleft()

    def candidates_of(self, class_id: int) -> list:
        """Scoring vectors of the records labelled ``class_id``, in
        insertion order."""
        return [score for _, score, lab in self.entries if lab == class_id]

    def all_embeddings(self) -> list:
        return [emb for emb, _, _ in self.entries]
