"""EMA class prototypes from labeled data and the FIFO memory bank of
pseudo-labeled teacher embeddings."""

from __future__ import annotations

import numpy as np


UNIT_TOL = 1e-6


class PrototypeTable:
    """One EMA embedding per class, built from labeled samples only.

    Prototypes are plain convex combinations of unit vectors and are not
    re-normalized; cosine distance is norm-invariant anyway.
    """

    def __init__(self, n_classes: int, dim: int):
        self.prototypes = np.zeros((n_classes, dim))
        self.initialized = np.zeros(n_classes, dtype=bool)

    def copy(self) -> "PrototypeTable":
        out = PrototypeTable(*self.prototypes.shape)
        out.prototypes[:] = self.prototypes
        out.initialized[:] = self.initialized
        return out

    def update(self, class_id: int, f_l: np.ndarray, beta: float) -> None:
        if not 0 <= class_id < self.prototypes.shape[0]:
            raise IndexError(f"class {class_id}")
        if np.shape(f_l) != self.prototypes.shape[1:]:
            raise ValueError(f"embedding shape {np.shape(f_l)}, "
                             f"prototypes {self.prototypes.shape[1:]}")
        if self.initialized[class_id]:
            self.prototypes[class_id] = (
                (1.0 - beta) * f_l + beta * self.prototypes[class_id])
        else:
            self.prototypes[class_id] = f_l
            self.initialized[class_id] = True

    def get(self, class_id: int) -> np.ndarray | None:
        """The prototype of ``class_id``, or None before its first update."""
        if not 0 <= class_id < self.prototypes.shape[0]:
            raise IndexError(f"class {class_id}")
        if not self.initialized[class_id]:
            return None
        return self.prototypes[class_id]


class MemoryBank:
    """Bounded FIFO of (f_p, f_score, pseudo_label) records, held as three
    row-aligned arrays, oldest record first: ``embeddings`` (n, d_e),
    ``scores`` (n, d_h) and ``labels`` (n,).

    ``f_p`` is the teacher's unit projection-head embedding, which the
    contrastive loss draws positives and negatives from. ``f_score`` is the
    unit pooled embedding of the same clip, which reliability scoring
    compares with the class prototype.

    A push builds three new read-only arrays from the kept records and the
    new one, so bank arrays never change: a reader may hold them across later
    pushes. Every sum over the rows adds them in insertion order.
    """

    def __init__(self, capacity: int, d_e: int, d_h: int):
        self.capacity = capacity
        self.embeddings = np.empty((0, d_e))
        self.scores = np.empty((0, d_h))
        self.labels = np.empty(0, dtype=np.int64)

    def __len__(self):
        return len(self.labels)

    def push(self, embedding: np.ndarray, score: np.ndarray,
             pseudo_label: int) -> None:
        for v, rows in ((embedding, self.embeddings), (score, self.scores)):
            if np.shape(v) != rows.shape[1:]:
                raise ValueError(
                    f"vector shape {np.shape(v)}, bank rows {rows.shape[1:]}")
            # written as "not <=" so that a NaN norm fails too
            if not abs(np.linalg.norm(v) - 1.0) <= UNIT_TOL:
                raise ValueError(f"norm {np.linalg.norm(v)}")
        start = max(len(self) + 1 - self.capacity, 0)
        self.embeddings = _appended(self.embeddings, start, embedding)
        self.scores = _appended(self.scores, start, score)
        self.labels = _appended(self.labels, start, pseudo_label)

    def candidates_of(self, class_id: int) -> np.ndarray:
        """Scoring vectors of the records labelled ``class_id``, in
        insertion order, as a new (k, d_h) array."""
        return self.scores[self.labels == class_id]


def _appended(rows: np.ndarray, start: int, row) -> np.ndarray:
    """A new read-only array of ``rows[start:]`` followed by ``row``."""
    out = np.concatenate((rows[start:], np.asarray(row, rows.dtype)[None]))
    out.flags.writeable = False
    return out
