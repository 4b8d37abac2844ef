"""EMA class prototypes from labeled data and the FIFO memory bank of
pseudo-labeled teacher embeddings."""

from __future__ import annotations

import numpy as np

from .errors import IndexOutOfRange, NotNormalized

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

    def get(self, class_id: int) -> np.ndarray | None:
        """The prototype of ``class_id``, or None before its first update."""
        if not 0 <= class_id < self.prototypes.shape[0]:
            raise IndexOutOfRange(f"class {class_id}")
        if not self.initialized[class_id]:
            return None
        return self.prototypes[class_id]


class MemoryBank:
    """Bounded FIFO of (f_p, f_score, pseudo_label) records, held as three
    row-aligned arrays in insertion order.

    ``f_p`` is the teacher's unit projection-head embedding, which the
    contrastive loss draws positives and negatives from. ``f_score`` is the
    unit pooled embedding of the same clip, which reliability scoring
    compares with the class prototype.

    The buffers hold ``2 * capacity`` rows and the records are the window
    ``[start, end)``. A push writes the row after the last one; when the
    buffer is full, the window is first copied to the front, so a push costs
    O(1) on average. The rows are never rotated: readers see the records in
    insertion order, and every sum over them adds them in that order.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        rows = 2 * capacity
        # the first push sets the row widths
        self._embeddings = np.empty((rows, 0))
        self._scores = np.empty((rows, 0))
        self._labels = np.empty(rows, dtype=np.int64)
        self._start = self._end = 0

    def __len__(self):
        return self._end - self._start

    def push(self, embedding: np.ndarray, score: np.ndarray,
             pseudo_label: int) -> None:
        for v in (embedding, score):
            # written as "not <=" so that a NaN norm fails too
            if not abs(np.linalg.norm(v) - 1.0) <= UNIT_TOL:
                raise NotNormalized(f"norm {np.linalg.norm(v)}")
        rows = len(self._labels)
        if not self._embeddings.shape[1]:
            self._embeddings = np.empty((rows, np.size(embedding)))
            self._scores = np.empty((rows, np.size(score)))
        if self._end == rows:
            n = len(self)
            for buf in (self._embeddings, self._scores, self._labels):
                buf[:n] = buf[self._start:self._end]
            self._start, self._end = 0, n
        self._embeddings[self._end] = embedding
        self._scores[self._end] = score
        self._labels[self._end] = pseudo_label
        self._end += 1
        if len(self) > self.capacity:
            self._start += 1

    def _window(self, buf: np.ndarray) -> np.ndarray:
        view = buf[self._start:self._end]
        view.flags.writeable = False
        return view

    @property
    def embeddings(self) -> np.ndarray:
        """(n, d_e) f_p rows, oldest first; a read-only view that the next
        push may overwrite. A bank never pushed to gives (0, 0)."""
        return self._window(self._embeddings)

    @property
    def scores(self) -> np.ndarray:
        """(n, d_h) f_score rows, aligned with ``embeddings``."""
        return self._window(self._scores)

    @property
    def labels(self) -> np.ndarray:
        """(n,) pseudo-labels, aligned with ``embeddings``."""
        return self._window(self._labels)

    def candidates_of(self, class_id: int) -> np.ndarray:
        """Scoring vectors of the records labelled ``class_id``, in
        insertion order, as a new (k, d_h) array."""
        return self.scores[self.labels == class_id]
