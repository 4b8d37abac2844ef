"""Two-component 1-D Gaussian mixture fitted by EM.

The posterior responsibility of the component with the larger mean is used
as a reliability score for prototype-similarity values in [-1, 1]. A batch
of sets is fitted on one flat array of their points, without padding; every
sum over a set's points is an np.add.reduceat segment sum, so each fit is
bit-identical to fitting its set alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


VAR_FLOOR = 1e-6
# below these a set is too small or too concentrated for a meaningful mixture
MIN_POINTS = 4
MIN_SPREAD = 1e-6
# EM stops at the first absolute log-likelihood change below LL_TOL. Against
# 1e-8, 1e-5 takes 28-40% fewer iterations per training fit, and the worst
# set of the restart-oracle check ends 9.3e-5 below the oracle, inside the
# 1e-3 that check allows. At 3e-5 that gap is 2.8e-4; at 1e-4 one set stops
# early in another mode, 0.78 below.
LL_TOL = 1e-5
# heavily-overlapping mixtures converge slowly; 200 iterations is not enough
# to match a multi-restart reference on separations near 0.1
MAX_ITERS = 1000


@dataclass
class GmmFit:
    means: np.ndarray            # (2,)
    variances: np.ndarray        # (2,), each >= VAR_FLOOR
    weights: np.ndarray          # (2,), sum to 1
    log_likelihood_trace: list = field(default_factory=list)
    reliable_component: int = 0  # index of the larger-mean component


def _log_joint(sq_dist, fit_vars, fit_weights):
    # log w_k + log N(x | mu_k, var_k) from sq_dist = (x - mu_k) ** 2, by
    # broadcasting
    return np.log(fit_weights) - 0.5 * (np.log(2.0 * np.pi * fit_vars)
                                        + sq_dist / fit_vars)


def fit_gmm(points) -> GmmFit:
    """Fit one set of points; see fit_gmm_many."""
    return fit_gmm_many([points])[0]


def fit_gmm_many(sets) -> list:
    """Fit one mixture per set by EM with deterministic median-split
    initialization, all sets in one batch: the sorted sets side by side in
    one flat (P,) array, each set's parameters a column of (2, B) arrays.

    Each set converges when its absolute log-likelihood change drops below
    LL_TOL, or after MAX_ITERS iterations, and then leaves the batch. Raises
    ValueError for a set of < 4 points, with a non-finite point, or with a
    sample standard deviation < 1e-6 (callers route small and concentrated
    sets to the degenerate scoring path instead).

    Every fit is bit-identical to fitting its set alone: element-wise terms
    do not depend on the neighbours, and every sum over a set's points is an
    np.add.reduceat segment sum, which reads only that set's points (its
    first point plus numpy's pairwise sum of the rest).
    """
    xs = [np.sort(np.asarray(points, dtype=np.float64)) for points in sets]
    if not xs:
        return []
    for x in xs:
        if x.size < MIN_POINTS:
            raise ValueError(
                f"need at least {MIN_POINTS} points, got {x.size}")
        if not np.isfinite(x).all():
            raise ValueError("points must be finite")
        # written as "not ... >=" so that a NaN fails too
        if not x.std() >= MIN_SPREAD:
            raise ValueError(
                f"sample standard deviation below {MIN_SPREAD}")

    sizes = np.array([x.size for x in xs])
    means = np.empty((2, len(xs)))
    variances = np.empty((2, len(xs)))
    weights = np.empty((2, len(xs)))
    for b, row in enumerate(xs):
        half = row.size // 2
        lo, hi = row[:half], row[half:]
        means[:, b] = lo.mean(), hi.mean()
        variances[:, b] = np.maximum(np.array([lo.var(), hi.var()]),
                                     VAR_FLOOR)
        weights[:, b] = half / row.size, (row.size - half) / row.size

    rows = list(range(len(xs)))     # which set each batch column fits
    traces = [[] for _ in xs]
    fits = [None] * len(xs)
    x = np.concatenate(xs)                                     # (P,)
    starts = np.cumsum(sizes) - sizes
    sq = (x - np.repeat(means, sizes, axis=1)) ** 2            # (2, P)
    for _ in range(MAX_ITERS):
        lj = _log_joint(sq, np.repeat(variances, sizes, axis=1),
                        np.repeat(weights, sizes, axis=1))
        log_norm = np.logaddexp(lj[0], lj[1])
        ll = np.add.reduceat(log_norm, starts)
        done = []
        for b, r in enumerate(rows):
            trace = traces[r]
            trace.append(ll[b])
            if len(trace) > 1 and abs(trace[-1] - trace[-2]) < LL_TOL:
                fits[r] = _make_fit(means[:, b], variances[:, b],
                                    weights[:, b], trace)
                done.append(b)
        if len(done) == len(rows):
            break

        resp = np.exp(lj - log_norm)
        nk = np.add.reduceat(resp, starts, axis=-1)
        means = np.add.reduceat(resp * x, starts, axis=-1) / nk
        sq = (x - np.repeat(means, sizes, axis=1)) ** 2
        variances = np.maximum(
            np.add.reduceat(resp * sq, starts, axis=-1) / nk, VAR_FLOOR)
        weights = nk / sizes

        if done:
            keep = np.ones(len(rows), dtype=bool)
            keep[done] = False
            points = np.repeat(keep, sizes)
            rows = [r for r, k in zip(rows, keep) if k]
            x, sq, sizes = x[points], sq[:, points], sizes[keep]
            means, variances, weights = (means[:, keep], variances[:, keep],
                                         weights[:, keep])
            starts = np.cumsum(sizes) - sizes
    else:
        # MAX_ITERS reached: the sets left keep their last M-step
        for b, r in enumerate(rows):
            fits[r] = _make_fit(means[:, b], variances[:, b], weights[:, b],
                                traces[r])
    return fits


def _make_fit(means, variances, weights, trace) -> GmmFit:
    if means[0] > means[1]:
        reliable = 0
    elif means[1] > means[0]:
        reliable = 1
    else:
        # equal means: break the tie on weight, then on index
        reliable = int(weights[1] > weights[0])
    return GmmFit(means=means.copy(), variances=variances.copy(),
                  weights=weights.copy(), log_likelihood_trace=trace,
                  reliable_component=reliable)


def reliability_many(fit: GmmFit, xs: np.ndarray) -> np.ndarray:
    """Posterior probability that each of the points xs belongs to the
    reliable component."""
    sq = (np.asarray(xs, dtype=np.float64)[..., None] - fit.means) ** 2
    lj = _log_joint(sq, fit.variances, fit.weights)
    m = lj.max(axis=-1, keepdims=True)
    p = np.exp(lj - m)
    p /= p.sum(axis=-1, keepdims=True)
    return p[..., fit.reliable_component]


def log_likelihood(fit: GmmFit, points) -> float:
    """Total log-likelihood of points under a fit (used by verification)."""
    sq = (np.asarray(points, dtype=np.float64)[:, None] - fit.means) ** 2
    lj = _log_joint(sq, fit.variances, fit.weights)
    m = lj.max(axis=1, keepdims=True)
    return float((m[:, 0] + np.log(np.exp(lj - m).sum(axis=1))).sum())
