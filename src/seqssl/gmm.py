"""Two-component 1-D Gaussian mixture fitted by EM.

The posterior responsibility of the component with the larger mean is used
as a reliability score for prototype-similarity values in [-1, 1].
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
    initialization, all sets in one padded (B, 2, N) batch.

    Each set converges when its absolute log-likelihood change drops below
    LL_TOL, or after MAX_ITERS iterations, and then leaves the batch. Raises
    ValueError for a set of < 4 points or a sample standard deviation
    < 1e-6 (callers route those cases to the degenerate scoring path
    instead).

    Every fit is bit-identical to fitting its set alone: element-wise terms
    are computed in the same order, each set's log-likelihood is summed over
    its own unpadded slice, and the sums over points are sequential
    (cumsum), with the zero-responsibility padding added last.
    """
    xs = [np.sort(np.asarray(points, dtype=np.float64)) for points in sets]
    if not xs:
        return []
    for x in xs:
        if x.size < MIN_POINTS:
            raise ValueError(
                f"need at least {MIN_POINTS} points, got {x.size}")
        if x.std() < MIN_SPREAD:
            raise ValueError(
                f"sample standard deviation below {MIN_SPREAD}")

    sizes = [x.size for x in xs]                              # Python ints
    n = np.array(sizes, dtype=int)[:, None]                   # (B, 1)
    x = np.zeros((len(xs), n.max()))
    means = np.empty((len(xs), 2))
    variances = np.empty((len(xs), 2))
    weights = np.empty((len(xs), 2))
    for b, row in enumerate(xs):
        x[b, :row.size] = row
        half = row.size // 2
        lo, hi = row[:half], row[half:]
        means[b] = [lo.mean(), hi.mean()]
        variances[b] = np.maximum(np.array([lo.var(), hi.var()]), VAR_FLOOR)
        weights[b] = [half / row.size, (row.size - half) / row.size]

    rows = list(range(len(xs)))     # which set each batch row fits
    traces = [[] for _ in xs]
    fits = [None] * len(xs)
    real = _real_points(n, x.shape[1])
    sq = (x[:, None, :] - means[..., None]) ** 2              # (B, 2, N)
    for _ in range(MAX_ITERS):
        lj = _log_joint(sq, variances[..., None], weights[..., None])
        m = np.maximum(lj[:, 0], lj[:, 1])
        e = np.exp(lj - m[:, None, :])
        log_norm = m + np.log(e[:, 0] + e[:, 1])
        done = []
        for b, r in enumerate(rows):
            trace = traces[r]
            trace.append(np.add.reduce(log_norm[b, :sizes[b]]))
            if len(trace) > 1 and abs(trace[-1] - trace[-2]) < LL_TOL:
                fits[r] = _make_fit(means[b], variances[b], weights[b], trace)
                done.append(b)
        if len(done) == len(rows):
            break

        # responsibilities and responsibility-weighted points, summed over
        # the points in one sequential pass
        acc = np.empty((2,) + lj.shape)
        resp = np.exp(lj - log_norm[:, None, :], out=acc[0])
        if real is not None:
            resp *= real
        np.multiply(resp, x[:, None, :], out=acc[1])
        nk, weighted = np.cumsum(acc, axis=-1)[..., -1]
        means = weighted / nk
        sq = (x[:, None, :] - means[..., None]) ** 2
        variances = np.maximum(
            np.cumsum(resp * sq, axis=-1)[..., -1] / nk, VAR_FLOOR)
        weights = nk / n

        if done:
            keep = [b for b in range(len(rows)) if b not in done]
            rows, n = [rows[b] for b in keep], n[keep]
            sizes = [sizes[b] for b in keep]
            width = n.max()
            x, sq = x[keep, :width], sq[keep, :, :width]
            means, variances, weights = means[keep], variances[keep], weights[keep]
            real = _real_points(n, width)
    else:
        # MAX_ITERS reached: the rows left keep their last M-step
        for b, r in enumerate(rows):
            fits[r] = _make_fit(means[b], variances[b], weights[b], traces[r])
    return fits


def _real_points(n, width):
    """(B, 1, width) mask, 1.0 on each row's points and 0.0 on its padding;
    None when no row is padded."""
    if n.min() == width:
        return None
    return (np.arange(width) < n[..., None]) * 1.0


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
