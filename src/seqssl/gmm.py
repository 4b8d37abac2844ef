"""Two-component 1-D Gaussian mixture fitted by EM.

The posterior responsibility of the component with the larger mean is used
as a reliability score for prototype-similarity values in [-1, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSpread, TooFewPoints

VAR_FLOOR = 1e-6
# below these a set is too small or too concentrated for a meaningful mixture
MIN_POINTS = 4
MIN_SPREAD = 1e-6
LL_TOL = 1e-8
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


def _log_joint(x, fit_means, fit_vars, fit_weights):
    # shape (n, 2): log w_k + log N(x | mu_k, var_k), by broadcasting
    x = np.asarray(x, dtype=np.float64)[..., None]
    return np.log(fit_weights) - 0.5 * (np.log(2.0 * np.pi * fit_vars)
                                        + (x - fit_means) ** 2 / fit_vars)


def fit_gmm(points) -> GmmFit:
    """Fit by EM with deterministic median-split initialization.

    Converges when the absolute log-likelihood change drops below 1e-8, or
    after MAX_ITERS iterations. Raises TooFewPoints for < 4 points and
    DegenerateSpread when the sample standard deviation is < 1e-6 (callers
    route those cases to the degenerate scoring path instead).
    """
    x = np.sort(np.asarray(points, dtype=np.float64))
    n = x.size
    if n < MIN_POINTS:
        raise TooFewPoints(f"need at least {MIN_POINTS} points, got {n}")
    if x.std() < MIN_SPREAD:
        raise DegenerateSpread(f"sample standard deviation below {MIN_SPREAD}")

    half = n // 2
    lo, hi = x[:half], x[half:]
    means = np.array([lo.mean(), hi.mean()])
    variances = np.maximum(np.array([lo.var(), hi.var()]), VAR_FLOOR)
    weights = np.array([half / n, (n - half) / n])

    trace = []
    for _ in range(MAX_ITERS):
        lj = _log_joint(x, means, variances, weights)          # (n, 2)
        m = lj.max(axis=1, keepdims=True)
        log_norm = m[:, 0] + np.log(np.exp(lj - m).sum(axis=1))
        ll = log_norm.sum()
        trace.append(ll)
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) < LL_TOL:
            break
        resp = np.exp(lj - log_norm[:, None])                  # (n, 2)
        nk = resp.sum(axis=0)
        means = (resp * x[:, None]).sum(axis=0) / nk
        variances = np.maximum(
            (resp * (x[:, None] - means) ** 2).sum(axis=0) / nk, VAR_FLOOR
        )
        weights = nk / n

    if means[0] > means[1]:
        reliable = 0
    elif means[1] > means[0]:
        reliable = 1
    else:
        # equal means: break the tie on weight, then on index
        reliable = int(weights[1] > weights[0])
    return GmmFit(means=means, variances=variances, weights=weights,
                  log_likelihood_trace=trace, reliable_component=reliable)


def reliability(fit: GmmFit, x) -> float:
    """Posterior probability that x belongs to the reliable component."""
    return float(reliability_many(fit, np.asarray([x], dtype=np.float64))[0])


def reliability_many(fit: GmmFit, xs: np.ndarray) -> np.ndarray:
    """Vectorized reliability over an array of points."""
    lj = _log_joint(np.asarray(xs, dtype=np.float64), fit.means, fit.variances,
                    fit.weights)
    m = lj.max(axis=-1, keepdims=True)
    p = np.exp(lj - m)
    p /= p.sum(axis=-1, keepdims=True)
    return p[..., fit.reliable_component]


def log_likelihood(fit: GmmFit, points) -> float:
    """Total log-likelihood of points under a fit (used by verification)."""
    lj = _log_joint(np.asarray(points, dtype=np.float64), fit.means,
                    fit.variances, fit.weights)
    m = lj.max(axis=1, keepdims=True)
    return float((m[:, 0] + np.log(np.exp(lj - m).sum(axis=1))).sum())
