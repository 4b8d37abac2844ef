"""Self-verification: finite-difference gradient checks for every loss,
a multi-restart EM oracle comparison for the mixture fit, and a direct
exponential-sum oracle for the contrastive loss.

The oracles here are deliberately written against the formulas, not against
the implementations they check.

The gradient checks perturb each student parameter entry once per seed and
read all five losses from that one pair of forward passes. The EM oracle
runs its 50 restarts as one (R, 2, n) batch, components-major, with each
restart's points contiguous on the last axis. Its sums over points are
sequential (cumsum) and each restart's log-likelihood is a pairwise sum over
its row, so every restart follows the same arithmetic as it would alone and
the oracle's result does not depend on the batching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from . import acl as acl_mod
from . import autodiff as ad
from . import gmm
from . import trainer as tr
from .synthgen import DatasetConfig, SynthDataset


@dataclass
class CheckResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self):
        return self.max_error < self.tolerance


def small_config(seed: int):
    """Desk-miniature config used by the gradient-check suites."""
    ds_cfg = DatasetConfig(n_classes=4, per_class=6, labeled_fraction=0.34,
                           d_in=4, video_len=40, noise=0.05, seed=seed)
    cfg = tr.TrainConfig(seed=seed, clip_len=4, strides=(2, 4, 8), d_h=6,
                         d_e=4, d_k=5, bank_capacity=32, epochs=2,
                         delta=0.0, b_l=2, b_u=3)
    return cfg, ds_cfg


def loss_gradchecks(seed: int, eps=1e-5) -> List[CheckResult]:
    """Gradcheck L_l, L_u, L_ACL, L_MTL and the total over all student
    parameters at one seeded configuration (a warmed-up training state)."""
    cfg, ds_cfg = small_config(seed)
    ds = SynthDataset(ds_cfg)
    state = tr.TrainerState(cfg, ds)
    warm_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA]))
    # a few real steps so the bank, prototypes and gates are all active
    for s in range(4):
        labeled = [ds.labeled[(s + i) % len(ds.labeled)] for i in range(cfg.b_l)]
        unlabeled = [ds.unlabeled[(s * cfg.b_u + i) % len(ds.unlabeled)]
                     for i in range(cfg.b_u)]
        tr.train_step(state, labeled, unlabeled, 0, warm_rng)

    plan_rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB]))
    plan = tr.prepare_step_plan(state, ds.labeled[:cfg.b_l],
                                ds.unlabeled[:cfg.b_u], plan_rng)

    names = ("L_l", "L_u", "L_ACL", "L_MTL", "total")

    def losses():
        total, parts = tr.compute_losses(state.student, state.teacher,
                                         plan, cfg)
        return [total if name == "total" else parts[name] for name in names]

    params = [state.student.params[k] for k in state.student.names()]
    errs = ad.gradcheck_params(losses, params, eps=eps)
    return [CheckResult(f"gradcheck[{name}]@seed{seed}", err, 1e-4)
            for name, err in zip(names, errs)]


def oracle_em(points: np.ndarray, n_restarts: int = 50, seed: int = 0):
    """Independent 2-component EM with random restarts; returns the best
    log-likelihood found.

    All restarts run as one (R, 2, n) batch: each restart's points lie
    contiguous on the last axis, and its two components are the slices
    [:, 0] and [:, 1]. Each restart draws its initial means in turn from
    one generator, and leaves the batch once its log-likelihood changes by
    less than 1e-10, or after 500 iterations.

    Each restart follows the arithmetic of an (n, 2) loop run alone, so the
    result does not depend on the batching: the sums over points (nk,
    sum r*x and sum r*(x - mu)**2) are sequential (cumsum), each restart's
    log-likelihood is numpy's pairwise sum over its row, and the max and sum
    over the two components are np.maximum(lp0, lp1) and e0 + e1.
    """
    x = np.asarray(points, dtype=np.float64)
    rng = np.random.default_rng(seed)
    mu = np.stack([rng.choice(x, size=2, replace=False).astype(np.float64)
                   for _ in range(n_restarts)])
    var = np.full((n_restarts, 2), max(x.var(), 1e-6))
    w = np.full((n_restarts, 2), 0.5)
    prev = np.full(n_restarts, -np.inf)
    final = np.empty(n_restarts)     # the log-likelihood each restart returns
    rows = np.arange(n_restarts)     # the restart each batch row runs
    for _ in range(500):
        log_p = np.log(w[..., None]) - 0.5 * (
            np.log(2 * np.pi * var[..., None])
            + (x - mu[..., None]) ** 2 / var[..., None])
        m = np.maximum(log_p[:, 0], log_p[:, 1])
        e = np.exp(log_p - m[:, None])
        norm = m + np.log(e[:, 0] + e[:, 1])
        ll = norm.sum(axis=1)
        done = np.abs(ll - prev) < 1e-10
        final[rows[done]] = prev[done]
        go = ~done
        rows, prev = rows[go], ll[go]
        if not rows.size:
            break
        log_p, norm = log_p[go], norm[go]
        r = np.exp(log_p - norm[:, None])
        nk = np.cumsum(r, axis=-1)[..., -1]
        mu = np.cumsum(r * x, axis=-1)[..., -1] / nk
        var = np.maximum(
            np.cumsum(r * (x - mu[..., None]) ** 2, axis=-1)[..., -1] / nk,
            1e-6)
        w = nk / x.size
    final[rows] = prev
    best = -np.inf
    for ll in final:
        best = max(best, ll)
    return best


def oracle_dataset(i: int, n_datasets: int = 20) -> np.ndarray:
    """Set i of the n_datasets oracle sets: 50 + 50 points around
    0.5 -+ sep/2 (sd 0.05, clipped to [-1, 1]) from seed 1000 + i, with the
    separation sep rising from 0.1 to 0.7 over the sets."""
    rng = np.random.default_rng(1000 + i)
    sep = 0.1 + 0.6 * i / max(1, n_datasets - 1)
    lo, hi = 0.5 - sep / 2, 0.5 + sep / 2
    pts = np.concatenate([rng.normal(lo, 0.05, 50), rng.normal(hi, 0.05, 50)])
    return np.clip(pts, -1.0, 1.0)


def gmm_oracle_checks(n_datasets: int = 20) -> List[CheckResult]:
    """fit_gmm must reach the restart-oracle's log-likelihood minus 1e-3 on
    seeded two-cluster datasets with separations from 0.1 to 0.7."""
    results = []
    worst_gap = -np.inf
    for i in range(n_datasets):
        pts = oracle_dataset(i, n_datasets)
        fit = gmm.fit_gmm(pts)
        gap = oracle_em(pts, seed=i) - gmm.log_likelihood(fit, pts)
        worst_gap = max(worst_gap, gap)
    results.append(CheckResult("gmm_vs_restart_oracle", worst_gap, 1e-3))
    return results


def acl_oracle(anchor, positives, negatives, tau):
    """Direct evaluation of the contrastive formula: -log of the positive
    share of the exponential sums."""
    s_pos = sum(np.exp(np.dot(anchor, f) / tau) for f in positives)
    s_neg = sum(np.exp(np.dot(anchor, f) / tau) for f in negatives)
    return -np.log(s_pos / (s_pos + s_neg))


def acl_oracle_checks(n_cases: int = 50) -> List[CheckResult]:
    worst = 0.0
    for i in range(n_cases):
        rng = np.random.default_rng(2000 + i)
        d = 8
        def unit():
            v = rng.normal(size=d)
            return v / np.linalg.norm(v)
        n_pos = int(rng.integers(1, 8))
        n_neg = int(rng.integers(0, 30))
        anchor, pos, neg = unit(), [unit() for _ in range(n_pos)], \
            [unit() for _ in range(n_neg)]
        sel = acl_mod.AclSelection(positives=pos, negatives=neg,
                                   anchor_reliability=1.0, used_fallback=False)
        got = acl_mod.acl_loss(anchor, sel, 0.07).item()
        want = acl_oracle(anchor, pos, neg, 0.07)
        worst = max(worst, abs(got - want))
    return [CheckResult("acl_loss_vs_direct_sum", worst, 1e-9)]


def run_verification(gradcheck_seeds=(0, 1, 2)):
    """All self-checks; returns (all_passed, list of CheckResult)."""
    results = []
    for seed in gradcheck_seeds:
        results.extend(loss_gradchecks(seed))
    results.extend(gmm_oracle_checks())
    results.extend(acl_oracle_checks())
    return all(r.passed for r in results), results
