"""Self-verification: finite-difference gradient checks for every loss,
a multi-restart EM oracle comparison for the mixture fit, and a direct
exponential-sum oracle for the contrastive loss.

The oracles here are deliberately written against the formulas, not against
the implementations they check.

The gradient checks perturb each student parameter entry once per seed and
read all five losses from that one pair of forward passes. The EM oracle
runs the 50 restarts of several sets as one (S*R, 2, n) batch,
components-major, with each restart's own set's points contiguous on the
last axis. Every sum over points, and each restart's log-likelihood, is
numpy's pairwise sum over one row, so every restart follows the same
arithmetic as it would alone and the oracle's result does not depend on the
batching. The mixture check batches its 20 sets 4 at a time: larger batches
are faster still, but their arrays raise the peak memory of `seqssl verify`
(ORACLE_BATCH_SETS).
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


def loss_gradchecks(seed: int) -> List[CheckResult]:
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
    errs = ad.gradcheck_params(losses, params)
    return [CheckResult(f"gradcheck[{name}]@seed{seed}", err, 1e-4)
            for name, err in zip(names, errs)]


def oracle_em_many(sets, seeds, n_restarts: int = 50) -> List[float]:
    """Independent 2-component EM with random restarts on each of several
    equal-size sets; returns each set's best log-likelihood, in set order.

    The restarts of all the sets run as one (S*R, 2, n) batch: row j runs
    restart j % R of set j // R and carries that set's points contiguous on
    the last axis, and its two components are the slices [:, 0] and [:, 1].
    Each set draws its initial means, restart by restart, from its own
    default_rng(seed). A row leaves the batch once its log-likelihood
    changes by less than 1e-10, or after 500 iterations. Each set's best is
    a max over its restarts in restart order.

    Each restart follows the arithmetic of an (n, 2) loop run alone, so the
    result does not depend on the batching: the sums over points (nk,
    sum r*x and sum r*(x - mu)**2) and each restart's log-likelihood are
    numpy's pairwise sums over the row's own points, and the max and sum
    over the two components are np.maximum(lp0, lp1) and e0 + e1. The
    in-place steps (np.square, /=, +=, *=) give the same bits as the plain
    expressions. A batch holds two (S*R, 2, n) buffers and a few (S*R, n)
    ones, so its memory grows with S; ORACLE_BATCH_SETS says how many sets
    `seqssl verify` puts in one batch, and why.
    """
    sets = [np.asarray(pts, dtype=np.float64) for pts in sets]
    if len({pts.shape for pts in sets}) != 1 or sets[0].ndim != 1:
        raise ValueError(
            f"oracle sets must be 1-D and of one size, got "
            f"{[pts.shape for pts in sets]}")
    n = sets[0].size
    mu, var = [], []
    for pts, seed in zip(sets, seeds, strict=True):
        rng = np.random.default_rng(seed)
        mu.extend(rng.choice(pts, size=2, replace=False).astype(np.float64)
                  for _ in range(n_restarts))
        var.append(np.full((n_restarts, 2), max(pts.var(), 1e-6)))
    mu, var = np.stack(mu), np.concatenate(var)
    x = np.repeat(np.stack(sets), n_restarts, axis=0)[:, None, :]
    batch = len(x)
    w = np.full((batch, 2), 0.5)
    prev = np.full(batch, -np.inf)
    final = np.empty(batch)          # the log-likelihood each restart returns
    rows = np.arange(batch)          # the restart each batch row runs
    # every per-point array is a slice of one of these, over the rows still
    # running, so the iterations allocate no array of the batch's size
    log_p_buf, r_buf = np.empty((batch, 2, n)), np.empty((batch, 2, n))
    m_buf, norm_buf = np.empty((batch, n)), np.empty((batch, n))
    for _ in range(500):
        k = rows.size
        # log w - 0.5 * (log(2 pi var) + (x - mu)**2 / var)
        log_p = np.subtract(x, mu[..., None], out=log_p_buf[:k])
        np.square(log_p, out=log_p)
        log_p /= var[..., None]
        log_p += np.log(2 * np.pi * var)[..., None]
        log_p *= -0.5
        log_p += np.log(w)[..., None]
        # m + log(e0 + e1), with e = exp(log_p - m)
        m = np.maximum(log_p[:, 0], log_p[:, 1], out=m_buf[:k])
        e = np.subtract(log_p, m[:, None], out=r_buf[:k])
        np.exp(e, out=e)
        norm = np.add(e[:, 0], e[:, 1], out=norm_buf[:k])
        np.log(norm, out=norm)
        norm += m
        ll = norm.sum(axis=1)
        done = np.abs(ll - prev) < 1e-10
        final[rows[done]] = prev[done]
        go = ~done
        rows, prev = rows[go], ll[go]
        k = rows.size
        if not k:
            break
        if k < go.size:
            # drop the finished rows; compress copies its input when out
            # overlaps
            x = np.compress(go, x, axis=0, out=x[:k])
            log_p = np.compress(go, log_p, axis=0, out=r_buf[:k])
            norm = np.compress(go, norm, axis=0, out=m_buf[:k])
        r = np.subtract(log_p, norm[:, None], out=r_buf[:k])
        np.exp(r, out=r)
        # each sum over points is numpy's pairwise sum over one row
        nk = np.add.reduce(r, axis=-1)
        rx = np.multiply(r, x, out=log_p_buf[:k])
        mu = np.add.reduce(rx, axis=-1) / nk
        sq = np.subtract(x, mu[..., None], out=log_p_buf[:k])
        np.square(sq, out=sq)
        sq *= r
        var = np.maximum(np.add.reduce(sq, axis=-1) / nk, 1e-6)
        w = nk / n
    final[rows] = prev
    bests = []
    for restarts in final.reshape(len(sets), n_restarts):
        best = -np.inf
        for ll in restarts:
            best = max(best, ll)
        bests.append(best)
    return bests


def oracle_dataset(i: int, n_datasets: int = 20) -> np.ndarray:
    """Set i of the n_datasets oracle sets: 50 + 50 points around
    0.5 -+ sep/2 (sd 0.05, clipped to [-1, 1]) from seed 1000 + i, with the
    separation sep rising from 0.1 to 0.7 over the sets."""
    rng = np.random.default_rng(1000 + i)
    sep = 0.1 + 0.6 * i / max(1, n_datasets - 1)
    lo, hi = 0.5 - sep / 2, 0.5 + sep / 2
    pts = np.concatenate([rng.normal(lo, 0.05, 50), rng.normal(hi, 0.05, 50)])
    return np.clip(pts, -1.0, 1.0)


# Sets per oracle batch, bounded by peak RSS. More sets per batch run
# faster, but the batch's buffers grow with it. With 4 sets (200 rows of 100
# points) `seqssl verify` peaks at about 39 MB; 10 sets raised that peak by
# 2 MB and all 20 sets by 6 MB, for about 10% less oracle time (0.43 s ->
# 0.39 s on 2 Xeon cores).
ORACLE_BATCH_SETS = 4


def gmm_oracle_checks(n_datasets: int = 20) -> List[CheckResult]:
    """fit_gmm must reach the restart-oracle's log-likelihood minus 1e-3 on
    seeded two-cluster datasets with separations from 0.1 to 0.7."""
    worst_gap = -np.inf
    for start in range(0, n_datasets, ORACLE_BATCH_SETS):
        seeds = range(start, min(start + ORACLE_BATCH_SETS, n_datasets))
        sets = [oracle_dataset(i, n_datasets) for i in seeds]
        for pts, best in zip(sets, oracle_em_many(sets, seeds)):
            gap = best - gmm.log_likelihood(gmm.fit_gmm(pts), pts)
            worst_gap = max(worst_gap, gap)
    return [CheckResult("gmm_vs_restart_oracle", worst_gap, 1e-3)]


def acl_oracle(anchor, positives, negatives, tau):
    """Direct evaluation of the contrastive formula: -log of the positive
    share of the exponential sums."""
    s_pos = sum(np.exp(np.dot(anchor, f) / tau) for f in positives)
    s_neg = sum(np.exp(np.dot(anchor, f) / tau) for f in negatives)
    return -np.log(s_pos / (s_pos + s_neg))


def acl_oracle_checks() -> List[CheckResult]:
    """acl_loss must match acl_oracle on 50 seeded random cases."""
    worst = 0.0
    for i in range(50):
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


def run_verification():
    """All self-checks; returns (all_passed, list of CheckResult)."""
    results = []
    for seed in (0, 1, 2):
        results.extend(loss_gradchecks(seed))
    results.extend(gmm_oracle_checks())
    results.extend(acl_oracle_checks())
    return all(r.passed for r in results), results
