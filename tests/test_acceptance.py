"""Acceptance suite: one test per release criterion.

The terminal summary (see conftest.py) prints one PASS/FAIL line per
criterion. Criteria 7 and 9 share a single 12-run ablation of the default
configuration, so this file takes the bulk of the suite's runtime.
"""

import csv
import json
import statistics
import time

import numpy as np
import pytest

from seqssl import acl as acl_mod
from seqssl import cli, gmm, mtl
from seqssl import trainer as tr
from seqssl import verify
from seqssl.protobank import MemoryBank
from seqssl.synthgen import DatasetConfig, SynthDataset


# ---------------------------------------------------------------------------
# criterion 1: every loss passes a central-finite-difference gradient check
# over all student parameters at 5 seeded configurations, max relative
# error < 1e-4, in under 2 minutes. Seeds 0-2 are `seqssl verify`'s, read
# from the session's one verification run; seeds 3 and 4 run here. The time
# bound covers the whole verification run plus seeds 3 and 4.

LOSSES = ("L_l", "L_u", "L_ACL", "L_MTL", "total")


def test_criterion_1_gradient_correctness(verification):
    _, results, verify_s = verification
    t0 = time.monotonic()
    checks = [r for r in results if r.name.startswith("gradcheck[")]
    for seed in (3, 4):
        checks.extend(verify.loss_gradchecks(seed))
    elapsed = verify_s + time.monotonic() - t0
    assert sorted(r.name for r in checks) == sorted(
        f"gradcheck[{loss}]@seed{seed}"
        for seed in range(5) for loss in LOSSES)
    worst = 0.0
    for res in checks:
        assert res.passed, f"{res.name}: {res.max_error:.3e}"
        worst = max(worst, res.max_error)
    assert worst < 1e-4
    assert elapsed < 120.0, f"gradchecks took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 2: on 20 seeded 1-D mixtures (n=100, separation 0.1..0.7) the
# fit's log-likelihood is within 1e-3 of a 50-restart oracle; at separation
# >= 0.5 with sigma=0.05, at least 95% of points get posterior > 0.9 for
# their true component. Under 30 seconds. The oracle comparison is
# `seqssl verify`'s, read from the session's one verification run; the time
# bound covers the whole verification run plus the posterior checks.

def test_criterion_2_gmm_oracle_equivalence(verification):
    _, results, verify_s = verification
    t0 = time.monotonic()
    (res,) = [r for r in results if r.name == "gmm_vs_restart_oracle"]
    assert res.passed, f"{res.name}: gap {res.max_error:.3e}"
    for i, sep in enumerate((0.5, 0.55, 0.6, 0.65, 0.7)):
        rng = np.random.default_rng(3000 + i)
        lo, hi = 0.5 - sep / 2, 0.5 + sep / 2
        pts = np.concatenate([rng.normal(lo, 0.05, 50),
                              rng.normal(hi, 0.05, 50)])
        truth = np.repeat([0, 1], 50)  # 1 = larger-mean component
        fit = gmm.fit_gmm(pts)
        post_hi = gmm.reliability_many(fit, pts)
        post_true = np.where(truth == 1, post_hi, 1.0 - post_hi)
        frac = float(np.mean(post_true > 0.9))
        assert frac >= 0.95, f"separation {sep}: only {frac:.2%} confident"
    elapsed = verify_s + time.monotonic() - t0
    assert elapsed < 30.0, f"gmm checks took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 3: contrastive loss matches a direct exponential-sum evaluation
# of the formula within 1e-9 on 50 seeded anchor/positive/negative sets,
# read from the session's one verification run.

def test_criterion_3_acl_loss_oracle(verification):
    _, results, _ = verification
    (res,) = [r for r in results if r.name == "acl_loss_vs_direct_sum"]
    assert res.passed, f"{res.name}: {res.max_error:.3e}"


# ---------------------------------------------------------------------------
# criterion 4: selection semantics against a brute-force reference over
# randomized banks of size <= 64: positives = same-pseudo-class entries with
# score > epsilon plus the weak-augmented embedding; fallback exactly when
# the anchor's own score <= epsilon, with positives == {f_p} and negatives
# == the whole bank.

def _reference_select(bank, pseudo_label, f_p, scores, epsilon):
    entries = list(zip(bank.embeddings, bank.scores, bank.labels))
    gamma_fp = scores[-1]
    if gamma_fp <= epsilon:
        return [f_p], [e for e, _, _ in entries], True
    cand_positions = [i for i, (_, _, lab) in enumerate(entries)
                      if lab == pseudo_label]
    pos_idx = [i for i, s in zip(cand_positions, scores[:-1]) if s > epsilon]
    positives = [entries[i][0] for i in pos_idx] + [f_p]
    negatives = [e for i, (e, _, _) in enumerate(entries)
                 if i not in pos_idx]
    return positives, negatives, False


def test_criterion_4_selection_semantics():
    rng = np.random.default_rng(77)
    for trial in range(300):
        size = int(rng.integers(0, 65))
        n_classes = int(rng.integers(1, 6))
        bank = MemoryBank(64, 6, 6)
        for _ in range(size):
            v = rng.normal(size=6)
            v = v / np.linalg.norm(v)
            bank.push(v, v, int(rng.integers(n_classes)))
        label = int(rng.integers(n_classes))
        f_p = rng.normal(size=6)
        f_p /= np.linalg.norm(f_p)
        n_cand = sum(1 for lab in bank.labels if lab == label) + 1
        scores = rng.uniform(size=n_cand)
        epsilon = float(rng.uniform(0.2, 0.9))
        sel = acl_mod.select(bank, label, f_p, scores, epsilon)
        ref_pos, ref_neg, ref_fb = _reference_select(bank, label, f_p,
                                                     scores, epsilon)
        assert sel.used_fallback == ref_fb
        assert len(sel.positives) == len(ref_pos)
        for a, b in zip(sel.positives, ref_pos):
            np.testing.assert_array_equal(a, b)
        assert len(sel.negatives) == len(ref_neg)
        for a, b in zip(sel.negatives, ref_neg):
            np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# criterion 5: calibrate(q, q) yields attention identically 1 and unchanged
# tokens within 1e-12; rowwise-orthogonal inputs yield zero calibrated
# tokens.

def test_criterion_5_calibration_identity_and_suppression():
    rng = np.random.default_rng(5)
    q = rng.normal(size=(8, 16))
    res = mtl.calibrate(q, q)
    np.testing.assert_allclose(res.attention, np.ones(8), atol=1e-12)
    np.testing.assert_allclose(res.calibrated_tokens, q, atol=1e-12)

    k = np.zeros_like(q)
    for t in range(8):
        v = rng.normal(size=16)
        v -= np.dot(v, q[t]) / np.dot(q[t], q[t]) * q[t]
        k[t] = v
    res = mtl.calibrate(q, k)
    np.testing.assert_allclose(res.attention, np.zeros(8), atol=1e-12)
    np.testing.assert_allclose(res.calibrated_tokens,
                               np.zeros_like(q), atol=1e-12)


# ---------------------------------------------------------------------------
# criterion 6: after every training step the teacher equals
# m*teacher_prev + (1-m)*student element-wise within 1e-12, and teacher
# gradients are identically absent.

def test_criterion_6_teacher_ema_exactness():
    cfg, ds_cfg = verify.small_config(0)
    ds = SynthDataset(ds_cfg)
    state = tr.TrainerState(cfg, ds)
    rng = np.random.default_rng(0)
    m = tr.EMA_MOMENTUM
    for step in range(8):
        prev = {k: p.data.copy() for k, p in state.teacher.params.items()}
        lab = [ds.labeled[(step * cfg.b_l + i) % len(ds.labeled)]
               for i in range(cfg.b_l)]
        unl = [ds.unlabeled[(step * cfg.b_u + i) % len(ds.unlabeled)]
               for i in range(cfg.b_u)]
        tr.train_step(state, lab, unl, 0, rng)
        for k, p in state.teacher.params.items():
            want = m * prev[k] + (1.0 - m) * state.student.params[k].data
            np.testing.assert_allclose(p.data, want, rtol=0.0, atol=1e-12)
            assert p.grad is None
            assert not p.requires_grad


# ---------------------------------------------------------------------------
# criteria 7 and 9 share one 12-run ablation of the default configuration
# (8 classes with confusable pairs, 50 videos/class, 5% labeled, seeds
# 0/1/2).

@pytest.fixture(scope="module")
def ablation(tmp_path_factory):
    out = tmp_path_factory.mktemp("ablation")
    spec = {"train": {}, "dataset": {}, "seeds": [0, 1, 2],
            "out_dir": str(out)}
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps(spec))
    t0 = time.monotonic()
    rc = cli.main(["ablate", "--config", str(spec_path)])
    elapsed = time.monotonic() - t0
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    return {"out": out, "summary": summary, "elapsed": elapsed}


@pytest.mark.slow
def test_criterion_7_ablation_ordering(ablation):
    med = {row["config"]: row["median_top1"]
           for row in ablation["summary"]["configs"]}
    hi = max(med["acl_only"], med["mtl_only"])
    lo = min(med["acl_only"], med["mtl_only"])
    assert med["both"] >= hi, med
    assert hi >= lo >= med["baseline"], med
    assert med["both"] - med["baseline"] >= 0.05, med
    assert ablation["elapsed"] < 1200.0, \
        f"12-run harness took {ablation['elapsed']:.0f}s"


# Criterion 9 reads the accuracy of the teacher's fused pseudo-labels over
# every unlabeled sample drawn in the epoch (`pseudo_acc_all`), not over the
# gate-accepted ones (`pseudo_acc`): in epoch 0 the confidence gate accepts
# almost nothing, so the accepted-set figure there is undefined or rests on
# a handful of samples, and later it moves with the gate's population as
# much as with label quality.

@pytest.mark.slow
def test_criterion_9_pseudo_label_quality(ablation):
    gains = []
    for seed in (0, 1, 2):
        path = ablation["out"] / "both" / f"seed_{seed}" / "epochs.csv"
        with open(path) as f:
            rows = list(csv.DictReader(f))
        first = float(rows[0]["pseudo_acc_all"])
        final = float(rows[-1]["pseudo_acc_all"])
        gains.append(final - first)
    assert statistics.median(gains) >= 0.10, gains


# ---------------------------------------------------------------------------
# criterion 8: two cmd_train invocations with identical config and seed
# produce byte-identical metrics CSVs.

def test_criterion_8_determinism(tmp_path):
    spec = {
        "train": {"epochs": 3, "clip_len": 4, "strides": [2, 4, 8],
                  "d_h": 8, "d_e": 4, "d_k": 6, "bank_capacity": 32,
                  "b_l": 1, "b_u": 3},
        "dataset": {"n_classes": 4, "per_class": 8, "labeled_fraction": 0.25,
                    "d_in": 8, "video_len": 60, "noise": 0.05, "seed": 0},
        "seeds": [0],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli.main(["train", "--config", str(spec_path),
                     "--out", str(out1)]) == 0
    assert cli.main(["train", "--config", str(spec_path),
                     "--out", str(out2)]) == 0
    assert (out1 / "metrics.csv").read_bytes() == \
        (out2 / "metrics.csv").read_bytes()
    assert (out1 / "epochs.csv").read_bytes() == \
        (out2 / "epochs.csv").read_bytes()
