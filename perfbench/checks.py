"""Output checks for the benchmark's workloads.

Every check is written against a property of the method or against a value
computed here apart from the program: the loss identity, the gate's
granularity, the support of each accuracy, and the teacher's top-1 recomputed
from ``checkpoint.json`` by a numpy forward pass written from the formulas
documented in ``seqssl/backbone.py``. None compares with a stored copy of an
earlier output.

A problem is ``(step, message)``: ``step`` is the training step whose
``metrics.csv`` row is wrong, or ``None`` when the fault is in the run as a
whole.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re

import numpy as np

METRICS_HEADER = ["step", "epoch", "L_l", "L_u", "L_ACL", "L_MTL", "total",
                  "acceptance_rate", "mean_gamma"]
EPOCHS_HEADER = ["epoch", "student_top1", "student_top5", "teacher_top1",
                 "teacher_top5", "pseudo_acc", "n_accepted", "pseudo_acc_all",
                 "acceptance_rate"]
ACCURACIES = ["student_top1", "student_top5", "teacher_top1", "teacher_top5",
              "pseudo_acc", "pseudo_acc_all"]
# held-out videos per class that run_training evaluates on
EVAL_PER_CLASS = 10
# the 17 checks `seqssl verify` runs
VERIFY_CHECKS = ([f"gradcheck[{part}]@seed{seed}" for seed in (0, 1, 2)
                  for part in ("L_l", "L_u", "L_ACL", "L_MTL", "total")]
                 + ["gmm_vs_restart_oracle", "acl_loss_vs_direct_sum"])
REL_TOL = 1e-12


def _read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return (rows[0], rows[1:]) if rows else ([], [])


def _close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def _dataset(spec):
    from seqssl.synthgen import DatasetConfig, SynthDataset

    return SynthDataset(DatasetConfig(**spec["dataset"]))


def steps_per_epoch(spec):
    """Steps in one epoch: every unlabeled video once, in batches of
    ``b_u`` (the last batch wraps around)."""
    return math.ceil(len(_dataset(spec).unlabeled) / spec["train"]["b_u"])


def check_metrics(path, train, n_per_epoch):
    """One row per step; finite values; the total is the weighted sum of its
    parts; the acceptance rate is k/b_u; gamma is a probability; a term that
    is switched off is exactly 0 (and gamma exactly 1 without ACL)."""
    header, rows = _read_csv(path)
    if header != METRICS_HEADER:
        return [(None, f"metrics.csv header {header}")]
    n_steps = train["epochs"] * n_per_epoch
    problems = []
    if len(rows) != n_steps:
        problems.append((None, f"metrics.csv has {len(rows)} rows, "
                               f"expected {n_steps}"))
    b_u, mu1, mu2 = train["b_u"], train["mu1"], train["mu2"]
    for i, row in enumerate(rows[:n_steps]):
        def bad(msg):
            problems.append((i, f"metrics.csv step {i}: {msg}"))
        try:
            v = dict(zip(METRICS_HEADER, map(float, row), strict=True))
        except ValueError:
            bad(f"unreadable row {row}")
            continue
        if (v["step"], v["epoch"]) != (i, i // n_per_epoch):
            bad(f"step/epoch {row[:2]}")
        if not all(map(math.isfinite, v.values())):
            bad("non-finite value")
            continue
        parts = v["L_l"] + v["L_u"] + mu1 * v["L_MTL"] + mu2 * v["L_ACL"]
        if not _close(v["total"], parts):
            bad(f"total {v['total']!r} != sum of parts {parts!r}")
        k = v["acceptance_rate"] * b_u
        if not (0.0 <= v["acceptance_rate"] <= 1.0
                and abs(k - round(k)) < 1e-9):
            bad(f"acceptance_rate {v['acceptance_rate']!r} is not k/{b_u}")
        if not 0.0 <= v["mean_gamma"] <= 1.0:
            bad(f"mean_gamma {v['mean_gamma']!r} outside [0, 1]")
        if not train["use_acl"] and (v["L_ACL"] != 0.0
                                     or v["mean_gamma"] != 1.0):
            bad("ACL is off but L_ACL != 0 or mean_gamma != 1")
        if not train["use_mtl"] and v["L_MTL"] != 0.0:
            bad("MTL is off but L_MTL != 0")
    return problems


def check_epochs(path, train, n_per_epoch):
    """Accepted count within the videos drawn, the rate as their ratio,
    ``pseudo_acc`` undefined exactly on an empty gate, accuracies in [0, 1]."""
    header, rows = _read_csv(path)
    if header != EPOCHS_HEADER:
        return [(None, f"epochs.csv header {header}")]
    problems = []
    if len(rows) != train["epochs"]:
        problems.append((None, f"epochs.csv has {len(rows)} rows, "
                               f"expected {train['epochs']}"))
    drawn = n_per_epoch * train["b_u"]
    for e, row in enumerate(rows):
        def bad(msg):
            problems.append((None, f"epochs.csv epoch {e}: {msg}"))
        try:
            v = dict(zip(EPOCHS_HEADER, map(float, row), strict=True))
        except ValueError:
            bad(f"unreadable row {row}")
            continue
        n_acc = v["n_accepted"]
        if v["epoch"] != e or n_acc != int(n_acc) or not 0 <= n_acc <= drawn:
            bad(f"epoch/n_accepted {row[0]}, {row[6]} (drawn {drawn})")
        if not _close(v["acceptance_rate"], n_acc / drawn):
            bad(f"acceptance_rate {v['acceptance_rate']!r} != "
                f"{int(n_acc)}/{drawn}")
        if math.isnan(v["pseudo_acc"]) != (n_acc == 0):
            bad(f"pseudo_acc {row[5]} with n_accepted {row[6]}")
        for name in ACCURACIES:
            if name == "pseudo_acc" and n_acc == 0:
                continue
            if not 0.0 <= v[name] <= 1.0:
                bad(f"{name} {row[EPOCHS_HEADER.index(name)]} outside [0, 1]")
    return problems


def forward_probs(p, x):
    """Class probabilities of one clip ``x`` (T, d_in): per-frame tanh map,
    row-stochastic temporal mixing, shifted softplus, mean pool over time,
    softmax of the classifier head."""
    t = x.shape[0]
    h = np.tanh(x @ p["enc.W1"] + p["enc.b1"])
    unif = np.full((t, t), 1.0 / t)
    mix = p["enc.M"] - p["enc.M"] @ unif + unif
    tokens = np.logaddexp(0.0, mix @ h) - np.log(2.0)
    logits = p["cls.W"] @ tokens.mean(axis=0) + p["cls.b"]
    e = np.exp(logits - logits.max())
    return e / e.sum()


def eval_clips(spec):
    """(clip, class) for every held-out video: the augmentation-free centre
    clip at the shortest stride. Videos come from the program's generator;
    the clip is cut here."""
    from seqssl.synthgen import VideoRecord

    ds_cfg, train = spec["dataset"], spec["train"]
    ds = _dataset(spec)
    clip_len, stride = train["clip_len"], train["strides"][0]
    span = (clip_len - 1) * stride + 1
    out = []
    for c in range(ds_cfg["n_classes"]):
        for v in range(ds_cfg["per_class"], ds_cfg["per_class"] + EVAL_PER_CLASS):
            frames = ds.frames(VideoRecord(source_id=c * 10_000 + v,
                                           class_id=c, video_index=v,
                                           labeled=False))
            start = (frames.shape[0] - span) // 2
            out.append((frames[start:start + span:stride], c))
    return out


def check_top1(run_dir, spec, min_top1):
    """The teacher's top-1, recomputed from the checkpoint, equals the
    reported one and clears ``min_top1``."""
    with open(os.path.join(run_dir, "checkpoint.json")) as f:
        teacher = {k: np.asarray(v, dtype=np.float64) for k, v in
                   json.load(f)["params"]["teacher"].items()}
    with open(os.path.join(run_dir, "final_eval.json")) as f:
        reported = json.load(f)["top1"]
    if not all(np.isfinite(v).all() for v in teacher.values()):
        return [(None, "checkpoint.json holds non-finite teacher parameters")]
    clips = eval_clips(spec)
    hits = sum(int(np.argmax(forward_probs(teacher, x))) == c for x, c in clips)
    top1 = hits / len(clips)
    problems = []
    if top1 != reported:
        problems.append((None, f"final_eval top1 {reported!r} but the "
                               f"checkpoint's teacher scores {top1!r}"))
    if top1 < min_top1:
        problems.append((None, f"teacher top1 {top1!r} below {min_top1!r}"))
    return problems


def check_train_run(run_dir, spec, n_per_epoch, min_top1):
    """Every check on one training run directory."""
    train = spec["train"]
    return (check_metrics(os.path.join(run_dir, "metrics.csv"), train,
                          n_per_epoch)
            + check_epochs(os.path.join(run_dir, "epochs.csv"), train,
                           n_per_epoch)
            + check_top1(run_dir, spec, min_top1))


def failed_ops(problems, n_ops):
    """A run-level fault fails every step of the run; a row fault fails
    that step."""
    if any(step is None for step, _ in problems):
        return n_ops
    return len({step for step, _ in problems})


def check_verify(returncode, stdout):
    """`seqssl verify` exits 0 and prints PASS for each of its 17 checks.
    Returns (failed checks, problems)."""
    passed = set(re.findall(r"^PASS (\S+):", stdout, flags=re.M))
    problems = [(None, f"verify: no PASS line for {name}")
                for name in VERIFY_CHECKS if name not in passed]
    if returncode != 0:
        problems.append((None, f"verify exited with {returncode}"))
        return len(VERIFY_CHECKS), problems
    return len(problems), problems
