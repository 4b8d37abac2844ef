"""Training orchestration: pseudo-label fusion, loss assembly, SGD with the
step schedule, EMA teacher updates and the memory-bank lifecycle.

A step is split into two phases. ``prepare_step_plan`` performs every
teacher-side and bookkeeping decision (augmentation draws, pseudo-labels,
gates, reliability scores, positive/negative selection, prototype and centre
updates) and freezes the results into a plan. ``compute_losses`` is then a
pure, smooth function of the student parameters given that plan, which is
what makes finite-difference gradient verification of every loss exact. The
plan holds the updated prototypes and centres; ``train_step`` commits them to
the state only once the loss has proved finite.

A switched-off mechanism does no work in a step. With ``use_acl`` off the
prototypes, the bank, the teacher's ``f_p``/``f_score`` encode and the
reliability scoring are neither computed nor read; with ``use_mtl`` off the
temporal centers stay put and no alignment term is built.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, dataclass
from typing import List, Optional

import numpy as np

from . import acl as acl_mod
from . import autodiff as ad
from . import backbone as bb
from .mtl import (mtl_loss_from_clips, sample_multiscale,
                  teacher_scale_logits)
from .protobank import MemoryBank, PrototypeTable
from .synthgen import (DatasetConfig, SynthDataset, VideoRecord, clip_span,
                       extract_clip, strong_augment, weak_augment)

# momentum of the running centre of the teacher's temporal logits. The MTL
# targets are those logits minus the centre (DINO's anti-collapse centring,
# Caron et al. 2021): uncentred, the sharpened teacher target is whatever
# logit dominates for every input and the alignment collapses to zero in a
# few steps; centred, the targets stay spread over the embedding dimensions,
# so alignment keeps pressing the student to separate inputs.
CENTER_MOMENTUM = 0.9
# a run writes checkpoint.json every CHECKPOINT_EVERY epochs and after its last
CHECKPOINT_EVERY = 10
# the paper's step hyperparameters that no spec sets
TAU = 0.07             # temperature of the ACL InfoNCE loss
EPSILON = 0.7          # ACL reliability threshold of positives and the anchor
BETA = 0.9             # EMA momentum of the class prototypes
TAU_S = 0.1            # MTL sharpening temperature of the student logits
TAU_T = 0.04           # MTL sharpening temperature of the teacher logits
LR = 0.005             # SGD base learning rate
MOMENTUM = 0.9         # SGD momentum
WEIGHT_DECAY = 0.001   # SGD weight decay
LR_DROP_EPOCHS = (25, 28)  # epochs at which the learning rate drops tenfold
EMA_MOMENTUM = 0.99    # EMA momentum of the teacher parameters


@dataclass
class TrainConfig:
    """The spec's train options: the ones that ``verify``, the benchmark's
    specs or ``ablate`` (``use_acl``/``use_mtl``) set."""
    delta: float = 0.3
    mu1: float = 1.0
    mu2: float = 1.0
    b_l: int = 1
    b_u: int = 5
    clip_len: int = 8
    strides: tuple = (8, 16, 32)
    epochs: int = 30
    bank_capacity: int = 512
    seed: int = 0
    d_h: int = 64
    d_e: int = 16
    d_k: int = 16
    use_acl: bool = True
    use_mtl: bool = True

    @property
    def n_scales(self) -> int:
        """Long-term scales: every stride after the first."""
        return len(self.strides) - 1


@dataclass
class StepReport:
    step: int
    epoch: int
    loss_l: float
    loss_u: float
    loss_acl: float
    loss_mtl: float
    total: float
    acceptance_rate: float
    mean_gamma: float
    n_correct_accepted: int = 0
    n_accepted: int = 0
    n_correct_all: int = 0


@dataclass
class LabeledItem:
    clips: List[bb.Clip]    # weak-augmented views: short clip first, then longs
    label: int


@dataclass
class UnlabeledItem:
    weak: List[bb.Clip]     # weak-augmented views: short clip first, then longs
    strong_short: bb.Clip
    pseudo_label: int
    gate: bool
    true_label: int
    gamma: float = 1.0
    selection: Optional[acl_mod.AclSelection] = None
    # ACL's view of the teacher's weak short clip (None with ACL off): the
    # spatial embedding and the unit pooled embedding used for reliability
    f_p: Optional[np.ndarray] = None
    f_score: Optional[np.ndarray] = None


@dataclass
class StepPlan:
    labeled: List[LabeledItem]
    unlabeled: List[UnlabeledItem]
    # the per-scale teacher-logit centers that compute_losses subtracts to
    # make this step's MTL targets (constants w.r.t. the student)
    mtl_centers: Optional[List[np.ndarray]] = None
    # the state's next prototypes and centers, which absorb this step's
    # batch; train_step commits them (None with ACL or MTL off)
    protos: Optional[PrototypeTable] = None
    new_mtl_centers: Optional[List[np.ndarray]] = None


class TrainerState:
    def __init__(self, cfg: TrainConfig, ds: SynthDataset):
        self.cfg = cfg
        self.ds = ds
        dims = bb.ModelDims(d_in=ds.cfg.d_in, d_h=cfg.d_h, d_e=cfg.d_e,
                            d_k=cfg.d_k, n_classes=ds.cfg.n_classes,
                            clip_len=cfg.clip_len, n_scales=cfg.n_scales)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x1017]))
        self.student = bb.ParamSet.init(dims, rng, trainable=True)
        self.teacher = self.student.copy_as_teacher()
        # reliability is scored in the pooled encoder space (shaped by the
        # classification losses, never pulled around by the contrastive
        # loss), so prototypes live there too; each bank record pairs that
        # pooled vector with the projection-head embedding the InfoNCE terms
        # operate on
        self.protos = PrototypeTable(ds.cfg.n_classes, cfg.d_h)
        self.bank = MemoryBank(cfg.bank_capacity, cfg.d_e, cfg.d_h)
        self.velocity = {k: np.zeros_like(p.data)
                         for k, p in self.student.params.items()}
        # running centers of the teacher's per-scale temporal logits,
        # subtracted before sharpening to stop alignment collapse
        self.mtl_centers = [np.zeros(cfg.d_k) for _ in range(cfg.n_scales)]
        self.global_step = 0


def fused_pseudo_label(teacher: bb.ParamSet, clips: List[bb.Clip]):
    """Argmax of the summed teacher predictions over all clips; ties go to
    the lowest class index (np.argmax convention)."""
    fused = np.sum([bb.classify(teacher, bb.encode(teacher, c)).data
                    for c in clips], axis=0)
    y_hat = int(np.argmax(fused))
    return y_hat, float(fused[y_hat] / len(clips))


def sgd_step(params: bb.ParamSet, velocity: dict, lr: float,
             weight_decay: float) -> None:
    """v <- MOMENTUM*v + grad + wd*p; p <- p - lr*v."""
    for k in params.names():
        p = params.params[k]
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        velocity[k] = MOMENTUM * velocity[k] + g + weight_decay * p.data
        p.data = p.data - lr * velocity[k]


def lr_schedule(epoch: int) -> float:
    drops = sum(1 for e in LR_DROP_EPOCHS if epoch >= e)
    return LR * (0.1 ** drops)


def prepare_step_plan(state: TrainerState, labeled_recs, unlabeled_recs,
                      rng: np.random.Generator) -> StepPlan:
    """Teacher-side pass: draws augmentations and fixes pseudo-labels and
    gates. With ACL on it also updates a copy of the prototypes from the
    labeled embeddings, encodes each weak short clip for ``f_p``/``f_score``,
    and fixes reliability scores and contrastive selections; with ACL off
    none of that runs. With MTL on it computes the next centers. The state
    is left as it was. Encodes draw no rng, so the rng draws are the same
    either way."""
    cfg, ds = state.cfg, state.ds

    labeled_items = []
    for rec in labeled_recs:
        frames = ds.frames(rec)
        # labeled videos contribute every stride's view: with so few labels,
        # the supervised term is what first carves the confusable pairs apart
        clips = [weak_augment(c, rng, frames) for c in sample_multiscale(
            frames, cfg.strides, cfg.clip_len, rng)]
        labeled_items.append(LabeledItem(clips=clips, label=rec.class_id))

    unlabeled_items = []
    for rec in unlabeled_recs:
        frames = ds.frames(rec)
        short, *longs = sample_multiscale(frames, cfg.strides, cfg.clip_len,
                                          rng)
        # the strong view is drawn between the weak short and weak long
        # views, and this draw order fixes every later draw of the run
        weak = [weak_augment(short, rng, frames)]
        strong_short = strong_augment(short, rng, frames)
        weak += [weak_augment(c, rng, frames) for c in longs]

        y_hat, fused_max = fused_pseudo_label(state.teacher, weak)
        unlabeled_items.append(UnlabeledItem(
            weak=weak, strong_short=strong_short, pseudo_label=y_hat,
            gate=fused_max > cfg.delta, true_label=rec.class_id))

    protos = None
    if cfg.use_acl:
        # prototype updates from the current student's labeled embeddings;
        # every view counts, so prototypes stabilize within the first epochs
        # and reliability scoring engages early. The student is fixed while a
        # plan is built, so where in the plan they are updated does not
        # matter.
        protos = state.protos.copy()
        for item in labeled_items:
            for clip in item.clips:
                pooled = bb.encode(state.student, clip).pooled.data
                protos.update(item.label, ad._unit(pooled)[0], BETA)
        for it in unlabeled_items:
            enc_p = bb.encode(state.teacher, it.weak[0])
            it.f_p = bb.spatial_embed(state.teacher, enc_p).data
            it.f_score = ad._unit(enc_p.pooled.data)[0]

        # the bank and the prototypes stay fixed over the unlabeled batch, so
        # its candidate sets are scored in one batched GMM fit; select falls
        # back where the pseudo-class has no prototype (scores None)
        scores = acl_mod.score_candidates([
            (acl_mod.build_candidates(state.bank, it.pseudo_label, it.f_score),
             protos.get(it.pseudo_label))
            for it in unlabeled_items])
        for it, it_scores in zip(unlabeled_items, scores):
            it.selection = acl_mod.select(state.bank, it.pseudo_label, it.f_p,
                                          it_scores, EPSILON)
            it.gamma = it.selection.anchor_reliability

    # the plan uses the centers as they stood before this step; the next
    # centers absorb this batch's teacher logits into a new list, so the
    # state's list is never written and the plan can hold it as it is
    centers = new_centers = None
    if cfg.use_mtl:
        centers = state.mtl_centers
        new_centers = list(centers)
        # the centers track the very logits the MTL targets centre: the
        # teacher head on the *calibrated* long tokens
        if unlabeled_items:
            logits = teacher_scale_logits(
                state.teacher, [item.weak for item in unlabeled_items])
            for n, batch in enumerate(logits):
                new_centers[n] = (
                    CENTER_MOMENTUM * centers[n]
                    + (1.0 - CENTER_MOMENTUM) * np.mean(batch, axis=0))

    return StepPlan(labeled=labeled_items, unlabeled=unlabeled_items,
                    mtl_centers=centers, protos=protos,
                    new_mtl_centers=new_centers)


def compute_losses(student: bb.ParamSet, teacher: bb.ParamSet, plan: StepPlan,
                   cfg: TrainConfig):
    """Pure student-side loss assembly given a frozen step plan.

    Returns (total, parts) where parts maps loss names to Tensors.
    """
    zero = ad.Tensor(0.0)

    if not plan.labeled:
        raise ValueError("labeled batch is empty")
    loss_l = zero
    for item in plan.labeled:
        per_view = zero
        for clip in item.clips:
            probs = bb.classify(student, bb.encode(student, clip))
            per_view = ad.add(per_view, ad.cross_entropy(probs, item.label))
        loss_l = ad.add(loss_l, ad.scale(per_view, 1.0 / len(item.clips)))
    loss_l = ad.scale(loss_l, 1.0 / len(plan.labeled))

    loss_u = zero
    loss_acl = zero
    n_anchors = 0
    mtl_terms = zero
    if cfg.use_mtl and plan.unlabeled:
        # each scale's centred targets, row i for item i
        targets = [z - c for z, c in zip(
            teacher_scale_logits(teacher,
                                 [item.weak for item in plan.unlabeled]),
            plan.mtl_centers)]
    for i, item in enumerate(plan.unlabeled):
        enc_strong = bb.encode(student, item.strong_short)
        if item.gate:
            probs = bb.classify(student, enc_strong)
            ce = ad.cross_entropy(probs, item.pseudo_label)
            loss_u = ad.add(loss_u, ad.scale(ce, item.gamma))
        if item.selection is not None:
            anchor = bb.spatial_embed(student, enc_strong)
            loss_acl = ad.add(loss_acl,
                              acl_mod.acl_loss(anchor, item.selection, TAU))
            n_anchors += 1
        if cfg.use_mtl:
            mtl_terms = ad.add(mtl_terms, mtl_loss_from_clips(
                item.strong_short, student, [z[i] for z in targets], TAU_S,
                TAU_T))

    n_u = max(1, len(plan.unlabeled))
    loss_u = ad.scale(loss_u, 1.0 / n_u)
    loss_mtl = ad.scale(mtl_terms, 1.0 / n_u) if cfg.use_mtl else zero
    loss_acl = ad.scale(loss_acl, 1.0 / n_anchors) if n_anchors else zero

    total = ad.add(ad.add(loss_l, loss_u),
                   ad.add(ad.scale(loss_mtl, cfg.mu1), ad.scale(loss_acl, cfg.mu2)))
    return total, {"L_l": loss_l, "L_u": loss_u, "L_ACL": loss_acl,
                   "L_MTL": loss_mtl}


def train_step(state: TrainerState, labeled_recs, unlabeled_recs, epoch: int,
               rng: np.random.Generator) -> StepReport:
    cfg = state.cfg
    plan = prepare_step_plan(state, labeled_recs, unlabeled_recs, rng)

    state.student.zero_grad()
    total, parts = compute_losses(state.student, state.teacher, plan, cfg)
    if not math.isfinite(total.item()):
        named = ", ".join(f"{k} {v.item()!r}" for k, v in parts.items())
        raise FloatingPointError(
            f"step {state.global_step} (epoch {epoch}): "
            f"non-finite total loss {total.item()!r} ({named})")
    total.backward()
    sgd_step(state.student, state.velocity, lr_schedule(epoch), WEIGHT_DECAY)
    bb.ema_update(state.teacher, state.student, EMA_MOMENTUM)

    # the step's bookkeeping is committed only after a finite loss
    if cfg.use_acl:
        state.protos = plan.protos
        for item in plan.unlabeled:
            state.bank.push(item.f_p, item.f_score, item.pseudo_label)
    if cfg.use_mtl:
        state.mtl_centers = plan.new_mtl_centers

    accepted = [it for it in plan.unlabeled if it.gate]
    n_correct = sum(1 for it in accepted if it.pseudo_label == it.true_label)
    n_correct_all = sum(1 for it in plan.unlabeled
                        if it.pseudo_label == it.true_label)
    gammas = [it.gamma for it in plan.unlabeled]
    report = StepReport(
        step=state.global_step, epoch=epoch,
        loss_l=parts["L_l"].item(), loss_u=parts["L_u"].item(),
        loss_acl=parts["L_ACL"].item(), loss_mtl=parts["L_MTL"].item(),
        total=total.item(),
        acceptance_rate=len(accepted) / max(1, len(plan.unlabeled)),
        mean_gamma=float(np.mean(gammas)) if gammas else 1.0,
        n_correct_accepted=n_correct, n_accepted=len(accepted),
        n_correct_all=n_correct_all)
    state.global_step += 1
    return report


def evaluate(params: bb.ParamSet, ds: SynthDataset, records, cfg: TrainConfig):
    """Top-1/top-5 accuracy on a single augmentation-free center clip per video."""
    if not records:
        raise ValueError("evaluation set is empty")
    stride = cfg.strides[0]
    span = clip_span(cfg.clip_len, stride)
    top1 = top5 = 0
    for rec in records:
        frames = ds.frames(rec)
        start = (frames.shape[0] - span) // 2
        clip = extract_clip(frames, start, stride, cfg.clip_len)
        probs = bb.classify(params, bb.encode(params, clip)).data
        # stable ranking: argmax ties resolve to the lowest class index
        if int(np.argmax(probs)) == rec.class_id:
            top1 += 1
        order = np.argsort(-probs, kind="stable")
        if rec.class_id in order[:5]:
            top5 += 1
    n = len(records)
    return top1 / n, top5 / n


def _fmt(x: float) -> str:
    return repr(float(x))


def _or_null(x: float):
    """JSON has no nan: an undefined accuracy is written as null."""
    return None if math.isnan(x) else x


def run_training(cfg: TrainConfig, ds_cfg: DatasetConfig, out_dir: str,
                 eval_per_class: int = 10) -> dict:
    """Full training run; writes metrics.csv, epochs.csv, final_eval.json and
    a checkpoint into out_dir, and returns the final summary dict."""
    os.makedirs(out_dir, exist_ok=True)
    ds = SynthDataset(ds_cfg)
    state = TrainerState(cfg, ds)
    eval_recs = eval_records(ds, eval_per_class)

    resolved = {"train": asdict(cfg), "dataset": asdict(ds_cfg)}
    cfg_hash = bb.config_hash(resolved)
    bb.write_atomic(os.path.join(out_dir, "resolved_config.json"),
                    lambda f: json.dump(resolved, f, indent=2, sort_keys=True))
    bb.write_atomic(os.path.join(out_dir, "manifest.json"),
                    lambda f: json.dump(ds.manifest(), f))

    steps_per_epoch = math.ceil(len(ds.unlabeled) / cfg.b_u)
    epoch_rows = []
    with open(os.path.join(out_dir, "metrics.csv"), "w", newline="") as mf:
        mw = csv.writer(mf)
        mw.writerow(["step", "epoch", "L_l", "L_u", "L_ACL", "L_MTL", "total",
                     "acceptance_rate", "mean_gamma"])
        for epoch in range(cfg.epochs):
            erng = np.random.default_rng(
                np.random.SeedSequence([cfg.seed, epoch, 0x5C]))
            lab_order = erng.permutation(len(ds.labeled))
            unl_order = erng.permutation(len(ds.unlabeled))
            n_acc = n_corr = n_corr_all = n_seen = 0
            for s in range(steps_per_epoch):
                labeled_recs = [
                    ds.labeled[lab_order[(s * cfg.b_l + j) % len(lab_order)]]
                    for j in range(cfg.b_l)]
                u_lo = s * cfg.b_u
                unlabeled_recs = [ds.unlabeled[unl_order[i % len(unl_order)]]
                                  for i in range(u_lo, u_lo + cfg.b_u)]
                rng = np.random.default_rng(
                    np.random.SeedSequence([cfg.seed, epoch, s]))
                rep = train_step(state, labeled_recs, unlabeled_recs, epoch, rng)
                mw.writerow([rep.step, rep.epoch, _fmt(rep.loss_l),
                             _fmt(rep.loss_u), _fmt(rep.loss_acl),
                             _fmt(rep.loss_mtl), _fmt(rep.total),
                             _fmt(rep.acceptance_rate), _fmt(rep.mean_gamma)])
                n_acc += rep.n_accepted
                n_corr += rep.n_correct_accepted
                n_corr_all += rep.n_correct_all
                n_seen += len(unlabeled_recs)

            s_top1, s_top5 = evaluate(state.student, ds, eval_recs, cfg)
            t_top1, t_top5 = evaluate(state.teacher, ds, eval_recs, cfg)
            # accuracy over an empty accepted set is undefined, not zero
            epoch_rows.append({
                "epoch": epoch, "student_top1": s_top1, "student_top5": s_top5,
                "teacher_top1": t_top1, "teacher_top5": t_top5,
                "pseudo_acc": n_corr / n_acc if n_acc else math.nan,
                "n_accepted": n_acc,
                "pseudo_acc_all": n_corr_all / max(1, n_seen),
                "acceptance_rate": n_acc / max(1, n_seen)})
            if (epoch + 1) % CHECKPOINT_EVERY == 0 or epoch == cfg.epochs - 1:
                bb.save_checkpoint(os.path.join(out_dir, "checkpoint.json"),
                                   state.student, state.teacher, cfg_hash)

    def write_epochs(f):
        # the columns are the record's keys: ints as they are, floats by _fmt
        ew = csv.writer(f)
        ew.writerow(list(epoch_rows[0]))
        for row in epoch_rows:
            ew.writerow([v if isinstance(v, int) else _fmt(v)
                         for v in row.values()])
    bb.write_atomic(os.path.join(out_dir, "epochs.csv"), write_epochs)

    summary = {
        "top1": epoch_rows[-1]["teacher_top1"],
        "top5": epoch_rows[-1]["teacher_top5"],
        "student_top1": epoch_rows[-1]["student_top1"],
        "student_top5": epoch_rows[-1]["student_top5"],
        "pseudo_acc_first": _or_null(epoch_rows[0]["pseudo_acc"]),
        "pseudo_acc_final": _or_null(epoch_rows[-1]["pseudo_acc"]),
        "pseudo_acc_all_first": epoch_rows[0]["pseudo_acc_all"],
        "pseudo_acc_all_final": epoch_rows[-1]["pseudo_acc_all"],
        "acceptance_first": epoch_rows[0]["acceptance_rate"],
        "acceptance_final": epoch_rows[-1]["acceptance_rate"],
        "epochs": cfg.epochs, "seed": cfg.seed,
        "use_acl": cfg.use_acl, "use_mtl": cfg.use_mtl,
    }
    bb.write_atomic(os.path.join(out_dir, "final_eval.json"),
                    lambda f: json.dump(summary, f, indent=2, sort_keys=True))
    return summary


def eval_records(ds: SynthDataset, eval_per_class: int):
    """Held-out videos: indices beyond the training range, regenerated from
    the same class definitions."""
    recs = []
    for c in range(ds.cfg.n_classes):
        for v in range(ds.cfg.per_class, ds.cfg.per_class + eval_per_class):
            recs.append(VideoRecord(source_id=c * 10_000 + v, class_id=c,
                                    video_index=v, labeled=False))
    return recs
