import csv
import json

import numpy as np
import pytest

from seqssl import backbone as bb
from seqssl import mtl
from seqssl import trainer as tr
from seqssl.errors import EmptyBatch, EmptyDataset
from seqssl.synthgen import DatasetConfig, SynthDataset


def small():
    ds_cfg = DatasetConfig(n_classes=4, per_class=6, labeled_fraction=0.34,
                           d_in=4, video_len=40, noise=0.05, seed=0)
    cfg = tr.TrainConfig(seed=0, clip_len=4, strides=(2, 4, 8), d_h=6,
                         d_e=4, d_k=5, bank_capacity=32, epochs=2,
                         delta=0.0, b_l=2, b_u=3)
    return cfg, SynthDataset(ds_cfg)


class TestFusedPseudoLabel:
    def test_identical_predictions(self):
        cfg, ds = small()
        state = tr.TrainerState(cfg, ds)
        frames = ds.frames(ds.unlabeled[0])
        from seqssl.synthgen import extract_clip
        clip = extract_clip(frames, 0, 2, 4)
        y, fused_max, per_clip = tr.fused_pseudo_label(state.teacher,
                                                       [clip, clip, clip])
        assert y == int(np.argmax(per_clip[0]))
        assert fused_max == pytest.approx(np.max(per_clip[0]), abs=1e-12)

    def test_sum_of_softmax_vectors(self):
        cfg, ds = small()
        state = tr.TrainerState(cfg, ds)
        rng = np.random.default_rng(1)
        from seqssl.synthgen import extract_clip
        clips = [extract_clip(ds.frames(ds.unlabeled[i]), 0, 2, 4)
                 for i in range(3)]
        y, fused_max, per_clip = tr.fused_pseudo_label(state.teacher, clips)
        fused = np.sum(per_clip, axis=0)
        assert y == int(np.argmax(fused))
        assert fused_max == pytest.approx(fused.max() / 3, abs=1e-12)

    def test_tie_breaks_to_lowest_index(self):
        # uniform predictions from a zeroed classifier: exact tie
        cfg, ds = small()
        state = tr.TrainerState(cfg, ds)
        for k in ("cls.W", "cls.b"):
            state.teacher.params[k].data[:] = 0.0
        from seqssl.synthgen import extract_clip
        clip = extract_clip(ds.frames(ds.unlabeled[0]), 0, 2, 4)
        y, _, _ = tr.fused_pseudo_label(state.teacher, [clip, clip])
        assert y == 0


class TestSgdStep:
    def test_zero_grad_no_wd_fixed_point(self):
        cfg, ds = small()
        state = tr.TrainerState(cfg, ds)
        before = {k: p.data.copy() for k, p in state.student.params.items()}
        state.student.zero_grad()
        tr.sgd_step(state.student, state.velocity, lr=0.1, momentum=0.9,
                    weight_decay=0.0)
        for k, p in state.student.params.items():
            np.testing.assert_array_equal(p.data, before[k])

    def test_single_step_formula(self):
        cfg, ds = small()
        state = tr.TrainerState(cfg, ds)
        k = "cls.W"
        p = state.student.params[k]
        before = p.data.copy()
        grad = np.random.default_rng(0).normal(size=p.data.shape)
        p.grad = grad.copy()
        lr, wd = 0.01, 0.001
        tr.sgd_step(state.student, state.velocity, lr=lr, momentum=0.9,
                    weight_decay=wd)
        np.testing.assert_allclose(p.data, before - lr * (grad + wd * before),
                                   atol=1e-15)

    def test_lr_zero_frozen(self):
        cfg, ds = small()
        state = tr.TrainerState(cfg, ds)
        for p in state.student.params.values():
            p.grad = np.ones_like(p.data)
        before = {k: p.data.copy() for k, p in state.student.params.items()}
        tr.sgd_step(state.student, state.velocity, lr=0.0, momentum=0.9,
                    weight_decay=0.001)
        for k, p in state.student.params.items():
            np.testing.assert_array_equal(p.data, before[k])


class TestLrSchedule:
    def test_paper_values(self):
        assert tr.lr_schedule(0) == 0.005
        assert tr.lr_schedule(24) == 0.005
        assert tr.lr_schedule(25) == pytest.approx(0.0005)
        assert tr.lr_schedule(27) == pytest.approx(0.0005)
        assert tr.lr_schedule(28) == pytest.approx(0.00005)
        assert tr.lr_schedule(29) == pytest.approx(0.00005)


class TestLosses:
    def test_supervised_empty_batch(self):
        cfg, ds = small()
        state = tr.TrainerState(cfg, ds)
        plan = tr.StepPlan(labeled=[], unlabeled=[])
        with pytest.raises(EmptyBatch):
            tr.compute_losses(state.student, state.teacher, plan, cfg)[1]["L_l"]

    def test_supervised_uniform_is_log_c(self):
        cfg, ds = small()
        state = tr.TrainerState(cfg, ds)
        for k in ("cls.W", "cls.b"):
            state.student.params[k].data[:] = 0.0
        rng = np.random.default_rng(0)
        plan = tr.prepare_step_plan(state, ds.labeled[:2], [], rng)
        loss = tr.compute_losses(state.student, state.teacher, plan,
                                 cfg)[1]["L_l"]
        assert loss.item() == pytest.approx(np.log(4), abs=1e-12)

    def test_gate_closed_means_zero_unsupervised(self):
        cfg, ds = small()
        cfg = tr.TrainConfig(**{**cfg.__dict__, "delta": 1.0})
        state = tr.TrainerState(cfg, ds)
        rng = np.random.default_rng(0)
        plan = tr.prepare_step_plan(state, ds.labeled[:2], ds.unlabeled[:3], rng)
        _, parts = tr.compute_losses(state.student, state.teacher, plan, cfg)
        assert parts["L_u"].item() == 0.0
        assert all(not it.gate for it in plan.unlabeled)

    def test_gamma_scales_unsupervised_linearly(self):
        cfg, ds = small()
        state = tr.TrainerState(cfg, ds)
        rng = np.random.default_rng(0)
        for s in range(3):
            tr.train_step(state, ds.labeled[:2], ds.unlabeled[3*s:3*s+3], 0, rng)
        plan = tr.prepare_step_plan(state, ds.labeled[:2], ds.unlabeled[:3], rng)
        _, parts = tr.compute_losses(state.student, state.teacher, plan, cfg)
        base = parts["L_u"].item()
        for it in plan.unlabeled:
            it.gamma = it.gamma * 0.5
        _, parts2 = tr.compute_losses(state.student, state.teacher, plan, cfg)
        assert parts2["L_u"].item() == pytest.approx(base * 0.5, abs=1e-12)


class TestTrainStep:
    def test_supervised_only_degenerate_config(self):
        cfg, ds = small()
        cfg = tr.TrainConfig(**{**cfg.__dict__, "mu1": 0.0, "mu2": 0.0,
                                "delta": 1.0, "use_acl": False,
                                "use_mtl": False})
        state = tr.TrainerState(cfg, ds)
        rng = np.random.default_rng(0)
        rep = tr.train_step(state, ds.labeled[:2], ds.unlabeled[:3], 0, rng)
        assert rep.total == pytest.approx(rep.loss_l, abs=1e-12)
        assert rep.loss_u == 0.0 and rep.loss_acl == 0.0 and rep.loss_mtl == 0.0

    def test_cold_start_completes_and_bank_grows(self):
        cfg, ds = small()
        state = tr.TrainerState(cfg, ds)
        rng = np.random.default_rng(0)
        rep = tr.train_step(state, ds.labeled[:2], ds.unlabeled[:3], 0, rng)
        assert len(state.bank) == 3
        assert np.isfinite(rep.total)

    def test_loss_assembly_identity(self):
        cfg, ds = small()
        state = tr.TrainerState(cfg, ds)
        rng = np.random.default_rng(0)
        for s in range(5):
            rep = tr.train_step(state, ds.labeled[:2],
                                ds.unlabeled[3*s:3*s+3], 0, rng)
            expected = (rep.loss_l + rep.loss_u + cfg.mu1 * rep.loss_mtl
                        + cfg.mu2 * rep.loss_acl)
            assert rep.total == pytest.approx(expected, abs=1e-9)

    def test_teacher_is_exact_ema(self):
        cfg, ds = small()
        state = tr.TrainerState(cfg, ds)
        rng = np.random.default_rng(0)
        for s in range(3):
            t_prev = {k: p.data.copy() for k, p in state.teacher.params.items()}
            tr.train_step(state, ds.labeled[:2], ds.unlabeled[3*s:3*s+3], 0, rng)
            m = tr.EMA_MOMENTUM
            for k, p in state.teacher.params.items():
                expected = m * t_prev[k] + (1 - m) * state.student.params[k].data
                np.testing.assert_allclose(p.data, expected, atol=1e-12)

    def test_fallback_flag_matches_gamma(self):
        cfg, ds = small()
        state = tr.TrainerState(cfg, ds)
        rng = np.random.default_rng(0)
        for s in range(6):
            plan = tr.prepare_step_plan(state, ds.labeled[:2],
                                        ds.unlabeled[3*s:3*s+3], rng)
            for it in plan.unlabeled:
                if it.selection is not None:
                    assert it.selection.used_fallback == \
                        (it.selection.anchor_reliability <= tr.EPSILON)


class TestAclPlan:
    def test_bank_has_the_config_widths(self):
        cfg, ds = small()
        bank = tr.TrainerState(cfg, ds).bank
        assert bank.embeddings.shape == (0, cfg.d_e)
        assert bank.scores.shape == (0, cfg.d_h)

    def test_missing_prototype_gets_select_fallback(self, monkeypatch):
        # every item goes through acl.select; one whose pseudo-class has no
        # prototype gets select's fallback: {f^p} vs the whole bank, gamma 0
        cfg, ds = small()
        state = tr.TrainerState(cfg, ds)
        rng = np.random.default_rng(0)
        for s in range(2):
            tr.train_step(state, ds.labeled[:2], ds.unlabeled[3*s:3*s+3], 0,
                          rng)
        state.protos.initialized[:] = False
        returned = []
        real_select = tr.acl_mod.select

        def recording_select(*args):
            returned.append(real_select(*args))
            return returned[-1]

        monkeypatch.setattr(tr.acl_mod, "select", recording_select)
        # both labeled videos are of class 0: the only class with a prototype
        plan = tr.prepare_step_plan(state, ds.labeled[:2], ds.unlabeled, rng)
        assert state.protos.initialized.tolist() == [True, False, False, False]
        missing = [it for it in plan.unlabeled if it.pseudo_label != 0]
        assert missing and len(state.bank) > 0
        for it in plan.unlabeled:
            assert any(it.selection is sel for sel in returned)
        for it in missing:
            sel = it.selection
            assert sel.used_fallback
            assert it.gamma == sel.anchor_reliability == 0.0
            assert len(sel.positives) == 1
            np.testing.assert_array_equal(sel.positives[0], it.f_p)
            assert len(sel.negatives) == len(state.bank)
            for a, b in zip(sel.negatives, state.bank.embeddings):
                np.testing.assert_array_equal(a, b)


def ablation(use_acl, use_mtl):
    cfg, ds = small()
    return tr.TrainConfig(**{**cfg.__dict__, "use_acl": use_acl,
                             "use_mtl": use_mtl}), ds


ABLATIONS = [(False, False), (True, False), (False, True), (True, True)]


class TestSwitchedOffWork:
    @pytest.mark.parametrize("use_acl,use_mtl", ABLATIONS)
    def test_encodes_per_step(self, monkeypatch, use_acl, use_mtl):
        # labeled: S views for L_l, S more for the prototypes with ACL on;
        # unlabeled: S teacher clips for the fused pseudo-label, the strong
        # student clip, the teacher's f_p clip with ACL on, and with MTL on
        # S teacher clips for the centers plus 1 student and S teacher clips
        # for the alignment loss
        cfg, ds = ablation(use_acl, use_mtl)
        calls = []
        real_encode = bb.encode

        def counting_encode(*args, **kwargs):
            calls.append(1)
            return real_encode(*args, **kwargs)

        monkeypatch.setattr(bb, "encode", counting_encode)
        monkeypatch.setattr(mtl, "encode", counting_encode)
        state = tr.TrainerState(cfg, ds)
        rng = np.random.default_rng(0)
        S, acl, m = len(cfg.strides), int(use_acl), int(use_mtl)
        want = (cfg.b_l * S * (1 + acl)
                + cfg.b_u * (S + 1 + acl + m * (2 * S + 1)))
        for s in range(2):
            calls.clear()
            tr.train_step(state, ds.labeled[2*s:2*s+2],
                          ds.unlabeled[3*s:3*s+3], 0, rng)
            assert len(calls) == want

    @pytest.mark.parametrize("use_mtl", [False, True])
    def test_acl_off_leaves_acl_state_alone(self, use_mtl):
        cfg, ds = ablation(False, use_mtl)
        state = tr.TrainerState(cfg, ds)
        rng = np.random.default_rng(0)
        for s in range(3):
            plan = tr.prepare_step_plan(state, ds.labeled[:2],
                                        ds.unlabeled[3*s:3*s+3], rng)
            for it in plan.unlabeled:
                assert it.f_p is None and it.f_score is None
                assert it.selection is None and it.gamma == 1.0
            tr.train_step(state, ds.labeled[:2], ds.unlabeled[3*s:3*s+3], 0,
                          rng)
        assert len(state.bank) == 0
        assert not state.protos.initialized.any()

    @pytest.mark.parametrize("use_mtl", [False, True])
    def test_acl_off_ignores_a_filled_bank(self, use_mtl):
        # a bank and prototype table full of random records change nothing
        # in an ACL-off step, and the steps leave them as they were
        cfg, ds = ablation(False, use_mtl)

        def run(state):
            rng = np.random.default_rng(0)
            reports = [tr.train_step(state, ds.labeled[:2],
                                     ds.unlabeled[3*s:3*s+3], 0, rng)
                       for s in range(3)]
            return reports, {k: p.data.copy()
                             for k, p in state.student.params.items()}

        def unit(v):
            return v / np.linalg.norm(v)

        empty = tr.TrainerState(cfg, ds)
        filled = tr.TrainerState(cfg, ds)
        r = np.random.default_rng(7)
        for _ in range(20):
            filled.bank.push(unit(r.normal(size=cfg.d_e)),
                             unit(r.normal(size=cfg.d_h)),
                             int(r.integers(ds.cfg.n_classes)))
        for c in range(ds.cfg.n_classes):
            filled.protos.update(c, unit(r.normal(size=cfg.d_h)), tr.BETA)
        bank = (filled.bank.embeddings.copy(), filled.bank.scores.copy(),
                filled.bank.labels.copy())
        protos = filled.protos.prototypes.copy()

        want_reports, want_params = run(empty)
        got_reports, got_params = run(filled)
        assert got_reports == want_reports
        for k, p in want_params.items():
            np.testing.assert_array_equal(got_params[k], p)
        for a, b in zip((filled.bank.embeddings, filled.bank.scores,
                         filled.bank.labels), bank):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(filled.protos.prototypes, protos)


class TestMtlCenters:
    def test_centers_track_calibrated_teacher_logits(self):
        # the alignment loss subtracts the centre from the teacher head's
        # logits on the *calibrated* long tokens, so the running centre must
        # average exactly those logits
        cfg, ds = small()
        state = tr.TrainerState(cfg, ds)
        rng = np.random.default_rng(0)
        for s in range(2):
            tr.train_step(state, ds.labeled[:2], ds.unlabeled[3*s:3*s+3], 0,
                          rng)
        old = [c.copy() for c in state.mtl_centers]
        plan = tr.prepare_step_plan(state, ds.labeled[:2], ds.unlabeled[:3],
                                    rng)
        for n in range(1, cfg.n_scales + 1):
            logits = []
            for it in plan.unlabeled:
                q = bb.encode(state.teacher, it.weak[0]).tokens.data
                k = bb.encode(state.teacher, it.weak[n]).tokens.data
                calib = mtl.calibrate(q, k)
                logits.append(bb.temporal_embed(
                    state.teacher, n, calib.calibrated_tokens).data)
            want = (tr.CENTER_MOMENTUM * old[n - 1]
                    + (1 - tr.CENTER_MOMENTUM) * np.mean(logits, axis=0))
            np.testing.assert_allclose(state.mtl_centers[n - 1], want,
                                       rtol=0.0, atol=1e-12)
            np.testing.assert_array_equal(plan.mtl_centers[n - 1], old[n - 1])


class TestEvaluate:
    def test_top5_ge_top1_and_range(self):
        cfg, ds = small()
        state = tr.TrainerState(cfg, ds)
        recs = tr.eval_records(ds, 3)
        top1, top5 = tr.evaluate(state.teacher, ds, recs, cfg)
        assert 0.0 <= top1 <= top5 <= 1.0

    def test_empty_dataset(self):
        cfg, ds = small()
        state = tr.TrainerState(cfg, ds)
        with pytest.raises(EmptyDataset):
            tr.evaluate(state.teacher, ds, [], cfg)

    def test_chance_level_random_classifier(self):
        cfg, ds = small()
        state = tr.TrainerState(cfg, ds)
        # zeroed classifier: uniform output, argmax ties to class 0
        for k in ("cls.W", "cls.b"):
            state.teacher.params[k].data[:] = 0.0
        recs = tr.eval_records(ds, 5)
        top1, top5 = tr.evaluate(state.teacher, ds, recs, cfg)
        assert top1 == pytest.approx(1 / 4)  # class 0 only, C=4
        assert top5 == 1.0                   # 4 classes all within top 5


class TestRunTraining:
    def test_run_writes_artifacts_and_is_deterministic(self, tmp_path):
        ds_cfg = DatasetConfig(n_classes=4, per_class=4, labeled_fraction=0.5,
                               d_in=4, video_len=40, noise=0.05, seed=0)
        cfg = tr.TrainConfig(seed=0, clip_len=4, strides=(2, 4, 8), d_h=6,
                             d_e=4, d_k=5, bank_capacity=16, epochs=2,
                             b_l=1, b_u=2)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        s1 = tr.run_training(cfg, ds_cfg, str(out1), eval_per_class=2)
        s2 = tr.run_training(cfg, ds_cfg, str(out2), eval_per_class=2)
        for name in ("metrics.csv", "epochs.csv", "final_eval.json",
                     "resolved_config.json", "manifest.json",
                     "checkpoint.json"):
            assert (out1 / name).exists()
        assert (out1 / "metrics.csv").read_bytes() == \
            (out2 / "metrics.csv").read_bytes()
        assert s1 == s2

    def test_metrics_row_count(self, tmp_path):
        ds_cfg = DatasetConfig(n_classes=4, per_class=4, labeled_fraction=0.5,
                               d_in=4, video_len=40, noise=0.05, seed=0)
        cfg = tr.TrainConfig(seed=0, clip_len=4, strides=(2, 4, 8), d_h=6,
                             d_e=4, d_k=5, bank_capacity=16, epochs=2,
                             b_l=1, b_u=2)
        tr.run_training(cfg, ds_cfg, str(tmp_path / "r"), eval_per_class=2)
        lines = (tmp_path / "r" / "metrics.csv").read_text().strip().splitlines()
        steps_per_epoch = -(-8 // 2)  # 8 unlabeled, b_u=2
        assert len(lines) == 1 + cfg.epochs * steps_per_epoch

    def test_checkpoint_schedule(self, tmp_path, monkeypatch):
        # saved after every CHECKPOINT_EVERY-th epoch and after the last one
        ds_cfg = DatasetConfig(n_classes=4, per_class=4, labeled_fraction=0.5,
                               d_in=4, video_len=40, noise=0.05, seed=0)
        cfg = tr.TrainConfig(seed=0, clip_len=4, strides=(2, 4, 8), d_h=6,
                             d_e=4, d_k=5, bank_capacity=16, epochs=5,
                             b_l=1, b_u=2, use_acl=False, use_mtl=False)
        evaluated, saved = [], []
        real_evaluate = tr.evaluate

        def counting_evaluate(*args):
            evaluated.append(1)
            return real_evaluate(*args)

        monkeypatch.setattr(tr, "evaluate", counting_evaluate)
        # two evaluations (student, teacher) per epoch precede its save
        monkeypatch.setattr(tr.bb, "save_checkpoint",
                            lambda *args: saved.append(len(evaluated) // 2))
        monkeypatch.setattr(tr, "CHECKPOINT_EVERY", 2)
        tr.run_training(cfg, ds_cfg, str(tmp_path / "r"), eval_per_class=2)
        assert saved == [2, 4, 5]

    def test_closed_gate_reports_nan_and_all_sample_accuracy(self, tmp_path,
                                                             monkeypatch):
        ds_cfg = DatasetConfig(n_classes=4, per_class=4, labeled_fraction=0.5,
                               d_in=4, video_len=40, noise=0.05, seed=0)
        # a fused maximum never exceeds 1, so the gate never opens
        cfg = tr.TrainConfig(seed=0, clip_len=4, strides=(2, 4, 8), d_h=6,
                             d_e=4, d_k=5, bank_capacity=16, epochs=2,
                             b_l=1, b_u=3, delta=1.0)
        ds = SynthDataset(ds_cfg)
        drawn = []
        real_plan = tr.prepare_step_plan

        def recording_plan(state, labeled_recs, unlabeled_recs, rng):
            plan = real_plan(state, labeled_recs, unlabeled_recs, rng)
            drawn.append([(it.pseudo_label, it.true_label)
                          for it in plan.unlabeled])
            return plan

        monkeypatch.setattr(tr, "prepare_step_plan", recording_plan)
        out = tmp_path / "r"
        summary = tr.run_training(cfg, ds_cfg, str(out), eval_per_class=2)
        with open(out / "epochs.csv", newline="") as f:
            rows = list(csv.DictReader(f))

        steps = -(-len(ds.unlabeled) // cfg.b_u)
        assert len(drawn) == cfg.epochs * steps
        for epoch, row in enumerate(rows):
            assert row["pseudo_acc"] == "nan"
            assert row["n_accepted"] == "0"
            assert float(row["acceptance_rate"]) == 0.0
            pairs = [p for step in drawn[epoch * steps:(epoch + 1) * steps]
                     for p in step]
            assert len(pairs) == steps * cfg.b_u
            correct = sum(1 for y_hat, y in pairs if y_hat == y)
            assert float(row["pseudo_acc_all"]) == correct / len(pairs)
        final = json.loads((out / "final_eval.json").read_text())
        assert final["pseudo_acc_first"] is None
        assert final["pseudo_acc_final"] is None
        assert summary["pseudo_acc_first"] is None
        assert final["pseudo_acc_all_first"] == \
            float(rows[0]["pseudo_acc_all"])
        assert final["pseudo_acc_all_final"] == \
            float(rows[-1]["pseudo_acc_all"])
