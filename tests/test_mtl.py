import numpy as np
import pytest

from seqssl import autodiff as ad
from seqssl import backbone as bb
from seqssl import mtl
from seqssl.errors import DegenerateVector, ShapeMismatch, VideoTooShort

DIMS = bb.ModelDims(d_in=4, d_h=6, d_e=4, d_k=5, n_classes=3, clip_len=4,
                    n_scales=2)
# zero teacher-logit centres: z - 0.0 == z exactly, so the loss is uncentred
ZERO_CENTERS = [np.zeros(DIMS.d_k)] * DIMS.n_scales


def make_params(seed=0, trainable=True):
    return bb.ParamSet.init(DIMS, np.random.default_rng(seed), trainable)


def make_clip(frames, stride=1):
    return bb.Clip(frames=np.asarray(frames, dtype=np.float64), stride=stride)


class TestSampleMultiscale:
    def test_boundary_unique_offset(self):
        t, stride = 8, 32
        video = np.random.default_rng(0).normal(size=((t - 1) * stride + 1, 4))
        rng = np.random.default_rng(1)
        clips = mtl.sample_multiscale(video, (8, 16, 32), t, rng)
        assert clips[-1].start == 0

    def test_deterministic_under_seed(self):
        video = np.random.default_rng(0).normal(size=(300, 4))
        s1 = mtl.sample_multiscale(video, (8, 16, 32), 8,
                                   np.random.default_rng(5))
        s2 = mtl.sample_multiscale(video, (8, 16, 32), 8,
                                   np.random.default_rng(5))
        assert len(s1) == len(s2) == 3
        for a, b in zip(s1, s2):
            np.testing.assert_array_equal(a.frames, b.frames)

    def test_index_arithmetic(self):
        video = np.arange(300, dtype=np.float64)[:, None] * np.ones((1, 4))
        rng = np.random.default_rng(2)
        clip = mtl.sample_multiscale(video, (8, 16), 8, rng)[1]
        o = clip.start
        np.testing.assert_array_equal(clip.frames[:, 0],
                                      np.arange(o, o + 8 * 16, 16))

    def test_video_too_short(self):
        video = np.zeros((100, 4))
        with pytest.raises(VideoTooShort):
            mtl.sample_multiscale(video, (8, 16, 32), 8,
                                  np.random.default_rng(0))


def cosine(a, b):
    """Cosine of two vectors through mtl.calibrate on one-row arrays."""
    return mtl.calibrate(np.array([a]), np.array([b])).attention.item()


class TestCalibrate:
    def test_identity(self):
        q = np.random.default_rng(0).normal(size=(4, 6))
        res = mtl.calibrate(q, q.copy())
        np.testing.assert_allclose(res.attention, np.ones(4), atol=1e-12)
        np.testing.assert_allclose(res.calibrated_tokens, q, atol=1e-12)

    def test_orthogonal_rows(self):
        q = np.tile([1.0, 0.0, 0.0, 0.0, 0.0, 0.0], (4, 1))
        k = np.tile([0.0, 1.0, 0.0, 0.0, 0.0, 0.0], (4, 1))
        res = mtl.calibrate(q, k)
        np.testing.assert_allclose(res.attention, np.zeros(4), atol=1e-15)
        np.testing.assert_allclose(res.calibrated_tokens, np.zeros((4, 6)),
                                   atol=1e-15)

    def test_hand_row(self):
        q = np.array([[1.0, 0.0]])
        k = np.array([[1.0, 1.0]]) / np.sqrt(2)
        res = mtl.calibrate(q, k)
        assert res.attention[0] == pytest.approx(0.7071067811865475)
        np.testing.assert_allclose(res.calibrated_tokens, res.attention[0] * k)

    def test_attention_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            res = mtl.calibrate(rng.normal(size=(4, 6)),
                                rng.normal(size=(4, 6)))
            assert (np.abs(res.attention) <= 1.0 + 1e-12).all()

    def test_bit_for_bit_formula(self):
        rng = np.random.default_rng(2)
        q, k = rng.normal(size=(8, 6)), rng.normal(size=(8, 6))
        res = mtl.calibrate(q, k)
        nq, nk = np.linalg.norm(q, axis=1), np.linalg.norm(k, axis=1)
        attention = (q * k).sum(axis=1) / (nq * nk)
        assert np.array_equal(res.attention, attention)
        assert np.array_equal(res.calibrated_tokens, k * attention[:, None])

    @pytest.mark.parametrize("side", ["query", "key"])
    def test_zero_row_raises(self, side):
        q = np.random.default_rng(3).normal(size=(4, 6))
        z = q.copy()
        z[2] = 0.0
        with pytest.raises(DegenerateVector):
            mtl.calibrate(z, q) if side == "query" else mtl.calibrate(q, z)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            mtl.calibrate(np.ones((4, 6)), np.ones((4, 5)))
        with pytest.raises(ShapeMismatch):
            mtl.calibrate(np.ones(6), np.ones(6))

    def test_cosine_self(self):
        assert cosine([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_cosine_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_cosine_45deg(self):
        assert cosine([1.0, 1.0], [1.0, 0.0]) == pytest.approx(
            0.7071067811865475, abs=1e-9)

    def test_cosine_symmetric_exact_and_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = rng.normal(size=6), rng.normal(size=6)
            ab = cosine(a, b)
            ba = cosine(b, a)
            assert ab == ba
            assert abs(ab) <= 1.0 + 1e-12


class TestAlignmentLoss:
    def test_matched_distribution_minimum(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=5)
        loss = mtl.alignment_loss(ad.Tensor(logits), ad.Tensor(logits.copy()),
                                  0.1, 0.1).item()
        p = np.exp(logits / 0.1 - np.max(logits / 0.1))
        p /= p.sum()
        entropy = -np.sum(p * np.log(p))
        assert loss == pytest.approx(entropy, abs=1e-12)

    def test_uniform_teacher(self):
        loss = mtl.alignment_loss(ad.Tensor(np.full(4, 0.3)),
                                  ad.Tensor(np.full(4, -1.2)), 0.1, 0.04)
        assert loss.item() == pytest.approx(np.log(4), abs=1e-12)

    def test_direct_formula_paper_temps(self):
        rng = np.random.default_rng(1)
        zq, zk = rng.normal(size=6), rng.normal(size=6)
        tau_s, tau_t = 0.1, 0.04

        def softmax(z, tau):
            e = np.exp(z / tau - np.max(z / tau))
            return e / e.sum()

        expected = -np.dot(softmax(zk, tau_t), np.log(softmax(zq, tau_s)))
        got = mtl.alignment_loss(ad.Tensor(zq), ad.Tensor(zk), tau_s, tau_t)
        assert got.item() == pytest.approx(expected, abs=1e-9)

    def test_kl_nonnegativity(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            zq, zk = rng.normal(size=5), rng.normal(size=5)
            loss = mtl.alignment_loss(ad.Tensor(zq), ad.Tensor(zk), 0.1, 0.04)
            p = np.exp(zk / 0.04 - np.max(zk / 0.04))
            p /= p.sum()
            entropy = -np.sum(p * np.log(np.maximum(p, 1e-300)))
            assert loss.item() - entropy >= -1e-12

    def test_lower_tau_t_sharpens(self):
        rng = np.random.default_rng(3)
        zk = rng.normal(size=5)

        def entropy(tau):
            p = np.exp(zk / tau - np.max(zk / tau))
            p /= p.sum()
            return -np.sum(p * np.log(np.maximum(p, 1e-300)))

        assert entropy(0.04) < entropy(0.1) < entropy(1.0)


class TestMtlLoss:
    def _clips(self, seed):
        rng = np.random.default_rng(seed)
        weak_short = make_clip(rng.normal(size=(4, 4)))
        strong_short = make_clip(rng.normal(size=(4, 4)))
        weak = [weak_short, make_clip(rng.normal(size=(4, 4)), stride=2),
                make_clip(rng.normal(size=(4, 4)), stride=4)]
        return weak, strong_short

    def test_single_scale_reduction(self):
        student, teacher = make_params(0), make_params(1, trainable=False)
        weak, ss = self._clips(0)
        total, per_scale = mtl.mtl_loss_from_clips(weak[:2], ss, student,
                                                   teacher, 0.1, 0.04,
                                                   ZERO_CENTERS)
        assert total.item() == pytest.approx(per_scale[0][0], abs=1e-12)

    def test_matched_case_equals_teacher_entropy(self):
        student = make_params(0)
        teacher = student.copy_as_teacher()
        rng = np.random.default_rng(5)
        clip = make_clip(rng.normal(size=(4, 4)))
        total, per_scale = mtl.mtl_loss_from_clips([clip, clip, clip], clip,
                                                   student, teacher, 0.1, 0.1,
                                                   ZERO_CENTERS)
        for n, (loss_n, att) in enumerate(per_scale, start=1):
            assert att == pytest.approx(1.0, abs=1e-12)
            zk = bb.temporal_embed(teacher, n,
                                   bb.encode(teacher, clip).tokens).data
            p = np.exp(zk / 0.1 - np.max(zk / 0.1))
            p /= p.sum()
            entropy = -np.sum(p * np.log(p))
            assert loss_n == pytest.approx(entropy, abs=1e-9)

    def test_student_gradient_and_teacher_gradient_absent(self):
        student, teacher = make_params(2), make_params(3, trainable=False)
        weak, ss = self._clips(1)
        student.zero_grad()
        total, _ = mtl.mtl_loss_from_clips(weak, ss, student, teacher,
                                           0.1, 0.04, ZERO_CENTERS)
        total.backward()
        assert all(p.grad is None for p in teacher.params.values())
        assert any(p.grad is not None and np.abs(p.grad).max() > 0
                   for p in student.params.values())
