import numpy as np
import pytest

from seqssl import autodiff as ad
from seqssl import backbone as bb
from seqssl import synthgen as sg


def small_cfg(**kw):
    base = dict(n_classes=8, per_class=10, labeled_fraction=0.2, d_in=8,
                video_len=300, noise=0.05, seed=0)
    base.update(kw)
    return sg.DatasetConfig(**base)


class TestMakeDataset:
    def test_all_labeled(self):
        ds = sg.SynthDataset(small_cfg(labeled_fraction=1.0))
        assert ds.unlabeled == []

    def test_split_arithmetic(self):
        ds = sg.SynthDataset(small_cfg(per_class=50, labeled_fraction=0.05))
        per_class_labeled = {}
        for r in ds.labeled:
            per_class_labeled[r.class_id] = per_class_labeled.get(r.class_id, 0) + 1
        assert all(v == 2 for v in per_class_labeled.values())
        assert len(ds.unlabeled) == 8 * 48

    def test_min_one_labeled(self):
        ds = sg.SynthDataset(small_cfg(per_class=10, labeled_fraction=0.01))
        assert len(ds.labeled) == 8  # one per class

    def test_deterministic(self):
        ds1 = sg.SynthDataset(small_cfg())
        ds2 = sg.SynthDataset(small_cfg())
        assert ds1.manifest() == ds2.manifest()
        r = ds1.labeled[0]
        np.testing.assert_array_equal(ds1.frames(r), ds2.frames(r))

    def test_odd_class_count_rejected(self):
        with pytest.raises(ValueError, match="n_classes must be even"):
            sg.SynthDataset(small_cfg(n_classes=7))

    def test_invalid_fraction(self):
        with pytest.raises(ValueError,
                           match=r"labeled_fraction must be in \(0, 1\]"):
            sg.SynthDataset(small_cfg(labeled_fraction=0.0))


class TestConfusablePairs:
    def test_pair_structure(self):
        ds = sg.SynthDataset(small_cfg())
        n_spatial = n_temporal = 0
        for cls in ds.classes:
            partner = ds.classes[cls.confusion_partner]
            assert partner.confusion_partner == cls.class_id
            cos = float(np.dot(cls.spatial_signature, partner.spatial_signature))
            if np.allclose(cls.spatial_signature, partner.spatial_signature):
                # spatially confusable: identical signatures; the pair
                # differs in exactly one temporal factor (waveform shape or
                # frequency), never both
                assert cos == pytest.approx(1.0)
                kind_differs = cls.motif_kind != partner.motif_kind
                freq_differs = cls.motif_freq != partner.motif_freq
                assert kind_differs != freq_differs
                n_spatial += 1
            else:
                assert cls.motif_kind == partner.motif_kind
                assert cls.motif_freq == partner.motif_freq
                assert abs(cos) <= 0.2
                n_temporal += 1
        assert n_spatial == 4 and n_temporal == 4  # counted from both sides

    def test_linear_probe_cannot_separate_spatial_pairs(self):
        ds = sg.SynthDataset(small_cfg(per_class=30))
        assert sg.difficulty_check(ds) <= 0.5 + 0.10


class TestExtractClip:
    @pytest.mark.parametrize("start,stride,clip_len",
                             [(0, 1, 8), (10, 8, 8), (0, 32, 8), (3, 5, 5),
                              (75, 32, 8)])
    def test_view_equals_the_gather(self, start, stride, clip_len):
        frames = sg.SynthDataset(small_cfg()).frames(
            sg.VideoRecord(0, 0, 0, True))
        clip = sg.extract_clip(frames, start, stride, clip_len)
        gather = frames[start + stride * np.arange(clip_len)]
        assert clip.frames.shape == gather.shape
        assert np.array_equal(clip.frames, gather)
        assert (clip.start, clip.stride) == (start, stride)
        # a view of the video's frames, not a copy
        assert np.shares_memory(clip.frames, frames)

    @pytest.mark.parametrize("writeable", [True, False])
    def test_view_is_read_only(self, writeable):
        frames = np.arange(300 * 4, dtype=np.float64).reshape(300, 4)
        frames.flags.writeable = writeable
        clip = sg.extract_clip(frames, 2, 3, 8)
        with pytest.raises(ValueError, match="read-only"):
            clip.frames[0, 0] = 1.0
        assert frames.flags.writeable == writeable

    def test_out_of_range_start(self):
        frames = np.zeros((57, 4))
        with pytest.raises(ValueError,
                           match="start 1, span 57, video length 57"):
            sg.extract_clip(frames, 1, 8, 8)
        with pytest.raises(ValueError, match="start -1"):
            sg.extract_clip(frames, -1, 8, 8)

    def test_encode_of_view_equals_encode_of_copy(self):
        # the strided view reaches the encoder's matrix products as it is;
        # tokens, the pooled feature and the student gradients must be the
        # bits of a contiguous copy
        cfg = small_cfg(d_in=16)
        frames = sg.SynthDataset(cfg).frames(sg.VideoRecord(0, 1, 3, False))
        dims = bb.ModelDims(d_in=16, d_h=64, d_e=16, d_k=16, n_classes=8,
                            clip_len=8, n_scales=2)
        view = sg.extract_clip(frames, 17, 32, 8)
        copy = bb.Clip(frames=np.ascontiguousarray(view.frames), stride=32,
                       start=17)
        assert not view.frames.flags.c_contiguous

        def run(clip):
            s = bb.ParamSet.init(dims, np.random.default_rng(0), True)
            enc = bb.encode(s, clip)
            ad.cross_entropy(bb.classify(s, enc), 3).backward()
            return enc, {k: p.grad for k, p in s.params.items()}

        (enc_v, grads_v), (enc_c, grads_c) = run(view), run(copy)
        assert np.array_equal(enc_v.tokens, enc_c.tokens)
        assert np.array_equal(enc_v.pooled.data, enc_c.pooled.data)
        for k in ("enc.W1", "enc.b1", "enc.M", "cls.W", "cls.b"):
            assert grads_c[k] is not None, k
            assert np.array_equal(grads_v[k], grads_c[k]), k


class TestAugmentations:
    def _clip(self, seed=0):
        ds = sg.SynthDataset(small_cfg())
        rec = ds.unlabeled[0]
        frames = ds.frames(rec)
        return sg.extract_clip(frames, 10, 8, 8), frames

    def test_weak_scale_linearity(self):
        clip, frames = self._clip()

        class FixedRng:
            def uniform(self, lo, hi, size=None):
                return 1.1 if size is None else np.full(size, 1.1)

            def integers(self, lo, hi):
                return 0

        out = sg.weak_augment(clip, FixedRng(), frames)
        np.testing.assert_allclose(out.frames, clip.frames * 1.1)

    def test_weak_identity_draw(self):
        clip, frames = self._clip()

        class IdRng:
            def uniform(self, lo, hi, size=None):
                return 1.0 if size is None else np.ones(size)

            def integers(self, lo, hi):
                return 0

        out = sg.weak_augment(clip, IdRng(), frames)
        np.testing.assert_array_equal(out.frames, clip.frames)

    def test_strong_reduces_to_weak_on_identity_draws(self):
        clip, frames = self._clip()

        class IdRng:
            def uniform(self, lo, hi, size=None):
                return 1.0 if size is None else np.ones(size)

            def integers(self, lo, hi):
                return 0

            def random(self, size=None):
                return np.ones(size)  # all >= 0.1, so nothing dropped

        weak = sg.weak_augment(clip, IdRng(), frames)
        strong = sg.strong_augment(clip, IdRng(), frames)
        np.testing.assert_array_equal(strong.frames, weak.frames)

    def test_channel_dropout_zeroes_column(self):
        clip, frames = self._clip()

        class DropRng:
            def uniform(self, lo, hi, size=None):
                return 1.0 if size is None else np.ones(size)

            def integers(self, lo, hi):
                return 0

            def random(self, size=None):
                r = np.ones(size)
                r[2] = 0.0  # below the 0.1 dropout threshold
                return r

        out = sg.strong_augment(clip, DropRng(), frames)
        assert np.array_equal(out.frames[:, 2], np.zeros(8))

    def test_reproducible_and_finite(self):
        clip, frames = self._clip()
        a = sg.strong_augment(clip, np.random.default_rng(42), frames)
        b = sg.strong_augment(clip, np.random.default_rng(42), frames)
        np.testing.assert_array_equal(a.frames, b.frames)
        assert a.frames.shape == clip.frames.shape
        assert np.isfinite(a.frames).all()
