import numpy as np
import pytest

from seqssl import acl
from seqssl import autodiff as ad
from seqssl.protobank import MemoryBank


def unit(rng, d=6):
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


def unit_near(rng, target, cos, d=6):
    """A unit vector at the given cosine to a unit target."""
    r = rng.normal(size=d)
    r -= np.dot(r, target) * target
    r /= np.linalg.norm(r)
    return cos * target + np.sqrt(1 - cos ** 2) * r


class TestBuildCandidates:
    def test_empty_bank(self):
        rng = np.random.default_rng(0)
        f_p = unit(rng)
        cands = acl.build_candidates(MemoryBank(8, 6, 6), 0, f_p)
        assert len(cands) == 1
        np.testing.assert_array_equal(cands[0], f_p)

    def test_class_filter(self):
        rng = np.random.default_rng(1)
        bank = MemoryBank(8, 6, 6)
        for lab in (0, 0, 1, 1, 1):
            v = unit(rng)
            bank.push(v, v, lab)
        cands = acl.build_candidates(bank, 0, unit(rng))
        assert len(cands) == 3  # two of class 0 plus f_p

    def test_duplicate_fp_kept_as_distinct_record(self):
        rng = np.random.default_rng(2)
        f_p = unit(rng)
        bank = MemoryBank(8, 6, 6)
        bank.push(f_p, f_p, 0)
        cands = acl.build_candidates(bank, 0, f_p)
        assert len(cands) == 2


class TestScoreCandidates:
    def test_small_set_degenerate(self):
        rng = np.random.default_rng(0)
        proto = unit(rng)
        cands = [unit(rng) for _ in range(3)]
        np.testing.assert_array_equal(acl.score_candidates([(cands, proto)])[0],
                                      np.ones(3))

    def test_identical_candidates_degenerate(self):
        rng = np.random.default_rng(1)
        proto = unit(rng)
        v = unit(rng)
        scores = acl.score_candidates([([v.copy() for _ in range(10)], proto)])[0]
        np.testing.assert_array_equal(scores, np.ones(10))

    def test_two_clusters(self):
        rng = np.random.default_rng(2)
        proto = unit(rng)
        hi = [unit_near(rng, proto, 0.9 + 0.02 * rng.standard_normal())
              for _ in range(50)]
        lo = [unit_near(rng, proto, 0.2 + 0.02 * rng.standard_normal())
              for _ in range(50)]
        scores = acl.score_candidates([(hi + lo, proto)])[0]
        assert (scores[:50] > 0.99).all()
        assert (scores[50:] < 0.01).all()

    def test_non_finite_distance_raises(self):
        # a NaN spread is not "too concentrated": the set goes to the fit,
        # which refuses it, instead of scoring 1.0 everywhere
        rng = np.random.default_rng(5)
        proto = unit(rng)
        cands = [unit_near(rng, proto, c) for c in (0.1, 0.3, 0.5, 0.7)]
        cands[1] = np.full(proto.shape, np.nan)
        with pytest.raises(ValueError, match="points must be finite"):
            acl.score_candidates([(cands, proto)])

    def test_missing_prototype(self):
        # no prototype yet: the set gets no scores, and select falls back
        assert acl.score_candidates([([np.ones(3)], None)]) == [None]

    def test_permutation_invariant_membership(self):
        rng = np.random.default_rng(3)
        proto = unit(rng)
        cands = [unit_near(rng, proto, c)
                 for c in rng.uniform(-0.2, 0.95, size=24)]
        scores = acl.score_candidates([(cands, proto)])[0]
        perm = rng.permutation(len(cands))
        scores_p = acl.score_candidates([([cands[i] for i in perm], proto)])[0]
        np.testing.assert_allclose(scores_p, scores[perm], atol=1e-9)


    def test_batch_matches_each_set_alone(self):
        rng = np.random.default_rng(4)
        sets = []
        for n_cands in (24, 3, 60, 10, 7):
            proto = unit(rng)
            sets.append(([unit_near(rng, proto, c)
                          for c in rng.uniform(-0.2, 0.95, size=n_cands)],
                         proto))
        v = unit(rng)
        sets.insert(3, ([v.copy() for _ in range(10)], unit(rng)))
        # sets whose class has no prototype yet, first, inside and last
        no_proto = [([unit(rng) for _ in range(n)], None) for n in (30, 5, 12)]
        mixed = [no_proto[0]] + sets[:2] + [no_proto[1]] + sets[2:] \
            + [no_proto[2]]
        batch = acl.score_candidates(mixed)
        assert len(batch) == len(mixed)
        assert [b is None for b in batch] == [p is None for _, p in mixed]
        scores = [b for b in batch if b is not None]
        for (cands, proto), got in zip(sets, scores):
            np.testing.assert_array_equal(
                got, acl.score_candidates([(cands, proto)])[0])
        # too small (3 points) and zero spread (one vector ten times)
        np.testing.assert_array_equal(scores[1], np.ones(3))
        np.testing.assert_array_equal(scores[3], np.ones(10))
        assert not (scores[0] == 1.0).all()

    def test_empty_batch(self):
        assert acl.score_candidates([]) == []

def reference_select(bank, pseudo_label, f_p, scores, epsilon):
    """Brute-force selector, written directly from the selection rules."""
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


class TestSelect:
    def test_all_reliable(self):
        rng = np.random.default_rng(0)
        bank = MemoryBank(8, 6, 6)
        for _ in range(4):
            v = unit(rng)
            bank.push(v, v, 0)
        f_p = unit(rng)
        scores = np.ones(5)
        sel = acl.select(bank, 0, f_p, scores, 0.7)
        assert not sel.used_fallback
        assert len(sel.positives) == 5
        assert len(sel.negatives) == 0

    def test_fallback(self):
        rng = np.random.default_rng(1)
        bank = MemoryBank(8, 6, 6)
        for lab in (0, 1, 0):
            v = unit(rng)
            bank.push(v, v, lab)
        f_p = unit(rng)
        scores = np.array([1.0, 1.0, 0.1])  # anchor itself unreliable
        sel = acl.select(bank, 0, f_p, scores, 0.7)
        assert sel.used_fallback
        assert len(sel.positives) == 1
        np.testing.assert_array_equal(sel.positives[0], f_p)
        assert len(sel.negatives) == len(bank)
        assert sel.anchor_reliability == pytest.approx(0.1)

    def test_fallback_on_empty_bank(self):
        f_p = unit(np.random.default_rng(5))
        for scores in (None, np.array([0.1])):
            sel = acl.select(MemoryBank(8, 6, 6), 0, f_p, scores, 0.7)
            assert sel.used_fallback
            assert sel.positives.shape == (1, 6)
            assert sel.negatives.shape == (0, 6)
            assert acl.acl_loss(f_p, sel, 0.07).item() == 0.0

    def test_fallback_flag_matches_threshold(self):
        rng = np.random.default_rng(2)
        bank = MemoryBank(8, 6, 6)
        for _ in range(4):
            v = unit(rng)
            bank.push(v, v, 0)
        f_p = unit(rng)
        for g in (0.69, 0.7, 0.700001, 0.99):
            scores = np.concatenate([np.ones(4), [g]])
            sel = acl.select(bank, 0, f_p, scores, 0.7)
            assert sel.used_fallback == (g <= 0.7)

    def test_no_scores_falls_back_with_zero_reliability(self):
        # scores=None: the pseudo-class has no prototype, so the anchor falls
        # back to {f^p} vs the whole bank with gamma 0 at any epsilon
        rng = np.random.default_rng(4)
        bank = MemoryBank(8, 6, 6)
        for lab in (0, 1, 0):
            v = unit(rng)
            bank.push(v, v, lab)
        f_p = unit(rng)
        for eps in (-1.0, 0.0, 0.7):
            sel = acl.select(bank, 0, f_p, None, eps)
            assert sel.used_fallback
            assert sel.anchor_reliability == 0.0
            assert len(sel.positives) == 1
            np.testing.assert_array_equal(sel.positives[0], f_p)
            assert len(sel.negatives) == len(bank)
            for a, b in zip(sel.negatives, bank.embeddings):
                np.testing.assert_array_equal(a, b)

    def test_matches_brute_force_on_random_banks(self):
        rng = np.random.default_rng(3)
        for trial in range(200):
            n = int(rng.integers(0, 65))
            n_classes = int(rng.integers(1, 5))
            bank = MemoryBank(64, 6, 6)
            for _ in range(n):
                v = unit(rng)
                bank.push(v, v, int(rng.integers(0, n_classes)))
            c = int(rng.integers(0, n_classes))
            f_p = unit(rng)
            n_cand = len(bank.candidates_of(c)) + 1
            scores = rng.uniform(0, 1, size=n_cand)
            eps = float(rng.uniform(0.1, 0.9))
            sel = acl.select(bank, c, f_p, scores, eps)
            ref_pos, ref_neg, ref_fb = reference_select(bank, c, f_p, scores, eps)
            assert sel.used_fallback == ref_fb
            assert len(sel.positives) == len(ref_pos)
            assert len(sel.negatives) == len(ref_neg)
            for a, b in zip(sel.positives, ref_pos):
                np.testing.assert_array_equal(a, b)
            for a, b in zip(sel.negatives, ref_neg):
                np.testing.assert_array_equal(a, b)


class TestAclLoss:
    def test_no_negatives_zero_loss(self):
        rng = np.random.default_rng(0)
        anchor = unit(rng)
        sel = acl.AclSelection(positives=[unit(rng) for _ in range(3)],
                               negatives=[], anchor_reliability=1.0,
                               used_fallback=False)
        assert acl.acl_loss(anchor, sel, 0.07).item() == 0.0

    def test_hand_case(self):
        sel = acl.AclSelection(positives=[np.array([1.0, 0.0])],
                               negatives=[np.array([0.0, 1.0])],
                               anchor_reliability=1.0, used_fallback=False)
        expected = -np.log(np.e / (np.e + 1.0))
        assert acl.acl_loss(np.array([1.0, 0.0]), sel, 1.0).item() == \
            pytest.approx(expected, abs=1e-9)

    def test_matches_brute_force_tau007(self):
        rng = np.random.default_rng(1)
        anchor = unit(rng)
        pos = [unit(rng) for _ in range(5)]
        neg = [unit(rng) for _ in range(20)]
        sel = acl.AclSelection(positives=pos, negatives=neg,
                               anchor_reliability=1.0, used_fallback=False)
        tau = 0.07
        s_pos = sum(np.exp(np.dot(anchor, f) / tau) for f in pos)
        s_neg = sum(np.exp(np.dot(anchor, f) / tau) for f in neg)
        expected = -np.log(s_pos / (s_pos + s_neg))
        assert acl.acl_loss(anchor, sel, tau).item() == \
            pytest.approx(expected, abs=1e-9)

    def test_empty_positives(self):
        sel = acl.AclSelection(positives=[], negatives=[],
                               anchor_reliability=0.0, used_fallback=True)
        with pytest.raises(ValueError,
                           match="selection has no positive samples"):
            acl.acl_loss(np.ones(2), sel, 0.07)

    def test_monotone_in_similarities(self):
        # raising a positive's similarity lowers the loss; raising a
        # negative's similarity raises it
        for trial in range(10):
            rng = np.random.default_rng(100 + trial)
            anchor = unit(rng)
            pos = [unit(rng) for _ in range(3)]
            neg = [unit(rng) for _ in range(5)]

            def loss(p, n):
                sel = acl.AclSelection(positives=p, negatives=n,
                                       anchor_reliability=1.0,
                                       used_fallback=False)
                return acl.acl_loss(anchor, sel, 0.07).item()

            base = loss(pos, neg)
            closer = [pos[0] + 0.01 * (anchor - pos[0])] + pos[1:]
            assert loss(closer, neg) < base
            closer_neg = [neg[0] + 0.01 * (anchor - neg[0])] + neg[1:]
            assert loss(pos, closer_neg) > base

    def test_anchor_gradient(self):
        rng = np.random.default_rng(2)
        pos = [unit(rng) for _ in range(4)]
        neg = [unit(rng) for _ in range(9)]

        def f(w):
            sel = acl.AclSelection(positives=pos, negatives=neg,
                                   anchor_reliability=1.0, used_fallback=False)
            return acl.acl_loss(w, sel, 0.07)

        assert ad.gradcheck(f, ad.Tensor(unit(rng))) < 1e-4

    @pytest.mark.parametrize("n_neg", [0, 1, 37])
    def test_list_and_array_input_agree_bit_for_bit(self, n_neg):
        # select hands acl_loss arrays of rows; verify's oracle and the tests
        # hand it lists of vectors. Both must give the same value and the
        # same anchor gradient, bit for bit.
        rng = np.random.default_rng(3 + n_neg)
        pos = [unit(rng) for _ in range(6)]
        neg = [unit(rng) for _ in range(n_neg)]
        start = unit(rng)
        out = []
        arrays = (np.array(pos), np.array(neg).reshape(-1, 6))
        for p, n in ((pos, neg), arrays):
            w = ad.parameter(start)
            sel = acl.AclSelection(positives=p, negatives=n,
                                   anchor_reliability=1.0, used_fallback=False)
            loss = acl.acl_loss(w, sel, 0.07)
            loss.backward()
            out.append((loss.item(), w.grad))
        assert out[0][0] == out[1][0]
        assert np.array_equal(out[0][1], out[1][1])
