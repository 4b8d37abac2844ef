from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqssl import acl
from seqssl.errors import IndexOutOfRange, NotNormalized, ShapeMismatch
from seqssl.protobank import MemoryBank, PrototypeTable


def unit(rng, d=4):
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


class TestPrototypeTable:
    def test_first_update_copies(self):
        table = PrototypeTable(3, 4)
        f = unit(np.random.default_rng(0))
        table.update(1, f, beta=0.9)
        np.testing.assert_array_equal(table.get(1), f)

    def test_beta_one_freezes(self):
        table = PrototypeTable(3, 4)
        rng = np.random.default_rng(1)
        f0 = unit(rng)
        table.update(0, f0, beta=0.9)
        table.update(0, unit(rng), beta=1.0)
        np.testing.assert_array_equal(table.get(0), f0)

    def test_direct_formula(self):
        table = PrototypeTable(2, 2)
        table.update(0, np.array([1.0, 0.0]), beta=0.9)
        table.update(0, np.array([0.0, 1.0]), beta=0.9)
        np.testing.assert_allclose(table.get(0), [0.9, 0.1])

    def test_missing_and_bounds(self):
        table = PrototypeTable(2, 2)
        assert table.get(0) is None
        with pytest.raises(IndexOutOfRange):
            table.update(5, np.array([1.0, 0.0]), 0.9)

    def test_wrong_width_raises_before_writing(self):
        # a (1,) vector would broadcast over a 3-wide row
        table = PrototypeTable(2, 3)
        with pytest.raises(ShapeMismatch):
            table.update(0, np.array([1.0]), 0.9)
        assert table.get(0) is None
        table.update(0, np.array([1.0, 0.0, 0.0]), 0.9)
        for bad in (np.array([1.0]), np.array([1.0, 0.0]),
                    np.array([[1.0, 0.0, 0.0]])):
            with pytest.raises(ShapeMismatch):
                table.update(0, bad, 0.9)
        np.testing.assert_array_equal(table.get(0), [1.0, 0.0, 0.0])

    def test_norm_stays_bounded(self):
        table = PrototypeTable(1, 8)
        rng = np.random.default_rng(2)
        for _ in range(200):
            table.update(0, unit(rng, 8), beta=0.9)
            assert np.linalg.norm(table.get(0)) <= 1.0 + 1e-9


class TestMemoryBank:
    def test_push_to_empty(self):
        bank = MemoryBank(4, 4, 4)
        v = unit(np.random.default_rng(0))
        bank.push(v, v, 1)
        assert len(bank) == 1

    def test_fifo_eviction(self):
        bank = MemoryBank(2, 4, 4)
        rng = np.random.default_rng(1)
        vecs = [unit(rng) for _ in range(3)]
        for i, v in enumerate(vecs):
            bank.push(v, v, i)
        assert len(bank) == 2
        stored = bank.labels.tolist()
        assert stored == [1, 2]

    def test_not_normalized(self):
        bank = MemoryBank(4, 2, 2)
        unit_v = np.array([1.0, 0.0])
        for bad in (np.array([1.0, 1.0]), np.full(2, np.nan)):
            with pytest.raises(NotNormalized):
                bank.push(bad, unit_v, 0)
            with pytest.raises(NotNormalized):
                bank.push(unit_v, bad, 0)
        assert len(bank) == 0

    def test_empty_bank_has_row_widths(self):
        bank = MemoryBank(4, 3, 5)
        assert len(bank) == 0
        assert bank.embeddings.shape == (0, 3)
        assert bank.scores.shape == (0, 5)
        assert bank.labels.shape == (0,)
        assert bank.candidates_of(0).shape == (0, 5)

    def test_wrong_width_push_raises_and_changes_nothing(self):
        # a unit (1,) vector passes the norm check and would broadcast over
        # a whole row; a wrong-width score must not leave its embedding
        # behind either
        rng = np.random.default_rng(7)
        for bank in (MemoryBank(4, 3, 5), MemoryBank(1, 3, 5)):
            for _ in range(2):
                bank.push(unit(rng, 3), unit(rng, 5), 0)
            before = (bank.embeddings, bank.scores, bank.labels)
            copies = [a.copy() for a in before]
            one = np.array([1.0])
            for emb, score in ((one, unit(rng, 5)), (unit(rng, 3), one),
                               (one, one), (unit(rng, 3), unit(rng, 6)),
                               (unit(rng, 5), unit(rng, 3))):
                with pytest.raises(ShapeMismatch):
                    bank.push(emb, score, 1)
            for a, b, c in zip((bank.embeddings, bank.scores, bank.labels),
                               before, copies):
                assert a is b
                np.testing.assert_array_equal(a, c)

    def test_capacity_exact(self):
        bank = MemoryBank(5, 4, 4)
        rng = np.random.default_rng(2)
        for i in range(17):
            v = unit(rng)
            bank.push(v, v, i % 3)
        assert len(bank) == 5

    def test_candidates_partition(self):
        bank = MemoryBank(32, 4, 4)
        rng = np.random.default_rng(3)
        for i in range(20):
            v = unit(rng)
            bank.push(v, v, int(rng.integers(0, 4)))
        total = sum(len(bank.candidates_of(c)) for c in range(4))
        assert total == len(bank)

    def test_candidates_filter(self):
        bank = MemoryBank(8, 4, 4)
        rng = np.random.default_rng(4)
        for lab in (0, 1, 0):
            v = unit(rng)
            bank.push(v, v, lab)
        assert len(bank.candidates_of(0)) == 2
        assert len(bank.candidates_of(7)) == 0


class TestMemoryBankProperties:
    @settings(max_examples=50, deadline=None)
    @given(capacity=st.integers(1, 8),
           labels=st.lists(st.integers(0, 3), min_size=9, max_size=40),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_records_keep_the_pair_pushed_together(self, capacity, labels,
                                                   seed):
        rng = np.random.default_rng(seed)
        bank = MemoryBank(capacity, 4, 4)
        pushed = []
        for lab in labels:
            emb, score = unit(rng), unit(rng)
            bank.push(emb, score, lab)
            pushed.append((emb, score, lab))
        assert len(bank) == capacity
        for (emb, score, lab), (p_emb, p_score, p_lab) in zip(
                zip(bank.embeddings, bank.scores, bank.labels),
                pushed[-capacity:]):
            np.testing.assert_array_equal(emb, p_emb)
            np.testing.assert_array_equal(score, p_score)
            assert lab == p_lab

    @settings(max_examples=50, deadline=None)
    @given(capacity=st.integers(1, 16),
           labels=st.lists(st.integers(0, 3), min_size=1, max_size=30),
           class_id=st.integers(0, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_candidates_match_select_positions(self, capacity, labels,
                                               class_id, seed):
        rng = np.random.default_rng(seed)
        bank = MemoryBank(capacity, 4, 4)
        for lab in labels:
            bank.push(unit(rng), unit(rng), lab)
        cands = bank.candidates_of(class_id)
        positions = [i for i, lab in enumerate(bank.labels)
                     if lab == class_id]
        assert len(cands) == len(positions)
        f_p = unit(rng)
        for k, i in enumerate(positions):
            np.testing.assert_array_equal(cands[k], bank.scores[i])
            # a score above epsilon for candidate k alone makes exactly the
            # record at bank position i a positive
            scores = np.zeros(len(cands) + 1)
            scores[k] = scores[-1] = 1.0
            sel = acl.select(bank, class_id, f_p, scores, 0.5)
            assert len(sel.positives) == 2
            np.testing.assert_array_equal(sel.positives[0],
                                          bank.embeddings[i])
            assert len(sel.negatives) == len(bank) - 1

    @settings(max_examples=100, deadline=None)
    @given(capacity=st.integers(1, 8),
           labels=st.lists(st.integers(0, 3), max_size=40),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_a_deque_after_every_push(self, capacity, labels, seed):
        # up to 40 pushes evict the oldest record many times over; after
        # each push the arrays must read as a bounded deque of the same
        # records does
        rng = np.random.default_rng(seed)
        bank = MemoryBank(capacity, 3, 5)
        ref = deque(maxlen=capacity)
        for lab in labels:
            emb, score = unit(rng, 3), unit(rng, 5)
            bank.push(emb, score, lab)
            ref.append((emb, score, lab))
            assert len(bank) == len(ref)
            assert bank.embeddings.shape == (len(ref), 3)
            assert bank.scores.shape == (len(ref), 5)
            np.testing.assert_array_equal(bank.embeddings,
                                          [e for e, _, _ in ref])
            np.testing.assert_array_equal(bank.scores, [s for _, s, _ in ref])
            assert bank.labels.tolist() == [lab for _, _, lab in ref]
            for c in range(4):
                want = [s for _, s, lab in ref if lab == c]
                got = bank.candidates_of(c)
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    np.testing.assert_array_equal(a, b)

    def test_views_are_read_only(self):
        bank = MemoryBank(4, 4, 4)
        v = unit(np.random.default_rng(5))
        bank.push(v, v, 0)
        for view in (bank.embeddings, bank.scores, bank.labels):
            with pytest.raises(ValueError):
                view[0] = 0

    def test_selection_keeps_its_values_after_pushes(self):
        # later pushes replace the bank's arrays and evict its records; a
        # selection built before them must not see that
        rng = np.random.default_rng(6)
        bank = MemoryBank(3, 4, 4)
        for lab in (0, 1, 0):
            v = unit(rng)
            bank.push(v, v, lab)
        f_p = unit(rng)
        chosen = acl.select(bank, 0, f_p, np.array([1.0, 0.0, 1.0]), 0.5)
        fallback = acl.select(bank, 0, f_p, None, 0.5)
        before = [(s.positives.copy(), s.negatives.copy())
                  for s in (chosen, fallback)]
        cands = acl.build_candidates(bank, 0, f_p)
        cands_before = cands.copy()
        for _ in range(7):
            v = unit(rng)
            bank.push(v, v, 0)
        for sel, (pos, neg) in zip((chosen, fallback), before):
            np.testing.assert_array_equal(sel.positives, pos)
            np.testing.assert_array_equal(sel.negatives, neg)
        np.testing.assert_array_equal(cands, cands_before)
