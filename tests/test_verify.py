import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqssl import gmm, verify


def reference_oracle_em(points, n_restarts=50, seed=0):
    """The oracle's restarts one after another, each in an (n, 2) layout:
    the loop the batched oracle_em_many must match set by set, bit for bit.
    Also returns, per restart, the iteration it converged at, or None at the
    500 cap."""
    x = np.asarray(points, dtype=np.float64)
    rng = np.random.default_rng(seed)
    best = -np.inf
    stops = []
    for _ in range(n_restarts):
        mu = rng.choice(x, size=2, replace=False).astype(np.float64)
        var = np.full(2, max(x.var(), 1e-6))
        w = np.array([0.5, 0.5])
        prev = -np.inf
        for it in range(500):
            log_p = np.stack([
                np.log(w[k]) - 0.5 * (np.log(2 * np.pi * var[k])
                                      + (x - mu[k]) ** 2 / var[k])
                for k in (0, 1)], axis=1)
            m = log_p.max(axis=1, keepdims=True)
            norm = m[:, 0] + np.log(np.exp(log_p - m).sum(axis=1))
            ll = norm.sum()
            if abs(ll - prev) < 1e-10:
                stops.append(it)
                break
            prev = ll
            r = np.exp(log_p - norm[:, None])
            # each component's sums are pairwise over its own points
            nk = np.array([r[:, k].sum() for k in (0, 1)])
            rx = r * x[:, None]
            mu = np.array([rx[:, k].sum() for k in (0, 1)]) / nk
            sq = r * (x[:, None] - mu) ** 2
            var = np.maximum(np.array([sq[:, k].sum() for k in (0, 1)]) / nk,
                             1e-6)
            w = nk / x.size
        else:
            stops.append(None)
        best = max(best, prev)
    return best, stops


def one_cluster(seed, n=60):
    return np.clip(np.random.default_rng(seed).normal(0.5, 0.1, n), -1, 1)


def two_clusters(seed, sep, n=30):
    rng = np.random.default_rng(seed)
    return np.clip(np.concatenate([rng.normal(0.5 - sep / 2, 0.05, n),
                                   rng.normal(0.5 + sep / 2, 0.05, n)]), -1, 1)


class TestOracleEm:
    def test_some_restarts_at_the_cap(self):
        points = one_cluster(2)
        want, stops = reference_oracle_em(points, n_restarts=8, seed=2)
        assert None in stops
        assert any(s is not None for s in stops)
        assert verify.oracle_em_many([points], [2], n_restarts=8)[0] == want

    def test_restarts_converge_at_different_iterations(self):
        points = two_clusters(3, 0.6)
        want, stops = reference_oracle_em(points, n_restarts=8, seed=3)
        assert None not in stops and len(set(stops)) > 1
        assert verify.oracle_em_many([points], [3], n_restarts=8)[0] == want

    def test_independent_of_gmm(self, monkeypatch):
        # the oracle is written against the formulas: it must give the same
        # result with every function of the module it checks broken
        def broken(*args, **kwargs):
            raise AssertionError("the EM oracle called seqssl.gmm")

        patched = [name for name, f in vars(gmm).items()
                   if inspect.isfunction(f) and f.__module__ == gmm.__name__]
        assert {"fit_gmm", "fit_gmm_many", "log_likelihood"} <= set(patched)
        for name in patched:
            monkeypatch.setattr(gmm, name, broken)
        points = two_clusters(3, 0.6)
        want, _ = reference_oracle_em(points, n_restarts=8, seed=3)
        assert verify.oracle_em_many([points], [3], n_restarts=8)[0] == want
        other = one_cluster(2)
        assert verify.oracle_em_many([points, other], [3, 2], n_restarts=8) \
            == [want, reference_oracle_em(other, n_restarts=8, seed=2)[0]]

    @pytest.mark.parametrize("i", [0, 10, 19])
    def test_verify_datasets(self, i):
        points = verify.oracle_dataset(i)
        assert verify.oracle_em_many([points], [i])[0] == \
            reference_oracle_em(points, seed=i)[0]

    @settings(max_examples=50, deadline=None)
    @given(points=st.one_of(
               st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=60),
               st.builds(one_cluster, st.integers(0, 2**16),
                         st.integers(2, 60)),
               st.builds(two_clusters, st.integers(0, 2**16),
                         st.floats(0.0, 1.0), st.integers(1, 30))),
           n_restarts=st.integers(1, 6), seed=st.integers(0, 2**16))
    def test_batch_matches_restarts_one_by_one(self, points, n_restarts, seed):
        want, _ = reference_oracle_em(points, n_restarts, seed)
        assert verify.oracle_em_many([points], [seed], n_restarts)[0] == want


class TestOracleEmMany:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), n_points=st.integers(2, 60),
           n_sets=st.integers(1, 5), n_restarts=st.integers(1, 6))
    def test_matches_reference_set_by_set(self, data, n_points, n_sets,
                                          n_restarts):
        one_set = st.one_of(
            st.lists(st.floats(-1.0, 1.0), min_size=n_points,
                     max_size=n_points).map(np.array),
            st.builds(one_cluster, st.integers(0, 2**16), st.just(n_points)))
        sets = [data.draw(one_set) for _ in range(n_sets)]
        seeds = data.draw(st.lists(st.integers(0, 2**16), min_size=n_sets,
                                   max_size=n_sets))
        want = [reference_oracle_em(pts, n_restarts, seed)[0]
                for pts, seed in zip(sets, seeds)]
        # 1 set, 2 sets and all sets per batch
        for per_batch in (1, 2, n_sets):
            got = []
            for i in range(0, n_sets, per_batch):
                got += verify.oracle_em_many(sets[i:i + per_batch],
                                             seeds[i:i + per_batch],
                                             n_restarts)
            assert got == want

    def test_unequal_sizes_raise(self):
        with pytest.raises(ValueError,
                           match="oracle sets must be 1-D and of one size"):
            verify.oracle_em_many([one_cluster(0, 10), one_cluster(1, 11)],
                                  [0, 1], n_restarts=2)


class TestGmmOracleChecks:
    def test_same_worst_gap_as_one_set_at_a_time(self):
        # one full batch and one partial one
        n = verify.ORACLE_BATCH_SETS + 2
        want = -np.inf
        for i in range(n):
            pts = verify.oracle_dataset(i, n)
            gap = reference_oracle_em(pts, seed=i)[0] - \
                gmm.log_likelihood(gmm.fit_gmm(pts), pts)
            want = max(want, gap)
        [result] = verify.gmm_oracle_checks(n)
        assert result.name == "gmm_vs_restart_oracle"
        assert result.max_error == want
