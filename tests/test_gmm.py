import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqssl import gmm


def two_cluster(seed, lo=0.2, hi=0.9, sigma=0.05, n=50):
    rng = np.random.default_rng(seed)
    return np.clip(np.concatenate([rng.normal(lo, sigma, n),
                                   rng.normal(hi, sigma, n)]), -1, 1)


def segment_sum(a):
    """Sum over the last axis as np.add.reduceat sums one segment: the first
    point, plus numpy's pairwise sum of the rest."""
    return a[..., 0] + a[..., 1:].sum(axis=-1)


def reference_fit(points):
    """Per-set EM in the (2, n) layout: the loop fit_gmm_many must match bit
    for bit."""
    x = np.sort(np.asarray(points, dtype=np.float64))
    n = x.size
    half = n // 2
    lo, hi = x[:half], x[half:]
    means = np.array([lo.mean(), hi.mean()])
    variances = np.maximum(np.array([lo.var(), hi.var()]), gmm.VAR_FLOOR)
    weights = np.array([half / n, (n - half) / n])
    trace = []
    for _ in range(gmm.MAX_ITERS):
        sq = (x - means[:, None]) ** 2
        lj = np.log(weights[:, None]) - 0.5 * (
            np.log(2.0 * np.pi * variances[:, None]) + sq / variances[:, None])
        log_norm = np.logaddexp(lj[0], lj[1])
        trace.append(segment_sum(log_norm))
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) < gmm.LL_TOL:
            break
        resp = np.exp(lj - log_norm)
        nk = segment_sum(resp)
        means = segment_sum(resp * x) / nk
        variances = np.maximum(
            segment_sum(resp * (x - means[:, None]) ** 2) / nk, gmm.VAR_FLOOR)
        weights = nk / n
    if means[0] > means[1]:
        reliable = 0
    elif means[1] > means[0]:
        reliable = 1
    else:
        reliable = int(weights[1] > weights[0])
    return gmm.GmmFit(means, variances, weights, trace, reliable)


def assert_same_fit(got, want):
    np.testing.assert_array_equal(got.means, want.means)
    np.testing.assert_array_equal(got.variances, want.variances)
    np.testing.assert_array_equal(got.weights, want.weights)
    assert got.log_likelihood_trace == want.log_likelihood_trace
    assert got.reliable_component == want.reliable_component


class TestFitGmm:
    def test_recovers_separated_means(self):
        fit = gmm.fit_gmm(two_cluster(0))
        means = np.sort(fit.means)
        assert abs(means[0] - 0.2) < 0.03
        assert abs(means[1] - 0.9) < 0.03

    def test_symmetric_pairs(self):
        fit = gmm.fit_gmm([0.0, 0.0, 1.0, 1.0])
        means = np.sort(fit.means)
        assert means[0] == pytest.approx(0.0, abs=1e-3)
        assert means[1] == pytest.approx(1.0, abs=1e-3)
        assert gmm.reliability_many(fit, [1.0])[0] > 0.99
        assert gmm.reliability_many(fit, [0.0])[0] < 0.01

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="need at least 4 points, got 3"):
            gmm.fit_gmm([0.1, 0.2, 0.3])

    def test_degenerate_spread(self):
        with pytest.raises(ValueError,
                           match="sample standard deviation below"):
            gmm.fit_gmm([0.5] * 10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point(self, bad):
        # a NaN spread would pass a "std < MIN_SPREAD" test and run all
        # MAX_ITERS iterations to NaN means
        with pytest.raises(ValueError, match="points must be finite"):
            gmm.fit_gmm([0.1, bad, 0.3, 0.5, 0.7])

    def test_invariants(self):
        for seed in range(5):
            fit = gmm.fit_gmm(two_cluster(seed))
            assert abs(fit.weights.sum() - 1.0) < 1e-9
            assert (fit.variances >= gmm.VAR_FLOOR).all()
            trace = np.asarray(fit.log_likelihood_trace)
            assert (np.diff(trace) >= -1e-9).all()
            assert fit.reliable_component == int(np.argmax(fit.means))

    def test_permutation_invariance(self):
        pts = two_cluster(3)
        fit1 = gmm.fit_gmm(pts)
        rng = np.random.default_rng(9)
        fit2 = gmm.fit_gmm(rng.permutation(pts))
        for x in np.linspace(-1, 1, 21):
            assert gmm.reliability_many(fit1, [x])[0] == pytest.approx(
                gmm.reliability_many(fit2, [x])[0], abs=1e-9)


class TestReliability:
    def test_posteriors_complement(self):
        fit = gmm.fit_gmm(two_cluster(1))
        other = 1 - fit.reliable_component
        for x in np.linspace(-1, 1, 41):
            r = gmm.reliability_many(fit, [x])[0]
            flipped = gmm.GmmFit(fit.means, fit.variances, fit.weights,
                                 fit.log_likelihood_trace, other)
            assert abs(r + gmm.reliability_many(flipped, [x])[0] - 1.0) < 1e-12

    def test_extremes(self):
        fit = gmm.fit_gmm(two_cluster(2))
        hi = fit.means[fit.reliable_component]
        lo = fit.means[1 - fit.reliable_component]
        assert gmm.reliability_many(fit, [hi])[0] > 0.99
        assert gmm.reliability_many(fit, [lo])[0] < 0.01

    def test_equal_components_give_half(self):
        fit = gmm.GmmFit(means=np.array([0.5, 0.5]),
                         variances=np.array([0.01, 0.01]),
                         weights=np.array([0.5, 0.5]),
                         log_likelihood_trace=[], reliable_component=0)
        for x in np.linspace(-1, 1, 11):
            assert gmm.reliability_many(fit, [x])[0] == pytest.approx(0.5, abs=1e-12)

    def test_monotone_with_equal_variances(self):
        fit = gmm.fit_gmm(two_cluster(4))
        fit.variances = np.array([0.01, 0.01])
        xs = np.linspace(-1, 1, 101)
        rs = [gmm.reliability_many(fit, [x])[0] for x in xs]
        assert (np.diff(rs) >= -1e-12).all()


# prototype cosines lie in [-1, 1]; sets below MIN_POINTS or MIN_SPREAD never
# reach fit_gmm
cosine_sets = st.lists(st.floats(-1.0, 1.0), min_size=gmm.MIN_POINTS,
                       max_size=60).filter(
    lambda xs: np.std(xs) >= gmm.MIN_SPREAD)


# converges so slowly that EM runs the full MAX_ITERS iterations
SLOW = np.clip(np.random.default_rng(2).normal(0.5, 0.1, 60), -1, 1)


class TestFitGmmProperties:
    @settings(max_examples=50, deadline=None)
    @given(points=cosine_sets)
    @example(points=SLOW.tolist())
    @example(points=[0.0, 0.0, 1.0, 1.0])   # converged at the first change
    def test_stops_on_the_first_small_change(self, points):
        # the stop rule, read from the trace alone: EM ends on the first
        # absolute log-likelihood change below LL_TOL, and only MAX_ITERS
        # ends a fit whose changes all stay at or above it
        trace = gmm.fit_gmm(points).log_likelihood_trace
        changes = np.abs(np.diff(trace))
        assert 2 <= len(trace) <= gmm.MAX_ITERS
        assert (changes[:-1] >= gmm.LL_TOL).all()
        if len(trace) < gmm.MAX_ITERS:
            assert changes[-1] < gmm.LL_TOL

    @settings(max_examples=50, deadline=None)
    @given(points=cosine_sets, data=st.data())
    def test_identical_under_permutation(self, points, data):
        permuted = data.draw(st.permutations(points))
        fit, fit_p = gmm.fit_gmm(points), gmm.fit_gmm(permuted)
        np.testing.assert_array_equal(fit.means, fit_p.means)
        np.testing.assert_array_equal(fit.variances, fit_p.variances)
        np.testing.assert_array_equal(fit.weights, fit_p.weights)
        assert fit.log_likelihood_trace == fit_p.log_likelihood_trace
        assert fit.reliable_component == fit_p.reliable_component

    @settings(max_examples=50, deadline=None)
    @given(points=cosine_sets)
    def test_fit_invariants(self, points):
        fit = gmm.fit_gmm(points)
        assert abs(fit.weights.sum() - 1.0) <= 1e-12
        assert (fit.variances >= gmm.VAR_FLOOR).all()
        other = 1 - fit.reliable_component
        assert fit.means[fit.reliable_component] >= fit.means[other]
        xs = np.concatenate([points, np.linspace(-1.0, 1.0, 41)])
        r = gmm.reliability_many(fit, xs)
        assert ((r >= 0.0) & (r <= 1.0)).all()


class TestFitGmmMany:
    def test_row_at_max_iters_beside_early_rows(self):
        sets = [two_cluster(0, n=30), SLOW, two_cluster(1, n=5),
                [0.0, 0.0, 1.0, 1.0]]
        fits = gmm.fit_gmm_many(sets)
        iters = [len(f.log_likelihood_trace) for f in fits]
        assert iters[1] == gmm.MAX_ITERS
        assert max(iters[0], iters[2], iters[3]) < gmm.MAX_ITERS
        for points, fit in zip(sets, fits):
            assert_same_fit(fit, reference_fit(points))
            assert_same_fit(fit, gmm.fit_gmm(points))

    def test_checks_every_set(self):
        with pytest.raises(ValueError, match="need at least 4 points, got 3"):
            gmm.fit_gmm_many([two_cluster(0), [0.1, 0.2, 0.3]])
        with pytest.raises(ValueError,
                           match="sample standard deviation below"):
            gmm.fit_gmm_many([two_cluster(0), [0.5] * 10])
        with pytest.raises(ValueError, match="points must be finite"):
            gmm.fit_gmm_many([two_cluster(0), [0.1, np.nan, 0.3, 0.5]])

    def test_empty_batch(self):
        assert gmm.fit_gmm_many([]) == []

    @settings(max_examples=40, deadline=None)
    @given(sets=st.lists(
        st.lists(st.floats(-1.0, 1.0), min_size=gmm.MIN_POINTS,
                 max_size=250).filter(lambda xs: np.std(xs) >= gmm.MIN_SPREAD),
        min_size=1, max_size=6))
    # a 10-point set beside a 200-point one, in both orders: zero padding to
    # the large set's width would move the small set's points within
    # numpy's pairwise blocks and change its bits; its clusters overlap, so
    # EM runs for tens of iterations
    @example(sets=[two_cluster(3, sigma=0.15, n=5), two_cluster(4, n=100)])
    @example(sets=[two_cluster(4, n=100), two_cluster(3, sigma=0.15, n=5)])
    def test_batch_matches_each_set_alone(self, sets):
        fits = gmm.fit_gmm_many(sets)
        assert len(fits) == len(sets)
        for points, fit in zip(sets, fits):
            assert_same_fit(fit, gmm.fit_gmm(points))
        for points, fit in zip(sets, fits):
            assert_same_fit(fit, reference_fit(points))
