"""Tests for posterior-slice construction and sampling."""

import dataclasses
import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from conftest import prescribed_pair, random_orthonormal, random_subspace_pair
from partialrom.bases import compute_suitable_bases
from partialrom.errors import ContractViolation, EmptySliceError, PartialSampleWarning
from partialrom.geometry import (
    TUBE_SLACK,
    DegenerateEllipsoid,
    PriorManifold,
    SnapshotSet,
    Subspace,
    dist,
    distances,
    lies_in,
    orthonormalize,
)
from partialrom import sampling
from partialrom.rng import derived_rng
from partialrom.sampling import (
    MIXTURE_SCALE,
    MIXTURE_WEIGHT,
    Observation,
    PiDistribution,
    build_slice,
    observe,
    observe_cloud,
    sample_posterior,
    sample_slice,
    sample_slice_multi,
    union_set_contains,
)
from partialrom.worlds import build_synthetic_world


class TestObserve:
    def test_inner_products(self):
        w = Subspace(np.eye(4)[:, :2])
        obs = observe([1.0, 2.0, 3.0, 4.0], w)
        assert_allclose(obs.values, [1.0, 2.0])
        assert obs.m == 2

    def test_cloud_observation_rows(self, rng):
        w = Subspace(random_orthonormal(rng, 8, 3))
        cloud = SnapshotSet(rng.standard_normal((5, 8)))
        mat = observe_cloud(cloud, w)
        assert mat.shape == (5, 3)
        for i, h in enumerate(cloud):
            assert np.array_equal(mat[i], observe(h, w).values)

    def test_ambient_mismatch(self, rng):
        with pytest.raises(ContractViolation):
            observe_cloud(SnapshotSet(np.ones((2, 5))), Subspace(np.eye(4)[:, :1]))


def _norm_sums(gen, n_interaction, n_residual, count):
    """Squared norms of ``count`` Gaussian rows of the two block dimensions,
    and ``count`` mixture coins."""
    xi = gen.standard_normal((count, n_interaction + n_residual))
    head = np.sum(xi[:, :n_interaction] ** 2, axis=1)
    tail = np.sum(xi[:, n_interaction:] ** 2, axis=1)
    return head, tail, gen.random(count)


class TestPiDistribution:
    def test_degenerate_block_dimensions(self):
        gen = derived_rng(0)
        dist_ = PiDistribution.uniform_beta()
        assert np.array_equal(dist_.from_norms(*_norm_sums(gen, 0, 5, 3)), np.zeros(3))
        assert np.array_equal(dist_.from_norms(*_norm_sums(gen, 3, 0, 3)), np.ones(3))

    def test_draws_in_unit_interval(self):
        gen = derived_rng(1)
        for dist_ in (PiDistribution.uniform_beta(), PiDistribution.mixture()):
            draws = dist_.from_norms(*_norm_sums(gen, 2, 4, 200))
            assert draws.shape == (200,)
            assert np.all((0.0 <= draws) & (draws <= 1.0))

    def test_mixture_concentrates_near_one(self):
        gen = derived_rng(2)
        draws = PiDistribution.mixture().from_norms(*_norm_sums(gen, 2, 4, 500))
        assert np.mean(draws > 0.99) > 0.6

    def test_from_name(self):
        assert PiDistribution.from_name("uniform").kind == "uniform-beta"
        assert PiDistribution.from_name("uniform-beta").kind == "uniform-beta"
        assert PiDistribution.from_name("MIXTURE").kind == "mixture"
        with pytest.raises(ContractViolation):
            PiDistribution.from_name("bogus")

    def test_validation(self):
        with pytest.raises(ContractViolation):
            PiDistribution(kind="other")


class TestBuildSlice:
    def test_plane_example_center_and_budget(self):
        # V = span{e1}, W = span{(e1+e2)/sqrt 2}; observing h = e1 gives
        # a* = 1/sqrt 2, sigma = 1/sqrt 2, so the center recovers e1 exactly
        # and the full budget eps'^2 remains.
        v = Subspace(np.eye(2)[:, :1])
        w = Subspace(np.array([[1.0], [1.0]]) / np.sqrt(2))
        sb = compute_suitable_bases(v, w)
        obs = observe([1.0, 0.0], w)
        sl = build_slice(obs, DegenerateEllipsoid(v, 0.25), sb)
        assert_allclose(sl.center, [1.0, 0.0], atol=1e-12)
        assert_allclose(sl.radius_sq_budget, 0.25**2, rtol=1e-12)
        assert not sl.is_empty

    def test_perpendicular_observation_consumes_budget(self):
        # V = span{e1}, W = span{e2}: the observed component is entirely
        # outside V, so it counts against the prior width.
        v = Subspace(np.eye(2)[:, :1])
        w = Subspace(np.eye(2)[:, 1:2])
        sb = compute_suitable_bases(v, w)
        sl = build_slice(Observation(np.array([0.3])), DegenerateEllipsoid(v, 0.5), sb)
        assert_allclose(sl.center, [0.0, 0.3], atol=1e-12)
        assert_allclose(sl.radius_sq_budget, 0.5**2 - 0.3**2, rtol=1e-12)

    def test_inconsistent_observation_marks_empty(self):
        v = Subspace(np.eye(2)[:, :1])
        w = Subspace(np.eye(2)[:, 1:2])
        sb = compute_suitable_bases(v, w)
        sl = build_slice(Observation(np.array([0.3])), DegenerateEllipsoid(v, 0.1), sb)
        assert sl.is_empty
        with pytest.raises(EmptySliceError):
            sample_slice(sl, 5)

    def test_zero_width_prior_admits_states_in_v(self):
        # With m > q the observed components outside V are rounding noise,
        # not an inconsistency: the budget is clamped to 0 and sampling works.
        for trial in range(100):
            rng = derived_rng(5005, trial)
            w, v = random_subspace_pair(rng, 12, 6, 3)
            sb = compute_suitable_bases(v, w)
            h = v.basis @ rng.standard_normal(3)
            obs = observe(h, w)
            sl = build_slice(obs, DegenerateEllipsoid(v, 0.0), sb)
            assert sl.radius_sq_budget == 0.0
            for s in sample_slice(sl, 5, rng=trial):
                assert np.linalg.norm(w.basis.T @ s - obs.values) <= 1e-13 * np.linalg.norm(h)
                assert dist(s, v) <= 1e-13 * np.linalg.norm(h)

    def test_zero_width_prior_rejects_state_off_v(self):
        # An offset of 1e-10 ||h|| off V is far above rounding: still empty.
        for trial in range(100):
            rng = derived_rng(5006, trial)
            w, v = random_subspace_pair(rng, 12, 6, 3)
            sb = compute_suitable_bases(v, w)
            h = v.basis @ rng.standard_normal(3)
            off = rng.standard_normal(12)
            off -= v.basis @ (v.basis.T @ off)
            h += off * (1e-10 * np.linalg.norm(h) / np.linalg.norm(off))
            sl = build_slice(observe(h, w), DegenerateEllipsoid(v, 0.0), sb)
            with pytest.raises(EmptySliceError):
                sample_slice(sl, 5, rng=trial)

    def test_bases_must_come_from_prior_subspace(self, rng):
        w, v = random_subspace_pair(rng, 10, 4, 3)
        other = Subspace(random_orthonormal(rng, 10, 3))
        sb = compute_suitable_bases(v, w)
        with pytest.raises(ContractViolation):
            build_slice(Observation(np.zeros(4)), DegenerateEllipsoid(other, 0.1), sb)

    def test_center_reproduces_observation(self, rng):
        for _ in range(10):
            w, v = random_subspace_pair(rng, 12, 5, 4)
            sb = compute_suitable_bases(v, w)
            h = rng.standard_normal(12)
            obs = observe(h, w)
            sl = build_slice(obs, DegenerateEllipsoid(v, 10.0), sb)
            assert_allclose(observe(sl.center, w).values, obs.values, atol=1e-9)


class TestSampleSlice:
    def make_instance(self, rng, n_amb=12, m=5, n=4, eps_prime=0.3):
        w, v = random_subspace_pair(rng, n_amb, m, n)
        sb = compute_suitable_bases(v, w)
        h = v.basis @ rng.standard_normal(n) + 0.1 * rng.standard_normal(n_amb)
        obs = observe(h, w)
        prior = DegenerateEllipsoid(v, eps_prime)
        return w, v, sb, obs, build_slice(obs, prior, sb)

    def test_samples_reproduce_observation_and_stay_in_prior(self, rng):
        for pi_name in ("uniform-beta", "mixture"):
            w, v, sb, obs, sl = self.make_instance(rng)
            out = sample_slice(sl, 200, PiDistribution.from_name(pi_name), rng=rng)
            assert len(out) == 200
            for s in out:
                assert_allclose(observe(s, w).values, obs.values, atol=1e-8)
                assert dist(s, v) <= sl.width + 1e-8

    def test_same_seed_reproduces_exactly(self, rng):
        w, v, sb, obs, sl = self.make_instance(rng)
        a = sample_slice(sl, 50, rng=123)
        b = sample_slice(sl, 50, rng=123)
        assert np.array_equal(a.vectors, b.vectors)
        c = sample_slice(sl, 50, rng=124)
        assert not np.allclose(a.vectors, c.vectors)

    def test_unobserved_prior_directions_fill_a_box(self, rng):
        # With m < n the prior has directions invisible to W; their sampled
        # coefficients cover [-d_box, d_box] uniformly.
        w, v = random_subspace_pair(rng, 20, 3, 6)
        sb = compute_suitable_bases(v, w)
        assert sb.n - sb.q == 3
        obs = observe(v.basis @ rng.standard_normal(6), w)
        sl = build_slice(obs, DegenerateEllipsoid(v, 0.2), sb)
        out = sample_slice(sl, 400, d_box=2.0, rng=7)
        coeffs = (out.vectors - sl.center) @ sb.v_star_tail
        assert np.abs(coeffs).max() <= 2.0 + 1e-9
        assert np.abs(coeffs).max() > 1.5  # actually spreads out
        assert abs(np.mean(coeffs)) < 0.2

    def test_d_box_zero_keeps_tail_fixed(self, rng):
        w, v = random_subspace_pair(rng, 20, 3, 6)
        sb = compute_suitable_bases(v, w)
        obs = observe(v.basis @ rng.standard_normal(6), w)
        sl = build_slice(obs, DegenerateEllipsoid(v, 0.2), sb)
        out = sample_slice(sl, 50, d_box=0.0, rng=7)
        coeffs = (out.vectors - sl.center) @ sb.v_star_tail
        assert_allclose(coeffs, 0.0, atol=1e-10)

    def test_argument_validation(self, rng):
        *_, sl = self.make_instance(rng)
        with pytest.raises(ContractViolation):
            sample_slice(sl, 0)
        with pytest.raises(ContractViolation):
            sample_slice(sl, 5, d_box=-1.0)
        for bad in (2.5, 3.0, True, "3"):
            with pytest.raises(ContractViolation, match="^n_samples must be an integer"):
                sample_slice(sl, bad)
        assert len(sample_slice(sl, np.int64(3))) == 3


    @pytest.mark.parametrize("kind", ["uniform-beta", "mixture"])
    @pytest.mark.parametrize("dims", [(3, 4, 1, 3, 4), (6, 7, 1, 6, 170)], ids=["2,4", "5,170"])
    def test_pi_law(self, kind, dims):
        # pi is read back off the samples: b_j = -sigma_j <wt_j, h - c> on the
        # interaction block, z the part of h - c off the complement blocks,
        # pi = |b| / sqrt(|b|^2 + |z|^2).  For block dimensions (q - p, r) it
        # is Beta((q - p) / 2, r / 2), or for ``mixture`` the mix of that with
        # the law of the pi whose interaction chi-square is scaled.
        rng = derived_rng(5150)
        w, v = prescribed_pair(rng, *dims)
        sb = compute_suitable_bases(v, w)
        a, b = (sb.q - sb.p) / 2, sb.r / 2
        assert (2 * a, 2 * b) == (dims[3] - dims[2], dims[4])
        obs = observe(v.basis @ rng.standard_normal(sb.n), w)
        sl = build_slice(obs, DegenerateEllipsoid(v, 0.7), sb)
        out = sample_slice(sl, 4000, PiDistribution.from_name(kind), rng=derived_rng(5151))
        dev = out.vectors - sl.center
        coeffs = -(dev @ sb.w_tilde) * sb.sigma[sb.p : sb.q]
        comp = sb.complement_onb
        z = dev - (dev @ comp) @ comp.T
        head, tail = np.sum(coeffs**2, axis=1), np.sum(z**2, axis=1)
        pi = np.sqrt(head / (head + tail))
        beta = stats.beta(a, b).cdf
        if kind == "uniform-beta":
            cdf = beta
        else:
            def cdf(x):
                scaled = x / (x + MIXTURE_SCALE * (1.0 - x))
                return MIXTURE_WEIGHT * beta(scaled) + (1.0 - MIXTURE_WEIGHT) * beta(x)
        assert stats.kstest(pi, cdf).pvalue > 0.01

    @pytest.mark.parametrize(
        "dims", [(3, 4, 1, 3, 4), (4, 2, 0, 2, 0), (2, 5, 0, 2, 3), (3, 3, 3, 3, 2)],
        ids=["tail", "r=0", "m < n", "p=q"],
    )
    def test_stream_layout(self, dims):
        # A slice of k samples takes one Gaussian block (one N-vector per
        # sample, r = 0 included) and one uniform block [mixture coin | budget
        # fraction | tail n - q] from its stream, in that order.  A change to
        # this layout changes every posterior draw.
        rng = derived_rng(77)
        w, v = prescribed_pair(rng, *dims)
        sb = compute_suitable_bases(v, w)
        obs = observe(v.basis @ rng.standard_normal(sb.n), w)
        sl = build_slice(obs, DegenerateEllipsoid(v, 0.5), sb)
        gen, twin = derived_rng(3, 1), derived_rng(3, 1)
        sample_slice(sl, 7, PiDistribution.mixture(), rng=gen)
        twin.standard_normal((7, sb.ambient_dim))
        twin.random((7, 2 + sb.n - sb.q))
        state = lambda g: json.dumps(g.bit_generator.state, default=np.ndarray.tolist)
        assert state(gen) == state(twin)


def _rotate_cluster(sb, cluster, rot):
    """``sb`` with the columns ``cluster`` (a cluster of equal sigma inside the
    interaction block p..q) of w*, v*, X, Z and the matching wt columns turned
    by the orthogonal ``rot``: another valid choice of suitable bases."""
    def turned(mat, cols):
        mat = mat.copy()
        mat[:, cols] = mat[:, cols] @ rot
        return mat
    wt = slice(cluster.start - sb.p, cluster.stop - sb.p)
    return dataclasses.replace(
        sb, w_star=turned(sb.w_star, cluster), v_star=turned(sb.v_star, cluster),
        w_rotation=turned(sb.w_rotation, cluster), v_rotation=turned(sb.v_rotation, cluster),
        w_tilde=turned(sb.w_tilde, wt),
    )


def _synthetic_case():
    world = build_synthetic_world(n_points=4, seed=3)
    w, prior = world.observation_subspace(25), world.prior_manifold(25).factor(1)
    return w, prior, world.cloud.vectors[0], slice(20, 25)


def _repeated_sigma_case():
    # r = 0, one tail direction, and sigma = 0.3 three times.
    w, v = prescribed_pair(derived_rng(2718), 4, 5, 1, 4, 0, cosines=np.full(3, 0.3))
    return w, DegenerateEllipsoid(v, 0.8), v.basis @ derived_rng(2719).standard_normal(5), slice(1, 4)


class TestBasisInvariance:
    @pytest.mark.parametrize("case", [_synthetic_case, _repeated_sigma_case], ids=["synthetic", "r=0"])
    def test_draws_do_not_depend_on_the_basis_inside_a_sigma_cluster(self, case):
        # Inside a cluster of equal sigma the SVD's basis is arbitrary; the
        # interaction coefficients are read off the ambient Gaussian, so a
        # rotation there leaves every draw in place up to rounding.
        w, prior, h, cluster = case()
        sb = compute_suitable_bases(prior.subspace, w)
        assert np.ptp(sb.sigma[cluster]) < 1e-14
        rot = np.linalg.qr(derived_rng(11).standard_normal((cluster.stop - cluster.start,) * 2))[0]
        turned = _rotate_cluster(sb, cluster, rot)
        assert np.abs(turned.w_tilde - sb.w_tilde).max() > 0.1
        obs = observe(h, w)
        draws = [
            sample_slice(build_slice(obs, prior, b), 50, PiDistribution.mixture(), rng=derived_rng(5, 9))
            .vectors for b in (sb, turned)
        ]
        moved = np.linalg.norm(draws[1] - draws[0], axis=1) / np.linalg.norm(draws[0], axis=1)
        assert moved.max() <= 1e-10


class TestMaxDeviation:
    """Fully observed instance (q = n, r = 0): the deviation from the center
    is bounded by sqrt(budget) / sigma_q, attained along the most amplified
    interaction direction."""

    def make_instance(self):
        rng = derived_rng(31415)
        n_amb, m, n = 8, 5, 3
        w, v = random_subspace_pair(rng, n_amb, m, n)
        sb = compute_suitable_bases(v, w)
        assert sb.p == 0 and sb.q == n and sb.r == 0
        h = v.basis @ rng.standard_normal(n)
        obs = observe(h, w)
        sl = build_slice(obs, DegenerateEllipsoid(v, 0.3), sb)
        return sb, obs, sl, w, v

    def test_extreme_point_sits_on_prior_boundary(self):
        sb, obs, sl, w, v = self.make_instance()
        amp = np.sqrt(sl.radius_sq_budget) / sb.sigma[sb.q - 1]
        extreme = sl.center - amp * sb.w_tilde[:, -1]
        assert_allclose(observe(extreme, w).values, obs.values, atol=1e-9)
        assert_allclose(dist(extreme, v), sl.width, rtol=1e-9)
        assert_allclose(np.linalg.norm(extreme - sl.center), amp, rtol=1e-12)

    def test_samples_respect_and_approach_the_bound(self):
        sb, obs, sl, w, v = self.make_instance()
        bound = np.sqrt(sl.radius_sq_budget) / sb.sigma[sb.q - 1]
        out = sample_slice(sl, 4000, PiDistribution.mixture(), rng=99)
        dev = np.linalg.norm(out.vectors - sl.center, axis=1)
        assert dev.max() <= bound * (1.0 + 1e-9)
        # The mixture split drives samples toward the amplified directions, so
        # the empirical maximum gets close to the bound.
        assert dev.max() >= 0.6 * bound


class TestSampleSliceMulti:
    def make_nested(self, rng, n_amb=12, m=6, w1=0.5, w2=0.06):
        w, v2 = random_subspace_pair(rng, n_amb, m, 4)
        v1 = Subspace(np.ascontiguousarray(v2.basis[:, :2]))
        prior = PriorManifold(
            (DegenerateEllipsoid(v1, w1), DegenerateEllipsoid(v2, w2))
        )
        h = v1.basis @ rng.standard_normal(2)
        obs = observe(h, w)
        return w, prior, obs

    def test_accepted_samples_satisfy_every_factor(self, rng):
        w, prior, obs = self.make_nested(rng)
        res = sample_slice_multi(obs, prior, 2, 100, rng=5, bases=_ref_bases(prior, 2, w))
        assert res.complete
        assert res.n_accepted == 100
        for s in res.samples:
            assert_allclose(observe(s, w).values, obs.values, atol=1e-8)
            for e in prior.ellipsoids:
                assert dist(s, e.subspace) <= e.width + 1e-8

    def test_single_factor_matches_sample_slice(self, rng):
        # With one factor the rejection loop draws exactly n_samples in its
        # first chunk, so the result coincides with the plain sampler.
        w, v = random_subspace_pair(rng, 10, 5, 3)
        prior = PriorManifold.single(v, 0.2)
        h = v.basis @ rng.standard_normal(3)
        obs = observe(h, w)
        sb = compute_suitable_bases(v, w)
        sl = build_slice(obs, prior.ellipsoids[0], sb)
        direct = sample_slice(sl, 40, rng=777)
        via_multi = sample_slice_multi(obs, prior, 1, 40, rng=777, bases=sb)
        assert via_multi.complete
        assert np.array_equal(direct.vectors, via_multi.samples.vectors)

    def test_partial_sample_warning(self, rng):
        # A tight first factor rejects most reference-slice draws; a small
        # draw budget then yields a partial (but nonempty) result.
        w, prior, obs = self.make_nested(rng, w1=0.04)
        with pytest.warns(PartialSampleWarning):
            res = sample_slice_multi(
                obs, prior, 2, 200, max_draws=220, rng=42, bases=_ref_bases(prior, 2, w)
            )
        assert not res.complete
        assert 0 < res.n_accepted < 200
        assert res.n_draws == 220
        assert 0.0 < res.acceptance_ratio < 1.0

    def test_empty_acceptance_raises(self, rng):
        w, v2 = random_subspace_pair(rng, 12, 6, 4)
        far = Subspace(random_orthonormal(rng, 12, 1))
        prior = PriorManifold(
            (DegenerateEllipsoid(far, 1e-12), DegenerateEllipsoid(v2, 0.06))
        )
        obs = observe(v2.basis @ rng.standard_normal(4), w)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PartialSampleWarning)
            with pytest.raises(EmptySliceError, match="^no draw out of 50 satisfied all 2"):
                sample_slice_multi(
                    obs, prior, 2, 10, max_draws=50, rng=3, bases=_ref_bases(prior, 2, w)
                )

    def test_argument_validation(self, rng):
        w, prior, obs = self.make_nested(rng)
        sb = _ref_bases(prior, 2, w)
        with pytest.raises(ContractViolation):
            sample_slice_multi(obs, prior, 0, 10, bases=sb)
        with pytest.raises(ContractViolation):
            sample_slice_multi(obs, prior, 3, 10, bases=sb)
        with pytest.raises(ContractViolation):
            sample_slice_multi(obs, prior, 2, 0, bases=sb)
        for bad in (2.5, True):
            with pytest.raises(ContractViolation, match="^n_samples must be an integer"):
                sample_slice_multi(obs, prior, 2, bad, bases=sb)
        for bad in (25.5, 30.0, True):
            with pytest.raises(ContractViolation, match="^max_draws must be an integer"):
                sample_slice_multi(obs, prior, 2, 10, max_draws=bad, bases=sb)
        res = sample_slice_multi(obs, prior, 2, np.int64(3), max_draws=np.int64(300), bases=sb)
        assert res.n_accepted == 3

    def test_draw_budget_below_sample_count_is_rejected(self, rng):
        # A budget that cannot cover n_samples is an argument error, reported
        # before any draw (not a warning followed by an empty-slice error).
        w, prior, obs = self.make_nested(rng)
        sb = _ref_bases(prior, 2, w)
        with warnings.catch_warnings():
            warnings.simplefilter("error", PartialSampleWarning)
            for max_draws in (0, 9):
                with pytest.raises(ContractViolation, match="max_draws"):
                    sample_slice_multi(obs, prior, 2, 10, max_draws=max_draws, bases=sb)
        assert sample_slice_multi(obs, prior, 2, 10, max_draws=10, rng=1, bases=sb).n_draws == 10


def _nested_prior_case(seed, m, n, p, q, r, widths, spread, n_points=40):
    """W, a prior of tubes of the given widths around the prefixes of V of
    dimension 1, n // 2 and n, and a cloud along V's first direction, each
    state at most ``spread`` off V."""
    rng = derived_rng(seed)
    w, v = prescribed_pair(rng, m, n, p, q, r)
    dims = sorted({1, max(1, n // 2), n})
    prior = PriorManifold(tuple(
        DegenerateEllipsoid(Subspace(np.ascontiguousarray(v.basis[:, :d])), width)
        for d, width in zip(dims, widths)
    ))
    off = rng.standard_normal((n_points, w.ambient_dim))
    off -= (off @ v.basis) @ v.basis.T
    off *= (rng.uniform(0.0, spread, n_points) / np.linalg.norm(off, axis=1))[:, None]
    return w, prior, SnapshotSet(np.outer(rng.standard_normal(n_points), v.basis[:, 0]) + off)


#: Geometries of the posterior batch: (m, n, p, q, r), reference factor,
#: seed, and whether a tight inner tube and a draw budget of 2 * per_point
#: leave points short (22 of 40 at seed 4249).  "tail, m > q" has q < n (a
#: tail block) and m > q.  A reference factor of None samples the outermost
#: tube alone, a single-factor prior; "1 tube, N=300" has every block.
MULTI_CASES = {
    "p=q": ((6, 8, 3, 3, 40), 3, 4242, False),
    "r=0": ((6, 8, 2, 5, 0), 3, 4242, False),
    "tail, m > q": ((12, 6, 1, 5, 60), 3, 4242, False),
    "j_star below last": ((10, 12, 2, 8, 150), 2, 4242, False),
    "tight budget": ((6, 8, 2, 5, 0), 2, 4249, True),
    "1 tube, p=q": ((6, 8, 3, 3, 40), None, 4242, False),
    "1 tube, r=0": ((6, 8, 2, 5, 0), None, 4242, False),
    "1 tube, tail": ((12, 6, 1, 5, 60), None, 4242, False),
    "1 tube, N=300": ((10, 12, 2, 8, 280), None, 7117, False),
}


def _multi_case(name):
    dims, j_star, seed, tight = MULTI_CASES[name]
    widths, spread = ((0.3, 0.3, 0.3), 0.04) if tight else ((0.9, 0.45, 0.3), 0.2)
    w, prior, cloud = _nested_prior_case(seed, *dims, widths, spread)
    if j_star is None:
        prior, j_star = PriorManifold(prior.ellipsoids[-1:]), 1
    return w, prior, cloud, j_star, (12 if tight else None)


def _per_point_calls(w, prior, cloud, j_star, max_draws, per_point=6, seed=77):
    """One ``sample_slice_multi`` call per manifold point, on stream (seed, i)."""
    bases = compute_suitable_bases(prior.factor(j_star).subspace, w)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PartialSampleWarning)
        return [
            sample_slice_multi(
                observe(h, w), prior, j_star, per_point, max_draws, PiDistribution.mixture(),
                0.5, derived_rng(seed, i), bases=bases,
            )
            for i, h in enumerate(cloud)
        ]


class TestSamplePosterior:
    def test_shape_and_membership(self, rng):
        w, v = random_subspace_pair(rng, 10, 5, 3)
        cloud = SnapshotSet(
            (v.basis @ rng.standard_normal((3, 8))).T * 1.0
        )
        prior = DegenerateEllipsoid(v, 0.2)
        out = sample_posterior(cloud, w, prior, per_point=6, seed=50)
        assert len(out) == 8 * 6
        for i, h in enumerate(cloud):
            block = out.vectors[i * 6 : (i + 1) * 6]
            obs = observe(h, w)
            for s in block:
                assert_allclose(observe(s, w).values, obs.values, atol=1e-8)
                assert dist(s, v) <= 0.2 + 1e-8

    def test_per_point_streams_are_stable(self, rng):
        # Point i's samples depend only on (seed, i), not on cloud size.
        w, v = random_subspace_pair(rng, 10, 5, 3)
        pts = (v.basis @ rng.standard_normal((3, 4))).T
        prior = DegenerateEllipsoid(v, 0.2)
        small = sample_posterior(SnapshotSet(pts[:2]), w, prior, per_point=5, seed=9)
        large = sample_posterior(SnapshotSet(pts), w, prior, per_point=5, seed=9)
        assert np.array_equal(small.vectors, large.vectors[: 2 * 5])

    def test_per_point_streams_are_stable_multi_tube(self):
        # Under a nested prior too, a prefix of the cloud gives a bitwise
        # prefix of the draws (35 points end in a block of 3, 40 in one of 8).
        w, prior, cloud, j_star, _ = _multi_case("r=0")
        small = sample_posterior(SnapshotSet(cloud.vectors[:35]), w, prior, 4, d_box=0.5, seed=9)
        large = sample_posterior(cloud, w, prior, 4, d_box=0.5, seed=9)
        assert np.array_equal(small.vectors, large.vectors[: 35 * 4])

    @pytest.mark.parametrize("name", MULTI_CASES)
    def test_multi_tube_batch_equals_per_point_calls(self, name):
        # Every product of the batch is a per-point product, so it draws bit
        # for bit what one sample_slice_multi call per point draws, with one
        # tube or several.
        w, prior, cloud, j_star, max_draws = _multi_case(name)
        calls = _per_point_calls(w, prior, cloud, j_star, max_draws)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PartialSampleWarning)
            batch = sample_posterior(
                cloud, w, prior, 6, PiDistribution.mixture(), 0.5, seed=77, j_star=j_star,
                max_draws_per_point=max_draws,
            )
        assert np.array_equal(batch.vectors, np.vstack([c.samples.vectors for c in calls]))
        if max_draws is None:
            assert all(c.complete for c in calls)
        else:
            # Some points end short, none empty, and points that finish in
            # the second round drew second chunks of different sizes.
            assert not all(c.complete for c in calls) and all(c.n_accepted for c in calls)
            assert len({c.n_draws for c in calls} - {6, max_draws}) >= 2

    def test_first_round_rejections_equal_per_point_calls(self):
        # A block's first round is drawn in place in the output rows; a point
        # that rejects part or all of it moves its kept rows to the front and
        # draws again into a buffer.  Its first round alone is a draw from the
        # reference tube by itself, on the same stream, so the rows it keeps
        # must open the point's samples.  The 40 points span two blocks.
        w, prior, cloud = _nested_prior_case(4243, 6, 8, 2, 5, 0, (0.9, 0.45, 0.3), 0.2)
        ref = PriorManifold(prior.ellipsoids[-1:])
        inside = sampling._within_tubes(list(prior.ellipsoids[:-1]))
        calls = _per_point_calls(w, prior, cloud, 3, None)
        batch = sample_posterior(cloud, w, prior, 6, PiDistribution.mixture(), 0.5, seed=77)
        assert np.array_equal(batch.vectors, np.vstack([c.samples.vectors for c in calls]))
        assert len(cloud) > sampling._BLOCK_POINTS and all(c.complete for c in calls)

        first = _per_point_calls(w, ref, cloud, 1, None)
        hits = []
        for i, c in enumerate(first):
            ok = inside(c.samples.vectors[None])[0]
            hits.append(int(ok.sum()))
            assert np.array_equal(batch.vectors[6 * i : 6 * i + hits[-1]], c.samples.vectors[ok])
        assert 0 in hits and any(0 < k < 6 for k in hits)

    def test_non_nested_tubes(self):
        # The reference tube around V (last, the default) and two other tubes,
        # around A = span(v_1, v_2, x) and B = span(v_1, y): B does not lie in
        # A, nor either in V.  The other tubes reject about a third of the
        # draws, so most points draw a second round.
        rng = derived_rng(1618)
        w, v = prescribed_pair(rng, m=6, n=5, p=1, q=4, r=8)
        x, y = rng.standard_normal((2, w.ambient_dim))
        a = orthonormalize([v.basis[:, 0], v.basis[:, 1], x])
        b = orthonormalize([v.basis[:, 0], y])
        assert not (lies_in(b, a) or lies_in(a, v) or lies_in(b, v))
        prior = PriorManifold(
            (DegenerateEllipsoid(a, 0.5), DegenerateEllipsoid(b, 0.6), DegenerateEllipsoid(v, 0.3))
        )
        off = rng.standard_normal((40, w.ambient_dim))
        off -= (off @ v.basis) @ v.basis.T
        off *= (rng.uniform(0.0, 0.05, 40) / np.linalg.norm(off, axis=1))[:, None]
        cloud = SnapshotSet(np.outer(rng.standard_normal(40), v.basis[:, 0]) + off)

        calls = _per_point_calls(w, prior, cloud, 3, None)
        batch = sample_posterior(cloud, w, prior, 6, PiDistribution.mixture(), 0.5, seed=77)
        assert np.array_equal(batch.vectors, np.vstack([c.samples.vectors for c in calls]))
        assert all(c.complete for c in calls) and sum(c.n_draws for c in calls) > len(batch)
        for e in prior.ellipsoids:
            assert batch.residual_norms(e.subspace).max() <= e.width + TUBE_SLACK
        obs = np.repeat(observe_cloud(cloud, w), 6, axis=0)
        assert_allclose(observe_cloud(batch, w), obs, atol=1e-10)

    @pytest.mark.parametrize("case", ["j_star=1", "j_star=2 of 4", "nested plus other tube"])
    def test_nested_and_other_tubes_in_one_call(self, case, monkeypatch):
        # Nested tubes around V's column prefixes of dimension 1, 3, 5 and 10,
        # the reference factor first, in the middle, or last next to a tube
        # around span(v_1, x) that is no prefix of V: the prefix rule (one
        # pass on the widest tested basis) and the per-tube rule both decide.
        rng = derived_rng(2029)
        w, v = prescribed_pair(rng, m=6, n=10, p=1, q=5, r=12)
        x = rng.standard_normal(w.ambient_dim)
        widths = {1: 0.9, 3: 0.8, 5: 0.6, 10: 0.2}
        factors = [
            DegenerateEllipsoid(Subspace(v.basis[:, :d]), width) for d, width in widths.items()
        ]
        j_star = {"j_star=1": 1, "j_star=2 of 4": 2, "nested plus other tube": 4}[case]
        if case == "nested plus other tube":
            other = orthonormalize([v.basis[:, 0], x])
            factors.insert(2, DegenerateEllipsoid(other, 0.8))
            j_star += 1
        prior = PriorManifold(tuple(factors))
        off = rng.standard_normal((40, w.ambient_dim))
        off -= (off @ v.basis) @ v.basis.T
        off *= (rng.uniform(0.0, 0.15, 40) / np.linalg.norm(off, axis=1))[:, None]
        cloud = SnapshotSet(np.outer(rng.standard_normal(40), v.basis[:, 0]) + off)

        calls = _per_point_calls(w, prior, cloud, j_star, None)
        rules = {"prefix": 0, "distances": 0}
        for name, rule in (("prefix", "prefix_distances_sq"), ("distances", "distances")):
            def spy(*args, _rule=getattr(sampling, rule), _name=name):
                rules[_name] += 1
                return _rule(*args)
            monkeypatch.setattr(sampling, rule, spy)
        batch = sample_posterior(cloud, w, prior, 6, PiDistribution.mixture(), 0.5, seed=77,
                                 j_star=j_star)
        assert np.array_equal(batch.vectors, np.vstack([c.samples.vectors for c in calls]))
        assert rules["prefix"] > 0
        assert (rules["distances"] > 0) == (case == "nested plus other tube")
        assert all(c.complete for c in calls) and sum(c.n_draws for c in calls) > len(batch)
        for e in prior.ellipsoids:
            assert distances(batch.vectors, e.subspace.basis).max() <= e.width + TUBE_SLACK

    def test_streams_are_keyed_not_seeded_per_point(self, monkeypatch):
        # One Generator and one SeedSequence of the seed per call, however
        # many points and rounds, with the draws of derived_rng(seed, i).
        w, prior, cloud, j_star, _ = _multi_case("r=0")
        counts = {"SeedSequence": 0, "Generator": 0}
        for name in counts:
            def spy(*args, _make=getattr(np.random, name), _name=name, **kwargs):
                counts[_name] += 1
                return _make(*args, **kwargs)
            monkeypatch.setattr(np.random, name, spy)
        batch = sample_posterior(cloud, w, prior, 6, PiDistribution.mixture(), 0.5, seed=77)
        assert counts == {"SeedSequence": 1, "Generator": 1}
        monkeypatch.undo()
        calls = _per_point_calls(w, prior, cloud, j_star, None)
        assert np.array_equal(batch.vectors, np.vstack([c.samples.vectors for c in calls]))

    def test_short_points_give_one_warning_per_call(self):
        w, prior, cloud, j_star, max_draws = _multi_case("tight budget")
        short = [i for i, c in enumerate(_per_point_calls(w, prior, cloud, j_star, max_draws))
                 if not c.complete]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sample_posterior(
                cloud, w, prior, 6, PiDistribution.mixture(), 0.5, seed=77, j_star=j_star,
                max_draws_per_point=max_draws,
            )
        assert [c.category for c in caught] == [PartialSampleWarning]
        assert caught[0].filename == __file__
        assert f"{len(short)} of 40 manifold points came up short; point {short[0]} " in str(
            caught[0].message
        )

    @pytest.mark.parametrize("failure", ["slice has negative", "no draw out of"])
    def test_multi_tube_error_names_first_failing_point(self, failure):
        # V lies in W; points 0, 1 and 3 sit on the inner tube's axis.  Point
        # 2 is observed too far outside V (an empty slice), or lies in V but
        # so far from the inner tube that no draw of its slice is kept.
        w, v = prescribed_pair(derived_rng(3107), m=6, n=3, p=3, q=3, r=6)
        inner = Subspace(np.ascontiguousarray(v.basis[:, :1]))
        prior = PriorManifold((DegenerateEllipsoid(inner, 0.1), DegenerateEllipsoid(v, 0.06)))
        pts = np.outer([1.0, -2.0, 0.5, 3.0], v.basis[:, 0])
        if failure == "no draw out of":
            pts[2] = v.basis[:, 1]
        else:
            pts[2] += 0.5 * w.basis[:, -1]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PartialSampleWarning)
            with pytest.raises(EmptySliceError, match=f"^manifold point 2: {failure}"):
                sample_posterior(SnapshotSet(pts), w, prior, per_point=3, max_draws_per_point=30)

    @pytest.mark.parametrize(
        "n_samples, d_box, seed",
        [(0, 1.0, 0), (3, -1.0, 0), (3, np.nan, 0), (3, np.inf, 0), (3, -np.inf, 0),
         (3, 1.0, -1), (3, 1.0, 1.5), (2.5, 1.0, 0), (True, 1.0, 0)],
        ids=["0-1.0", "3--1.0", "3-nan", "3-inf", "3--inf", "seed=-1", "seed=1.5", "2.5-1.0",
             "True-1.0"],
    )
    @pytest.mark.parametrize("tubes", [1, 2])
    def test_arguments_are_checked_before_any_slice(self, tubes, n_samples, d_box, seed):
        # A bad sample count, d_box or seed is an argument error even where
        # the first slice is empty, at every entry point of the rejection loop.
        w, v = prescribed_pair(derived_rng(3107), m=6, n=3, p=3, q=3, r=6)
        inner = Subspace(np.ascontiguousarray(v.basis[:, :1]))
        factors = (DegenerateEllipsoid(inner, 0.1), DegenerateEllipsoid(v, 0.06))
        prior = PriorManifold(factors[-tubes:])
        h = v.basis[:, 0] + 0.5 * w.basis[:, -1]  # observed too far outside V
        bases = compute_suitable_bases(v, w)
        obs = observe(h, w)
        sl = build_slice(obs, prior.factor(tubes), bases)
        assert sl.is_empty
        calls = [
            lambda: sample_posterior(
                SnapshotSet(h[None, :]), w, prior, n_samples, d_box=d_box, seed=seed
            ),
            lambda: sample_slice_multi(
                obs, prior, tubes, n_samples, d_box=d_box, rng=seed, bases=bases
            ),
            lambda: sample_slice(sl, n_samples, d_box=d_box, rng=seed),
            lambda: sample_posterior(
                SnapshotSet(h[None, :]), w, prior, n_samples, d_box=d_box, seed=seed,
                max_draws_per_point=7.5,
            ),
        ]
        for call in calls:
            with pytest.raises(
                ContractViolation,
                match="^(n_samples|d_box) must be >= |^(n_samples|max_draws) must be an integer"
                "|^seed must be a non-neg",
            ):
                call()

    def test_multi_prior_dispatch(self, rng):
        w, v2 = random_subspace_pair(rng, 12, 6, 4)
        v1 = Subspace(np.ascontiguousarray(v2.basis[:, :2]))
        prior = PriorManifold(
            (DegenerateEllipsoid(v1, 0.5), DegenerateEllipsoid(v2, 0.06))
        )
        pts = (v1.basis @ rng.standard_normal((2, 3))).T
        out = sample_posterior(SnapshotSet(pts), w, prior, per_point=4, seed=12)
        assert len(out) == 12
        for s in out:
            for e in prior.ellipsoids:
                assert dist(s, e.subspace) <= e.width + 1e-8

    def test_validation(self, rng):
        w, v = random_subspace_pair(rng, 10, 5, 3)
        cloud = SnapshotSet(rng.standard_normal((2, 10)))
        with pytest.raises(ContractViolation):
            sample_posterior(cloud, w, DegenerateEllipsoid(v, 0.1), per_point=0)
        # The reference factor must exist: no index 0 or past the last factor.
        for j_star in (0, 2):
            with pytest.raises(ContractViolation):
                sample_posterior(cloud, w, DegenerateEllipsoid(v, 0.1), per_point=1, j_star=j_star)

    def test_single_tube_honours_draw_budget(self, rng):
        # A single tube runs the same rejection path as a nested prior, so a
        # per-point budget below per_point is rejected rather than ignored.
        w, v = random_subspace_pair(rng, 10, 5, 3)
        cloud = SnapshotSet((v.basis @ rng.standard_normal((3, 3))).T)
        prior = DegenerateEllipsoid(v, 0.2)
        with pytest.raises(ContractViolation, match="max_draws"):
            sample_posterior(cloud, w, prior, per_point=5, max_draws_per_point=2)
        out = sample_posterior(cloud, w, prior, per_point=5, max_draws_per_point=5)
        assert len(out) == 15

    def test_one_inconsistent_point_raises(self, rng):
        w, v = random_subspace_pair(rng, 12, 6, 3)
        bases = compute_suitable_bases(v, w)
        pts = (v.basis @ rng.standard_normal((3, 4))).T
        pts[2] += 0.5 * bases.w_star[:, -1]  # observed, outside V, beyond the width
        with pytest.raises(EmptySliceError, match="point 2"):
            sample_posterior(SnapshotSet(pts), w, DegenerateEllipsoid(v, 0.1), per_point=3)

    def test_zero_width_prior_admits_states_in_v(self):
        # The batch clamps rounding-level negative budgets as build_slice does.
        for trial in range(20):
            rng = derived_rng(5007, trial)
            w, v = random_subspace_pair(rng, 12, 6, 3)
            pts = (v.basis @ rng.standard_normal((3, 50))).T
            out = sample_posterior(SnapshotSet(pts), w, DegenerateEllipsoid(v, 0.0), per_point=3)
            assert len(out) == 150
            scale = np.linalg.norm(pts, axis=1).repeat(3)
            obs = (pts @ w.basis).repeat(3, axis=0)
            assert np.all(np.linalg.norm(out.vectors @ w.basis - obs, axis=1) <= 1e-13 * scale)
            assert np.all(out.residual_norms(v) <= 1e-13 * scale)


class TestUnionSetContains:
    def make_instance(self, rng, n_amb=14, m=6, n=4, t_dim=2, eps_prime=0.2):
        w, v = random_subspace_pair(rng, n_amb, m, n)
        t = Subspace(np.ascontiguousarray(v.basis[:, :t_dim]))
        sb = compute_suitable_bases(v, w)
        prior = DegenerateEllipsoid(v, eps_prime)
        return w, v, t, sb, prior

    def test_slice_samples_from_tube_observations_are_members(self, rng):
        eps = 1e-3
        w, v, t, sb, prior = self.make_instance(rng)
        for trial in range(5):
            h = t.basis @ rng.standard_normal(2)
            h = h + eps * 0.9 * _unit(rng, 14)  # tube point: dist(h, T) <= eps
            sl = build_slice(observe(h, w), prior, sb)
            for s in sample_slice(sl, 50, rng=trial):
                assert union_set_contains(s, t, eps, prior, sb)

    def test_samples_with_unobserved_directions_remain_members(self, rng):
        # m < n: the slice moves freely along prior directions invisible to W,
        # all of which belong to the union set.
        w, v = random_subspace_pair(rng, 15, 3, 5)
        t = Subspace(np.ascontiguousarray(v.basis[:, :1]))
        sb = compute_suitable_bases(v, w)
        prior = DegenerateEllipsoid(v, 0.2)
        h = t.basis @ rng.standard_normal(1)
        sl = build_slice(observe(h, w), prior, sb)
        for s in sample_slice(sl, 60, d_box=25.0, rng=8):
            assert union_set_contains(s, t, 1e-9, prior, sb)

    def aligned_instance(self, rng, n_amb=10, n=4):
        # W = V: sigma = 1, p = q = n, so the two budget constraints decouple
        # into crisp, separately violable conditions.
        v = Subspace(random_orthonormal(rng, n_amb, n))
        t = Subspace(np.ascontiguousarray(v.basis[:, :2]))
        sb = compute_suitable_bases(v, v)
        prior = DegenerateEllipsoid(v, 0.1)
        return v, t, sb, prior

    def test_intrinsic_budget_violation(self, rng):
        v, t, sb, prior = self.aligned_instance(rng)
        eps = 1e-3
        inside_v_off_t = v.basis[:, 3]
        member = t.basis @ rng.standard_normal(2) + 0.5 * eps * inside_v_off_t
        assert union_set_contains(member, t, eps, prior, sb)
        violator = t.basis @ rng.standard_normal(2) + 3.0 * eps * inside_v_off_t
        assert not union_set_contains(violator, t, eps, prior, sb)

    def test_prior_budget_violation(self, rng):
        v, t, sb, prior = self.aligned_instance(rng)
        off_v = _unit_perp(rng, v)
        member = t.basis @ rng.standard_normal(2) + 0.5 * prior.width * off_v
        assert union_set_contains(member, t, 1e-9, prior, sb)
        violator = t.basis @ rng.standard_normal(2) + 1.5 * prior.width * off_v
        assert not union_set_contains(violator, t, 1e-9, prior, sb)

    def test_t_must_lie_inside_prior_subspace(self, rng):
        w, v, t, sb, prior = self.make_instance(rng)
        outside = Subspace(random_orthonormal(rng, 14, 2))
        with pytest.raises(ContractViolation):
            union_set_contains(np.zeros(14), outside, 0.1, prior, sb)

    @pytest.mark.parametrize("scale", [1e6, 1e7, 1e8, 1e9])
    def test_large_component_along_t_keeps_the_free_part(self, scale):
        # The W⊥ ∩ V⊥ part c of s t + c u decides the prior budget (width
        # 0.05) however large the free component s along T is.
        for trial in range(5):
            w, v, t, sb, prior = self.make_instance(
                derived_rng(24, trial), n_amb=40, m=8, n=10, eps_prime=0.05
            )
            along_t, free = t.basis[:, 0], sb.u_basis[:, 0]
            inside, outside = scale * along_t + 0.049 * free, scale * along_t + 0.051 * free
            assert union_set_contains(inside, t, 1e-3, prior, sb), trial
            assert not union_set_contains(outside, t, 1e-3, prior, sb), trial

    def test_negative_eps_rejected(self, rng):
        # eps is a tube width: finite and >= 0, as DegenerateEllipsoid's.
        w, v, t, sb, prior = self.make_instance(rng)
        for eps in (-1.0, np.nan, np.inf):
            with pytest.raises(ContractViolation):
                union_set_contains(np.zeros(14), t, eps, prior, sb)

    def test_zero_dimensional_t(self, rng):
        w, v, _, sb, prior = self.make_instance(rng)
        t0 = Subspace.zero(14)
        # h' = small multiple of a prior direction: inside for generous eps.
        h = 1e-4 * v.basis[:, 0]
        assert union_set_contains(h, t0, 1e-3, prior, sb)
        assert not union_set_contains(v.basis[:, 0], t0, 1e-3, prior, sb)


def _ref_bases(prior, j_star, w):
    return compute_suitable_bases(prior.factor(j_star).subspace, w)


def _unit(rng, dim):
    g = rng.standard_normal(dim)
    return g / np.linalg.norm(g)


def _unit_perp(rng, subspace):
    g = rng.standard_normal(subspace.ambient_dim)
    g -= subspace.basis @ (subspace.basis.T @ g)
    return g / np.linalg.norm(g)
