"""Tests for posterior-slice construction and sampling."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_orthonormal, random_subspace_pair
from partialrom.bases import compute_suitable_bases
from partialrom.errors import ContractViolation, EmptySliceError, PartialSampleWarning
from partialrom.geometry import (
    DegenerateEllipsoid,
    PriorManifold,
    SnapshotSet,
    Subspace,
    dist,
)
from partialrom.rng import derived_rng
from partialrom.sampling import (
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
            assert_allclose(mat[i], observe(h, w).values, rtol=1e-12)

    def test_ambient_mismatch(self, rng):
        with pytest.raises(ContractViolation):
            observe_cloud(SnapshotSet(np.ones((2, 5))), Subspace(np.eye(4)[:, :1]))


class TestPiDistribution:
    def test_degenerate_block_dimensions(self):
        gen = derived_rng(0)
        assert PiDistribution.uniform_beta().draw(gen, 0, 5) == 0.0
        assert PiDistribution.uniform_beta().draw(gen, 3, 0) == 1.0

    def test_draws_in_unit_interval(self):
        gen = derived_rng(1)
        for dist_ in (PiDistribution.uniform_beta(), PiDistribution.mixture()):
            draws = [dist_.draw(gen, 2, 4) for _ in range(200)]
            assert all(0.0 <= x <= 1.0 for x in draws)

    def test_mixture_concentrates_near_one(self):
        gen = derived_rng(2)
        mix = PiDistribution.mixture(weight=0.9, scale=1e4)
        draws = np.array([mix.draw(gen, 2, 4) for _ in range(500)])
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
        with pytest.raises(ContractViolation):
            PiDistribution(kind="mixture", mixture_weight=1.5)
        with pytest.raises(ContractViolation):
            PiDistribution(kind="mixture", mixture_scale=0.0)


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
        res = sample_slice_multi(obs, prior, 2, 100, rng=5, w_subspace=w)
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
            res = sample_slice_multi(obs, prior, 2, 200, max_draws=220, rng=42, w_subspace=w)
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
            with pytest.raises(EmptySliceError):
                sample_slice_multi(obs, prior, 2, 10, max_draws=50, rng=3, w_subspace=w)

    def test_argument_validation(self, rng):
        w, prior, obs = self.make_nested(rng)
        with pytest.raises(ContractViolation):
            sample_slice_multi(obs, prior, 0, 10, w_subspace=w)
        with pytest.raises(ContractViolation):
            sample_slice_multi(obs, prior, 3, 10, w_subspace=w)
        with pytest.raises(ContractViolation):
            sample_slice_multi(obs, prior, 2, 0, w_subspace=w)
        with pytest.raises(ContractViolation):
            sample_slice_multi(obs, prior, 2, 10)  # neither bases nor w_subspace


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

    def test_negative_eps_rejected(self, rng):
        w, v, t, sb, prior = self.make_instance(rng)
        with pytest.raises(ContractViolation):
            union_set_contains(np.zeros(14), t, -1.0, prior, sb)

    def test_zero_dimensional_t(self, rng):
        w, v, _, sb, prior = self.make_instance(rng)
        t0 = Subspace.zero(14)
        # h' = small multiple of a prior direction: inside for generous eps.
        h = 1e-4 * v.basis[:, 0]
        assert union_set_contains(h, t0, 1e-3, prior, sb)
        assert not union_set_contains(v.basis[:, 0], t0, 1e-3, prior, sb)


def _unit(rng, dim):
    g = rng.standard_normal(dim)
    return g / np.linalg.norm(g)


def _unit_perp(rng, subspace):
    g = rng.standard_normal(subspace.ambient_dim)
    g -= subspace.basis @ (subspace.basis.T @ g)
    return g / np.linalg.norm(g)
