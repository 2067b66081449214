"""Tests for the deterministic point-estimate baseline."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_orthonormal, random_subspace_pair
from partialrom.bases import compute_suitable_bases
from partialrom.errors import ContractViolation, UnsupportedPriorError
from partialrom.estimate import estimate_manifold, point_estimate
from partialrom.geometry import (
    DegenerateEllipsoid,
    PriorManifold,
    SnapshotSet,
    Subspace,
)
from partialrom.greedy import StoppingRule, greedy
from partialrom.sampling import Observation, build_slice, observe, sample_posterior


class TestPointEstimate:
    def test_equals_slice_center(self, rng):
        for _ in range(10):
            w, v = random_subspace_pair(rng, 12, 5, 4)
            sb = compute_suitable_bases(v, w)
            prior = DegenerateEllipsoid(v, 0.3)
            obs = observe(rng.standard_normal(12), w)
            est = point_estimate(obs, prior, sb)
            sl = build_slice(obs, prior, sb)
            assert_allclose(est, sl.center, atol=1e-12, rtol=0)

    def test_zero_observation_gives_exact_zero(self, rng):
        w, v = random_subspace_pair(rng, 10, 4, 3)
        sb = compute_suitable_bases(v, w)
        est = point_estimate(Observation(np.zeros(4)), DegenerateEllipsoid(v, 0.1), sb)
        assert (est == 0.0).all()

    def test_linearity(self, rng):
        w, v = random_subspace_pair(rng, 12, 5, 4)
        sb = compute_suitable_bases(v, w)
        prior = DegenerateEllipsoid(v, 0.3)
        o1, o2 = rng.standard_normal(5), rng.standard_normal(5)
        e1 = point_estimate(Observation(o1), prior, sb)
        e2 = point_estimate(Observation(o2), prior, sb)
        e12 = point_estimate(Observation(2.0 * o1 - 3.0 * o2), prior, sb)
        assert_allclose(e12, 2.0 * e1 - 3.0 * e2, atol=1e-9)

    def test_recovers_prior_states_when_fully_observed(self, rng):
        # m >= n and generic geometry: q = n, so any h in V is recovered
        # exactly from its observation.
        w, v = random_subspace_pair(rng, 14, 7, 4)
        sb = compute_suitable_bases(v, w)
        assert sb.q == 4
        h = v.basis @ rng.standard_normal(4)
        est = point_estimate(observe(h, w), DegenerateEllipsoid(v, 1.0), sb)
        assert_allclose(est, h, atol=1e-9)

    def test_pinned_component_outside_prior_is_kept(self, rng):
        # When W has directions orthogonal to V (m > q), the estimate keeps
        # the observed component along them: for h in V + (W cap V-perp) the
        # estimate reproduces h.
        w, v = random_subspace_pair(rng, 14, 7, 4)
        sb = compute_suitable_bases(v, w)
        h = v.basis @ rng.standard_normal(4) + sb.w_star[:, sb.q :] @ rng.standard_normal(3)
        est = point_estimate(observe(h, w), DegenerateEllipsoid(v, 1.0), sb)
        assert_allclose(est, h, atol=1e-9)

    def test_multi_factor_prior_rejected(self, rng):
        w, v = random_subspace_pair(rng, 10, 4, 3)
        sb = compute_suitable_bases(v, w)
        v1 = Subspace(np.ascontiguousarray(v.basis[:, :1]))
        prior = PriorManifold(
            (DegenerateEllipsoid(v1, 0.5), DegenerateEllipsoid(v, 0.1))
        )
        with pytest.raises(UnsupportedPriorError):
            point_estimate(Observation(np.zeros(4)), prior, sb)

    def test_single_factor_manifold_accepted(self, rng):
        w, v = random_subspace_pair(rng, 10, 4, 3)
        sb = compute_suitable_bases(v, w)
        obs = observe(rng.standard_normal(10), w)
        a = point_estimate(obs, DegenerateEllipsoid(v, 0.1), sb)
        b = point_estimate(obs, PriorManifold.single(v, 0.1), sb)
        assert_allclose(a, b, rtol=0, atol=0)

    def test_mismatched_bases_rejected(self, rng):
        w, v = random_subspace_pair(rng, 10, 4, 3)
        other = Subspace(random_orthonormal(rng, 10, 3))
        sb = compute_suitable_bases(v, w)
        with pytest.raises(ContractViolation):
            point_estimate(Observation(np.zeros(4)), DegenerateEllipsoid(other, 0.1), sb)


class TestEstimateManifold:
    def test_matches_pointwise_loop(self, rng):
        w, v = random_subspace_pair(rng, 12, 5, 4)
        sb = compute_suitable_bases(v, w)
        prior = DegenerateEllipsoid(v, 0.3)
        cloud = SnapshotSet(rng.standard_normal((9, 12)))
        batch = estimate_manifold(cloud, w, prior, bases=sb)
        for i, h in enumerate(cloud):
            single = point_estimate(observe(h, w), prior, sb)
            assert np.array_equal(batch.vectors[i], single)

    def test_rows_are_the_sampler_slice_centers(self, rng):
        # With a zero budget (q = m, zero width) and d_box = 0 every posterior
        # draw is its slice center, reached on the sampler's own path.
        w, v = random_subspace_pair(rng, 12, 4, 5)
        prior = DegenerateEllipsoid(v, 0.0)
        cloud = SnapshotSet((v.basis @ rng.standard_normal((5, 9))).T)
        post = sample_posterior(cloud, w, prior, per_point=2, d_box=0.0, seed=4)
        est = estimate_manifold(cloud, w, prior)
        assert np.array_equal(post.vectors, np.repeat(est.vectors, 2, axis=0))

    def test_bases_computed_when_omitted(self, rng):
        w, v = random_subspace_pair(rng, 12, 5, 4)
        prior = DegenerateEllipsoid(v, 0.3)
        cloud = SnapshotSet(rng.standard_normal((4, 12)))
        sb = compute_suitable_bases(v, w)
        a = estimate_manifold(cloud, w, prior)
        b = estimate_manifold(cloud, w, prior, bases=sb)
        assert_allclose(a.vectors, b.vectors, atol=1e-12)


    @pytest.mark.parametrize("other", ["V", "W"])
    def test_bases_of_another_pair_rejected(self, rng, other):
        w, v = random_subspace_pair(rng, 12, 5, 4)
        w2, v2 = random_subspace_pair(rng, 12, 5, 4)
        prior = DegenerateEllipsoid(v, 0.3)
        sb = compute_suitable_bases(v2, w) if other == "V" else compute_suitable_bases(v, w2)
        cloud = SnapshotSet(rng.standard_normal((3, 12)))
        with pytest.raises(ContractViolation, match="bases were not computed from the"):
            estimate_manifold(cloud, w, prior, bases=sb)


class TestReduceFromEstimates:
    def test_pipeline_recovers_observable_prior_directions(self, rng):
        # Estimates of states in V live in span{v*_1..q}; the greedy reduction
        # of the estimate manifold then recovers that subspace.
        w, v = random_subspace_pair(rng, 14, 7, 4)
        sb = compute_suitable_bases(v, w)
        states = SnapshotSet((v.basis @ rng.standard_normal((4, 30))).T)
        ests = estimate_manifold(states, w, DegenerateEllipsoid(v, 1.0), bases=sb)
        res = greedy(ests, StoppingRule(tol=1e-10))
        assert res.terminal_dim == 4
        assert res.error_curve[-1] <= 1e-10
        for col in res.subspace(4).basis.T:
            assert v.contains(col, tol=1e-8)
