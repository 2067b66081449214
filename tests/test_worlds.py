"""Tests for the benchmark world builders."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from partialrom.errors import ContractViolation
from partialrom.geometry import (
    DegenerateEllipsoid,
    PriorManifold,
    Subspace,
    dist,
    ellipsoid_contains,
    prior_contains,
)
from partialrom.rng import derived_rng
from partialrom.thermal import ThermalBlockModel
from partialrom.worlds import (
    SyntheticWorld,
    ThermalWorld,
    build_synthetic_world,
    build_thermal_world,
    check_nested_prior,
    constrained_theta_grid,
    random_subspace,
    relaxed_theta_grid,
    uniform_ball,
)


class TestHelpers:
    def test_random_subspace(self, rng):
        sub = random_subspace(10, 4, rng)
        assert sub.dim == 4 and sub.ambient_dim == 10
        assert_allclose(sub.basis.T @ sub.basis, np.eye(4), atol=1e-12)
        with pytest.raises(ContractViolation):
            random_subspace(3, 4, rng)

    def test_uniform_ball(self, rng):
        pts = uniform_ball(rng, 3, 2.0, 500)
        norms = np.linalg.norm(pts, axis=1)
        assert pts.shape == (500, 3)
        assert norms.max() <= 2.0
        assert norms.max() > 1.8        # reaches near the boundary
        assert abs(pts.mean()) < 0.1    # centered

    def test_check_nested_prior_accepts_nested(self, rng):
        outer = random_subspace(8, 3, rng)
        inner = Subspace(np.ascontiguousarray(outer.basis[:, :1]))
        check_nested_prior(
            PriorManifold((DegenerateEllipsoid(inner, 1.0), DegenerateEllipsoid(outer, 0.5)))
        )

    def test_check_nested_prior_rejects_unnested_subspaces(self, rng):
        a = random_subspace(8, 2, rng)
        b = random_subspace(8, 3, rng)
        with pytest.raises(ContractViolation):
            check_nested_prior(
                PriorManifold((DegenerateEllipsoid(a, 1.0), DegenerateEllipsoid(b, 0.5)))
            )

    def test_check_nested_prior_rejects_increasing_widths(self, rng):
        outer = random_subspace(8, 3, rng)
        inner = Subspace(np.ascontiguousarray(outer.basis[:, :1]))
        with pytest.raises(ContractViolation):
            check_nested_prior(
                PriorManifold((DegenerateEllipsoid(inner, 0.1), DegenerateEllipsoid(outer, 0.5)))
            )


class TestThetaGrids:
    def test_constrained_grid_frozen(self):
        grid = constrained_theta_grid(0.1, 0.1, 2)
        assert grid.shape == (9, 4)
        assert_allclose(grid[0], [0.1, 0.1, 0.1, 0.1])
        assert_allclose(grid[1], [0.1, 0.1, 0.2, 0.2])
        assert_allclose(grid[-1], [0.3, 0.3, 0.3, 0.3])
        assert_allclose(grid[:, 0], grid[:, 1])
        assert_allclose(grid[:, 2], grid[:, 3])

    def test_relaxed_grid_respects_budget(self):
        grid = relaxed_theta_grid(0.1, 0.1, 20, 2000)
        assert grid.shape[1] == 4
        assert len(grid) <= 2000
        per_axis = int(round(len(grid) ** 0.25))
        assert per_axis**4 == len(grid)
        vals = np.unique(grid[:, 0])
        assert_allclose(vals.min(), 0.1)
        assert_allclose(vals.max(), 0.1 + 0.1 * 20)

    def test_relaxed_grid_small_axis(self):
        # t_steps + 1 values fit entirely below the budget.
        grid = relaxed_theta_grid(0.5, 0.25, 2, 5000)
        assert len(grid) == 81
        assert_allclose(np.unique(grid[:, 3]), [0.5, 0.75, 1.0])

    def test_relaxed_grid_validation(self):
        with pytest.raises(ContractViolation):
            relaxed_theta_grid(0.1, 0.1, 4, 15)


@pytest.fixture(scope="module")
def thermal_world():
    return build_thermal_world(
        ThermalBlockModel(4), theta_min=0.2, theta_step=0.2, t_steps=2,
        relax_max=100, n_prior=5, flux=1.0,
    )


class TestThermalWorld:
    def test_cloud_sizes(self, thermal_world):
        assert len(thermal_world.m_cloud) == 9
        assert thermal_world.m_thetas.shape == (9, 4)
        # 3 values per axis fit relax_max=100: 81 relaxed points cover the
        # full grid, which already includes the 9 constrained points.
        assert len(thermal_world.relax_cloud) == 81

    def test_target_states_are_in_relaxed_cloud(self, thermal_world):
        for state in thermal_world.m_cloud:
            hits = np.isclose(thermal_world.relax_cloud.vectors, state, atol=1e-12).all(axis=1)
            assert hits.any()

    def test_prior_covers_target_manifold(self, thermal_world):
        prior = thermal_world.prior_manifold(1)
        assert prior.n_factors == 1
        for state in thermal_world.m_cloud:
            assert prior_contains(prior, state)

    def test_prior_widths_are_greedy_errors(self, thermal_world):
        widths = thermal_world.greedy_prior.error_curve
        assert len(widths) == 5
        assert all(a >= b - 1e-12 for a, b in zip(widths, widths[1:]))
        # Width j is the worst relaxed-state distance to the j-dim space.
        for j in (1, 3, 5):
            sub = thermal_world.greedy_prior.subspace(j)
            assert_allclose(
                widths[j - 1], thermal_world.relax_cloud.residual_norms(sub).max(), rtol=1e-9
            )

    def test_multi_factor_prior_structure(self, thermal_world):
        prior = thermal_world.prior_manifold(3)
        assert prior.n_factors == 3
        dims = [e.subspace.dim for e in prior.ellipsoids]
        assert dims == [1, 2, 5]
        widths = thermal_world.greedy_prior.error_curve
        assert prior.ellipsoids[0].width == widths[0]
        assert prior.ellipsoids[1].width == widths[1]
        assert prior.ellipsoids[2].width == widths[4]
        check_nested_prior(prior)
        for state in thermal_world.m_cloud:
            assert prior_contains(prior, state)

    def test_n_factors_validation(self, thermal_world):
        with pytest.raises(ContractViolation):
            thermal_world.prior_manifold(0)
        with pytest.raises(ContractViolation):
            thermal_world.prior_manifold(6)

    def test_solves_each_distinct_theta_once(self):
        # t_steps=2 on a 2-per-axis relaxed grid: 16 relaxed θ plus the 5
        # constrained θ it lacks, counted as θ rows across solve calls.  The
        # target states are rows of those solves.
        model = ThermalBlockModel(4)
        solve = model.solve
        calls = []

        def counted(theta, **kwargs):
            calls.extend(map(tuple, np.atleast_2d(theta)))
            return solve(theta, **kwargs)

        model.solve = counted
        world = build_thermal_world(
            model, theta_min=0.2, theta_step=0.2, t_steps=2, relax_max=16, n_prior=5, flux=1.5
        )
        assert len(world.relax_cloud) == 21
        assert len(calls) == len(set(calls)) == 21
        for theta, state in zip(world.m_thetas, world.m_cloud):
            assert np.array_equal(state, solve(theta, flux=1.5))

    def test_builder_validation(self):
        model = ThermalBlockModel(2)
        with pytest.raises(ContractViolation):
            build_thermal_world(model, t_steps=0)
        with pytest.raises(ContractViolation):
            build_thermal_world(model, theta_min=0.0)
        with pytest.raises(ContractViolation):
            build_thermal_world(model, theta_step=-0.1)


@pytest.fixture(scope="module")
def synthetic_world():
    return build_synthetic_world(
        ambient_dim=40, n_max=12, k_hat=3, delta=1e-2,
        eps_main=1.0, eps_perturb=1e-3, n_points=60, seed=3,
    )


class TestSyntheticWorld:
    def test_basis_alignment_structure(self, synthetic_world):
        # <v_j, w_j> = delta for the tilted head, 1 beyond it; off-diagonal 0.
        gram = synthetic_world.v_tilde.T @ synthetic_world.w_tilde
        expected = np.eye(12)
        expected[:3, :3] = np.eye(3) * 1e-2
        assert_allclose(gram, expected, atol=1e-10)

    def test_main_directions_unit_and_invisible(self, synthetic_world):
        t = synthetic_world.t_main
        assert_allclose(t.T @ t, np.eye(3), atol=1e-10)
        # The main ellipsoid directions are exactly invisible to observations.
        assert_allclose(synthetic_world.w_tilde.T @ t, np.zeros((12, 3)), atol=1e-10)
        # ... but nearly aligned with the prior head: <v_j, t_j> = sqrt(1-d^2).
        diag = np.diag(synthetic_world.v_tilde[:, :3].T @ t)
        assert_allclose(diag, np.sqrt(1.0 - 1e-4) * np.ones(3), rtol=1e-10)

    def test_gamma_weights_frozen(self, synthetic_world):
        expected = np.empty(12)
        expected[:3] = 0.85 ** (-12)
        expected[3:] = 0.85 ** (-np.arange(1, 10))
        assert_allclose(synthetic_world.gamma, expected, rtol=1e-12)

    def test_cloud_shape_and_scale(self, synthetic_world):
        assert len(synthetic_world.cloud) == 60
        assert synthetic_world.cloud.ambient_dim == 40
        norms = np.linalg.norm(synthetic_world.cloud.vectors, axis=1)
        assert norms.max() <= 1.0 + 1e-2 + 1e-9  # ball radius + perturbation

    def test_nested_width_curve_matches_bruteforce(self, synthetic_world):
        curve = synthetic_world.nested_width_curve(8)
        assert curve.shape == (8,)
        for j in range(8):
            sub = Subspace(np.ascontiguousarray(synthetic_world.v_tilde[:, : j + 1]))
            expected = max(dist(v, sub) for v in synthetic_world.cloud.vectors)
            assert_allclose(curve[j], expected, rtol=1e-9, atol=1e-14)
        assert np.all(np.diff(curve) <= 1e-12)

    def test_prior_manifold_covers_cloud(self, synthetic_world):
        prior = synthetic_world.prior_manifold(6, n_factors=3)
        assert [e.subspace.dim for e in prior.ellipsoids] == [1, 2, 6]
        for state in synthetic_world.cloud:
            assert prior_contains(prior, state)

    def test_subspace_accessors(self, synthetic_world):
        assert synthetic_world.observation_subspace(5).dim == 5
        assert synthetic_world.prior_subspace(12).dim == 12
        with pytest.raises(ContractViolation):
            synthetic_world.observation_subspace(0)
        with pytest.raises(ContractViolation):
            synthetic_world.prior_subspace(13)

    def test_determinism_and_seed_sensitivity(self):
        kw = dict(ambient_dim=30, n_max=8, k_hat=2, n_points=10)
        a = build_synthetic_world(seed=5, **kw)
        b = build_synthetic_world(seed=5, **kw)
        c = build_synthetic_world(seed=6, **kw)
        assert np.array_equal(a.cloud.vectors, b.cloud.vectors)
        assert np.array_equal(a.v_tilde, b.v_tilde)
        assert not np.allclose(a.cloud.vectors, c.cloud.vectors)

    def test_builder_validation(self):
        with pytest.raises(ContractViolation):
            build_synthetic_world(ambient_dim=20, n_max=12)
        with pytest.raises(ContractViolation):
            build_synthetic_world(delta=0.0)
        with pytest.raises(ContractViolation):
            build_synthetic_world(delta=1.0)
        with pytest.raises(ContractViolation):
            build_synthetic_world(k_hat=0)
        with pytest.raises(ContractViolation):
            build_synthetic_world(k_hat=51)
        with pytest.raises(ContractViolation):
            build_synthetic_world(eps_main=0.0)
        with pytest.raises(ContractViolation):
            build_synthetic_world(n_points=0)

    def test_observations_barely_see_main_variability(self, synthetic_world):
        # Projecting the cloud on the observation space keeps only the small
        # perturbation scale, three orders below the main-ellipsoid scale.
        w_sub = synthetic_world.observation_subspace(12)
        proj_norms = np.linalg.norm(synthetic_world.cloud.vectors @ w_sub.basis, axis=1)
        full_norms = np.linalg.norm(synthetic_world.cloud.vectors, axis=1)
        assert np.median(proj_norms) < 0.05 * np.median(full_norms)
