"""Tests for the quadrant-conductivity diffusion model.

The assembly oracle re-derives every element matrix by Gauss quadrature of
bilinear shape functions, sharing no code (and no precomputed constants) with
the implementation.  The model holds no dense operator, so the dense
references live here: the oracle, the cell-by-cell loop with the model's own
local matrices (``cell_loop_reference``) and ``_dense_from_upper_band``.
"""

import functools

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import cholesky_banded

from partialrom import thermal
from partialrom.errors import ContractViolation
from partialrom.thermal import ThermalBlockModel

# 2-point Gauss rule on [0, 1].
_GPTS = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))
_GWTS = (0.5, 0.5)


def _shape(xi, eta):
    """Bilinear shape functions, node order SW, SE, NE, NW."""
    return np.array([(1 - xi) * (1 - eta), xi * (1 - eta), xi * eta, (1 - xi) * eta])


def _shape_grad(xi, eta):
    """Reference-square gradients d/d(xi, eta), rows matching _shape."""
    return np.array(
        [
            [-(1 - eta), -(1 - xi)],
            [(1 - eta), -xi],
            [eta, xi],
            [-eta, 1 - xi],
        ]
    )


def quadrature_local_matrices(h):
    """Element stiffness and mass on a square cell of side h."""
    k = np.zeros((4, 4))
    m = np.zeros((4, 4))
    for xi, wx in zip(_GPTS, _GWTS):
        for eta, wy in zip(_GPTS, _GWTS):
            grads = _shape_grad(xi, eta)  # physical gradient = grads / h
            vals = _shape(xi, eta)
            # Jacobian determinant h^2 cancels the 1/h^2 of the gradients.
            k += wx * wy * (grads @ grads.T)
            m += wx * wy * h * h * np.outer(vals, vals)
    return k, m


def assemble_reference(cells):
    """Independent global assembly: per-quadrant stiffness, mass, flux loads."""
    n_side = cells + 1
    n_nodes = n_side * n_side
    h = 1.0 / cells
    k_loc, m_loc = quadrature_local_matrices(h)

    def node(ix, iy):
        return iy * n_side + ix

    stiff = [np.zeros((n_nodes, n_nodes)) for _ in range(4)]
    mass = np.zeros((n_nodes, n_nodes))
    for cy in range(cells):
        for cx in range(cells):
            loc = [node(cx, cy), node(cx + 1, cy), node(cx + 1, cy + 1), node(cx, cy + 1)]
            center_x = (cx + 0.5) * h
            center_y = (cy + 0.5) * h
            if center_y >= 0.5:
                quad = 0 if center_x < 0.5 else 1
            else:
                quad = 2 if center_x < 0.5 else 3
            for a in range(4):
                for b in range(4):
                    stiff[quad][loc[a], loc[b]] += k_loc[a, b]
                    mass[loc[a], loc[b]] += m_loc[a, b]

    g_left = np.zeros(n_nodes)
    g_right = np.zeros(n_nodes)
    for cx in range(cells):
        target = g_left if (cx + 0.5) * h < 0.5 else g_right
        # Edge mass of a linear segment of length h: h/2 per endpoint.
        target[node(cx, 0)] += h / 2.0
        target[node(cx + 1, 0)] += h / 2.0

    free = [node(ix, iy) for iy in range(cells) for ix in range(n_side)]
    idx = np.ix_(free, free)
    return (
        [s[idx] for s in stiff],
        mass[idx],
        g_left[free],
        g_right[free],
    )


@functools.lru_cache(maxsize=None)
def cell_loop_reference(cells):
    """Free-node quadrant stiffness parts, mass and flux loads, assembled cell by
    cell with the model's own local matrices: the vectorized scatter sums the
    same terms in the same order, so the results are equal bit for bit."""
    n_side, h = cells + 1, 1.0 / cells
    n = n_side * n_side
    stiff, mass, flux = np.zeros((4, n, n)), np.zeros((n, n)), np.zeros((2, n))
    for cy in range(cells):
        for cx in range(cells):
            sw = cy * n_side + cx
            loc = [sw, sw + 1, sw + 1 + n_side, sw + n_side]
            left, top = (cx + 0.5) / cells < 0.5, (cy + 0.5) / cells >= 0.5
            quad = (0 if left else 1) if top else (2 if left else 3)
            for a in range(4):
                stiff[quad][loc[a], loc] += thermal._K_LOCAL[a]
                mass[loc[a], loc] += h * h * thermal._M_LOCAL[a]
    for cx in range(cells):
        flux[0 if (cx + 0.5) / cells < 0.5 else 1, [cx, cx + 1]] += 0.5 * h
    free = slice(0, cells * n_side)
    return stiff[:, free, free], mass[free, free], flux[:, free]


def dense_stiffness(cells, theta):
    """Dense ``A(theta)`` from the cell-loop parts, summed in quadrant order."""
    parts = cell_loop_reference(cells)[0]
    return theta[0] * parts[0] + theta[1] * parts[1] + theta[2] * parts[2] + theta[3] * parts[3]


def _dense_from_upper_band(ab):
    """Symmetric matrix whose LAPACK upper band form is ``ab``."""
    b, n = ab.shape[0] - 1, ab.shape[1]
    upper = np.zeros((n, n))
    for k in range(b + 1):
        upper += np.diag(ab[b - k, k:], k)
    return upper + np.triu(upper, 1).T


def _upper_band(a, b):
    """LAPACK upper band form of the symmetric ``a`` at half-bandwidth ``b``."""
    ab = np.zeros((b + 1, a.shape[0]))
    for k in range(b + 1):
        ab[b - k, k:] = np.diagonal(a, k)
    return ab


class TestAssembly:
    @pytest.mark.parametrize("cells", [2, 4])
    def test_matches_quadrature_oracle(self, cells):
        model = ThermalBlockModel(cells)
        ref_stiff, ref_mass, ref_gl, ref_gr = assemble_reference(cells)
        for band, ref in zip(model.stiffness_bands, ref_stiff):
            assert_allclose(_dense_from_upper_band(band), ref, atol=1e-13)
        u = np.triu(_dense_from_upper_band(model.mass_factor))
        assert_allclose(u.T @ u, ref_mass, atol=1e-14)
        assert_allclose(model.flux_left, ref_gl, atol=1e-14)
        assert_allclose(model.flux_right, ref_gr, atol=1e-14)

    @pytest.mark.parametrize("cells", [2, 4, 6])
    def test_bitwise_equal_to_cell_loop(self, cells):
        stiff, mass, flux = cell_loop_reference(cells)
        model = ThermalBlockModel(cells)
        for band, ref in zip(model.stiffness_bands, stiff):
            assert np.array_equal(band, _upper_band(ref, model.bandwidth))
        assert np.array_equal(model.mass_factor, cholesky_banded(_upper_band(mass, model.bandwidth)))
        assert np.array_equal(model.flux_left, flux[0])
        assert np.array_equal(model.flux_right, flux[1])

    def test_free_node_count(self):
        for cells in (2, 4, 6):
            assert ThermalBlockModel(cells).ambient_dim == cells * (cells + 1)

    def test_quadrant_parts_mirror_left_right(self):
        model = ThermalBlockModel(4)
        # Left/right quadrant pairs are x-mirror images, so the restricted
        # parts have equal traces (top pairs lose the same Dirichlet rows).
        traces = [band[model.bandwidth].sum() for band in model.stiffness_bands]
        assert_allclose(traces[0], traces[1], rtol=1e-12)
        assert_allclose(traces[2], traces[3], rtol=1e-12)
        # Bottom quadrants keep their full cells; top ones lose the top row.
        assert traces[2] > traces[0]

    def test_stiffness_combination_and_spd(self):
        model = ThermalBlockModel(4)
        theta = np.array([0.3, 1.2, 2.0, 0.7])
        combo = sum(t * _dense_from_upper_band(p) for t, p in zip(theta, model.stiffness_bands))
        dense = _dense_from_upper_band(model.stiffness_band(theta))
        assert_allclose(dense, combo, atol=1e-14)
        eigs = np.linalg.eigvalsh(dense)
        assert eigs.min() > 0.0

    def test_frozen_flux_vectors_cells4(self):
        model = ThermalBlockModel(4)
        expected_left = np.zeros(20)
        expected_left[[0, 1, 2]] = [0.125, 0.25, 0.125]
        expected_right = np.zeros(20)
        expected_right[[2, 3, 4]] = [0.125, 0.25, 0.125]
        assert_allclose(model.flux_left, expected_left, atol=1e-15)
        assert_allclose(model.flux_right, expected_right, atol=1e-15)

    def test_cells_validation(self):
        for bad in (0, 1, 3, -2):
            with pytest.raises(ContractViolation):
                ThermalBlockModel(bad)

    def test_theta_validation(self):
        model = ThermalBlockModel(2)
        with pytest.raises(ContractViolation):
            model.stiffness_band([1.0, 1.0, 1.0])
        with pytest.raises(ContractViolation):
            model.stiffness_band([1.0, 1.0, 1.0, 0.0])
        with pytest.raises(ContractViolation):
            model.solve([1.0, 1.0, 1.0, np.inf], flux=1.0)

    @pytest.mark.parametrize("flux", [np.nan, np.inf, -np.inf])
    def test_non_finite_flux_rejected_before_arithmetic(self, flux):
        # pyproject turns a RuntimeWarning from arithmetic on flux into an error.
        with pytest.raises(ContractViolation, match="flux"):
            ThermalBlockModel(2).solve((1.0, 1.0, 1.0, 1.0), flux=flux)

    def test_lapack_failures_raise_linalg_error(self):
        model = ThermalBlockModel(2)
        model.stiffness_bands = tuple(-part for part in model.stiffness_bands)
        with pytest.raises(np.linalg.LinAlgError):
            model.solve((1.0, 1.0, 1.0, 1.0), flux=1.0)
        model.mass_factor[model.bandwidth, 0] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            model.from_ambient(np.ones(model.ambient_dim))

    def test_holds_no_dense_square_array(self):
        model = ThermalBlockModel(24)
        n = model.ambient_dim
        held = {
            name: value if isinstance(value, tuple) else (value,)
            for name, value in vars(model).items()
        }
        square = sorted(
            name for name, values in held.items()
            if any(getattr(v, "shape", None) == (n, n) for v in values)
        )
        assert square == []


class TestAmbientCoordinates:
    def test_round_trip(self):
        model = ThermalBlockModel(4)
        rng = np.random.default_rng(5)
        h = rng.standard_normal(model.ambient_dim)
        assert_allclose(model.from_ambient(model.to_ambient(h)), h, atol=1e-12)
        c = rng.standard_normal(model.ambient_dim)
        assert_allclose(model.to_ambient(model.from_ambient(c)), c, atol=1e-12)

    def test_dot_product_is_mass_inner_product(self):
        model = ThermalBlockModel(4)
        rng = np.random.default_rng(6)
        h1 = rng.standard_normal(model.ambient_dim)
        h2 = rng.standard_normal(model.ambient_dim)
        lhs = model.to_ambient(h1) @ model.to_ambient(h2)
        mass = cell_loop_reference(4)[1]
        assert_allclose(lhs, h1 @ mass @ h2, rtol=1e-10)


class TestSolve:
    def test_uniform_conductivity_exact_linear_profile(self):
        # With theta = (a,a,a,a) and flux c the continuous solution
        # u(x, y) = (c / a^2)(1 - y) is bilinear, so nodes are hit exactly.
        cells, a, c = 6, 2.0, 3.0
        model = ThermalBlockModel(cells)
        state = model.solve((a, a, a, a), flux=c)
        nodal = model.from_ambient(state)
        n_side = cells + 1
        for iy in range(cells):
            y = iy / cells
            for ix in range(n_side):
                assert_allclose(nodal[iy * n_side + ix], (c / a**2) * (1.0 - y), rtol=1e-9)

    def test_residual_of_flux_solve(self):
        model = ThermalBlockModel(4)
        theta = np.array([0.4, 1.1, 2.2, 0.9])
        c = 1.7
        nodal = model.from_ambient(model.solve(theta, flux=c))
        rhs = c * (model.flux_left / theta[2] + model.flux_right / theta[3])
        assert_allclose(dense_stiffness(4, theta) @ nodal, rhs, atol=1e-10)

    def test_mirror_symmetry_for_symmetric_theta(self):
        cells = 4
        model = ThermalBlockModel(cells)
        nodal = model.from_ambient(model.solve((0.7, 0.7, 1.9, 1.9), flux=1.0))
        n_side = cells + 1
        for iy in range(cells):
            row = nodal[iy * n_side : (iy + 1) * n_side]
            assert_allclose(row, row[::-1], rtol=1e-9)

    def test_asymmetric_theta_breaks_mirror_symmetry(self):
        cells = 4
        model = ThermalBlockModel(cells)
        nodal = model.from_ambient(model.solve((0.7, 0.7, 0.3, 1.9), flux=1.0))
        row = nodal[:cells + 1]
        assert not np.allclose(row, row[::-1], rtol=1e-3)

    def test_zero_load_zero_solution(self):
        model = ThermalBlockModel(2)
        assert_allclose(model.solve((1.0, 1.0, 1.0, 1.0)), np.zeros(model.ambient_dim))

    def test_stronger_conductivity_cools_plate(self):
        # Scaling all conductivities up must scale the solution down (1/a^2).
        model = ThermalBlockModel(4)
        base = model.solve((1.0, 1.0, 1.0, 1.0), flux=1.0)
        double = model.solve((2.0, 2.0, 2.0, 2.0), flux=1.0)
        assert_allclose(double, base / 4.0, rtol=1e-9)


class TestBandedSolve:
    @pytest.mark.parametrize("cells", [2, 4, 24])
    def test_band_form_expands_to_dense_stiffness(self, cells):
        model = ThermalBlockModel(cells)
        assert model.bandwidth == cells + 2
        theta = np.exp(np.random.default_rng(cells).uniform(np.log(0.1), np.log(10.0), 4))
        ab = model.stiffness_band(theta)
        assert ab.shape == (model.bandwidth + 1, model.ambient_dim)
        # Exact: a band narrower than the stiffness would drop nonzeros.
        assert np.array_equal(_dense_from_upper_band(ab), dense_stiffness(cells, theta))

    @pytest.mark.parametrize("cells", [2, 4, 24])
    def test_matches_dense_solve(self, cells):
        model = ThermalBlockModel(cells)
        rng = np.random.default_rng(100 + cells)
        for _ in range(5):
            theta = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 4))
            flux = rng.uniform(0.5, 2.0)
            rhs = flux * (model.flux_left / theta[2] + model.flux_right / theta[3])
            ref = model.to_ambient(np.linalg.solve(dense_stiffness(cells, theta), rhs))
            got = model.solve(theta, flux=flux)
            assert np.linalg.norm(got - ref) <= 1e-11 * np.linalg.norm(ref)
