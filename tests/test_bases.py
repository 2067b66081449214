"""Tests for the rotated subspace-pair bases and the four-block split."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_orthonormal, random_subspace_pair
from partialrom.bases import compute_suitable_bases, decompose
from partialrom.errors import ContractViolation, InfeasibleGeometry
from partialrom.geometry import Subspace, orthonormalize
from partialrom.rng import derived_rng


def check_invariants(sb, atol=1e-10):
    """Structural identities every bases object must satisfy."""
    n_amb, m, n, p, q = sb.ambient_dim, sb.m, sb.n, sb.p, sb.q
    # Rotations are orthogonal and reproduce the rotated bases.
    assert_allclose(sb.w_rotation.T @ sb.w_rotation, np.eye(m), atol=atol)
    assert_allclose(sb.v_rotation.T @ sb.v_rotation, np.eye(n), atol=atol)
    assert_allclose(sb.w_star, sb.w_subspace.basis @ sb.w_rotation, atol=atol)
    assert_allclose(sb.v_star, sb.v_subspace.basis @ sb.v_rotation, atol=atol)
    # Rotated bases are orthonormal.
    assert_allclose(sb.w_star.T @ sb.w_star, np.eye(m), atol=atol)
    assert_allclose(sb.v_star.T @ sb.v_star, np.eye(n), atol=atol)
    # Diagonal cross inner products with descending sigma in [0, 1].
    cross = sb.w_star.T @ sb.v_star
    expected = np.zeros((m, n))
    n_pairs = min(m, n)
    expected[:n_pairs, :n_pairs] = np.diag(sb.sigma[:n_pairs])
    assert_allclose(cross, expected, atol=1e-8)
    assert np.all(np.diff(sb.sigma) <= 1e-12)
    assert np.all(sb.sigma >= 0.0) and np.all(sb.sigma <= 1.0)
    assert 0 <= p <= q <= n_pairs
    # Interaction directions: unit vectors in W⊥ along v*_j - sigma_j w*_j.
    assert sb.w_tilde.shape == (n_amb, q - p)
    if q > p:
        assert_allclose(sb.w_tilde.T @ sb.w_tilde, np.eye(q - p), atol=atol)
        assert_allclose(sb.w_subspace.basis.T @ sb.w_tilde, 0.0, atol=1e-8)
        recon = (sb.v_star[:, p:q] - sb.w_star[:, p:q] * sb.sigma[p:q]) / np.sqrt(
            1.0 - sb.sigma[p:q] ** 2
        )
        assert_allclose(sb.w_tilde, recon, atol=1e-8)
    # The three eager blocks are mutually orthonormal.
    comp = sb.complement_onb
    assert comp.shape == (n_amb, m + (q - p) + (n - q))
    assert_allclose(comp.T @ comp, np.eye(comp.shape[1]), atol=1e-8)


class TestWorkedExample:
    """V = span{e2}, W = span{(e1+e2)/sqrt(2)} in R^3: sigma = 1/sqrt(2)."""

    def setup_method(self):
        w = Subspace(np.array([[1.0], [1.0], [0.0]]) / np.sqrt(2))
        v = Subspace(np.array([[0.0], [1.0], [0.0]]))
        self.sb = compute_suitable_bases(v, w)

    def test_sigma(self):
        assert_allclose(self.sb.sigma, [1.0 / np.sqrt(2)], rtol=1e-12)
        assert self.sb.p == 0
        assert self.sb.q == 1

    def test_rotated_vectors(self):
        assert_allclose(self.sb.v_star[:, 0], [0.0, 1.0, 0.0], atol=1e-12)
        assert_allclose(self.sb.w_star[:, 0], np.array([1.0, 1.0, 0.0]) / np.sqrt(2), atol=1e-12)

    def test_interaction_direction(self):
        # (v* - sigma w*) / sqrt(1 - sigma^2) = (-e1 + e2)/sqrt(2).
        assert_allclose(self.sb.w_tilde[:, 0], np.array([-1.0, 1.0, 0.0]) / np.sqrt(2), atol=1e-12)

    def test_residual_block(self):
        assert self.sb.r == 1
        assert_allclose(np.abs(self.sb.u_basis[:, 0]), [0.0, 0.0, 1.0], atol=1e-12)


class TestRandomInvariants:
    def test_many_random_pairs(self):
        rng = derived_rng(424242)
        for trial in range(25):
            n_amb = int(rng.integers(6, 30))
            m = int(rng.integers(1, n_amb // 2 + 1))
            n = int(rng.integers(1, n_amb - m + 1))
            w, v = random_subspace_pair(rng, n_amb, m, n)
            sb = compute_suitable_bases(v, w)
            check_invariants(sb)

    def test_four_block_global_onb(self):
        rng = derived_rng(5150)
        for _ in range(5):
            w, v = random_subspace_pair(rng, 18, 5, 7)
            sb = compute_suitable_bases(v, w)
            full = np.hstack([sb.complement_onb, sb.u_basis])
            assert full.shape == (18, 18)
            assert_allclose(full.T @ full, np.eye(18), atol=1e-8)


class TestRankCounts:
    def test_p_counts_exact_intersection(self, rng):
        # Build W and V sharing exactly two directions.
        base = random_orthonormal(rng, 20, 8)
        shared, w_only, v_only = base[:, :2], base[:, 2:5], base[:, 5:8]
        w = Subspace(np.hstack([shared, w_only]))
        v = Subspace(np.hstack([shared, v_only]))
        sb = compute_suitable_bases(v, w)
        rank_union = np.linalg.matrix_rank(np.hstack([w.basis, v.basis]), tol=1e-8)
        assert sb.p == w.dim + v.dim - rank_union == 2

    def test_q_counts_nonperpendicular_directions(self, rng):
        # V has one direction orthogonal to all of W: q = n - 1.
        base = random_orthonormal(rng, 15, 6)
        w = Subspace(base[:, :3])
        mixer = random_orthonormal(rng, 15, 4)
        mixer -= base[:, 3:4] @ (base[:, 3:4].T @ mixer)  # nothing along base[:,3]
        v_cols = np.hstack([mixer[:, :2], base[:, 3:4]])
        v = orthonormalize(v_cols.T)
        sb = compute_suitable_bases(v, w)
        gram = w.basis.T @ v.basis
        assert sb.q == np.linalg.matrix_rank(gram, tol=1e-8)

    def test_identical_subspaces_rotated_basis(self, rng):
        cols = random_orthonormal(rng, 10, 4)
        rot = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        v = Subspace(cols)
        w = Subspace(cols @ rot)  # same subspace, different basis
        sb = compute_suitable_bases(v, w)
        assert sb.p == sb.q == 4
        assert_allclose(sb.sigma, np.ones(4), atol=1e-10)
        assert sb.w_tilde.shape[1] == 0

    def test_orthogonal_subspaces(self):
        w = Subspace(np.eye(6)[:, :2])
        v = Subspace(np.eye(6)[:, 2:5])
        sb = compute_suitable_bases(v, w)
        assert sb.p == 0 and sb.q == 0
        assert_allclose(sb.sigma, np.zeros(2), atol=1e-12)
        assert sb.v_star_tail.shape == (6, 3)


class TestDeterminism:
    def test_same_inputs_bitwise_identical(self, rng):
        w, v = random_subspace_pair(rng, 24, 6, 9)
        a = compute_suitable_bases(v, w)
        b = compute_suitable_bases(v, w)
        assert np.array_equal(a.w_star, b.w_star)
        assert np.array_equal(a.v_star, b.v_star)
        assert np.array_equal(a.sigma, b.sigma)
        assert np.array_equal(a.w_tilde, b.w_tilde)

    def test_sign_convention(self, rng):
        w, v = random_subspace_pair(rng, 16, 4, 5)
        sb = compute_suitable_bases(v, w)
        for j in range(5):
            col = sb.v_rotation[:, j]
            assert col[int(np.argmax(np.abs(col)))] > 0


class TestErrorsAndEdges:
    def test_mismatched_ambient(self):
        with pytest.raises(ContractViolation):
            compute_suitable_bases(Subspace(np.eye(3)[:, :1]), Subspace(np.eye(4)[:, :1]))

    def test_zero_dimensional_inputs(self):
        with pytest.raises(ContractViolation):
            compute_suitable_bases(Subspace.zero(3), Subspace(np.eye(3)[:, :1]))
        with pytest.raises(ContractViolation):
            compute_suitable_bases(Subspace(np.eye(3)[:, :1]), Subspace.zero(3))

    def test_infeasible_when_blocks_exceed_ambient(self):
        # Two 3-dim subspaces of R^5 necessarily share a direction, so the
        # four-block split exists only if that direction is counted into p.
        # With an intersection tolerance too strict to count it, the
        # constructor must refuse rather than emit a broken split.
        base = np.eye(5)
        w = Subspace(base[:, :3])
        v = Subspace(np.column_stack([base[:, 0], base[:, 3], base[:, 4]]))
        with pytest.raises(InfeasibleGeometry):
            compute_suitable_bases(v, w, tol_one=-1.0)

    def test_u_basis_is_lazy(self, rng):
        w, v = random_subspace_pair(rng, 12, 3, 4)
        sb = compute_suitable_bases(v, w)
        assert "u_basis" not in vars(sb)
        u = sb.u_basis
        assert vars(sb)["u_basis"] is u
        assert sb.u_basis is u
        assert u.shape == (12, sb.r)

    def test_w_star_coefficients_validates_shape(self, rng):
        w, v = random_subspace_pair(rng, 10, 3, 3)
        sb = compute_suitable_bases(v, w)
        for shape in [(4,), (2, 4), (2, 1, 3), ()]:
            with pytest.raises(ContractViolation):
                sb.w_star_coefficients(np.zeros(shape))
        h = rng.standard_normal(10)
        obs = w.basis.T @ h
        assert_allclose(sb.w_star_coefficients(obs), sb.w_star.T @ h, atol=1e-10)

    def test_w_star_coefficients_of_rows_are_per_row(self, rng):
        # Rows of observations give, row for row, bitwise the coefficients of
        # each observation alone.
        w, v = random_subspace_pair(rng, 10, 3, 3)
        sb = compute_suitable_bases(v, w)
        rows = rng.standard_normal((7, 3))
        coeffs = sb.w_star_coefficients(rows)
        assert coeffs.shape == (7, 3)
        for row, c in zip(rows, coeffs):
            assert np.array_equal(c, sb.w_star_coefficients(row))


class TestDecompose:
    def test_round_trip(self, rng):
        w, v = random_subspace_pair(rng, 14, 4, 6)
        sb = compute_suitable_bases(v, w)
        h = rng.standard_normal(14)
        dec = decompose(h, sb)
        assert_allclose(dec.reconstruct(sb), h, atol=1e-9)

    def test_coefficient_block_sizes(self, rng):
        w, v = random_subspace_pair(rng, 14, 4, 6)
        sb = compute_suitable_bases(v, w)
        dec = decompose(rng.standard_normal(14), sb)
        assert dec.w_star_coeffs.shape == (sb.m,)
        assert dec.interaction_coeffs.shape == (sb.q - sb.p,)
        assert dec.tail_coeffs.shape == (sb.n - sb.q,)
        assert dec.residual_coeffs.shape == (sb.r,)

    def test_norm_preserved(self, rng):
        w, v = random_subspace_pair(rng, 14, 4, 6)
        sb = compute_suitable_bases(v, w)
        h = rng.standard_normal(14)
        dec = decompose(h, sb)
        total = (
            dec.w_star_coeffs @ dec.w_star_coeffs
            + dec.interaction_coeffs @ dec.interaction_coeffs
            + dec.tail_coeffs @ dec.tail_coeffs
            + dec.residual_coeffs @ dec.residual_coeffs
        )
        assert_allclose(total, h @ h, rtol=1e-9)
