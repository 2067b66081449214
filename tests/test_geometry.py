"""Tests for subspaces, ellipsoids, snapshot clouds, and width helpers."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_orthonormal
from partialrom.errors import ContractViolation
from partialrom.geometry import (
    _PASS_ROWS,
    DegenerateEllipsoid,
    PriorManifold,
    SnapshotSet,
    Subspace,
    _mgs,
    as_vector,
    direct_sum,
    dist,
    ellipsoid_contains,
    lies_in,
    orthonormalize,
    prefix_distances_sq,
    prefix_widths,
    prior_contains,
    project,
    row_blocks,
)

#: Cloud sizes around the block edges of a pass over a whole cloud.
EDGE_ROWS = (1, 63, 64, 65, 127, 128, 129, 5 * 64 + 3)


class TestAsVector:
    def test_accepts_lists_and_arrays(self):
        assert_allclose(as_vector([1, 2, 3]), np.array([1.0, 2.0, 3.0]))
        assert as_vector(np.arange(4)).dtype == float

    def test_rejects_matrix(self):
        with pytest.raises(ContractViolation):
            as_vector(np.zeros((2, 2)))

    def test_rejects_wrong_length(self):
        with pytest.raises(ContractViolation):
            as_vector([1.0, 2.0], 3)

    def test_rejects_non_finite(self):
        with pytest.raises(ContractViolation):
            as_vector([1.0, np.nan])


class TestSubspace:
    def test_accepts_orthonormal_columns(self):
        s = Subspace(np.eye(4)[:, :2])
        assert s.ambient_dim == 4
        assert s.dim == 2

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ContractViolation):
            Subspace(np.ones((3, 2)))
        with pytest.raises(ContractViolation, match="^basis has non-finite entries"):
            Subspace(np.array([[1.0], [np.nan]]))

    def test_rejects_non_unit_columns(self):
        with pytest.raises(ContractViolation):
            Subspace(2.0 * np.eye(3)[:, :1])

    def test_rejects_one_dimensional_input(self):
        with pytest.raises(ContractViolation):
            Subspace(np.array([1.0, 0.0]))

    def test_zero_subspace(self):
        z = Subspace.zero(5)
        assert z.dim == 0
        assert z.ambient_dim == 5

    def test_basis_is_immutable(self):
        s = Subspace(np.eye(3)[:, :1])
        with pytest.raises(ValueError):
            s.basis[0, 0] = 2.0

    def test_contains(self):
        s = Subspace(np.eye(4)[:, :2])
        assert s.contains([1.0, -2.0, 0.0, 0.0])
        assert not s.contains([0.0, 0.0, 1.0, 0.0])

    def test_from_vectors_spans_rows(self):
        s = orthonormalize(np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]))
        assert s.dim == 2
        assert s.contains([3.0, 5.0, 0.0])
        assert not s.contains([0.0, 0.0, 1.0])


class TestOrthonormalize:
    def test_first_direction_follows_input_order(self):
        s = orthonormalize([np.array([2.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0])])
        assert_allclose(np.abs(s.basis[:, 0]), [1.0, 0.0, 0.0], atol=1e-12)
        assert_allclose(np.abs(s.basis[:, 1]), [0.0, 1.0, 0.0], atol=1e-12)

    def test_drops_dependent_vectors(self):
        s = orthonormalize([np.array([1.0, 0.0]), np.array([2.0, 0.0]), np.array([0.0, 1.0])])
        assert s.dim == 2

    def test_empty_needs_ambient_dim(self):
        assert orthonormalize([], ambient_dim=3).dim == 0
        with pytest.raises(ContractViolation):
            orthonormalize([])

    def test_result_orthonormal_random(self, rng):
        vecs = rng.standard_normal((7, 12))
        s = orthonormalize(vecs)
        assert_allclose(s.basis.T @ s.basis, np.eye(s.dim), atol=1e-12)
        for row in vecs:
            assert s.contains(row, tol=1e-9)

    def test_empty_array_gives_zero_subspace_of_its_width(self):
        s = orthonormalize(np.empty((0, 4)))
        assert (s.ambient_dim, s.dim) == (4, 0)


class TestGramSchmidtKernel:
    @pytest.mark.parametrize("shape", [(200, 100), (600, 10), (40, 40)])
    def test_matches_sign_fixed_qr(self, rng, shape):
        g = rng.standard_normal(shape)
        q, r = np.linalg.qr(g)
        assert_allclose(_mgs(g), q * np.sign(np.diag(r)), rtol=0, atol=1e-14)

    def test_base_columns_come_back_bitwise(self, rng):
        a = Subspace(random_orthonormal(rng, 30, 12))
        inside = Subspace(np.linalg.qr(a.basis @ rng.standard_normal((12, 5)))[0])
        assert np.array_equal(direct_sum(a, inside).basis, a.basis)
        s = direct_sum(a, Subspace(random_orthonormal(rng, 30, 4)))
        assert s.dim == 16 and np.array_equal(s.basis[:, :12], a.basis)

    def test_drops_dependent_columns_and_keeps_input_order(self):
        e = np.eye(6)
        cols = np.column_stack([e[0] + e[1], e[3], e[3], e[2] - e[0], e[4]])
        q = _mgs(cols, base=e[:, :2])
        assert_allclose(q, e[:, [0, 1, 3, 2, 4]], atol=1e-15)


class TestProjectDist:
    def test_projection_hand_example(self):
        s = Subspace(np.eye(3)[:, :2])
        h = np.array([1.0, 2.0, 3.0])
        assert_allclose(project(h, s), [1.0, 2.0, 0.0])
        assert_allclose(dist(h, s), 3.0)

    def test_zero_subspace_distance_is_norm(self):
        z = Subspace.zero(3)
        h = np.array([3.0, 0.0, 4.0])
        assert_allclose(dist(h, z), 5.0)
        assert_allclose(project(h, z), np.zeros(3))

    def test_pythagoras_random(self, rng):
        for _ in range(20):
            b = random_orthonormal(rng, 15, 6)
            s = Subspace(b)
            h = rng.standard_normal(15)
            p = project(h, s)
            assert_allclose(
                np.linalg.norm(p) ** 2 + dist(h, s) ** 2, np.linalg.norm(h) ** 2, rtol=1e-10
            )
            # The projection is the closest point: the residual is orthogonal to S.
            assert_allclose(b.T @ (h - p), np.zeros(6), atol=1e-10)


class TestDirectSum:
    def test_orthogonal_sum(self):
        a = Subspace(np.eye(4)[:, :1])
        b = Subspace(np.eye(4)[:, 2:3])
        s = direct_sum(a, b)
        assert s.dim == 2
        assert s.contains([1.0, 0.0, 5.0, 0.0])

    def test_overlapping_sum_drops_duplicates(self):
        a = Subspace(np.eye(4)[:, :2])
        b = Subspace(np.eye(4)[:, 1:3])
        assert direct_sum(a, b).dim == 3

    def test_mismatched_ambient(self):
        with pytest.raises(ContractViolation):
            direct_sum(Subspace.zero(3), Subspace.zero(4))


class TestLiesIn:
    def test_inclusion_rule(self):
        outer = Subspace(np.eye(5)[:, :3])
        assert lies_in(Subspace(np.eye(5)[:, 1:3]), outer)
        assert lies_in(Subspace.zero(5), outer)
        assert not lies_in(Subspace(np.eye(5)[:, 2:4]), outer)

    def test_frobenius_tolerance_scales_with_inner_dim(self):
        # Two columns each 1e-8 off the outer space: Frobenius residual
        # sqrt(2) 1e-8 sits inside tol (1 + 2) = 3e-8 and outside 1e-8 (1 + 2) / 3.
        tilt = np.eye(5)[:, :2] + 1e-8 * np.eye(5)[:, 3:5]
        inner = Subspace(tilt / np.linalg.norm(tilt, axis=0))
        outer = Subspace(np.eye(5)[:, :3])
        assert lies_in(inner, outer)
        assert not lies_in(inner, outer, tol=1e-8 / 3)


class TestEllipsoid:
    def test_contains_is_distance_threshold(self):
        e = DegenerateEllipsoid(Subspace(np.eye(3)[:, :1]), width=0.5)
        assert ellipsoid_contains(e, [7.0, 0.3, 0.0])
        assert ellipsoid_contains(e, [0.0, 0.5, 0.0])  # boundary
        assert not ellipsoid_contains(e, [0.0, 0.0, 0.6])

    def test_rejects_negative_width(self):
        with pytest.raises(ContractViolation):
            DegenerateEllipsoid(Subspace.zero(2), width=-1.0)

    def test_zero_width_means_membership_in_subspace(self):
        e = DegenerateEllipsoid(Subspace(np.eye(2)[:, :1]), width=0.0)
        assert ellipsoid_contains(e, [4.0, 0.0])
        assert not ellipsoid_contains(e, [0.0, 1e-3])


class TestPriorManifold:
    def test_intersection_semantics(self):
        e1 = DegenerateEllipsoid(Subspace(np.eye(3)[:, :1]), width=1.0)
        e2 = DegenerateEllipsoid(Subspace(np.eye(3)[:, :2]), width=0.1)
        prior = PriorManifold((e1, e2))
        assert prior.n_factors == 2
        inside = np.array([2.0, 0.5, 0.05])
        assert prior_contains(prior, inside)
        # Violates the first factor only.
        assert not prior_contains(prior, [0.0, 1.5, 0.0])
        # Violates the second factor only.
        assert not prior_contains(prior, [0.0, 0.5, 0.5])

    def test_single_constructor(self):
        prior = PriorManifold.single(Subspace(np.eye(2)[:, :1]), 0.3)
        assert prior.n_factors == 1
        assert prior.ellipsoids[0].width == 0.3

    def test_rejects_empty_and_mixed_ambient(self):
        with pytest.raises(ContractViolation):
            PriorManifold(())
        e1 = DegenerateEllipsoid(Subspace.zero(2), 1.0)
        e2 = DegenerateEllipsoid(Subspace.zero(3), 1.0)
        with pytest.raises(ContractViolation):
            PriorManifold((e1, e2))


class TestSnapshotSet:
    def test_basic_properties(self):
        s = SnapshotSet(np.arange(6.0).reshape(2, 3))
        assert len(s) == 2
        assert s.ambient_dim == 3
        assert_allclose(list(s)[1], [3.0, 4.0, 5.0])

    def test_from_list(self):
        s = SnapshotSet.from_list([[1.0, 2.0], [3.0, 4.0]])
        assert len(s) == 2

    def test_rejects_empty(self):
        with pytest.raises(ContractViolation):
            SnapshotSet(np.zeros((0, 3)))
        with pytest.raises(ContractViolation, match="^snapshots contain non-finite entries"):
            SnapshotSet(np.array([[1.0, 2.0], [np.inf, 0.0]]))

    def test_vectors_immutable(self):
        s = SnapshotSet(np.ones((1, 2)))
        with pytest.raises(ValueError):
            s.vectors[0, 0] = 5.0

    def test_concat(self):
        a = SnapshotSet(np.ones((2, 3)))
        b = SnapshotSet(np.zeros((1, 3)))
        assert len(a.concat(b)) == 3
        with pytest.raises(ContractViolation):
            a.concat(SnapshotSet(np.zeros((1, 4))))

    def test_residual_norms_matches_loop(self, rng):
        vecs = rng.standard_normal((9, 11))
        s = SnapshotSet(vecs)
        sub = Subspace(random_orthonormal(rng, 11, 4))
        expected = [dist(v, sub) for v in vecs]
        assert_allclose(s.residual_norms(sub), expected, rtol=1e-12)

    def test_residual_norms_zero_subspace(self):
        s = SnapshotSet(np.array([[3.0, 4.0]]))
        assert_allclose(s.residual_norms(Subspace.zero(2)), [5.0])
        with pytest.raises(ContractViolation, match="^subspace ambient dimension does not match"):
            s.residual_norms(Subspace.zero(3))


class TestPrefixWidths:
    def test_matches_bruteforce_loop(self, rng):
        vecs = rng.standard_normal((25, 12)) * 3.0
        basis = random_orthonormal(rng, 12, 7)
        widths = prefix_widths(vecs, basis)
        cloud = SnapshotSet(vecs)
        assert widths.shape == (7,)
        for j in range(7):
            expected = cloud.residual_norms(Subspace(basis[:, : j + 1])).max()
            assert_allclose(widths[j], expected, rtol=1e-10, atol=1e-13)

    def test_nonincreasing(self, rng):
        vecs = rng.standard_normal((30, 10))
        basis = random_orthonormal(rng, 10, 10)
        widths = prefix_widths(vecs, basis)
        assert np.all(np.diff(widths) <= 1e-12)

    def test_empty_basis(self):
        assert prefix_widths(np.ones((3, 4)), np.zeros((4, 0))).shape == (0,)

    def test_accurate_for_tiny_residuals_of_large_vectors(self, rng):
        # Vectors of norm ~50 lying within 1e-12 of the basis span: a naive
        # norm^2 - cumsum(coords^2) update would report sqrt(machine-eps)-level
        # garbage (~1e-6) here instead of the true 1e-12-scale widths.
        basis = random_orthonormal(rng, 40, 10)
        coords = rng.standard_normal((50, 10)) * 16.0
        perp = rng.standard_normal(40)
        perp -= basis @ (basis.T @ perp)
        perp /= np.linalg.norm(perp)
        vecs = coords @ basis.T + 1e-12 * rng.standard_normal((50, 1)) * perp
        widths = prefix_widths(vecs, basis)
        assert widths[-1] < 5e-12


def _edge_cloud(rng, n_rows: int, peak_row: int) -> np.ndarray:
    """Rows of norms spread over two decades, row ``peak_row`` the largest."""
    vecs = rng.standard_normal((n_rows, 30)) * rng.uniform(0.1, 10.0, (n_rows, 1))
    vecs[peak_row] *= 100.0
    return vecs


class TestRowBlocks:
    @pytest.mark.parametrize("n_rows", EDGE_ROWS)
    def test_blocks_cover_the_rows_in_order_and_none_is_short(self, n_rows):
        blocks = list(row_blocks(n_rows))
        assert [i for b in blocks for i in range(n_rows)[b]] == list(range(n_rows))
        sizes = [b.stop - b.start for b in blocks]
        assert min(sizes) >= min(n_rows, _PASS_ROWS)
        assert max(sizes) < 2 * _PASS_ROWS

    def test_no_rows_no_block(self):
        assert list(row_blocks(0)) == []

    @pytest.mark.parametrize("n_rows", EDGE_ROWS)
    @pytest.mark.parametrize("peak", ["first", "last"])
    def test_prefix_widths_across_block_edges(self, rng, n_rows, peak):
        vecs = _edge_cloud(rng, n_rows, 0 if peak == "first" else -1)
        basis = random_orthonormal(rng, 30, 6)
        widths = prefix_widths(vecs, basis)
        cloud = SnapshotSet(vecs)
        brute = [cloud.residual_norms(Subspace(basis[:, :d])).max() for d in range(1, 7)]
        assert_allclose(widths, brute, rtol=1e-10)
        unblocked = np.sqrt(prefix_distances_sq(vecs, basis)[:, 1:].max(axis=0))
        assert_allclose(widths, unblocked, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("n_rows", EDGE_ROWS)
    @pytest.mark.parametrize("peak", ["first", "last"])
    def test_max_norm_is_the_unblocked_norm_bit_for_bit(self, rng, n_rows, peak):
        vecs = _edge_cloud(rng, n_rows, 0 if peak == "first" else -1)
        assert SnapshotSet(vecs).max_norm == np.linalg.norm(vecs, axis=1).max()
