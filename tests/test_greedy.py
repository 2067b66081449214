"""Tests for greedy nested-basis construction."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from partialrom.errors import ContractViolation
from partialrom.geometry import (
    _PASS_ROWS,
    SnapshotSet,
    dist,
    gram_schmidt_residual,
    orthonormalize,
    prefix_distances_sq,
)
from partialrom.greedy import DOWNDATE_TOL, TIE_RTOL, GreedyResult, StoppingRule, greedy
from partialrom.rng import derived_rng
from partialrom.thermal import ThermalBlockModel
from partialrom.worlds import build_thermal_world


def toy_cloud():
    """Three orthogonal snapshots of norms 3, 2, 1 (plus a small one)."""
    vecs = np.zeros((4, 5))
    vecs[0, 0] = 3.0
    vecs[1, 1] = 2.0
    vecs[2, 2] = 1.0
    vecs[3, 0] = 0.5  # dependent on snapshot 0
    return SnapshotSet(vecs)


class TestToyExample:
    def test_selection_order_and_curve(self):
        res = greedy(toy_cloud(), StoppingRule())
        assert res.selected_indices == (0, 1, 2)
        assert_allclose(res.error_curve, (2.0, 1.0, 0.0), atol=1e-12)
        assert res.terminal_dim == 3

    def test_nested_subspaces_grow_by_one(self):
        res = greedy(toy_cloud(), StoppingRule())
        nested = [res.subspace(t) for t in range(1, res.terminal_dim + 1)]
        for t, sub in enumerate(nested, start=1):
            assert sub.dim == t
        # Nesting: every basis of S_t is contained in S_{t+1}.
        for a, b in zip(nested, nested[1:]):
            for col in a.basis.T:
                assert b.contains(col)

    def test_max_dim_stop(self):
        res = greedy(toy_cloud(), StoppingRule(max_dim=2))
        assert res.terminal_dim == 2
        assert res.selected_indices == (0, 1)

    def test_tol_stop(self):
        res = greedy(toy_cloud(), StoppingRule(tol=1.5))
        # Error after first pick is 2.0 > 1.5; after second it is 1.0 <= 1.5.
        assert res.terminal_dim == 2

    def test_error_curve_matches_true_worst_distance(self):
        cloud = toy_cloud()
        res = greedy(cloud, StoppingRule())
        for t in range(1, res.terminal_dim + 1):
            sub = res.subspace(t)
            true_worst = cloud.residual_norms(sub).max()
            assert_allclose(res.error_curve[t - 1], true_worst, rtol=1e-10, atol=1e-12)


class TestRandomClouds:
    def test_curve_is_exact_worst_distance(self):
        rng = derived_rng(2024)
        vecs = rng.standard_normal((30, 12)) * np.linspace(5, 0.1, 30)[:, None]
        cloud = SnapshotSet(vecs)
        res = greedy(cloud, StoppingRule())
        for t in range(1, res.terminal_dim + 1):
            sub = res.subspace(t)
            assert_allclose(
                res.error_curve[t - 1], cloud.residual_norms(sub).max(), rtol=1e-9, atol=1e-12
            )

    def test_curve_nonincreasing(self):
        rng = derived_rng(7)
        cloud = SnapshotSet(rng.standard_normal((40, 15)))
        res = greedy(cloud, StoppingRule())
        curve = np.array(res.error_curve)
        assert np.all(np.diff(curve) <= 1e-10)

    def test_curve_dominates_svd_lower_bound(self):
        # The worst-case greedy error is at least the root-mean-square PCA
        # error, which the trailing singular values give exactly.
        rng = derived_rng(99)
        vecs = rng.standard_normal((25, 10))
        cloud = SnapshotSet(vecs)
        res = greedy(cloud, StoppingRule())
        s = np.linalg.svd(vecs, compute_uv=False)
        for t in range(res.terminal_dim):
            rms_best = np.sqrt(np.sum(s[t + 1 :] ** 2) / len(cloud))
            assert res.error_curve[t] >= rms_best - 1e-9

    def test_selected_snapshots_span_their_space(self):
        rng = derived_rng(11)
        cloud = SnapshotSet(rng.standard_normal((20, 8)))
        res = greedy(cloud, StoppingRule(max_dim=5))
        span = orthonormalize(cloud.vectors[list(res.selected_indices)])
        assert span.dim == 5
        for col in res.subspace(5).basis.T:
            assert span.contains(col, tol=1e-8)

    def test_permuting_snapshots_preserves_curve(self):
        rng = derived_rng(13)
        vecs = rng.standard_normal((18, 9))
        perm = rng.permutation(18)
        r1 = greedy(SnapshotSet(vecs), StoppingRule())
        r2 = greedy(SnapshotSet(vecs[perm]), StoppingRule())
        assert_allclose(r1.error_curve, r2.error_curve, atol=1e-9)


class TestEdgeCases:
    def test_tie_breaks_to_lowest_index(self):
        vecs = np.zeros((3, 3))
        vecs[0, 0] = 1.0
        vecs[1, 1] = 1.0
        vecs[2, 2] = 1.0
        res = greedy(SnapshotSet(vecs), StoppingRule(max_dim=1))
        assert res.selected_indices == (0,)

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    @pytest.mark.parametrize("order", ["x_first", "mirror_first"])
    def test_mirrored_pair_one_ulp_apart_picks_lowest_index(self, ulps, order):
        # x and its mirror image have equal norms; moving every entry of the
        # mirror one ulp (toward or away from zero) must not reorder the pair.
        rng = derived_rng(11)
        x = rng.standard_normal(8)
        others = 0.5 * rng.standard_normal((3, 8))
        mirror = x[::-1].copy()
        if ulps:
            mirror = np.nextafter(mirror, ulps * np.inf * np.sign(mirror))
        pair = [x, mirror] if order == "x_first" else [mirror, x]
        vecs = np.vstack([others[:1], *pair, others[1:]])
        res = greedy(SnapshotSet(vecs), StoppingRule())
        assert res.selected_indices == (1, 2, 3, 0, 4)

    def test_rank_deficient_cloud_exhausts(self):
        rng = derived_rng(3)
        base = rng.standard_normal((2, 10))
        coeffs = rng.standard_normal((15, 2))
        cloud = SnapshotSet(coeffs @ base)  # rank 2
        res = greedy(cloud, StoppingRule())
        assert res.terminal_dim == 2
        assert res.error_curve[-1] < 1e-10

    def test_zero_cloud(self):
        res = greedy(SnapshotSet(np.zeros((3, 4))), StoppingRule())
        assert res.terminal_dim == 0
        assert res.error_curve == ()
        with pytest.raises(ContractViolation):
            res.subspace(0)

    def test_max_dim_zero(self):
        res = greedy(toy_cloud(), StoppingRule(max_dim=0))
        assert res.terminal_dim == 0

    def test_subspace_accessor(self):
        res = greedy(toy_cloud(), StoppingRule())
        assert res.subspace(0).dim == 0
        assert res.subspace(2).dim == 2
        # Beyond the terminal dimension the terminal space is returned.
        assert res.subspace(99).dim == res.terminal_dim
        with pytest.raises(ContractViolation):
            res.subspace(-1)

    def test_stopping_rule_validation(self):
        with pytest.raises(ContractViolation):
            StoppingRule(max_dim=-1)
        with pytest.raises(ContractViolation):
            StoppingRule(tol=-0.5)

    def test_duplicate_snapshots(self):
        vecs = np.array([[2.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        res = greedy(SnapshotSet(vecs), StoppingRule())
        assert res.terminal_dim == 2
        assert res.selected_indices == (0, 2)


class TestTinyWidthAccuracy:
    def test_curve_reliable_below_incremental_noise_floor(self):
        # Large-norm snapshots that are nearly rank-5: the recorded curve must
        # report the true ~1e-12 tail, not the ~1e-6 noise floor an incremental
        # norm^2 update would leave.
        rng = derived_rng(21)
        basis = np.linalg.qr(rng.standard_normal((30, 5)))[0]
        coords = rng.standard_normal((40, 5)) * 20.0
        noise = 1e-12 * rng.standard_normal((40, 30))
        cloud = SnapshotSet(coords @ basis.T + noise)
        res = greedy(cloud, StoppingRule(max_dim=8))
        for t in range(1, res.terminal_dim + 1):
            sub = res.subspace(t)
            exact = max(dist(v, sub) for v in cloud.vectors)
            assert_allclose(res.error_curve[t - 1], exact, rtol=1e-6, atol=1e-14)
        assert res.error_curve[4] < 1e-10

    def test_tol_stop_reads_exact_distances(self):
        # Incremental distances of this cloud never fall below ~1e-6; the
        # exactly recomputed ones reach the 1e-12 noise after five picks.
        rng = derived_rng(21)
        basis = np.linalg.qr(rng.standard_normal((30, 5)))[0]
        coords = rng.standard_normal((40, 5)) * 20.0
        noise = 1e-12 * rng.standard_normal((40, 30))
        res = greedy(SnapshotSet(coords @ basis.T + noise), StoppingRule(tol=1e-10))
        assert res.terminal_dim == 5
        assert res.error_curve[-1] <= 1e-10

    def test_widths_below_cancellation_level_are_selected(self):
        # Rows 1e3 e_0 + s 1e-9 e_s: after e_0 every incremental distance
        # cancels to 0, yet widths 5e-9 ... 1e-9 remain to be picked in order.
        steps = [0, 5, 1, 4, 2, 3]
        vecs = np.zeros((6, 6))
        vecs[:, 0] = 1e3
        vecs[np.arange(6), steps] += 1e-9 * np.array(steps)
        res = greedy(SnapshotSet(vecs), StoppingRule())
        assert res.selected_indices == (0, 1, 3, 5, 4, 2)
        assert_allclose(res.error_curve, [5e-9, 4e-9, 3e-9, 2e-9, 1e-9, 0.0], rtol=1e-6, atol=1e-15)

    def test_thermal_picks_survive_rounding_level_change(self):
        # Past pick 16 the relaxed cloud's widths (5e-8, then 1e-14) lie below
        # the incremental distances' floor sqrt(eps) * ||h||; exact distances
        # make the picks independent of the states' last bits.
        world = build_thermal_world(ThermalBlockModel(8), t_steps=6, relax_max=256, n_prior=30)
        vecs = world.relax_cloud.vectors
        a = greedy(world.relax_cloud, StoppingRule(max_dim=30))
        b = greedy(SnapshotSet(vecs + 1e-15 * vecs), StoppingRule(max_dim=30))
        assert a.terminal_dim == 18
        assert a.selected_indices == b.selected_indices


def _unblocked_greedy(vectors: np.ndarray, max_dim: int):
    """Greedy's loop with every stale row recomputed in one product and the
    curve from one unblocked prefix pass; also the most rows stale at once."""
    sq_dist = np.einsum("ij,ij->i", vectors, vectors)
    exact_sq = sq_dist.copy()
    basis = np.empty((vectors.shape[1], max_dim))
    coords = np.empty((len(vectors), max_dim))
    indices, most_stale = [], 0
    for k in range(max_dim):
        worst = int(np.argmax(sq_dist >= (1.0 - TIE_RTOL) * sq_dist.max()))
        resid = gram_schmidt_residual(basis[:, :k], vectors[worst])
        basis[:, k] = resid / np.linalg.norm(resid)
        coords[:, k] = vectors @ basis[:, k]
        indices.append(worst)
        sq_dist = np.maximum(sq_dist - coords[:, k] ** 2, 0.0)
        stale = np.flatnonzero(sq_dist < DOWNDATE_TOL * exact_sq)
        resid = vectors[stale] - coords[stale, : k + 1] @ basis[:, : k + 1].T
        sq_dist[stale] = exact_sq[stale] = np.einsum("ij,ij->i", resid, resid)
        most_stale = max(most_stale, stale.size)
    curve = np.sqrt(prefix_distances_sq(vectors, basis)[:, 1:].max(axis=0))
    return tuple(indices), curve, most_stale


def test_stale_event_over_several_blocks_matches_one_product():
    # A rank-4 cloud plus 1e-9 noise: once the rank is spanned every row's
    # downdate cancels and all rows go stale in one iteration (584 of 605 rows
    # do so on thermal posterior clouds), so the recompute spans several blocks.
    rng = derived_rng(23)
    n_rows = 5 * _PASS_ROWS + 17
    low_rank = rng.standard_normal((n_rows, 4)) @ rng.standard_normal((4, 50))
    vectors = low_rank + 1e-9 * rng.standard_normal((n_rows, 50))
    picks, curve, most_stale = _unblocked_greedy(vectors, 8)
    assert most_stale > 2 * _PASS_ROWS
    res = greedy(SnapshotSet(vectors), StoppingRule(max_dim=8))
    assert res.selected_indices == picks
    assert_allclose(res.error_curve, curve, rtol=1e-14, atol=0.0)


@st.composite
def layered_clouds(draw):
    """Clouds of a large low-rank part plus a small full-rank part."""
    rows, cols = draw(st.integers(1, 25)), draw(st.integers(1, 12))
    rank = draw(st.integers(1, min(rows, cols)))
    big, small = draw(st.sampled_from([1e3, 1.0])), draw(st.sampled_from([1e-11, 0.0, 1e-6, 1.0]))
    rng = derived_rng(draw(st.integers(0, 2**32 - 1)))
    vecs = big * rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    return vecs + small * rng.standard_normal((rows, cols))


@st.composite
def permuted_gaussian_clouds(draw):
    """A Gaussian cloud and a permutation of its rows."""
    rows, cols = draw(st.integers(1, 20)), draw(st.integers(1, 12))
    vecs = derived_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((rows, cols))
    return vecs, np.array(draw(st.permutations(range(rows))))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(permuted_gaussian_clouds())
def test_picks_map_through_a_row_permutation(cloud):
    vecs, perm = cloud
    res = greedy(SnapshotSet(vecs), StoppingRule())
    # Only clouds whose two farthest rows are well apart at every pick.
    for t in range(res.terminal_dim):
        b = res.basis[:, :t]
        sq = np.sort(np.sum((vecs - (vecs @ b) @ b.T) ** 2, axis=1))
        assume(len(sq) < 2 or sq[-1] - sq[-2] > 1e-6 * sq[-1])
    permuted = greedy(SnapshotSet(vecs[perm]), StoppingRule())
    assert tuple(int(perm[j]) for j in permuted.selected_indices) == res.selected_indices


@settings(derandomize=True, max_examples=80, deadline=None)
@given(layered_clouds(), st.sampled_from([1e-7, None]))
def test_curve_is_brute_force_prefix_widths_and_tol_stops_first(vecs, tol):
    cloud = SnapshotSet(vecs)
    res = greedy(cloud, StoppingRule(tol=tol))
    curve = np.array(res.error_curve)
    assert curve.shape == (res.terminal_dim,)
    assert np.all(np.diff(curve) <= 0.0)
    scale = np.linalg.norm(vecs, axis=1).max()
    for t in range(1, res.terminal_dim + 1):
        b = res.basis[:, :t]
        resid = vecs - (vecs @ b) @ b.T
        resid -= (resid @ b) @ b.T
        exact = np.linalg.norm(resid, axis=1).max()
        assert_allclose(curve[t - 1], exact, rtol=1e-6, atol=1e-13 * scale)
    if tol is not None:
        # Greedy stops at the first dimension whose width reaches tol.
        assert np.all(curve[:-1] > tol - 1e-12 * scale)
