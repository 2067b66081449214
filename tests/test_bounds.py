"""Tests for posterior Kolmogorov-width bounds and their witness subspaces."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import prescribed_pair, random_subspace_pair
from partialrom.bases import compute_suitable_bases
from partialrom.bounds import (
    INF,
    BoundCurve,
    certificate_widths,
    empirical_width,
    format_extended,
    posterior_width_bounds,
    proof_subspace,
    width_degenerate_ellipsoid,
)
from partialrom.errors import ContractViolation
from partialrom.geometry import SnapshotSet, Subspace, direct_sum, dist, orthonormalize


class TestFormatExtended:
    def test_finite_values_round_trip(self):
        for v in (0.0, 1.0, 0.1, 1e-12, 123.456):
            assert float(format_extended(v)) == v

    def test_infinity_token(self):
        assert format_extended(INF) == "inf"
        assert format_extended(math.inf) == "inf"

    def test_numpy_scalars_match_python_floats(self):
        v = 0.1 + 0.2
        assert format_extended(np.float64(v)) == format_extended(v) == repr(v)


class TestWidthDegenerateEllipsoid:
    def test_step_shape(self):
        k, eps = 4, 1e-5
        for i in range(k):
            assert width_degenerate_ellipsoid(k, eps, i) == INF
        for i in range(k, k + 5):
            assert width_degenerate_ellipsoid(k, eps, i) == eps

    def test_zero_core(self):
        assert width_degenerate_ellipsoid(0, 0.5, 0) == 0.5

    def test_validation(self):
        with pytest.raises(ContractViolation):
            width_degenerate_ellipsoid(-1, 0.1, 0)
        with pytest.raises(ContractViolation):
            width_degenerate_ellipsoid(1, 0.1, -1)
        for eps in (-0.1, np.nan, np.inf):
            with pytest.raises(ContractViolation):
                width_degenerate_ellipsoid(1, eps, 0)


class TestPosteriorWidthBounds:
    """Hand-checked instance: k=2, n=3, N=10, m=3, eps=1e-3, eps'=0.1,
    sigma=(1, 0.5, 0.2), p=1, q=3 so k* = min(3, 2+0) = 2."""

    def make(self, i_max=10):
        return posterior_width_bounds(
            k=2, n=3, ambient_dim=10, eps=1e-3, eps_prime=0.1,
            sigma=np.array([1.0, 0.5, 0.2]), p=1, q=3, m=3, i_max=i_max,
        )

    def test_k_star(self):
        assert self.make().k_star == 2

    def test_d_bar_values(self):
        bc = self.make()
        # i=2 -> j=3 -> sigma=0.2; i >= 3 -> eps'.
        expected = (INF, INF, 0.101 / 0.2) + (0.1,) * 8
        assert_allclose(bc.d_bar, expected, rtol=1e-12)

    def test_d_bbar_floor(self):
        bc = self.make()
        # Floor at i = k + (N - m) = 2 + 7 = 9.
        assert bc.d_bbar[:9] == (INF,) * 9
        assert bc.d_bbar[9] == 1e-3
        assert bc.d_bbar[10] == 1e-3

    def test_combined_is_pointwise_min(self):
        bc = self.make()
        assert bc.combined[:2] == (INF, INF)
        assert bc.combined[2] == bc.d_bar[2]
        assert bc.combined[9] == 1e-3
        assert bc.i_max == 10

    def test_middle_range_walks_sigma_upward(self):
        # q - (i - k*) walks j = q, q-1, ..., hitting p where sigma := 1.
        bc = posterior_width_bounds(
            k=1, n=4, ambient_dim=12, eps=0.0, eps_prime=1.0,
            sigma=np.array([1.0, 0.8, 0.4, 0.1]), p=1, q=4, m=5, i_max=6,
        )
        # k* = min(4, 1 + 0) = 1; i=1 -> j=4 (0.1), i=2 -> j=3 (0.4),
        # i=3 -> j=2 (0.8), i >= 4 -> eps'.
        assert_allclose(bc.d_bar, (INF, 10.0, 2.5, 1.25, 1.0, 1.0, 1.0), rtol=1e-12)

    def test_sigma_zero_maps_to_inf(self):
        bc = posterior_width_bounds(
            k=0, n=2, ambient_dim=8, eps=0.1, eps_prime=1.0,
            sigma=np.array([0.5, 0.0]), p=0, q=2, m=2, i_max=3,
        )
        # k* = 0: i=0 -> j=2 -> sigma=0 -> inf (explicit state, no overflow).
        assert bc.d_bar[0] == INF
        assert_allclose(bc.d_bar[1], 1.1 / 0.5)

    def test_nonincreasing_once_finite(self):
        bc = self.make()
        finite = [x for x in bc.combined if not math.isinf(x)]
        assert all(a >= b - 1e-15 for a, b in zip(finite, finite[1:]))

    def test_default_i_max_is_ambient_dim(self):
        bc = posterior_width_bounds(
            k=2, n=3, ambient_dim=10, eps=1e-3, eps_prime=0.1,
            sigma=np.array([1.0, 0.5, 0.2]), p=1, q=3, m=3,
        )
        assert bc.i_max == 10

    def test_validation(self):
        sig = np.array([1.0, 0.5])
        with pytest.raises(ContractViolation):
            posterior_width_bounds(2, 2, 10, 0.1, 0.1, sig, p=2, q=1, m=2)
        with pytest.raises(ContractViolation):
            posterior_width_bounds(2, 2, 10, 0.1, 0.1, sig, p=0, q=3, m=5)
        with pytest.raises(ContractViolation):
            posterior_width_bounds(-1, 2, 10, 0.1, 0.1, sig, p=0, q=2, m=2)
        with pytest.raises(ContractViolation):
            posterior_width_bounds(2, 2, 10, -0.1, 0.1, sig, p=0, q=2, m=2)
        with pytest.raises(ContractViolation):
            posterior_width_bounds(2, 2, 10, 0.1, 0.1, np.array([1.0]), p=0, q=2, m=2)
        # k > n, and m + n - p above the ambient dimension (N = -5, then N = 3).
        with pytest.raises(ContractViolation):
            posterior_width_bounds(3, 2, 10, 0.1, 0.1, sig, p=0, q=2, m=2)
        for ambient in (-5, 3):
            with pytest.raises(ContractViolation):
                posterior_width_bounds(1, 2, ambient, 0.1, 0.1, sig, p=0, q=2, m=2)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(eps=math.nan), dict(eps_prime=math.nan), dict(eps=math.inf),
            dict(eps_prime=math.inf), dict(sigma=np.array([1.0, math.nan])), dict(i_max=-3),
        ],
        ids=["nan-0.1", "0.1-nan", "inf-0.1", "0.1-inf", "sigma-nan", "i_max-negative"],
    )
    def test_non_finite_widths_rejected(self, bad):
        args = dict(eps=0.1, eps_prime=0.1, sigma=np.array([1.0, 0.5]), i_max=None) | bad
        with pytest.raises(ContractViolation):
            posterior_width_bounds(2, 2, 10, p=0, q=2, m=2, **args)


class TestProofSubspace:
    def make_bases(self, rng, n_amb=16, m=6, n=5, t_dim=2):
        w, v = random_subspace_pair(rng, n_amb, m, n)
        sb = compute_suitable_bases(v, w)
        t = Subspace(np.ascontiguousarray(v.basis[:, :t_dim]))
        return sb, t

    def test_raises_below_k_star(self, rng):
        sb, t = self.make_bases(rng)
        k_star = min(sb.n, t.dim + sb.n - sb.q)
        with pytest.raises(ContractViolation):
            proof_subspace(k_star - 1, t, sb)

    def test_dimension_never_exceeds_i(self, rng):
        sb, t = self.make_bases(rng)
        k_star = min(sb.n, t.dim + sb.n - sb.q)
        top = t.dim + (sb.ambient_dim - sb.m)
        for i in range(k_star, top + 3):
            sub = proof_subspace(i, t, sb)
            assert sub.dim <= i

    def test_contains_t_and_unobserved_prior_directions(self, rng):
        sb, t = self.make_bases(rng)
        k_star = min(sb.n, t.dim + sb.n - sb.q)
        sub = proof_subspace(k_star, t, sb)
        for col in t.basis.T:
            assert sub.contains(col)
        for col in sb.v_star_tail.T:
            assert sub.contains(col)

    def test_growth_appends_trailing_interaction_directions_first(self, rng):
        sb, t = self.make_bases(rng)
        q, p = sb.q, sb.p
        k_star = min(sb.n, t.dim + sb.n - sb.q)
        sub1 = proof_subspace(k_star + 1, t, sb)
        # One step past k*: the most amplified direction wt_q joins first.
        assert sub1.contains(sb.w_tilde[:, q - p - 1], tol=1e-8)
        if q - p >= 2:
            assert not sub1.contains(sb.w_tilde[:, 0], tol=1e-6)

    def test_terminal_space_contains_w_perp(self, rng):
        # At i = k + (N - m) the space is T plus all of W-perp, the witness
        # for the d_bbar floor.
        sb, t = self.make_bases(rng)
        i_term = t.dim + (sb.ambient_dim - sb.m)
        sub = proof_subspace(i_term, t, sb)
        assert sub.dim == i_term
        g = np.arange(1.0, sb.ambient_dim + 1.0)
        w_perp_vec = g - sb.w_subspace.basis @ (sb.w_subspace.basis.T @ g)
        assert sub.contains(w_perp_vec, tol=1e-8)

    def test_nested_through_middle_range(self, rng):
        sb, t = self.make_bases(rng)
        k_star = min(sb.n, t.dim + sb.n - sb.q)
        prev = proof_subspace(k_star, t, sb)
        for i in range(k_star + 1, sb.n):
            cur = proof_subspace(i, t, sb)
            for col in prev.basis.T:
                assert cur.contains(col, tol=1e-8)
            prev = cur

    def test_prior_subspace_range_returns_v(self, rng):
        sb, t = self.make_bases(rng)
        i_floor = t.dim + (sb.ambient_dim - sb.m)
        for i in (sb.n, i_floor - 1):
            sub = proof_subspace(i, t, sb)
            assert sub.dim == sb.n
            for col in sb.v_subspace.basis.T:
                assert sub.contains(col, tol=1e-10)

    def test_floor_range_contains_t_and_w_perp(self, rng):
        sb, t = self.make_bases(rng)
        i_floor = t.dim + (sb.ambient_dim - sb.m)
        sub = proof_subspace(i_floor, t, sb)
        for col in t.basis.T:
            assert sub.contains(col, tol=1e-8)
        w_perp = np.hstack([sb.w_tilde, sb.v_star_tail, sb.u_basis])
        for col in w_perp.T:
            assert sub.contains(col, tol=1e-8)
        # With enough budget the padding completes the prior subspace too.
        full = proof_subspace(sb.ambient_dim - sb.m + sb.q, t, sb)
        for col in sb.v_subspace.basis.T:
            assert full.contains(col, tol=1e-8)


def per_i_proof_subspace(i: int, t_subspace: Subspace, bases) -> Subspace:
    """The certificate assembled from scratch for one i by chains of
    ``direct_sum``: the reference the nested branch bases must reproduce."""
    n, q, p = bases.n, bases.q, bases.p
    k = t_subspace.dim
    k_star = min(n, k + n - q)
    if i < k_star:
        raise ContractViolation(f"i = {i} is below k* = {k_star}")
    if i >= k + (bases.ambient_dim - bases.m):
        w_perp = np.hstack([bases.w_tilde, bases.v_star_tail, bases.u_basis])
        out = t_subspace
        if w_perp.shape[1]:
            out = direct_sum(out, Subspace(w_perp))
        for j in range(q):
            if out.dim >= i:
                break
            out = direct_sum(out, Subspace(bases.v_star[:, j : j + 1]))
        return out
    if i >= n:
        return bases.v_subspace
    v_star_part = Subspace(bases.v_star_tail) if n > q else Subspace.zero(bases.ambient_dim)
    out = direct_sum(t_subspace, v_star_part)
    n_int = q - p
    take = min(i - k_star, n_int)
    if take:
        out = direct_sum(out, Subspace(bases.w_tilde[:, n_int - take :]))
    filler = min(max(0, i - k_star - n_int), bases.r)
    if filler:
        out = direct_sum(out, Subspace(bases.u_basis[:, :filler]))
    return out


def _projector(sub: Subspace) -> np.ndarray:
    return sub.basis @ sub.basis.T


#: (m, n, p, q, r, T), T spanned by rows of coefficients on the rotated prior basis v*.
PARITY_GEOMETRIES = {
    "t-is-v1": (4, 5, 1, 3, 2, [[1, 0, 0, 0, 0]]),
    "t-meets-unobserved": (4, 5, 1, 3, 2, [[0, 0, 0, 0, 1], [1, 0, 0, 0, 1]]),
    "t-is-v": (3, 4, 1, 3, 2, np.eye(4)),
    "k-zero": (4, 5, 1, 3, 2, np.zeros((0, 5))),
    "p-equals-q": (4, 5, 2, 2, 2, [[1, 0, 0, 0, 0], [0, 0, 1, 1, 0]]),
    "r-zero": (4, 5, 1, 3, 0, [[1, 1, 0, 0, 0]]),
    "m-above-n": (6, 3, 0, 3, 2, [[1, 0, 0], [0, 1, 1]]),
    "n-above-m": (2, 6, 0, 2, 3, [[0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 1]]),
    "shared-directions": (5, 5, 3, 4, 1, [[1, 0, 0, 0, 0], [0, 0, 0, 1, 0]]),
}


@pytest.mark.parametrize("name", sorted(PARITY_GEOMETRIES))
def test_nested_certificates_match_per_i_construction(name):
    m, n, p, q, r, t_coeffs = PARITY_GEOMETRIES[name]
    rng = np.random.default_rng(sorted(PARITY_GEOMETRIES).index(name))
    w, v = prescribed_pair(rng, m, n, p, q, r)
    sb = compute_suitable_bases(v, w)
    assert (sb.p, sb.q, sb.r) == (p, q, r)
    t_rows = np.asarray(t_coeffs, dtype=float) @ sb.v_star.T
    t = orthonormalize(t_rows, sb.ambient_dim)
    cloud = SnapshotSet(rng.standard_normal((30, sb.ambient_dim)))
    i_max = t.dim + sb.ambient_dim - m + 2
    widths = certificate_widths(cloud, t, sb, i_max)
    assert widths.shape == (i_max + 1,)
    for i in range(i_max + 1):
        try:
            ref = per_i_proof_subspace(i, t, sb)
        except ContractViolation:
            with pytest.raises(ContractViolation):
                proof_subspace(i, t, sb)
            assert widths[i] == INF
            continue
        sub = proof_subspace(i, t, sb)
        assert sub.dim == ref.dim <= i
        assert np.abs(_projector(sub) - _projector(ref)).max() <= 1e-10
        width = empirical_width(cloud, sub)
        assert abs(widths[i] - width) <= 1e-12 * max(1.0, width)
    for bad in (-1, -2):
        with pytest.raises(ContractViolation, match="^i_max must be >= 0"):
            certificate_widths(cloud, t, sb, bad)
    other = SnapshotSet(rng.standard_normal((3, sb.ambient_dim + 1)))
    with pytest.raises(ContractViolation, match="^cloud ambient dimension"):
        certificate_widths(other, t, sb, i_max)


def test_proof_subspace_rejects_t_outside_v(rng):
    w, v = random_subspace_pair(rng, 12, 4, 3)
    sb = compute_suitable_bases(v, w)
    with pytest.raises(ContractViolation):
        proof_subspace(sb.n, Subspace(w.basis[:, :1]), sb)


class TestEmpiricalWidth:
    def test_matches_max_residual(self, rng):
        cloud = SnapshotSet(rng.standard_normal((12, 9)))
        sub = Subspace(np.eye(9)[:, :4])
        expected = max(dist(v, sub) for v in cloud.vectors)
        assert_allclose(empirical_width(cloud, sub), expected, rtol=1e-12)

    def test_zero_for_contained_cloud(self, rng):
        sub = Subspace(np.eye(6)[:, :2])
        cloud = SnapshotSet((sub.basis @ rng.standard_normal((2, 7))).T)
        assert empirical_width(cloud, sub) < 1e-12


class TestBoundsAgainstSampledCloud:
    def test_sampled_posterior_respects_combined_bound(self, rng):
        # Small end-to-end check: posterior samples of tube observations stay
        # within the bound width of every witness subspace.
        from partialrom.geometry import DegenerateEllipsoid
        from partialrom.sampling import build_slice, observe, sample_slice

        n_amb, m, n, k = 20, 8, 6, 2
        eps, eps_prime = 1e-6, 0.05
        w, v = random_subspace_pair(rng, n_amb, m, n)
        sb = compute_suitable_bases(v, w)
        t = Subspace(np.ascontiguousarray(v.basis[:, :k]))
        prior = DegenerateEllipsoid(v, eps_prime)

        chunks = []
        for j in range(20):
            h = t.basis @ rng.standard_normal(k)
            h = h + eps * 0.5 * rng.standard_normal(n_amb) / np.sqrt(n_amb)
            sl = build_slice(observe(h, w), prior, sb)
            chunks.append(sample_slice(sl, 40, rng=j).vectors)
        cloud = SnapshotSet(np.vstack(chunks))

        bc = posterior_width_bounds(
            k=k, n=n, ambient_dim=n_amb, eps=eps, eps_prime=eps_prime,
            sigma=sb.sigma, p=sb.p, q=sb.q, m=m, i_max=k + (n_amb - m),
        )
        widths = certificate_widths(cloud, t, sb, bc.i_max)
        for i, bound in enumerate(bc.combined):
            if not math.isinf(bound):
                assert widths[i] <= bound + 1e-6
