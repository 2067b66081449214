"""Property tests for the posterior sampler over degenerate geometries.

Each example builds (W, V) with prescribed block dimensions: p principal
cosines equal to 1, q - p strictly between 0 and 1, the rest 0, and an r-dim
W⊥ ∩ V⊥.  Among the examples are p = q (no interaction block), r = 0, q = n (no
unobserved prior directions), m > n, n > m, a zero deviation budget and a
nested two-tube prior, sampled at several manifold points in one call.  Every
draw must reproduce its observation and stay in every tube of the prior, and
every finite combined width bound must hold on the sampled posterior with a
certificate of dimension at most i.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import prescribed_pair
from partialrom.bases import compute_suitable_bases
from partialrom.bounds import certificate_widths, posterior_width_bounds, proof_subspace
from partialrom.errors import PartialSampleWarning
from partialrom.geometry import DegenerateEllipsoid, PriorManifold, SnapshotSet, Subspace, dist
from partialrom.sampling import (
    PiDistribution,
    build_slice,
    observe,
    sample_posterior,
    sample_slice,
)


@st.composite
def geometries(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    zero_budget = draw(st.booleans())
    if zero_budget:
        # The budget eps'^2 - sum_{j>q} a*_j^2 is exactly 0 only with eps' = 0
        # and no observed direction outside V, i.e. q = m <= n.
        n = max(n, m)
    pairs = min(m, n)
    p = draw(st.integers(0, pairs))
    q = pairs if zero_budget else draw(st.integers(p, pairs))
    return dict(
        m=m, n=n, p=p, q=q,
        r=draw(st.integers(0, 3)),
        zero_budget=zero_budget,
        nested=n >= 2 and draw(st.booleans()),
        pi=draw(st.sampled_from(["uniform-beta", "mixture"])),
        d_box=draw(st.sampled_from([0.0, 1.5])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _build(g, count=1):
    """W, V and ``count`` states (rows) whose observations the prior admits."""
    rng = np.random.default_rng(g["seed"])
    w_sub, v_sub = prescribed_pair(rng, g["m"], g["n"], g["p"], g["q"], g["r"])
    ambient, v = w_sub.ambient_dim, v_sub.basis
    eps_prime = 0.0 if g["zero_budget"] else rng.uniform(0.01, 1.0)
    states = np.empty((count, ambient))
    for h in states:
        perp = np.zeros(ambient)
        if not g["zero_budget"]:
            off_v = rng.standard_normal(ambient)
            off_v -= v @ (v.T @ off_v)
            if np.linalg.norm(off_v) > 1e-8:
                perp = off_v * (rng.uniform(0.0, 0.5) * eps_prime / np.linalg.norm(off_v))
        h[:] = v @ rng.standard_normal(g["n"]) + perp
    return w_sub, v_sub, eps_prime, states


def _assert_sound(draws: SnapshotSet, obs, w_sub: Subspace, prior: PriorManifold):
    """Each draw reproduces one of the observations ``obs`` (rows) and lies
    in every tube of ``prior``."""
    obs = np.atleast_2d(obs)
    for s in draws:
        err = np.linalg.norm(w_sub.basis.T @ s - obs, axis=1).min()
        assert err <= 1e-10 * np.linalg.norm(s)
        for e in prior.ellipsoids:
            assert dist(s, e.subspace) <= e.width + 1e-9


@settings(derandomize=True, max_examples=60, deadline=None)
@given(geometries())
def test_draws_reproduce_observation_and_stay_in_every_tube(g):
    w_sub, v_sub, eps_prime, states = _build(g, count=4)
    sb = compute_suitable_bases(v_sub, w_sub)
    assert (sb.m, sb.n, sb.p, sb.q, sb.r) == (g["m"], g["n"], g["p"], g["q"], g["r"])
    pi = PiDistribution.from_name(g["pi"])
    obs = [observe(h, w_sub) for h in states]

    tube = DegenerateEllipsoid(v_sub, eps_prime)
    prior = PriorManifold((tube,))
    slices = [build_slice(o, tube, sb) for o in obs]
    if g["zero_budget"]:
        assert all(sl.radius_sq_budget == 0.0 for sl in slices)
    draws = sample_slice(slices[0], 20, pi, g["d_box"], rng=g["seed"])
    _assert_sound(draws, obs[0].values, w_sub, prior)

    if g["nested"]:
        # A tube around the leading prior direction whose width puts every
        # slice center inside and, when a slice has extent, part of it
        # outside, so the rejection step can drop draws.
        inner = Subspace(v_sub.basis[:, :1])
        max_dev = np.sqrt(max(sl.radius_sq_budget for sl in slices))
        max_dev /= sb.sigma[sb.p : sb.q].min(initial=1.0)
        max_dev += g["d_box"] * np.sqrt(sb.n - sb.q)
        width = max(dist(sl.center, inner) for sl in slices) + 0.5 * max_dev
        prior = PriorManifold((DegenerateEllipsoid(inner, width), tube))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PartialSampleWarning)
        cloud = sample_posterior(
            SnapshotSet(states), w_sub, prior, 10, pi, g["d_box"], seed=g["seed"]
        )
    assert len(cloud) <= 4 * 10
    _assert_sound(cloud, np.array([o.values for o in obs]), w_sub, prior)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(geometries(), st.integers(0, 5))
def test_certificates_respect_combined_width_bound(g, k):
    w_sub, v_sub, eps_prime, _ = _build(g)
    sb = compute_suitable_bases(v_sub, w_sub)
    k = min(k, sb.n)
    t_sub = Subspace(v_sub.basis[:, :k])
    rng = np.random.default_rng(g["seed"] + 1)
    # Manifold points within eps' / 2 of T ⊆ V, so the prior admits them.
    noise = rng.standard_normal((5, sb.ambient_dim))
    noise *= (0.5 * eps_prime * rng.random(5) / np.linalg.norm(noise, axis=1))[:, None]
    manifold = SnapshotSet(rng.standard_normal((5, k)) @ t_sub.basis.T + noise)
    eps = float(manifold.residual_norms(t_sub).max())
    tube = DegenerateEllipsoid(v_sub, eps_prime)
    cloud = sample_posterior(
        manifold, w_sub, PriorManifold((tube,)), 20, d_box=g["d_box"], seed=g["seed"]
    )

    i_max = k + sb.ambient_dim - sb.m + 2
    curve = posterior_width_bounds(
        k, sb.n, sb.ambient_dim, eps, eps_prime, sb.sigma, sb.p, sb.q, sb.m, i_max=i_max
    )
    widths = certificate_widths(cloud, t_sub, sb, i_max)
    for i, bound in enumerate(curve.combined):
        assert np.isinf(widths[i]) == (i < curve.k_star)
        if i >= curve.k_star:
            assert proof_subspace(i, t_sub, sb).dim <= i
            assert widths[i] <= bound + 1e-6
