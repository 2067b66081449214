"""Property tests for the posterior sampler over degenerate geometries.

Each example builds (W, V) with prescribed block dimensions: p principal
cosines equal to 1, q - p strictly between 0 and 1, the rest 0, and an r-dim
W⊥ ∩ V⊥.  Among the examples are p = q (no interaction block), r = 0, q = n (no
unobserved prior directions), m > n, n > m, a zero deviation budget and a
nested two-tube prior.  Every draw must reproduce its observation and stay in
every tube of the prior.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from partialrom.bases import compute_suitable_bases
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


def _build(g):
    """W, V and a state h whose observation the prior admits."""
    m, n, p, q, r = g["m"], g["n"], g["p"], g["q"], g["r"]
    rng = np.random.default_rng(g["seed"])
    ambient = m + n - p + r
    e = np.linalg.qr(rng.standard_normal((ambient, ambient)))[0]
    cosines = np.concatenate([np.ones(p), rng.uniform(0.05, 0.95, q - p), np.zeros(n - q)])
    # Column j of V is cos_j w_j (j < min(m, n)) plus, for j >= p, sin_j times
    # its own direction outside W.
    k = min(m, n)
    v = np.zeros((ambient, n))
    v[:, :k] = e[:, :k] * cosines[:k]
    v[:, p:] += e[:, m : m + n - p] * np.sqrt(1.0 - cosines[p:] ** 2)
    w_sub, v_sub = Subspace(e[:, :m]), Subspace(v)
    eps_prime = 0.0 if g["zero_budget"] else rng.uniform(0.01, 1.0)
    perp = np.zeros(ambient)
    if not g["zero_budget"]:
        off_v = rng.standard_normal(ambient)
        off_v -= v @ (v.T @ off_v)
        if np.linalg.norm(off_v) > 1e-8:
            perp = off_v * (rng.uniform(0.0, 0.5) * eps_prime / np.linalg.norm(off_v))
    h = v @ rng.standard_normal(n) + perp
    return w_sub, v_sub, eps_prime, h


def _assert_sound(draws: SnapshotSet, obs, w_sub: Subspace, prior: PriorManifold):
    for s in draws:
        err = np.linalg.norm(w_sub.basis.T @ s - obs.values)
        assert err <= 1e-10 * np.linalg.norm(s)
        for e in prior.ellipsoids:
            assert dist(s, e.subspace) <= e.width + 1e-9


@settings(derandomize=True, max_examples=60, deadline=None)
@given(geometries())
def test_draws_reproduce_observation_and_stay_in_every_tube(g):
    w_sub, v_sub, eps_prime, h = _build(g)
    sb = compute_suitable_bases(v_sub, w_sub)
    assert (sb.m, sb.n, sb.p, sb.q, sb.r) == (g["m"], g["n"], g["p"], g["q"], g["r"])
    pi = PiDistribution.from_name(g["pi"])
    obs = observe(h, w_sub)

    tube = DegenerateEllipsoid(v_sub, eps_prime)
    prior = PriorManifold((tube,))
    slice_ = build_slice(obs, tube, sb)
    if g["zero_budget"]:
        assert slice_.radius_sq_budget == 0.0
    _assert_sound(sample_slice(slice_, 20, pi, g["d_box"], rng=g["seed"]), obs, w_sub, prior)

    if g["nested"]:
        # A tube around the leading prior direction whose width puts the slice
        # center inside and, when the slice has extent, part of it outside,
        # so the rejection step can drop draws.
        inner = Subspace(v_sub.basis[:, :1])
        max_dev = np.sqrt(slice_.radius_sq_budget) / sb.sigma[sb.p : sb.q].min(initial=1.0)
        max_dev += g["d_box"] * np.sqrt(sb.n - sb.q)
        width = dist(slice_.center, inner) + 0.5 * max_dev
        prior = PriorManifold((DegenerateEllipsoid(inner, width), tube))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PartialSampleWarning)
        cloud = sample_posterior(
            SnapshotSet(h[None, :]), w_sub, prior, 10, pi, g["d_box"], seed=g["seed"]
        )
    _assert_sound(cloud, obs, w_sub, prior)
