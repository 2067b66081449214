"""Quick internal consistency checks, runnable without the test suite.

Each check exercises one pipeline stage on a small instance and returns True
on success; ``run_selftest`` prints one PASS/FAIL line per check.  These are
smoke tests — the full guarantees live in the test suite.
"""

from __future__ import annotations

import numpy as np

from .bases import compute_suitable_bases, decompose
from .bounds import INF, posterior_width_bounds, width_degenerate_ellipsoid
from .errors import ContractViolation
from .estimate import point_estimate
from .geometry import DegenerateEllipsoid, SnapshotSet, Subspace
from .greedy import StoppingRule, greedy
from .rng import derived_rng
from .sampling import PiDistribution, build_slice, observe, sample_slice
from .thermal import ThermalBlockModel, _band_block
from .worlds import build_synthetic_world, random_subspace


def _check_bases(seed: int) -> bool:
    rng = derived_rng(seed, 1)
    n_amb = 15
    for _ in range(5):
        v = random_subspace(n_amb, 4, rng)
        w = random_subspace(n_amb, 5, rng)
        b = compute_suitable_bases(v, w)
        full = np.hstack([b.w_star, b.w_tilde, b.v_star_tail, b.u_basis])
        if full.shape[1] != n_amb:
            return False
        if not np.allclose(full.T @ full, np.eye(n_amb), atol=1e-9):
            return False
        cross = b.w_star.T @ b.v_star
        expected = np.zeros_like(cross)
        n_pairs = min(b.m, b.n)
        expected[:n_pairs, :n_pairs] = np.diag(b.sigma)
        if not np.allclose(cross, expected, atol=1e-9):
            return False
        h = rng.standard_normal(n_amb)
        if not np.allclose(decompose(h, b).reconstruct(b), h, atol=1e-9):
            return False
    return True


def _check_sampler(seed: int) -> bool:
    rng = derived_rng(seed, 2)
    n_amb = 15
    v = random_subspace(n_amb, 4, rng)
    w = random_subspace(n_amb, 5, rng)
    bases = compute_suitable_bases(v, w)
    prior = DegenerateEllipsoid(v, 0.3)
    h = 0.25 * rng.standard_normal(n_amb)
    obs = observe(h, w)
    sl = build_slice(obs, prior, bases)
    if sl.is_empty:
        return False
    samples = sample_slice(sl, 200, PiDistribution.uniform_beta(), rng=derived_rng(seed, 3))
    obs_err = np.abs(samples.vectors @ w.basis - obs.values).max()
    dist_err = samples.residual_norms(v).max() - prior.width
    return obs_err <= 1e-8 and dist_err <= 1e-8


def _check_estimate(seed: int) -> bool:
    rng = derived_rng(seed, 4)
    n_amb = 12
    v = random_subspace(n_amb, 3, rng)
    w = random_subspace(n_amb, 4, rng)
    bases = compute_suitable_bases(v, w)
    prior = DegenerateEllipsoid(v, 0.5)
    obs = observe(rng.standard_normal(n_amb), w)
    est = point_estimate(obs, prior, bases)
    center = build_slice(obs, prior, bases).center
    zero = point_estimate(observe(np.zeros(n_amb), w), prior, bases)
    return np.allclose(est, center, atol=1e-12) and not zero.any()


def _check_greedy(seed: int) -> bool:
    cloud = SnapshotSet(np.diag([3.0, 2.0, 1.0]))
    res = greedy(cloud, StoppingRule(max_dim=3))
    return res.selected_indices == (0, 1, 2) and np.allclose(res.error_curve, (2.0, 1.0, 0.0))


def _check_bounds(seed: int) -> bool:
    if width_degenerate_ellipsoid(3, 0.5, 2) != INF:
        return False
    if width_degenerate_ellipsoid(3, 0.5, 3) != 0.5:
        return False
    sigma = np.array([1.0, 0.8, 0.5])
    curve = posterior_width_bounds(
        k=1, n=4, ambient_dim=20, eps=0.01, eps_prime=0.1,
        sigma=sigma, p=1, q=3, m=3, i_max=8,
    )
    comb = curve.combined
    finite = [v for v in comb if v != INF]
    return all(a >= b - 1e-12 for a, b in zip(finite, finite[1:])) and comb[-1] == 0.1


def _check_thermal(seed: int) -> bool:
    # Each batched state against the band stiffness, expanded to a dense
    # matrix, which the interface condensation behind ``solve`` does not use.
    model = ThermalBlockModel(cells=6)
    nodes = np.arange(model.ambient_dim)
    thetas = np.array([(0.7, 1.3, 0.4, 2.0), (2.5, 0.2, 1.1, 0.6), (1.0, 1.0, 1.0, 1.0)])
    states = model.solve(thetas, flux=1.0)
    for theta, coords in zip(thetas, states):
        nodal = model.from_ambient(coords)
        rhs = 1.0 * (model.flux_left / theta[2] + model.flux_right / theta[3])
        product = _band_block(model.stiffness_band(theta), nodes, nodes) @ nodal
        if not np.allclose(product, rhs, atol=1e-10):
            return False
    return True


def _check_synthetic(seed: int) -> bool:
    world = build_synthetic_world(
        ambient_dim=40, n_max=10, k_hat=2, delta=1e-3,
        eps_main=1.0, eps_perturb=1e-2, n_points=50, seed=seed,
    )
    cross = world.w_tilde.T @ world.v_tilde
    diag = np.diag(cross).copy()
    off = cross - np.diag(diag)
    expected = np.concatenate([np.full(world.k_hat, world.delta), np.ones(world.n_max - world.k_hat)])
    return np.abs(off).max() < 1e-9 and np.allclose(diag, expected, atol=1e-9)


CHECKS = [
    ("suitable-bases", _check_bases),
    ("slice-sampler", _check_sampler),
    ("point-estimate", _check_estimate),
    ("greedy", _check_greedy),
    ("width-bounds", _check_bounds),
    ("thermal-solver", _check_thermal),
    ("synthetic-world", _check_synthetic),
]


def run_selftest(seed: int = 0) -> int:
    """Run all checks, printing one line each; return the number of failures."""
    failures = 0
    for name, check in CHECKS:
        try:
            ok = check(seed)
            detail = ""
        except Exception as exc:  # a crash is a failure, not an abort
            ok = False
            detail = f": {type(exc).__name__}: {exc}"
        print(f"{'PASS' if ok else 'FAIL'} {name}{detail}")
        failures += 0 if ok else 1
    return failures
