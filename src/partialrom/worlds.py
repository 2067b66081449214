"""Builders for the two benchmark worlds.

*Thermal world*: solution manifold of the thermal block over a constrained
conductivity grid (theta_1 = theta_2, theta_3 = theta_4), with a prior built
by greedy reduction of a *relaxed* manifold sampled over the full 4-parameter
grid.  The relaxed cloud always includes the constrained-grid states, so the
empirical prior widths genuinely cover the target manifold.

*Synthetic world*: a hand-built pair of nearly-aligned bases in R^N.  The
target set is a flat main ellipsoid along directions t_j that the observation
basis sees only at cosine delta, plus a small weighted-ellipsoid perturbation
along the observation directions.  It is the stress case where observations
barely see the dominant variability.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .geometry import (
    DegenerateEllipsoid,
    PriorManifold,
    SnapshotSet,
    Subspace,
    lies_in,
    orthonormalize,
    prefix_widths,
)
from .greedy import GreedyResult, StoppingRule, greedy
from .rng import derived_rng
from .thermal import ThermalBlockModel

#: Slack of :func:`check_nested_prior`, on the widths and on the nesting test.
NEST_TOL = 1e-8


def random_subspace(ambient_dim: int, dim: int, rng: np.random.Generator) -> Subspace:
    """Uniformly random dim-dimensional subspace (orthonormalized Gaussians)."""
    if dim > ambient_dim:
        raise ContractViolation(f"dim {dim} exceeds ambient dimension {ambient_dim}")
    mat = rng.standard_normal((ambient_dim, dim))
    sub = orthonormalize(mat.T, ambient_dim=ambient_dim)
    if sub.dim != dim:
        raise ContractViolation("random matrix was rank deficient")  # practically unreachable
    return sub


def check_nested_prior(prior: PriorManifold) -> None:
    """Assert factor subspaces are nested with nonincreasing widths."""
    ells = prior.ellipsoids
    for a, b in zip(ells, ells[1:]):
        if b.width > a.width + NEST_TOL:
            raise ContractViolation(
                f"prior widths must be nonincreasing, got {a.width} then {b.width}"
            )
        if not lies_in(a.subspace, b.subspace, NEST_TOL):
            raise ContractViolation("prior subspaces are not nested")


def nested_prior(basis: np.ndarray, widths, n_factors: int) -> PriorManifold:
    """Intersection of tubes around nested spaces spanned by leading columns of ``basis``.

    With n = ``basis.shape[1]`` and L = ``n_factors``, the tubes sit around the
    leading 1..L-1 columns and around all n columns; the tube at dimension j
    has width ``widths[j - 1]``.  With ``n_factors = 1`` this is the plain
    single-tube prior.
    """
    n = basis.shape[1]
    if not 1 <= n_factors <= n:
        raise ContractViolation(f"n_factors must be in [1, {n}], got {n_factors}")
    prior = PriorManifold(tuple(
        DegenerateEllipsoid(Subspace(basis[:, :j]), float(widths[j - 1]))
        for j in [*range(1, n_factors), n]
    ))
    check_nested_prior(prior)
    return prior


def uniform_ball(rng: np.random.Generator, dim: int, radius: float, count: int) -> np.ndarray:
    """Uniform samples in a centered Euclidean ball (rows)."""
    g = rng.standard_normal((count, dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    radii = radius * rng.random(count) ** (1.0 / dim)
    return g * radii[:, None]


# ---------------------------------------------------------------------------
# Thermal world
# ---------------------------------------------------------------------------


def constrained_theta_grid(theta_min: float, theta_step: float, t_steps: int) -> np.ndarray:
    """Grid with theta_1 = theta_2 and theta_3 = theta_4 (rows of length 4)."""
    vals = theta_min + theta_step * np.arange(t_steps + 1)
    out = [(a, a, b, b) for a in vals for b in vals]
    return np.array(out)


def relaxed_theta_grid(
    theta_min: float, theta_step: float, t_steps: int, max_points: int
) -> np.ndarray:
    """Strided subgrid of the full 4-parameter grid with at most ``max_points`` rows.

    Axis values are picked evenly (endpoints always included).
    """
    if max_points < 16:
        raise ContractViolation(f"max_points must allow >= 2 values per axis, got {max_points}")
    per_axis = min(t_steps + 1, max(2, int(np.floor(max_points**0.25))))
    idx = np.unique(np.round(np.linspace(0, t_steps, per_axis)).astype(int))
    vals = theta_min + theta_step * idx
    return np.array(list(itertools.product(vals, vals, vals, vals)))


@dataclass
class ThermalWorld:
    """Solved clouds plus the greedy run that defines the prior family."""

    model: ThermalBlockModel
    m_cloud: SnapshotSet
    m_thetas: np.ndarray
    relax_cloud: SnapshotSet
    greedy_prior: GreedyResult
    n_prior: int

    def prior_manifold(self, n_factors: int = 1) -> PriorManifold:
        """Nested prior over the leading ``n_prior`` greedy spaces of the relaxed cloud."""
        return nested_prior(
            self.greedy_prior.basis[:, : self.n_prior], self.greedy_prior.error_curve, n_factors
        )


def build_thermal_world(
    model: ThermalBlockModel,
    theta_min: float = 0.1,
    theta_step: float = 0.1,
    t_steps: int = 20,
    relax_max: int = 4096,
    n_prior: int = 25,
    flux: float = 1.0,
) -> ThermalWorld:
    """Solve the target and relaxed manifolds and run the prior greedy.

    The relaxed cloud is the relaxed grid plus every constrained-grid θ it
    lacks, so each target state is also a relaxed state: one batched
    ``model.solve`` call solves every distinct θ (θ rounded to 12 decimals)
    once, and ``m_cloud`` takes its rows from the relaxed states.
    """
    if t_steps < 1:
        raise ContractViolation(f"t_steps must be >= 1, got {t_steps}")
    if theta_min <= 0 or theta_step <= 0:
        raise ContractViolation("theta_min and theta_step must be positive")
    m_thetas = constrained_theta_grid(theta_min, theta_step, t_steps)
    relax_thetas = relaxed_theta_grid(theta_min, theta_step, t_steps, relax_max)
    # The target states are relaxed states too; include them so the empirical
    # widths cover the target manifold exactly.
    row_of = {tuple(np.round(t, 12)): i for i, t in enumerate(relax_thetas)}
    extra, m_rows = [], []
    for t in m_thetas:
        key = tuple(np.round(t, 12))
        if key not in row_of:
            row_of[key] = len(relax_thetas) + len(extra)
            extra.append(t)
        m_rows.append(row_of[key])
    all_relax = np.vstack([relax_thetas, extra]) if extra else relax_thetas

    relax_states = model.solve(all_relax, flux=flux)
    m_states = relax_states[m_rows]
    relax_cloud = SnapshotSet(relax_states)
    gr = greedy(relax_cloud, StoppingRule(max_dim=n_prior))
    return ThermalWorld(
        model=model,
        m_cloud=SnapshotSet(m_states),
        m_thetas=m_thetas,
        relax_cloud=relax_cloud,
        greedy_prior=gr,
        n_prior=min(n_prior, gr.terminal_dim),
    )


# ---------------------------------------------------------------------------
# Synthetic world
# ---------------------------------------------------------------------------


@dataclass
class SyntheticWorld:
    """Aligned-basis synthetic target set and its sampled cloud."""

    ambient_dim: int
    n_max: int
    k_hat: int
    delta: float
    eps_main: float
    eps_perturb: float
    v_tilde: np.ndarray   # (N, n_max) prior directions
    w_tilde: np.ndarray   # (N, n_max) observation directions
    t_main: np.ndarray    # (N, k_hat) main-ellipsoid directions
    gamma: np.ndarray     # (n_max,) perturbation weights
    cloud: SnapshotSet

    def observation_subspace(self, m: int) -> Subspace:
        if not 1 <= m <= self.n_max:
            raise ContractViolation(f"m must be in [1, {self.n_max}], got {m}")
        return Subspace(self.w_tilde[:, :m])

    def prior_subspace(self, n: int) -> Subspace:
        if not 1 <= n <= self.n_max:
            raise ContractViolation(f"n must be in [1, {self.n_max}], got {n}")
        return Subspace(self.v_tilde[:, :n])

    def nested_width_curve(self, n: int) -> np.ndarray:
        """Empirical width of the cloud over span{v_1..j} for j = 1..n."""
        return prefix_widths(self.cloud.vectors, self.v_tilde[:, :n])

    def prior_manifold(self, n: int, n_factors: int = 1) -> PriorManifold:
        """Nested prior over span{v_1..v_j}, widths from :meth:`nested_width_curve`."""
        return nested_prior(self.prior_subspace(n).basis, self.nested_width_curve(n), n_factors)


def build_synthetic_world(
    ambient_dim: int = 200,
    n_max: int = 50,
    k_hat: int = 5,
    delta: float = 1e-4,
    eps_main: float = 1.0,
    eps_perturb: float = 1e-3,
    n_points: int = 200,
    seed: int = 0,
) -> SyntheticWorld:
    """Construct the synthetic world and sample its target cloud.

    Base vectors e_1..e_{2 n_max} are orthonormalized seeded Gaussians; the
    prior directions are v_j = e_j while the observation directions are tilted
    toward a second copy for the first k_hat indices:

        w_j = delta e_j + sqrt(1 - delta^2) e_{n_max + j}   (j <= k_hat).

    The cloud mixes a flat ball along t_j = (v_j - delta w_j)/sqrt(1-delta^2)
    with a small weighted-ellipsoid perturbation along the w_j.
    """
    if 2 * n_max > ambient_dim:
        raise ContractViolation(f"need 2 n_max <= ambient dimension, got {2 * n_max} > {ambient_dim}")
    if not 0.0 < delta < 1.0:
        raise ContractViolation(f"delta must lie strictly in (0, 1), got {delta}")
    if not 1 <= k_hat <= n_max:
        raise ContractViolation(f"k_hat must be in [1, {n_max}], got {k_hat}")
    if eps_main <= 0 or eps_perturb <= 0:
        raise ContractViolation("eps_main and eps_perturb must be positive")
    if n_points < 1:
        raise ContractViolation(f"n_points must be >= 1, got {n_points}")

    rng = derived_rng(seed, 7)
    base = random_subspace(ambient_dim, 2 * n_max, rng).basis
    v_tilde = base[:, :n_max].copy()
    w_tilde = v_tilde.copy()
    second = base[:, n_max : n_max + k_hat]
    w_tilde[:, :k_hat] = delta * v_tilde[:, :k_hat] + np.sqrt(1.0 - delta**2) * second
    t_main = (v_tilde[:, :k_hat] - delta * w_tilde[:, :k_hat]) / np.sqrt(1.0 - delta**2)

    gamma = np.empty(n_max)
    gamma[:k_hat] = 0.85 ** (-n_max)
    tail = np.arange(k_hat + 1, n_max + 1)
    gamma[k_hat:] = 0.85 ** (-(tail - k_hat))

    alpha = uniform_ball(rng, k_hat, eps_main, n_points)
    beta = uniform_ball(rng, n_max, eps_perturb, n_points) / gamma
    states = alpha @ t_main.T
    states += (delta * beta[:, :k_hat]) @ w_tilde[:, :k_hat].T
    states += beta[:, k_hat:] @ w_tilde[:, k_hat:].T

    return SyntheticWorld(
        ambient_dim=ambient_dim,
        n_max=n_max,
        k_hat=k_hat,
        delta=delta,
        eps_main=eps_main,
        eps_perturb=eps_perturb,
        v_tilde=v_tilde,
        w_tilde=w_tilde,
        t_main=t_main,
        gamma=gamma,
        cloud=SnapshotSet(states),
    )
