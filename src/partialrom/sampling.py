"""Posterior slices and samplers.

Observing ``obs_i = <w_i, h>`` pins the component of ``h`` inside W.  Within a
single-ellipsoid prior ``{dist(., V) <= eps'}`` the set of states consistent
with the observation is an affine slice

    center  c = sum_{j<=q} <w*_j, h> sigma_j^{-1} v*_j  +  sum_{j>q} <w*_j, h> w*_j

plus a bounded deviation set: coefficients b on the amplified interaction
directions ``sigma_j^{-1} wt_j``, free coefficients d on the unobserved prior
directions ``v*_{q+1..n}``, and a component z in W⊥ ∩ V⊥, constrained by

    sum b_j^2 + ||z||^2  <=  budget = eps'^2 - sum_{j>q} <w*_j, h>^2.

``sample_slice`` draws from one slice; ``sample_slice_multi`` handles a
multi-ellipsoid prior by sampling a reference factor's slice and rejecting
draws outside the other factors.  ``sample_posterior`` fans either sampler out
over a cloud of manifold points with per-point derived streams.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bases import SuitableBases, compute_suitable_bases
from .errors import ContractViolation, EmptySliceError, PartialSampleWarning
from .geometry import (
    DegenerateEllipsoid,
    PriorManifold,
    SnapshotSet,
    Subspace,
    as_vector,
)
from .rng import as_rng, derived_rng

#: Half-width of the uniform box for the unobserved prior coefficients d_j.
DEFAULT_D_BOX = 10.0

#: Tolerance added to a factor's width in the multi-prior acceptance test, so
#: that draws from the reference slice are not lost to rounding noise.
ACCEPT_TOL = 1e-9


@dataclass(frozen=True)
class Observation:
    """Raw inner products of an unknown state with the observation basis."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", as_vector(self.values))

    @property
    def m(self) -> int:
        return self.values.shape[0]


def observe(h, w_subspace: Subspace) -> Observation:
    """Measure ``h`` against the (raw, unrotated) columns of W's basis."""
    v = as_vector(h, w_subspace.ambient_dim)
    return Observation(w_subspace.basis.T @ v)


def observe_cloud(cloud: SnapshotSet, w_subspace: Subspace) -> np.ndarray:
    """Observation values for every snapshot, one row per snapshot."""
    if cloud.ambient_dim != w_subspace.ambient_dim:
        raise ContractViolation("cloud and W live in different ambient dimensions")
    return cloud.vectors @ w_subspace.basis


@dataclass(frozen=True)
class PiDistribution:
    """Distribution of the split parameter pi in [0, 1].

    pi apportions the deviation budget between the amplified interaction
    directions (share pi^2) and the unconstrained block W⊥ ∩ V⊥ (share
    1 - pi^2).  ``uniform-beta`` uses a ratio of chi-square sums matched to the
    block dimensions; ``mixture`` additionally pushes most of the mass toward
    pi = 1 so that samples exercise the amplified directions hard.
    """

    kind: str = "uniform-beta"
    mixture_weight: float = 0.9
    mixture_scale: float = 1e4

    def __post_init__(self):
        if self.kind not in ("uniform-beta", "mixture"):
            raise ContractViolation(f"unknown pi distribution kind: {self.kind!r}")
        if not 0.0 <= self.mixture_weight <= 1.0:
            raise ContractViolation("mixture_weight must lie in [0, 1]")
        if self.mixture_scale <= 0:
            raise ContractViolation("mixture_scale must be positive")

    @classmethod
    def uniform_beta(cls) -> "PiDistribution":
        return cls(kind="uniform-beta")

    @classmethod
    def mixture(cls, weight: float = 0.9, scale: float = 1e4) -> "PiDistribution":
        return cls(kind="mixture", mixture_weight=weight, mixture_scale=scale)

    @classmethod
    def from_name(cls, name: str) -> "PiDistribution":
        name = name.strip().lower()
        if name in ("uniform", "uniform-beta"):
            return cls.uniform_beta()
        if name == "mixture":
            return cls.mixture()
        raise ContractViolation(f"unknown pi distribution name: {name!r}")

    def draw(self, rng: np.random.Generator, n_interaction: int, n_residual: int) -> float:
        """One draw of pi for block dimensions (q - p, r)."""
        if n_interaction == 0:
            return 0.0
        if n_residual == 0:
            return 1.0
        xi = rng.standard_normal(n_interaction + n_residual)
        head = float(np.sum(xi[:n_interaction] ** 2))
        tail = float(np.sum(xi[n_interaction:] ** 2))
        if self.kind == "uniform-beta":
            return head / (head + tail)
        if rng.random() < 1.0 - self.mixture_weight:
            return head / (head + tail)
        scaled = self.mixture_scale * head
        return scaled / (scaled + tail)


@dataclass(frozen=True)
class EllipsoidSlice:
    """One observation-consistent slice of a single-ellipsoid prior."""

    center: np.ndarray
    bases: SuitableBases
    w_star_coeffs: np.ndarray
    radius_sq_budget: float
    width: float

    @property
    def is_empty(self) -> bool:
        return self.radius_sq_budget < 0.0


def build_slice(obs: Observation, prior: DegenerateEllipsoid, bases: SuitableBases) -> EllipsoidSlice:
    """Characterize the slice of ``prior`` cut out by ``obs``.

    ``bases`` must come from (prior.subspace, W) for the same W the observation
    was taken in.  A negative deviation budget marks an empty slice (the
    observed component outside V already exceeds the prior width); the slice is
    still returned so callers can inspect it, but sampling it raises.
    """
    if bases.v_subspace is not prior.subspace and not np.array_equal(
        bases.v_subspace.basis, prior.subspace.basis
    ):
        raise ContractViolation("bases were not computed from the prior subspace")
    a_star = bases.w_star_coefficients(obs.values)
    center = bases.slice_centers(a_star[None, :])[0]
    budget = float(prior.width**2 - np.sum(a_star[bases.q:] ** 2))
    return EllipsoidSlice(
        center=center,
        bases=bases,
        w_star_coeffs=a_star,
        radius_sq_budget=budget,
        width=prior.width,
    )


def _unit_direction(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Uniform direction on the unit sphere in R^dim."""
    while True:
        g = rng.standard_normal(dim)
        nrm = np.linalg.norm(g)
        if nrm > 1e-12:
            return g / nrm


def sample_slice(
    slice_: EllipsoidSlice,
    n_samples: int,
    pi_dist: PiDistribution | None = None,
    d_box: float = DEFAULT_D_BOX,
    rng: int | np.random.Generator = 0,
) -> SnapshotSet:
    """Draw ``n_samples`` points of the slice.

    Per sample: draw pi, then a budget fraction gamma ~ U[0, budget]; put
    gamma * pi^2 of squared norm on the interaction coefficients b (uniform
    direction), gamma * (1 - pi^2) on z ∈ W⊥ ∩ V⊥ (uniform direction obtained
    by projecting a Gaussian off the complement blocks), and d_j ~ U[-d_box,
    d_box] on the unobserved prior directions.  Every output reproduces the
    observation exactly and stays within the prior width.
    """
    if n_samples < 1:
        raise ContractViolation(f"n_samples must be >= 1, got {n_samples}")
    if d_box < 0:
        raise ContractViolation(f"d_box must be >= 0, got {d_box}")
    if slice_.is_empty:
        raise EmptySliceError(
            f"slice has negative squared budget {slice_.radius_sq_budget:.3e}; "
            "the observation is inconsistent with the prior"
        )
    pi_dist = pi_dist or PiDistribution.uniform_beta()
    gen = as_rng(rng)
    b = slice_.bases
    n_amb = b.ambient_dim
    n_int = b.q - b.p          # interaction block dimension
    n_tail = b.n - b.q         # unobserved prior directions
    n_res = b.r                # dim(W⊥ ∩ V⊥)
    comp = b.complement_onb
    sigma_int = b.sigma[b.p : b.q]
    amplified = b.w_tilde / sigma_int if n_int else b.w_tilde  # columns sigma_j^{-1} wt_j

    out = np.empty((n_samples, n_amb))
    for i in range(n_samples):
        s = slice_.center.copy()
        if n_int or n_res:
            pi = pi_dist.draw(gen, n_int, n_res)
            gamma = gen.uniform(0.0, slice_.radius_sq_budget)
            if n_int:
                b_dir = _unit_direction(gen, n_int)
                s -= amplified @ (np.sqrt(gamma) * pi * b_dir)
            if n_res:
                g = gen.standard_normal(n_amb)
                z = g - comp @ (comp.T @ g)
                nrm = np.linalg.norm(z)
                if nrm > 1e-12:
                    s += z * (np.sqrt(gamma * (1.0 - pi**2)) / nrm)
        if n_tail:
            d = gen.uniform(-d_box, d_box, size=n_tail)
            s += b.v_star_tail @ d
        out[i] = s
    return SnapshotSet(out)


@dataclass(frozen=True)
class MultiSliceResult:
    """Accepted samples plus rejection bookkeeping for the multi-prior sampler."""

    samples: SnapshotSet
    n_draws: int
    n_accepted: int
    complete: bool

    @property
    def acceptance_ratio(self) -> float:
        return self.n_accepted / self.n_draws if self.n_draws else 0.0


def sample_slice_multi(
    obs: Observation,
    prior: PriorManifold,
    j_star: int,
    n_samples: int,
    max_draws: int | None = None,
    pi_dist: PiDistribution | None = None,
    d_box: float = DEFAULT_D_BOX,
    rng: int | np.random.Generator = 0,
    bases: SuitableBases | None = None,
    w_subspace: Subspace | None = None,
) -> MultiSliceResult:
    """Sample the posterior of a multi-ellipsoid prior by rejection.

    Draws come from the slice of the reference factor ``j_star`` (1-based); a
    draw is accepted iff it lies within every factor's width.  ``bases`` must
    be the suitable bases of (factor j_star's subspace, W); pass ``w_subspace``
    instead to have them computed here.  If ``max_draws`` is exhausted first, a
    :class:`PartialSampleWarning` is emitted and the partial result returned
    with ``complete=False``.
    """
    if not 1 <= j_star <= prior.n_factors:
        raise ContractViolation(f"j_star must be in [1, {prior.n_factors}], got {j_star}")
    if n_samples < 1:
        raise ContractViolation(f"n_samples must be >= 1, got {n_samples}")
    ref = prior.ellipsoids[j_star - 1]
    if bases is None:
        if w_subspace is None:
            raise ContractViolation("provide either precomputed bases or w_subspace")
        bases = compute_suitable_bases(ref.subspace, w_subspace)
    if max_draws is None:
        max_draws = 100 * n_samples
    gen = as_rng(rng)
    slice_ = build_slice(obs, ref, bases)

    others = [e for i, e in enumerate(prior.ellipsoids) if i != j_star - 1]
    accepted: list[np.ndarray] = []
    n_draws = 0
    while len(accepted) < n_samples and n_draws < max_draws:
        chunk = min(n_samples - len(accepted), max_draws - n_draws)
        batch = sample_slice(slice_, chunk, pi_dist, d_box, gen).vectors
        n_draws += chunk
        keep = np.ones(chunk, dtype=bool)
        for e in others:
            bb = e.subspace.basis
            resid = batch - (batch @ bb) @ bb.T
            keep &= np.linalg.norm(resid, axis=1) <= e.width + ACCEPT_TOL
        accepted.extend(batch[keep])

    complete = len(accepted) >= n_samples
    if not complete:
        warnings.warn(
            f"collected {len(accepted)} of {n_samples} samples after {n_draws} draws",
            PartialSampleWarning,
            stacklevel=2,
        )
    if not accepted:
        raise EmptySliceError(
            f"no draw out of {n_draws} satisfied all {prior.n_factors} prior factors"
        )
    return MultiSliceResult(
        samples=SnapshotSet(np.vstack(accepted)),
        n_draws=n_draws,
        n_accepted=len(accepted),
        complete=complete,
    )


def sample_posterior(
    manifold_samples: SnapshotSet,
    w_subspace: Subspace,
    prior: PriorManifold | DegenerateEllipsoid,
    per_point: int,
    pi_dist: PiDistribution | None = None,
    d_box: float = DEFAULT_D_BOX,
    seed: int = 0,
    j_star: int | None = None,
    max_draws_per_point: int | None = None,
) -> SnapshotSet:
    """Posterior cloud: observe every manifold point and sample its slice.

    Point i uses the derived stream (seed, i), so the output is independent of
    iteration order and any one point can be re-drawn in isolation.  With a
    multi-factor prior the reference factor defaults to the last (tightest)
    one.
    """
    if isinstance(prior, DegenerateEllipsoid):
        prior = PriorManifold((prior,))
    if per_point < 1:
        raise ContractViolation(f"per_point must be >= 1, got {per_point}")
    multi = prior.n_factors > 1
    if j_star is None:
        j_star = prior.n_factors
    if not 1 <= j_star <= prior.n_factors:
        raise ContractViolation(f"j_star must be in [1, {prior.n_factors}], got {j_star}")
    ref = prior.ellipsoids[j_star - 1]
    bases = compute_suitable_bases(ref.subspace, w_subspace)

    chunks = []
    for i, h in enumerate(manifold_samples):
        obs = observe(h, w_subspace)
        gen = derived_rng(seed, i)
        if multi:
            res = sample_slice_multi(
                obs, prior, j_star, per_point, max_draws_per_point,
                pi_dist, d_box, gen, bases=bases,
            )
            chunks.append(res.samples.vectors)
        else:
            sl = build_slice(obs, ref, bases)
            chunks.append(sample_slice(sl, per_point, pi_dist, d_box, gen).vectors)
    return SnapshotSet(np.vstack(chunks))


def union_set_contains(
    h_prime,
    t_subspace: Subspace,
    eps: float,
    prior: DegenerateEllipsoid,
    bases: SuitableBases,
    tol: float = 1e-9,
) -> bool:
    """Membership in the union of all slices over observations from the tube
    ``{dist(., T) <= eps}``.

    That union is (T ⊕ span{v*_{q+1..n}}) ⊕ E where elements of E satisfy two
    budget constraints.  Expanding ``h'`` on the global ONB, the free component
    along T leaves the first budget untouched and enters the second as a least
    squares problem, which is solved exactly:

        sum_{j>q} a_j^2 + sum b_j^2 + sum c_j^2  <=  eps'^2 + tol
        min_{t in T} sum_{j<=q} (A_j - sigma_j t_j)^2 + sum_{j>q} a_j^2  <=  eps^2 + tol

    with ``b_j = sqrt(1 - sigma_j^2) A_j - sigma_j B_j`` read off the w* and wt
    coefficients of ``h'``.  ``tol`` is added to the squared budgets.
    """
    if eps < 0:
        raise ContractViolation(f"eps must be >= 0, got {eps}")
    v = as_vector(h_prime, bases.ambient_dim)
    # T must sit inside the prior subspace.
    t_resid = t_subspace.basis - bases.v_subspace.basis @ (
        bases.v_subspace.basis.T @ t_subspace.basis
    )
    if t_subspace.dim and np.linalg.norm(t_resid) > 1e-8 * (1 + t_subspace.dim):
        raise ContractViolation("T is not contained in the prior subspace")

    m, q, p = bases.m, bases.q, bases.p
    a_coeffs = bases.w_star.T @ v                             # A_j, j = 1..m
    b_wt = bases.w_tilde.T @ v                                # B_j, j = p+1..q
    tail = bases.v_star_tail.T @ v                            # D_j (unconstrained)
    c_sq = float(v @ v - a_coeffs @ a_coeffs - b_wt @ b_wt - tail @ tail)
    c_sq = max(c_sq, 0.0)

    sigma_q = np.ones(q)
    sigma_q[p:q] = bases.sigma[p:q]
    b_free = np.sqrt(1.0 - sigma_q[p:q] ** 2) * a_coeffs[p:q] - sigma_q[p:q] * b_wt
    budget_prior = float(np.sum(a_coeffs[q:] ** 2) + np.sum(b_free**2) + c_sq)
    if budget_prior > prior.width**2 + tol:
        return False

    # Minimize the intrinsic budget over the free component in T.
    head = a_coeffs[:q]
    if t_subspace.dim:
        theta = bases.v_star.T @ t_subspace.basis             # T's coefficients on v*
        design = sigma_q[:, None] * theta[:q, :]
        coef, *_ = np.linalg.lstsq(design, head, rcond=None)
        head_resid_sq = float(np.sum((head - design @ coef) ** 2))
    else:
        head_resid_sq = float(head @ head)
    budget_intrinsic = head_resid_sq + float(np.sum(a_coeffs[q:] ** 2))
    return budget_intrinsic <= eps**2 + tol
