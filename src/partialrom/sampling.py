"""Posterior slices and samplers.

Observing ``obs_i = <w_i, h>`` pins the component of ``h`` inside W.  Within a
single-ellipsoid prior ``{dist(., V) <= eps'}`` the set of states consistent
with the observation is an affine slice

    center  c = sum_{j<=q} <w*_j, h> sigma_j^{-1} v*_j  +  sum_{j>q} <w*_j, h> w*_j

plus a bounded deviation set: coefficients b on the amplified interaction
directions ``sigma_j^{-1} wt_j``, free coefficients d on the unobserved prior
directions ``v*_{q+1..n}``, and a component z in W⊥ ∩ V⊥, constrained by

    sum b_j^2 + ||z||^2  <=  budget = eps'^2 - sum_{j>q} <w*_j, h>^2.

``sample_slice`` draws from one slice.  Each draw takes one standard Gaussian
N-vector, whose wt coordinates and W⊥ ∩ V⊥ part give b and z (so no basis
choice inside a cluster of equal sigma matters, and pi comes from their squared
norms), and one row of uniforms.  A prior of one or more ellipsoids is
sampled by rejection: draws come from a reference factor's slice, and those
outside any other factor are dropped (a single tube has no other factor, so
every draw is kept).  One rejection loop does all sampling:
``sample_posterior`` runs it over a cloud of manifold points, and
``sample_slice`` and ``sample_slice_multi`` are its one-point calls.  Point i
draws from the derived stream (seed, i) alone, and every product, observation
to deviation, is taken per point (stacked ``np.matmul``), so its draws are
bitwise those of a one-point call; point estimates take the same path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bases import SuitableBases, compute_suitable_bases
from .errors import ContractViolation, EmptySliceError, PartialSampleWarning
from .geometry import (
    TUBE_SLACK,
    DegenerateEllipsoid,
    PriorManifold,
    SnapshotSet,
    Subspace,
    as_vector,
    distances,
    lies_in,
)
from .rng import as_rng, derived_rng

#: Half-width of the uniform box for the unobserved prior coefficients d_j.
DEFAULT_D_BOX = 10.0

#: A deviation budget below 0 by at most (BUDGET_ULPS * m * eps_machine *
#: ||a*||)^2 is rounding, not an inconsistent observation (a zero-width prior
#: and a state in V leave sum_{j>q} a*_j^2 at that level), and counts as 0.
BUDGET_ULPS = 4.0

#: Share of ``mixture`` draws of pi pushed toward 1, and the factor their
#: interaction chi-square sum is scaled by.
MIXTURE_WEIGHT = 0.9
MIXTURE_SCALE = 1e4

#: Manifold points the rejection loop handles at once; bounds its temporaries.
_BLOCK_POINTS = 32


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
    """Observation values for every snapshot, one row per snapshot, each its
    own product: row i is bitwise ``observe(cloud[i], w_subspace).values``."""
    if cloud.ambient_dim != w_subspace.ambient_dim:
        raise ContractViolation("cloud and W live in different ambient dimensions")
    return np.matmul(w_subspace.basis.T, cloud.vectors[:, :, None])[:, :, 0]


@dataclass(frozen=True)
class PiDistribution:
    """Distribution of the split parameter pi in [0, 1].

    pi apportions the deviation budget between the amplified interaction
    directions (share pi^2) and the unconstrained block W⊥ ∩ V⊥ (share
    1 - pi^2).  ``uniform-beta`` uses a ratio of chi-square sums matched to the
    block dimensions, Beta((q - p) / 2, r / 2); ``mixture`` additionally pushes
    most of the mass toward pi = 1 so that samples exercise the amplified
    directions hard.  The sums are the squared norms of the Gaussian rows the
    sampler draws anyway (:meth:`from_norms`), so pi costs no random numbers
    beyond ``mixture``'s coin.
    """

    kind: str = "uniform-beta"

    def __post_init__(self):
        if self.kind not in ("uniform-beta", "mixture"):
            raise ContractViolation(f"unknown pi distribution kind: {self.kind!r}")

    @classmethod
    def uniform_beta(cls) -> "PiDistribution":
        return cls(kind="uniform-beta")

    @classmethod
    def mixture(cls) -> "PiDistribution":
        return cls(kind="mixture")

    @classmethod
    def from_name(cls, name: str) -> "PiDistribution":
        name = name.strip().lower()
        if name in ("uniform", "uniform-beta"):
            return cls.uniform_beta()
        if name == "mixture":
            return cls.mixture()
        raise ContractViolation(f"unknown pi distribution name: {name!r}")

    def from_norms(self, head: np.ndarray, tail: np.ndarray, coin: np.ndarray) -> np.ndarray:
        """pi for rows of squared Gaussian norms: ``head`` ~ chi^2(q - p) of
        the interaction block, ``tail`` ~ chi^2(r) of W⊥ ∩ V⊥, and a uniform
        ``coin`` per row (``mixture`` scales the head where coin <
        ``MIXTURE_WEIGHT``).  pi = head / (head + tail), 0 where both are 0.
        """
        if self.kind == "mixture":
            head = np.where(coin < MIXTURE_WEIGHT, MIXTURE_SCALE * head, head)
        total = head + tail
        return np.divide(head, total, out=np.zeros_like(total), where=total > 0)


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


def _deviation_budgets(a_star: np.ndarray, width: float, bases: SuitableBases) -> np.ndarray:
    """Squared deviation budgets ``width^2 - sum_{j>q} a*_j^2`` for rows of
    w*-coefficients, (count, m) -> (count,).

    A budget negative only at rounding level (see ``BUDGET_ULPS``) is clamped
    to 0; one below that marks an empty slice.
    """
    budgets = width**2 - np.sum(a_star[:, bases.q:] ** 2, axis=1)
    floor = -((BUDGET_ULPS * bases.m * np.finfo(float).eps) ** 2) * np.sum(a_star**2, axis=1)
    budgets[(budgets < 0.0) & (budgets >= floor)] = 0.0
    return budgets


def _check_bases(bases: SuitableBases, prior: DegenerateEllipsoid, w: Subspace | None = None) -> None:
    """Reject ``bases`` not computed from ``prior``'s subspace and from ``w``, if given."""
    pairs = (("prior", bases.v_subspace, prior.subspace), ("observation", bases.w_subspace, w))
    for name, own, given in pairs:
        if given is not None and own is not given and not np.array_equal(own.basis, given.basis):
            raise ContractViolation(f"bases were not computed from the {name} subspace")


def _slice_error(message: str, point: int | None = None) -> EmptySliceError:
    """An :class:`EmptySliceError` that names manifold point ``point``, if given."""
    return EmptySliceError(message if point is None else f"manifold point {point}: {message}")


def _negative_budget(budget: float) -> str:
    return (
        f"slice has negative squared budget {budget:.3e}; "
        "the observation is inconsistent with the prior"
    )


def build_slice(obs: Observation, prior: DegenerateEllipsoid, bases: SuitableBases) -> EllipsoidSlice:
    """Characterize the slice of ``prior`` cut out by ``obs``.

    ``bases`` must come from (prior.subspace, W) for the same W the observation
    was taken in.  A negative deviation budget marks an empty slice (the
    observed component outside V already exceeds the prior width); the slice is
    still returned so callers can inspect it, but sampling it raises.  The
    budget is that of :func:`_deviation_budgets`.
    """
    _check_bases(bases, prior)
    a_star = bases.w_star_coefficients(obs.values)
    return EllipsoidSlice(
        center=bases.slice_centers(a_star[None, :])[0],
        bases=bases,
        w_star_coeffs=a_star,
        radius_sq_budget=float(_deviation_budgets(a_star[None, :], prior.width, bases)[0]),
        width=prior.width,
    )


def _rows_with_norms(x: np.ndarray, sq_norms: np.ndarray, targets_sq: np.ndarray) -> np.ndarray:
    """Rescale each row of ``x`` in place from squared norm ``sq_norms`` to
    ``targets_sq``; a zero row stays zero."""
    ratio = np.divide(targets_sq, sq_norms, out=np.zeros_like(sq_norms), where=sq_norms > 0)
    x *= np.sqrt(ratio)[:, None]
    return x


def _times(x: np.ndarray, mat: np.ndarray, stacks: int) -> np.ndarray:
    """``x @ mat`` for rows ``x`` that form ``stacks`` equal stacks, one
    product per stack.  A stack's rows round as they would alone; one GEMM
    over rows of several stacks may round them differently (``x`` may have no
    columns, so the row count is explicit)."""
    rows = x.shape[0]
    return (x.reshape(stacks, rows // stacks, x.shape[1]) @ mat).reshape(rows, -1)


class _SliceDraws:
    """The random blocks of ``count`` slice draws, one row per draw.

    Each row holds one standard Gaussian N-vector g and one uniform block
    [mixture coin | budget fraction | tail (n - q)].  :meth:`fill` draws a
    range of rows from one slice's stream, one generator call per block;
    :meth:`add_to` turns every row into a deviation from its slice center in
    one pass over all rows.  g's wt coordinates give b and its projection onto
    W⊥ ∩ V⊥ gives z, both read off g in the ambient space, so a rotation of
    the bases inside a cluster of equal sigma moves no draw.  The two parts
    are independent, and a standard Gaussian's norm is independent of its
    direction: their squared norms are the chi-square sums pi needs.
    """

    def __init__(self, bases: SuitableBases, count: int, pi_dist: PiDistribution | None, d_box: float):
        self.bases = bases
        self.pi_dist = pi_dist or PiDistribution.uniform_beta()
        self.d_box = d_box
        self.gauss = np.empty((count, bases.ambient_dim))
        self.unif = np.empty((count, 2 + bases.n - bases.q))

    def fill(self, rows: slice, gen: np.random.Generator) -> None:
        """Draw one slice's blocks into ``rows``: the Gaussian block, then the
        uniform block."""
        gen.standard_normal(out=self.gauss[rows])
        gen.random(out=self.unif[rows])

    def add_to(self, out: np.ndarray, budgets: np.ndarray, stacks: int) -> np.ndarray:
        """Add every row's deviation to ``out`` (the rows' slice centers) in
        place, with ``budgets`` the rows' squared deviation budgets; the blocks
        are overwritten on the way.  The rows are ``stacks`` equal stacks, one
        per point, and every product is taken per stack (see :func:`_times`)."""
        b, g = self.bases, self.gauss
        comp = b.complement_onb
        coeffs = _times(g, comp, stacks)        # g on [w* | wt | v*_{q+1..n}]
        if b.r:
            g -= _times(coeffs, comp.T, stacks)
        else:
            g.fill(0.0)                         # W⊥ ∩ V⊥ = {0}: no z, not rounding noise
        dirs = coeffs[:, b.m : b.m + b.q - b.p]
        head, tail = np.sum(dirs * dirs, axis=1), np.sum(g * g, axis=1)
        pi = self.pi_dist.from_norms(head, tail, self.unif[:, 0])
        gamma = self.unif[:, 1] * budgets
        # -b_j / sigma_j along wt_j, d_j along v*_j (j > q)
        _rows_with_norms(dirs, head, gamma * pi**2)
        dirs /= -b.sigma[b.p : b.q]
        coeffs[:, b.m + b.q - b.p :] = self.d_box * (2.0 * self.unif[:, 2:] - 1.0)
        out += _times(coeffs[:, b.m :], comp[:, b.m :].T, stacks)
        out += _rows_with_norms(g, tail, gamma * (1.0 - pi**2))
        return out


def sample_slice(
    slice_: EllipsoidSlice,
    n_samples: int,
    pi_dist: PiDistribution | None = None,
    d_box: float = DEFAULT_D_BOX,
    rng: int | np.random.Generator = 0,
) -> SnapshotSet:
    """Draw ``n_samples`` points of the slice.

    The stream gives one Gaussian block (a standard Gaussian N-vector g per
    sample) and one uniform block (mixture coin, budget fraction, n - q tail
    coordinates) for all samples.  A budget fraction gamma ~ U[0, budget] is
    split by pi (see :meth:`PiDistribution.from_norms`, fed the squared norms
    of g's two parts below): gamma * pi^2 of squared norm goes on b (g's wt
    coordinates, normalized: a uniform direction), gamma * (1 - pi^2) on
    z ∈ W⊥ ∩ V⊥ (g projected off the complement blocks, then normalized), and
    d_j ~ U[-d_box, d_box] on the unobserved prior directions.  Every output
    reproduces the observation exactly and stays within the prior width.  This is the one-point call of
    the rejection loop of :func:`sample_posterior` on the slice's own tube,
    which keeps every draw.
    """
    b = slice_.bases
    samples, _, _ = _rejection_sample(
        slice_.w_star_coeffs[None, :], PriorManifold.single(b.v_subspace, slice_.width), 1,
        n_samples, None, pi_dist, d_box, [as_rng(rng)], b, name_points=False,
    )
    return SnapshotSet(samples)


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


def _draw_limit(n_samples: int, max_draws: int | None) -> int:
    """The draw budget for ``n_samples`` accepted samples (default ``100 * n_samples``)."""
    if n_samples < 1:
        raise ContractViolation(f"n_samples must be >= 1, got {n_samples}")
    if max_draws is None:
        return 100 * n_samples
    if max_draws < n_samples:
        raise ContractViolation(f"max_draws = {max_draws} is below n_samples = {n_samples}")
    return max_draws


def _rejection_sample(
    a_star: np.ndarray,
    prior: PriorManifold,
    j_star: int,
    n_samples: int,
    max_draws: int | None,
    pi_dist: PiDistribution | None,
    d_box: float,
    rngs: list[np.random.Generator],
    bases: SuitableBases,
    name_points: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rejection-sample the posterior of every row of w*-coefficients
    ``a_star`` (one row per manifold point) under ``prior``.

    ``n_samples``, ``max_draws`` (see :func:`_draw_limit`) and ``d_box``
    (finite, >= 0) are checked before any slice is looked at.  Point i draws
    from ``rngs[i]`` in the reference factor ``j_star``'s slice: ``n_samples``
    first, then what it still lacks, until it holds ``n_samples`` or has drawn
    ``max_draws``.  A draw is kept iff it lies within every other factor's
    width plus ``TUBE_SLACK``, so a single tube keeps its first round whole.
    Points go in blocks of ``_BLOCK_POINTS``; in each round the points of a
    block that draw the same number are drawn together into a scratch array,
    with every product taken per point, and each point's kept rows are copied
    after the rows it already holds, so each point's draws are bitwise those
    of a one-point call.

    Returns the kept draws (point by point, in draw order) and each point's
    kept and drawn counts.  Points left short raise one
    :class:`PartialSampleWarning` at the caller's caller.  The first point
    whose slice is empty or that kept no draw raises :class:`EmptySliceError`,
    naming the point if ``name_points``.
    """
    max_draws = _draw_limit(n_samples, max_draws)
    if not 0 <= d_box < np.inf:
        raise ContractViolation(f"d_box must be >= 0 and finite, got {d_box}")
    ref = prior.factor(j_star)
    others = [e for i, e in enumerate(prior.ellipsoids) if i != j_star - 1]
    n_points, ambient = a_star.shape[0], bases.ambient_dim
    budgets = _deviation_budgets(a_star, ref.width, bases)
    empty = np.flatnonzero(budgets < 0.0)
    n_live = int(empty[0]) if empty.size else n_points
    out = np.empty((n_points, n_samples, ambient))
    kept = np.zeros(n_points, dtype=int)
    drawn = np.zeros(n_points, dtype=int)
    for start in range(0, n_live, _BLOCK_POINTS):
        block = np.arange(start, min(start + _BLOCK_POINTS, n_live))
        centers = bases.slice_centers(a_star[block, None, :])
        while (short := block[(kept[block] < n_samples) & (drawn[block] < max_draws)]).size:
            chunks = np.minimum(n_samples - kept[short], max_draws - drawn[short])
            for chunk in sorted(set(chunks.tolist())):
                pts = short[chunks == chunk]
                draws = _SliceDraws(bases, pts.size * chunk, pi_dist, d_box)
                for k, i in enumerate(pts):
                    draws.fill(slice(k * chunk, (k + 1) * chunk), rngs[i])
                batch = np.empty((pts.size, chunk, ambient))
                batch[:] = centers[pts - start]
                draws.add_to(batch.reshape(-1, ambient), np.repeat(budgets[pts], chunk), pts.size)
                ok = np.ones((pts.size, chunk), dtype=bool)
                for e in others:
                    ok &= distances(batch, e.subspace.basis) <= e.width + TUBE_SLACK
                # Each point's kept rows, in draw order, go after those it holds.
                hits = ok.sum(axis=1)
                slots = kept[pts, None] + np.cumsum(ok, axis=1) - 1
                out[np.repeat(pts, hits), slots[ok]] = batch[ok]
                kept[pts] += hits
                drawn[pts] += chunk
        if not kept[block].all():
            break

    out = out.reshape(-1, ambient)
    if kept.min() == n_samples:
        return out, kept, drawn
    none_kept = np.flatnonzero((drawn > 0) & (kept == 0))
    fail = int(none_kept[0]) if none_kept.size else int(empty[0]) if empty.size else n_points
    short = np.flatnonzero((drawn[: fail + 1] > 0) & (kept[: fail + 1] < n_samples))
    if short.size:
        i = int(short[0])
        message = f"collected {kept[i]} of {n_samples} samples after {drawn[i]} draws"
        if name_points:
            message = (
                f"{short.size} of {n_points} manifold points came up short; point {i} {message}"
            )
        warnings.warn(message, PartialSampleWarning, stacklevel=3)
    if fail < n_points:
        point = fail if name_points else None
        if not drawn[fail]:
            raise _slice_error(_negative_budget(budgets[fail]), point)
        raise _slice_error(
            f"no draw out of {drawn[fail]} satisfied all {prior.n_factors} prior factors", point
        )
    return out[(np.arange(n_samples) < kept[:, None]).ravel()], kept, drawn


def sample_slice_multi(
    obs: Observation,
    prior: PriorManifold,
    j_star: int,
    n_samples: int,
    max_draws: int | None = None,
    pi_dist: PiDistribution | None = None,
    d_box: float = DEFAULT_D_BOX,
    rng: int | np.random.Generator = 0,
    *,
    bases: SuitableBases,
) -> MultiSliceResult:
    """Sample the posterior of a prior of one or more ellipsoids by rejection.

    Draws come from the slice of the reference factor ``j_star`` (1-based); a
    draw is accepted iff it lies within every other factor's width.  ``bases``
    must be the suitable bases of (factor j_star's subspace, W).  ``max_draws``
    (default ``100 * n_samples``) may not be below ``n_samples``.  If it is
    exhausted first, a :class:`PartialSampleWarning` is emitted and the partial
    result returned with ``complete=False``.  This is the one-slice case of
    the rejection loop :func:`sample_posterior` runs over a cloud.
    """
    _check_bases(bases, prior.factor(j_star))
    samples, kept, drawn = _rejection_sample(
        bases.w_star_coefficients(obs.values)[None, :], prior, j_star, n_samples, max_draws,
        pi_dist, d_box, [as_rng(rng)], bases, name_points=False,
    )
    return MultiSliceResult(
        samples=SnapshotSet(samples),
        n_draws=int(drawn[0]),
        n_accepted=int(kept[0]),
        complete=bool(kept[0] >= n_samples),
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

    Point i draws from the derived stream (seed, i) alone, so its random
    numbers do not depend on the other points or on the iteration order.

    One rejection loop runs over all points, in blocks, whatever the number of
    tubes (the reference factor defaults to the last, tightest one; a single
    tube rejects nothing).  Each point draws the chunks
    :func:`sample_slice_multi` would, and every product (observation,
    w*-coefficients, center, deviation blocks, each factor's residual) is a
    per-point product in a stacked ``np.matmul``, so point i's samples are
    bitwise those of ``sample_slice_multi`` on its observation with
    ``derived_rng(seed, i)``.  Points left short give one
    :class:`PartialSampleWarning` per call, and :class:`EmptySliceError` names
    the first point whose slice is empty or that kept no draw.
    """
    if isinstance(prior, DegenerateEllipsoid):
        prior = PriorManifold((prior,))
    if j_star is None:
        j_star = prior.n_factors
    bases = compute_suitable_bases(prior.factor(j_star).subspace, w_subspace)
    a_star = bases.w_star_coefficients(observe_cloud(manifold_samples, w_subspace))
    rngs = [derived_rng(seed, i) for i in range(len(manifold_samples))]
    samples, _, _ = _rejection_sample(
        a_star, prior, j_star, per_point, max_draws_per_point,
        pi_dist, d_box, rngs, bases, name_points=True,
    )
    return SnapshotSet(samples)


def union_set_contains(
    h_prime,
    t_subspace: Subspace,
    eps: float,
    prior: DegenerateEllipsoid,
    bases: SuitableBases,
) -> bool:
    """Membership in the union of all slices over observations from the tube
    ``{dist(., T) <= eps}``.

    That union is (T ⊕ span{v*_{q+1..n}}) ⊕ E where elements of E satisfy two
    budget constraints.  Expanding ``h'`` on the global ONB, the free component
    along T leaves the first budget untouched and enters the second as a least
    squares problem, which is solved exactly:

        sum_{j>q} a_j^2 + sum b_j^2 + sum c_j^2  <=  eps'^2 + TUBE_SLACK
        min_{t in T} sum_{j<=q} (A_j - sigma_j t_j)^2 + sum_{j>q} a_j^2  <=  eps^2 + TUBE_SLACK

    with ``b_j = sqrt(1 - sigma_j^2) A_j - sigma_j B_j`` read off the w* and wt
    coefficients of ``h'``; the tube slack is added to the squared budgets.
    """
    if eps < 0:
        raise ContractViolation(f"eps must be >= 0, got {eps}")
    v = as_vector(h_prime, bases.ambient_dim)
    if not lies_in(t_subspace, bases.v_subspace):
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
    if budget_prior > prior.width**2 + TUBE_SLACK:
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
    return budget_intrinsic <= eps**2 + TUBE_SLACK
