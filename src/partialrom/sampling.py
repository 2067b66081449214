"""Posterior slices and samplers.

Observing ``obs_i = <w_i, h>`` pins the component of ``h`` inside W.  Within a
single-ellipsoid prior ``{dist(., V) <= eps'}`` the set of states consistent
with the observation is an affine slice

    center  c = sum_{j<=q} <w*_j, h> sigma_j^{-1} v*_j  +  sum_{j>q} <w*_j, h> w*_j

plus a bounded deviation set: coefficients b on the amplified interaction
directions ``sigma_j^{-1} wt_j``, free coefficients d on the unobserved prior
directions ``v*_{q+1..n}``, and a component z in W⊥ ∩ V⊥, constrained by

    sum b_j^2 + ||z||^2  <=  budget = eps'^2 - sum_{j>q} <w*_j, h>^2.

Each draw takes one standard Gaussian N-vector and one row of uniforms, and
``_add_deviations`` turns a round's Gaussians, held on their (points, draws,
N) shape, into the draws in place (centers plus deviations); the draw law is
stated there.  A prior of one or more ellipsoids is sampled by rejection:
draws come from a reference factor's slice, and those outside any other factor
are dropped (a single tube has no other factor, so every draw is kept).  Each
block of points draws its first round straight into its rows of the output
cloud, so a single tube's cloud is built where it is returned, with no batch,
gather or scatter copy of it.  The factors of a nested prior are tested
together, off one coordinate product on the widest tested basis and one exact
residual (``geometry.prefix_distances_sq``); any other factor by its own
residual.  One rejection loop does all sampling: ``sample_posterior`` runs it
over a cloud of manifold points, and ``sample_slice`` and
``sample_slice_multi`` are its one-point calls.  Point i draws from the
derived stream (seed, i) alone, through one Philox generator keyed per point
(``rng.Streams``), and every product, observation to deviation, is taken per
point (stacked ``np.matmul``), so its draws are bitwise those of a one-point
call; point estimates take the same path.
"""

from __future__ import annotations

import numbers
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
    gram_schmidt_residual,
    lies_in,
    prefix_distances_sq,
)
from .rng import Streams, as_rng

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
    """Rescale each row (last axis) of ``x`` in place from squared norm
    ``sq_norms`` to ``targets_sq``; a zero row stays zero."""
    ratio = np.divide(targets_sq, sq_norms, out=np.zeros_like(sq_norms), where=sq_norms > 0)
    x *= np.sqrt(ratio)[..., None]
    return x


def _add_deviations(
    draws: np.ndarray,
    centers: np.ndarray,
    unif: np.ndarray,
    budgets: np.ndarray,
    bases: SuitableBases,
    pi_dist: PiDistribution,
    d_box: float,
) -> None:
    """Turn ``draws`` (points, draws, N), which holds each draw's standard
    Gaussian N-vector, into the draws themselves, in place: each point's slice
    center (``centers``, points x 1 x N) plus the draw's deviation from it.

    The law of a slice draw.  Each draw takes one standard Gaussian N-vector g
    (its row of ``draws`` on entry) and one uniform row [mixture coin u_0 |
    budget fraction u_1 | tail (n - q)] (``unif``).  g's wt coordinates give
    the direction of b and its projection onto W⊥ ∩ V⊥ that of z, both read off
    g in the ambient space, so a rotation of the bases inside a cluster of
    equal sigma moves no draw.  The two parts are independent, and a standard
    Gaussian's norm is independent of its direction, so their squared norms
    are the chi-square sums pi needs (:meth:`PiDistribution.from_norms`).  Of
    gamma = u_1 * budget (``budgets``, one per point), gamma * pi^2 of squared
    norm goes on b and gamma * (1 - pi^2) on z, and d_j ~ U[-d_box, d_box] on
    the unobserved prior directions v*_{q+1..n}.  So every draw reproduces the
    observation exactly and stays within the slice's width.

    g is overwritten by z, and the draw is z + (center + fixed), where
    ``fixed`` is the b and d part on [wt | v*_{q+1..n}].  IEEE addition
    commutes, so this is bitwise (center + fixed) + z, the draw as added onto
    its center.  Every product is a stacked ``np.matmul``, one per point, so a
    point's draws round as they would alone.  ``unif`` is overwritten.
    """
    b, g = bases, draws
    comp = b.complement_onb
    coeffs = g @ comp                       # g on [w* | wt | v*_{q+1..n}]
    if b.r:
        g -= coeffs @ comp.T
    else:
        g.fill(0.0)                         # W⊥ ∩ V⊥ = {0}: no z, not rounding noise
    dirs = coeffs[..., b.m : b.m + b.q - b.p]
    head, tail = np.sum(dirs * dirs, axis=-1), np.sum(g * g, axis=-1)
    pi = pi_dist.from_norms(head, tail, unif[..., 0])
    gamma = unif[..., 1] * budgets[:, None]
    # -b_j / sigma_j along wt_j, d_j along v*_j (j > q)
    _rows_with_norms(dirs, head, gamma * pi**2)
    dirs /= -b.sigma[b.p : b.q]
    coeffs[..., b.m + b.q - b.p :] = d_box * (2.0 * unif[..., 2:] - 1.0)
    fixed = coeffs[..., b.m :] @ comp[:, b.m :].T
    fixed += centers
    _rows_with_norms(g, tail, gamma * (1.0 - pi**2))
    g += fixed


def sample_slice(
    slice_: EllipsoidSlice,
    n_samples: int,
    pi_dist: PiDistribution | None = None,
    d_box: float = DEFAULT_D_BOX,
    rng: int | np.random.Generator = 0,
) -> SnapshotSet:
    """Draw ``n_samples`` points of the slice.

    The stream gives one Gaussian block (a standard Gaussian N-vector per
    sample), then one uniform block (mixture coin, budget fraction, n - q tail
    coordinates) for all samples; :func:`_add_deviations` states the law that
    turns them into draws.  Every output reproduces the observation exactly
    and stays within the prior width.  This is the one-point call of the
    rejection loop of :func:`sample_posterior` on the slice's own tube, which
    keeps every draw.
    """
    b = slice_.bases
    samples, _, _ = _rejection_sample(
        slice_.w_star_coeffs[None, :], PriorManifold.single(b.v_subspace, slice_.width), 1,
        n_samples, None, pi_dist, d_box, Streams(as_rng(rng)), b, name_points=False,
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
    for name, value in (("n_samples", n_samples), ("max_draws", max_draws)):
        integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
        if value is not None and not integral:
            raise ContractViolation(f"{name} must be an integer, got {value!r}")
    if n_samples < 1:
        raise ContractViolation(f"n_samples must be >= 1, got {n_samples}")
    if max_draws is None:
        return 100 * n_samples
    if max_draws < n_samples:
        raise ContractViolation(f"max_draws = {max_draws} is below n_samples = {n_samples}")
    return max_draws


def d_box_limit(n: int) -> float:
    """sqrt(float max / (4 n)), the largest ``d_box`` for a prior of dimension
    ``n``.  A posterior draw is a slice point plus up to n coordinates of size
    d_box: n d_box^2 <= float max / 4 keeps its squared norm finite while the
    slice point's stays below a quarter of float max."""
    return float(np.sqrt(np.finfo(float).max / (4 * n)))


def _within_tubes(factors: list[DegenerateEllipsoid]):
    """The acceptance test of the rejection loop: a function of draws
    (points, chunk, N) that is True where a draw lies within every one of
    ``factors``, up to its width plus ``TUBE_SLACK``.

    The factors whose basis is bitwise a leading column block of the widest
    one's (every factor of :func:`~partialrom.worlds.nested_prior`) share one
    :func:`prefix_distances_sq` pass on that basis; any other factor takes its
    own :func:`distances`.
    """
    widest = max((e.subspace.basis for e in factors), key=lambda b: b.shape[1], default=None)
    nested, rest = [], []
    for e in factors:
        is_prefix = np.array_equal(e.subspace.basis, widest[:, : e.subspace.dim])
        (nested if is_prefix else rest).append(e)
    dims = [e.subspace.dim for e in nested]
    limits = np.array([e.width + TUBE_SLACK for e in nested])

    def inside(batch: np.ndarray) -> np.ndarray:
        ok = np.ones(batch.shape[:-1], dtype=bool)
        if dims:
            ok &= (np.sqrt(prefix_distances_sq(batch, widest)[..., dims]) <= limits).all(axis=-1)
        for e in rest:
            ok &= distances(batch, e.subspace.basis) <= e.width + TUBE_SLACK
        return ok

    return inside


def _rejection_sample(
    a_star: np.ndarray,
    prior: PriorManifold,
    j_star: int,
    n_samples: int,
    max_draws: int | None,
    pi_dist: PiDistribution | None,
    d_box: float,
    streams: Streams,
    bases: SuitableBases,
    name_points: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rejection-sample the posterior of every row of w*-coefficients
    ``a_star`` (one row per manifold point) under ``prior``.

    ``n_samples``, ``max_draws`` (see :func:`_draw_limit`) and ``d_box`` (in
    [0, :func:`d_box_limit`]) are checked before any slice is looked at.  Point
    i draws from ``streams.open(i)`` in the reference factor ``j_star``'s slice:
    ``n_samples`` first, then what it still lacks, until it holds
    ``n_samples`` or has drawn ``max_draws``; with other factors, each point's
    stream is held after every draw for its next round.  A draw is kept iff it
    lies within every other factor's width plus ``TUBE_SLACK``
    (:func:`_within_tubes`), so a single tube keeps its first round whole.
    Points go in blocks of ``_BLOCK_POINTS``; in each round the points of a
    block that draw the same number are drawn together: each writes its
    Gaussians from its stream into its rows of a (points, draws, N) array and
    its uniforms into a (points, draws, 2 + n - q) one, and
    :func:`_add_deviations` turns them into draws in place, one product per
    point.  In a block's first round, where every point draws ``n_samples``,
    that array is the points' own rows of the output; later rounds fill a
    buffer.  Each point's kept rows are copied after the rows it already
    holds, unless a first round keeps every draw, so each point's draws are
    bitwise those of a one-point call and a single tube's are never copied.

    Returns the kept draws (point by point, in draw order) and each point's
    kept and drawn counts.  Points left short raise one
    :class:`PartialSampleWarning` at the caller's caller.  The first point
    whose slice is empty or that kept no draw raises :class:`EmptySliceError`,
    naming the point if ``name_points``.
    """
    max_draws = _draw_limit(n_samples, max_draws)
    limit = d_box_limit(bases.n)
    if not 0 <= d_box <= limit:
        raise ContractViolation(
            f"d_box must be >= 0 and at most d_box_limit({bases.n}) = {limit:.6g}, got {d_box}"
        )
    pi_dist = pi_dist or PiDistribution.uniform_beta()
    ref = prior.factor(j_star)
    others = [e for i, e in enumerate(prior.ellipsoids) if i != j_star - 1]
    inside = _within_tubes(others)
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
                # The block's first round, every point drawing n_samples, is
                # drawn in place in the points' rows of the output.
                in_place = not drawn[pts[0]]
                if in_place:
                    draws = out[start : start + pts.size]
                else:
                    draws = np.empty((pts.size, chunk, ambient))
                unif = np.empty((pts.size, chunk, 2 + bases.n - bases.q))
                for k, i in enumerate(pts):
                    gen = streams.open(i)
                    gen.standard_normal(out=draws[k])
                    gen.random(out=unif[k])
                    if others:  # the point may draw again
                        streams.hold(i)
                _add_deviations(
                    draws, centers[pts - start], unif, budgets[pts], bases, pi_dist, d_box
                )
                ok = inside(draws)
                hits = ok.sum(axis=1)
                if not (in_place and ok.all()):
                    # Each point's kept rows, in draw order, go after those it
                    # holds; draws[ok] is gathered before the scatter.
                    slots = kept[pts, None] + np.cumsum(ok, axis=1) - 1
                    out[np.repeat(pts, hits), slots[ok]] = draws[ok]
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
        message = (
            f"no draw out of {drawn[fail]} satisfied all {prior.n_factors} prior factors"
            if drawn[fail]
            else f"slice has negative squared budget {budgets[fail]:.3e}; "
            "the observation is inconsistent with the prior"
        )
        raise EmptySliceError(f"manifold point {fail}: {message}" if name_points else message)
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
        pi_dist, d_box, Streams(as_rng(rng)), bases, name_points=False,
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
    The streams share one Philox generator, keyed per point from
    :func:`~partialrom.rng.point_keys`; ``seed`` (a non-negative integer) is
    checked before anything else.

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
    streams = Streams.per_point(seed, len(manifold_samples))
    if isinstance(prior, DegenerateEllipsoid):
        prior = PriorManifold((prior,))
    if j_star is None:
        j_star = prior.n_factors
    bases = compute_suitable_bases(prior.factor(j_star).subspace, w_subspace)
    a_star = bases.w_star_coefficients(observe_cloud(manifold_samples, w_subspace))
    samples, _, _ = _rejection_sample(
        a_star, prior, j_star, per_point, max_draws_per_point,
        pi_dist, d_box, streams, bases, name_points=True,
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
    if not 0 <= eps < np.inf:
        raise ContractViolation(f"eps must be >= 0 and finite, got {eps}")
    v = as_vector(h_prime, bases.ambient_dim)
    if not lies_in(t_subspace, bases.v_subspace):
        raise ContractViolation("T is not contained in the prior subspace")

    m, q, p = bases.m, bases.q, bases.p
    coeffs = bases.complement_onb.T @ v
    a_coeffs = coeffs[:m]                                     # A_j, j = 1..m
    b_wt = coeffs[m : m + q - p]                              # B_j, j = p+1..q
    # The W⊥ ∩ V⊥ part as a residual, not as ||v||^2 minus the coefficients'
    # squares, which a large component along T would swamp.
    c = gram_schmidt_residual(bases.complement_onb, v)
    c_sq = float(c @ c)

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
