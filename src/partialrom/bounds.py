"""Kolmogorov-width bounds for the posterior set.

For a target manifold contained in both a degenerate ellipsoid around a
k-dimensional subspace T ⊆ V (intrinsic width eps) and the prior tube around V
(width eps'), the i-width of the posterior admits two simultaneous upper
bounds, indexed from ``k* = min(n, k + n - q)``:

    d_bar_i     = inf                       for i <  k*
                = (eps + eps') / sigma_{q - (i - k*)}   for k* <= i <= n - 1
                = eps'                      for i >= n

    d_bbar_i    = inf  for i < k + (N - m),     eps  otherwise.

Infinite values are explicit ``math.inf`` states: they arise only from the
branch structure, never from arithmetic (a sigma of zero maps straight to
inf), and they serialize as the literal token ``inf``.  ``proof_subspace``
realizes the subspace achieving the combined (pointwise-minimum) bound, and
``certificate_widths`` measures a sampled cloud against every one of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bases import SuitableBases
from .errors import ContractViolation
from .geometry import SnapshotSet, Subspace, direct_sum, lies_in, prefix_widths

INF = math.inf


def format_extended(value: float) -> str:
    """Serialize an extended real: shortest round-trip decimal, or ``inf``."""
    if math.isinf(value):
        return "inf"
    return repr(float(value))


def width_degenerate_ellipsoid(k: int, eps: float, i: int) -> float:
    """Exact i-width of a degenerate ellipsoid with k-dimensional core."""
    if k < 0 or i < 0:
        raise ContractViolation("k and i must be >= 0")
    if not 0 <= eps < np.inf:
        raise ContractViolation(f"eps must be >= 0 and finite, got {eps}")
    return INF if i < k else eps


@dataclass(frozen=True)
class BoundCurve:
    """The two bound sequences over i = 0..i_max and their pointwise minimum."""

    k_star: int
    d_bar: tuple[float, ...]
    d_bbar: tuple[float, ...]

    @property
    def i_max(self) -> int:
        return len(self.d_bar) - 1

    @property
    def combined(self) -> tuple[float, ...]:
        return tuple(min(a, b) for a, b in zip(self.d_bar, self.d_bbar))


def check_dimensions(k: int, n: int, m: int) -> None:
    """Reject a negative k or an n or m below 1."""
    if k < 0 or n < 1 or m < 1:
        raise ContractViolation("k must be >= 0 and m, n >= 1")


def posterior_width_bounds(
    k: int,
    n: int,
    ambient_dim: int,
    eps: float,
    eps_prime: float,
    sigma: np.ndarray,
    p: int,
    q: int,
    m: int,
    i_max: int | None = None,
) -> BoundCurve:
    """Evaluate both width-bound sequences for i = 0..i_max.

    ``sigma`` is the descending principal-cosine sequence of the (V, W) pair;
    only entries up to q are consulted.  Entries at or below index p are
    treated as exactly 1.
    """
    sigma = np.asarray(sigma, dtype=float)
    if not (0 <= p <= q <= min(m, n)):
        raise ContractViolation(f"need 0 <= p <= q <= min(m, n), got p={p}, q={q}, m={m}, n={n}")
    check_dimensions(k, n, m)
    if k > n or m + n - p > ambient_dim:
        raise ContractViolation(f"need k <= n, m + n - p <= N = {ambient_dim}: k={k}, n={n}, m={m}")
    if not (math.isfinite(eps) and math.isfinite(eps_prime)) or eps < 0 or eps_prime < 0:
        raise ContractViolation(f"widths must be finite and >= 0, got {eps}, {eps_prime}")
    if sigma.shape[0] < q:
        raise ContractViolation(f"sigma has {sigma.shape[0]} entries but q = {q}")
    if not np.all(np.isfinite(sigma[:q])):
        raise ContractViolation(f"sigma[:q] must be finite, got {sigma[:q]}")
    if i_max is None:
        i_max = ambient_dim
    if i_max < 0:
        raise ContractViolation(f"i_max must be >= 0, got {i_max}")
    k_star = min(n, k + n - q)

    d_bar = []
    for i in range(i_max + 1):
        if i < k_star:
            d_bar.append(INF)
        elif i >= n:
            d_bar.append(eps_prime)
        else:
            j = q - (i - k_star)  # 1-based index into the descending sigmas
            if j <= p:
                s = 1.0
            else:
                s = float(sigma[j - 1])
            d_bar.append((eps + eps_prime) / s if s > 0.0 else INF)

    i_floor = k + (ambient_dim - m)
    d_bbar = [INF if i < i_floor else eps for i in range(i_max + 1)]
    return BoundCurve(k_star=k_star, d_bar=tuple(d_bar), d_bbar=tuple(d_bbar))


def _certificates(t_subspace: Subspace, bases: SuitableBases, i_values) -> list:
    """For each certificate branch that ``i_values`` reach: its ordered orthonormal
    basis and the (i, prefix length) pairs it certifies (see :func:`proof_subspace`)."""
    n, q, k = bases.n, bases.q, t_subspace.dim
    k_star = min(n, k + n - q)
    v = bases.v_subspace.basis
    if not lies_in(t_subspace, bases.v_subspace):
        raise ContractViolation("T must lie in the prior subspace V")
    groups: dict[str, list[int]] = {}
    for i in i_values:
        if i >= k_star:
            floor = i >= k + bases.ambient_dim - bases.m
            groups.setdefault("floor" if floor else "prior" if i >= n else "middle", []).append(i)
    out = []
    for branch, indices in groups.items():
        slack = 0  # how far the prefix length stays below i
        if branch == "prior":
            basis = v
        elif branch == "floor":  # large orthonormal blocks go first: direct_sum loops over b
            w_perp = Subspace(np.hstack([bases.w_tilde, bases.v_star_tail, bases.u_basis]))
            basis = direct_sum(direct_sum(w_perp, t_subspace), Subspace(bases.v_star[:, :q])).basis
        else:
            head = direct_sum(Subspace(bases.v_star_tail), t_subspace)
            slack = k_star - head.dim
            wt = direct_sum(head, Subspace(bases.w_tilde[:, ::-1])).basis
            basis = np.hstack([wt, bases.u_basis])  # u is orthogonal to V and to every wt
        out.append((basis, [(i, min(i - slack, basis.shape[1])) for i in indices]))
    return out


def proof_subspace(i: int, t_subspace: Subspace, bases: SuitableBases) -> Subspace:
    """A subspace of dimension at most ``i`` certifying the combined bound.

    Each finite branch of the two bound sequences has its own subspace family,
    nested in ``i``; the certificate is a column prefix of the branch's basis:

    * ``k* <= i < n`` — ONB(T ⊕ span{v*_{q+1..n}}) (dimension d <= k*), then
      wt_q, wt_{q-1}, ..., then u_1, u_2, ...; the prefix of length i - k* + d
      certifies (eps + eps') / sigma_{q-(i-k*)}.
    * ``n <= i < k + (N - m)`` — V itself: the prior tube sits within eps' of it.
    * ``i >= k + (N - m)`` — ONB(T ⊕ W⊥), then v*_1, v*_2, ... with dependent ones
      dropped, up to length i; every state sharing observations with the
      eps-tube around T sits within eps of T ⊕ W⊥, and once the padding
      completes V the eps' certificate holds as well.  T must lie in V.
    """
    for basis, ((_, length),) in _certificates(t_subspace, bases, [i]):
        return Subspace(basis[:, :length])
    raise ContractViolation(f"i = {i} is below k*; no bound subspace is defined")


def certificate_widths(
    cloud: SnapshotSet, t_subspace: Subspace, bases: SuitableBases, i_max: int
) -> np.ndarray:
    """``empirical_width(cloud, proof_subspace(i, ...))`` for i = 0..i_max.

    Entries below k* are inf.  Each branch's widths come from one
    (cancellation-free) :func:`prefix_widths` pass over its ordered basis.
    """
    widths = np.full(i_max + 1, INF)
    for basis, prefixes in _certificates(t_subspace, bases, range(i_max + 1)):
        by_length = np.concatenate([[cloud.max_norm], prefix_widths(cloud.vectors, basis)])
        for i, length in prefixes:
            widths[i] = by_length[length]
    return widths


def empirical_width(cloud: SnapshotSet, subspace: Subspace) -> float:
    """Worst-case distance of a sampled cloud to a candidate reduced space."""
    return float(cloud.residual_norms(subspace).max())
