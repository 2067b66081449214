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
realizes the subspace achieving the combined (pointwise-minimum) bound, which
is how the bounds are verified empirically against sampled clouds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bases import SuitableBases
from .errors import ContractViolation
from .geometry import SnapshotSet, Subspace, direct_sum

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
    if eps < 0:
        raise ContractViolation(f"eps must be >= 0, got {eps}")
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
    if k < 0 or n < 1 or m < 1:
        raise ContractViolation("k must be >= 0 and m, n >= 1")
    if not (math.isfinite(eps) and math.isfinite(eps_prime)) or eps < 0 or eps_prime < 0:
        raise ContractViolation(f"widths must be finite and >= 0, got {eps}, {eps_prime}")
    if sigma.shape[0] < q:
        raise ContractViolation(f"sigma has {sigma.shape[0]} entries but q = {q}")
    if i_max is None:
        i_max = ambient_dim
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


def proof_subspace(i: int, t_subspace: Subspace, bases: SuitableBases) -> Subspace:
    """A subspace of dimension at most ``i`` certifying the combined bound.

    The finite branches of the two bound sequences are achieved by different
    subspace families, so the construction switches with ``i``:

    * ``k* <= i < n`` — start from V* = T ⊕ span{v*_{q+1..n}} (dimension at
      most k*), append the trailing interaction directions wt_q, wt_{q-1},
      ... as ``i`` grows, then pad with leading residual-block directions;
      this certifies (eps + eps') / sigma_{q-(i-k*)}.
    * ``n <= i < k + (N - m)`` — the prior subspace V itself: everything in
      the prior tube sits within eps' of it.
    * ``i >= k + (N - m)`` — T ⊕ W⊥, padded with leading rotated prior
      directions while the dimension budget allows; every state sharing
      observations with the eps-tube around T sits within eps of it, and once
      the padding completes V the eps' certificate holds as well.
    """
    n, q, p = bases.n, bases.q, bases.p
    k = t_subspace.dim
    k_star = min(n, k + n - q)
    if i < k_star:
        raise ContractViolation(f"i = {i} is below k* = {k_star}; no bound subspace is defined")

    i_floor = k + (bases.ambient_dim - bases.m)
    if i >= i_floor:
        w_perp = np.hstack([bases.w_tilde, bases.v_star_tail, bases.u_basis])
        out = t_subspace
        if w_perp.shape[1]:
            out = direct_sum(out, Subspace(w_perp))
        for j in range(q):
            if out.dim >= i:
                break
            out = direct_sum(out, Subspace(bases.v_star[:, j : j + 1]))
    elif i >= n:
        out = bases.v_subspace
    else:
        v_star_part = Subspace(bases.v_star_tail) if n > q else Subspace.zero(bases.ambient_dim)
        out = direct_sum(t_subspace, v_star_part)
        n_int = q - p
        take = min(i - k_star, n_int)
        if take:
            out = direct_sum(out, Subspace(bases.w_tilde[:, n_int - take :]))
        filler = min(max(0, i - k_star - n_int), bases.r)
        if filler:
            out = direct_sum(out, Subspace(bases.u_basis[:, :filler]))
    if out.dim > i:
        raise ContractViolation(f"constructed dimension {out.dim} exceeds i = {i}")
    return out


def empirical_width(cloud: SnapshotSet, subspace: Subspace) -> float:
    """Worst-case distance of a sampled cloud to a candidate reduced space."""
    return float(cloud.residual_norms(subspace).max())
