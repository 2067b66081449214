"""Rotated bases adapted to a pair of subspaces (observation space W, prior space V).

Given orthonormal bases of W (dim m) and V (dim n), the SVD of the cross-Gram
matrix ``G[i, j] = <w_i, v_j>`` produces rotated orthonormal bases ``w*`` of W
and ``v*`` of V whose pairwise inner products are diagonal:
``<w*_i, v*_j> = sigma_j delta_ij`` with ``1 >= sigma_1 >= ... >= 0`` (the
cosines of the principal angles).  Writing

* p = number of sigma_j equal to 1 (within ``TOL_ONE``)  -> dim(W ∩ V),
* q = number of sigma_j > ``TOL_ZERO``                   -> n - q = dim(W⊥ ∩ V),

the ambient space splits into four mutually orthogonal pieces

    H = P_W(V)  ⊕  (W ∩ V⊥)  ⊕  P_W⊥(V)  ⊕  (W⊥ ∩ V⊥),

with orthonormal bases ``{w*_1..q}``, ``{w*_q+1..m}``,
``{wt_p+1..q} ∪ {v*_q+1..n}`` and ``{u_1..r}`` where

    wt_j = (1 - sigma_j^2)^(-1/2) (v*_j - sigma_j w*_j),   r = N - m - (n - p).

The ``u`` block is rarely needed and is built lazily; every sampling path
touches only the other three blocks, keeping the cost linear in N.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, InfeasibleGeometry
from .geometry import Subspace, as_vector


#: Thresholds of :func:`principal_counts`: a principal cosine at or above
#: 1 - TOL_ONE counts as 1, one at or below TOL_ZERO as 0.
TOL_ONE = 1e-8
TOL_ZERO = 1e-10


def principal_counts(sigma: np.ndarray) -> tuple[int, int]:
    """(p, q): how many principal cosines count as 1 and how many as nonzero."""
    return int(np.sum(sigma >= 1.0 - TOL_ONE)), int(np.sum(sigma > TOL_ZERO))


@dataclass(eq=False)
class SuitableBases:
    """Rotated-basis data for a (V, W) pair; construct via :func:`compute_suitable_bases`."""

    v_subspace: Subspace
    w_subspace: Subspace
    w_star: np.ndarray      # (N, m) rotated ONB of W
    v_star: np.ndarray      # (N, n) rotated ONB of V
    sigma: np.ndarray       # (min(m, n),) descending in [0, 1]
    p: int
    q: int
    w_rotation: np.ndarray  # (m, m) X: w*_j = sum_i w_i X[i, j]
    v_rotation: np.ndarray  # (n, n) Z: v*_j = sum_i v_i Z[i, j]
    w_tilde: np.ndarray     # (N, q - p) ONB of P_W⊥(V) interaction block

    @property
    def ambient_dim(self) -> int:
        return self.w_star.shape[0]

    @property
    def m(self) -> int:
        return self.w_star.shape[1]

    @property
    def n(self) -> int:
        return self.v_star.shape[1]

    @property
    def r(self) -> int:
        """dim(W⊥ ∩ V⊥) = N - m - (n - p)."""
        return self.ambient_dim - self.m - (self.n - self.p)

    @property
    def v_star_tail(self) -> np.ndarray:
        """Columns v*_{q+1..n}: the part of V inside W⊥."""
        return self.v_star[:, self.q:]

    @functools.cached_property
    def complement_onb(self) -> np.ndarray:
        """Orthonormal basis of (W⊥ ∩ V⊥)⊥ = W ⊕ P_W⊥(V), built on first access.

        The blocks w*, wt and v*_{q+1..n} are mutually orthogonal, so their
        concatenation is an ONB of the complement without extra work.  (The
        union of all of v* with wt is *not* orthonormal: <v*_j, wt_j> =
        sqrt(1 - sigma_j^2) for p < j <= q.)
        """
        return np.hstack([self.w_star, self.w_tilde, self.v_star_tail])

    @functools.cached_property
    def u_basis(self) -> np.ndarray:
        """ONB of W⊥ ∩ V⊥, built on first access.

        The trailing columns of a complete QR of :attr:`complement_onb` span
        its orthogonal complement; there are exactly N - (m + n - p) = r.
        """
        comp = self.complement_onb
        return np.linalg.qr(comp, mode="complete")[0][:, comp.shape[1]:]

    def w_star_coefficients(self, obs_values: np.ndarray) -> np.ndarray:
        """Rotate raw observation values <w_i, h> into <w*_j, h> = (X^T obs)_j,
        for one (m,) or rows (count, m), each row its own product."""
        obs = np.asarray(obs_values, dtype=float)
        if obs.ndim not in (1, 2) or obs.shape[-1] != self.m:
            raise ContractViolation(f"expected {self.m} observation values, got shape {obs.shape}")
        return np.matmul(self.w_rotation.T, obs[..., None])[..., 0]

    def slice_centers(self, a_star: np.ndarray) -> np.ndarray:
        """Slice centers for rows of w*-coefficients: (..., m) -> (..., N).

        Row i is ``sum_{j<=q} a_ij / sigma_j v*_j + sum_{j>q} a_ij w*_j``.
        Stacked (points, 1, m) rows give one vector-matrix product per point.
        """
        q = self.q
        centers = (a_star[..., :q] / self.sigma[:q]) @ self.v_star[:, :q].T
        if self.m > q:
            centers = centers + a_star[..., q:] @ self.w_star[:, q:].T
        return centers


def _column_signs(mat: np.ndarray) -> np.ndarray:
    """Per column, -1 if its largest-magnitude entry (the first on ties) is
    negative, else 1."""
    peaks = mat[np.argmax(np.abs(mat), axis=0), np.arange(mat.shape[1])]
    return np.where(peaks < 0, -1.0, 1.0)


def compute_suitable_bases(v_subspace: Subspace, w_subspace: Subspace) -> SuitableBases:
    """Compute rotated bases and the four-way orthogonal split for (V, W).

    Raises :class:`InfeasibleGeometry` when m + n - p exceeds the ambient
    dimension (the four blocks cannot coexist).
    """
    if v_subspace.ambient_dim != w_subspace.ambient_dim:
        raise ContractViolation("V and W live in different ambient dimensions")
    if v_subspace.dim == 0 or w_subspace.dim == 0:
        raise ContractViolation("V and W must both be nontrivial")
    n_amb = v_subspace.ambient_dim
    m, n = w_subspace.dim, v_subspace.dim

    gram = w_subspace.basis.T @ v_subspace.basis  # (m, n)
    x_rot, sigma, z_rot_t = np.linalg.svd(gram, full_matrices=True)
    z_rot = z_rot_t.T
    sigma = np.clip(sigma, 0.0, 1.0)

    # Deterministic sign convention: make the largest-magnitude entry of each
    # right singular vector positive (flipping the paired left vector too),
    # and of each unpaired left vector (m > n).
    n_pairs = min(m, n)
    z_signs = _column_signs(z_rot)
    z_rot *= z_signs
    x_rot[:, :n_pairs] *= z_signs[:n_pairs]
    x_rot[:, n_pairs:] *= _column_signs(x_rot[:, n_pairs:])

    p, q = principal_counts(sigma)
    if m + n - p > n_amb:
        raise InfeasibleGeometry(
            f"m + n - p = {m + n - p} exceeds ambient dimension {n_amb}; "
            "the subspace pair cannot be split this way"
        )

    w_star = w_subspace.basis @ x_rot
    v_star = v_subspace.basis @ z_rot

    # Interaction directions wt_j for p < j <= q: unit vectors along P_W⊥(v*_j).
    sig_pq = sigma[p:q]
    scale = 1.0 / np.sqrt(1.0 - sig_pq**2)
    w_tilde = (v_star[:, p:q] - w_star[:, p:q] * sig_pq) * scale

    return SuitableBases(
        v_subspace=v_subspace,
        w_subspace=w_subspace,
        w_star=w_star,
        v_star=v_star,
        sigma=sigma,
        p=p,
        q=q,
        w_rotation=x_rot,
        v_rotation=z_rot,
        w_tilde=w_tilde,
    )


class DecomposedVector:
    """Coefficients of a vector on the four-block orthonormal basis."""

    def __init__(
        self,
        w_star_coeffs: np.ndarray,
        interaction_coeffs: np.ndarray,
        tail_coeffs: np.ndarray,
        residual_coeffs: np.ndarray,
    ):
        self.w_star_coeffs = w_star_coeffs          # on w*_{1..m}
        self.interaction_coeffs = interaction_coeffs  # on wt_{p+1..q}
        self.tail_coeffs = tail_coeffs              # on v*_{q+1..n}
        self.residual_coeffs = residual_coeffs      # on u_{1..r}

    def reconstruct(self, bases: SuitableBases) -> np.ndarray:
        return (
            bases.w_star @ self.w_star_coeffs
            + bases.w_tilde @ self.interaction_coeffs
            + bases.v_star_tail @ self.tail_coeffs
            + bases.u_basis @ self.residual_coeffs
        )


def decompose(h, bases: SuitableBases) -> DecomposedVector:
    """Expand ``h`` on the global ONB [w* | wt | v*_{q+1..n} | u].

    The reconstruction error is at the level of the orthonormality of the
    blocks (about 1e-10 relative).  Touching the residual block triggers the
    lazy ``u_basis`` construction.
    """
    v = as_vector(h, bases.ambient_dim)
    return DecomposedVector(
        w_star_coeffs=bases.w_star.T @ v,
        interaction_coeffs=bases.w_tilde.T @ v,
        tail_coeffs=bases.v_star_tail.T @ v,
        residual_coeffs=bases.u_basis.T @ v,
    )
