"""Greedy construction of nested reduced spaces from a snapshot cloud.

At every iteration the snapshot farthest from the current space is selected
(rows within ``TIE_RTOL`` of the largest squared distance tie, and the lowest
index wins), and its residual after the two-pass Gram-Schmidt step of
:func:`~partialrom.geometry.gram_schmidt_residual`, normalized, is appended to
the basis.  Squared distances are downdated incrementally: adding an
orthonormal direction u decreases each by <u, h_j>^2.  A downdate cancels, so
once a row's value falls below ``sqrt(eps_machine)`` times its last exact value
it is recomputed exactly from the stored coordinates (the column-norm rule of
LAPACK's pivoted QR, xGEQP3).  Selection, exhaustion and the ``tol`` stop
therefore see widths far below ``sqrt(eps_machine) * ||h||``.  The recorded
error curve is one exact :func:`~partialrom.geometry.prefix_widths` pass over
the final basis; it is nonincreasing because each row's prefix residuals are.

No step holds a temporary the size of the cloud: the downdate works in place
on one value per row, and stale rows (none in most iterations) are recomputed
in the blocks of :func:`~partialrom.geometry.row_blocks`, as is the closing
pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .geometry import SnapshotSet, Subspace, gram_schmidt_residual, prefix_widths, row_blocks

#: Residual norms below this are treated as "span exhausted".
EXHAUSTION_TOL = 1e-12
#: A downdated squared distance below this fraction of its last exact value has
#: lost half its digits and is recomputed exactly (LAPACK xGEQP3's rule).
DOWNDATE_TOL = np.sqrt(np.finfo(float).eps)
#: Squared distances within this fraction of the largest tie for the pick, so
#: mirror-image snapshots, equal up to summation-order rounding, keep their order.
TIE_RTOL = 1e-10


@dataclass(frozen=True)
class StoppingRule:
    """Stop after ``max_dim`` iterations and/or when the error drops to ``tol``."""

    max_dim: int | None = None
    tol: float | None = None

    def __post_init__(self):
        if self.max_dim is not None and self.max_dim < 0:
            raise ContractViolation(f"max_dim must be >= 0, got {self.max_dim}")
        if self.tol is not None and self.tol < 0:
            raise ContractViolation(f"tol must be >= 0, got {self.tol}")


@dataclass(frozen=True)
class GreedyResult:
    """Nested spaces S_1 ⊂ S_2 ⊂ ..., selected snapshot indices, and error curve.

    ``basis`` is the (N, terminal_dim) orthonormal greedy basis; S_t is the
    span of its first t columns.  ``error_curve[t-1]`` is the worst-case
    distance of the cloud to S_t, so the curve has one entry per completed
    iteration.
    """

    basis: np.ndarray
    selected_indices: tuple[int, ...]
    error_curve: tuple[float, ...]

    @property
    def terminal_dim(self) -> int:
        return self.basis.shape[1]

    def subspace(self, dim: int) -> Subspace:
        """The dim-th nested space; dim 0 is the zero subspace, larger than
        terminal returns the terminal space."""
        if dim < 0:
            raise ContractViolation(f"dimension must be >= 0, got {dim}")
        if self.terminal_dim == 0:
            raise ContractViolation("empty greedy result has no nested spaces")
        return Subspace(self.basis[:, : min(dim, self.terminal_dim)])


def greedy(snapshots: SnapshotSet, stop: StoppingRule) -> GreedyResult:
    """Run the greedy selection loop on a snapshot cloud."""
    vectors = snapshots.vectors
    n_snap, n_amb = vectors.shape
    max_dim = stop.max_dim if stop.max_dim is not None else min(n_snap, n_amb)
    max_dim = min(max_dim, n_snap, n_amb)

    sq_dist = np.einsum("ij,ij->i", vectors, vectors)
    exact_sq = sq_dist.copy()  # each row's squared distance when last computed exactly
    basis = np.empty((n_amb, max_dim))
    coords = np.empty((n_snap, max_dim))  # coords[:, t] = vectors @ basis[:, t]
    indices: list[int] = []

    while (k := len(indices)) < max_dim:
        worst = int(np.argmax(sq_dist >= (1.0 - TIE_RTOL) * sq_dist.max()))  # lowest tied index
        if np.sqrt(sq_dist[worst]) < EXHAUSTION_TOL:
            break
        resid = gram_schmidt_residual(basis[:, :k], vectors[worst])
        nrm = np.linalg.norm(resid)
        if nrm < EXHAUSTION_TOL:
            sq_dist[worst] = 0.0
            continue
        basis[:, k] = resid / nrm
        coords[:, k] = vectors @ basis[:, k]
        indices.append(worst)
        sq_dist -= coords[:, k] ** 2
        np.maximum(sq_dist, 0.0, out=sq_dist)
        stale = np.flatnonzero(sq_dist < DOWNDATE_TOL * exact_sq)
        for rows in row_blocks(len(stale)):
            idx = stale[rows]
            resid = vectors[idx] - coords[idx, : k + 1] @ basis[:, : k + 1].T
            sq_dist[idx] = exact_sq[idx] = np.einsum("ij,ij->i", resid, resid)
        if stop.tol is not None and np.sqrt(sq_dist.max()) <= stop.tol:
            break

    basis = np.ascontiguousarray(basis[:, : len(indices)])
    basis.setflags(write=False)
    return GreedyResult(
        basis=basis,
        selected_indices=tuple(indices),
        error_curve=tuple(float(x) for x in prefix_widths(vectors, basis)),
    )
