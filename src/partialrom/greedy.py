"""Greedy construction of nested reduced spaces from a snapshot cloud.

At every iteration the snapshot farthest from the current space is selected
(ties broken toward the lowest index), its normalized residual is appended to
the basis, and the worst-case projection error is recorded.  Residual norms
are updated incrementally — adding an orthonormal direction u decreases each
squared distance by <u, h_j>^2 — which also makes the recorded error curve
nonincreasing by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .geometry import SnapshotSet, Subspace, prefix_widths

#: Residual norms below this are treated as "span exhausted".
EXHAUSTION_TOL = 1e-12


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

    sq_dist = np.einsum("ij,ij->i", vectors, vectors).copy()
    basis_cols: list[np.ndarray] = []
    indices: list[int] = []
    errors: list[float] = []

    while len(basis_cols) < max_dim:
        worst = int(np.argmax(sq_dist))  # argmax takes the first maximum: lowest index wins ties
        worst_err = float(np.sqrt(max(sq_dist[worst], 0.0)))
        if worst_err < EXHAUSTION_TOL:
            break
        # Recompute the winner's residual exactly (incremental distances drift).
        resid = vectors[worst].copy()
        for _ in range(2):
            for u in basis_cols:
                resid -= u * (u @ resid)
        nrm = np.linalg.norm(resid)
        if nrm < EXHAUSTION_TOL:
            sq_dist[worst] = 0.0
            continue
        u_new = resid / nrm
        basis_cols.append(u_new)
        indices.append(worst)
        proj = vectors @ u_new
        sq_dist = np.maximum(sq_dist - proj**2, 0.0)
        errors.append(float(np.sqrt(sq_dist.max())))
        if stop.tol is not None and errors[-1] <= stop.tol:
            break

    basis = np.column_stack(basis_cols) if basis_cols else np.zeros((n_amb, 0))
    basis.setflags(write=False)
    if basis_cols:
        # The incremental distances steer selection but bottom out at the
        # cancellation level sqrt(eps_machine) * ||h||; re-derive the recorded
        # curve from exact terminal residuals so tiny widths are trustworthy.
        errors = [float(x) for x in prefix_widths(vectors, basis)]

    return GreedyResult(
        basis=basis,
        selected_indices=tuple(indices),
        error_curve=tuple(errors),
    )
