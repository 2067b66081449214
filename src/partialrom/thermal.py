"""Parametric thermal-block diffusion on the unit square.

Bilinear (Q1) elements on a uniform grid; the conductivity is piecewise
constant on the four quadrants (parameters theta_1..theta_4, numbered in
reading order: top-left, top-right, bottom-left, bottom-right), so the
stiffness matrix is the parameter combination ``A(theta) = sum theta_i A_i``
with the ``A_i`` assembled once per quadrant.  Boundary conditions: zero
Dirichlet on the top edge (eliminated), a prescribed conductivity-scaled
normal flux on the bottom edge, natural elsewhere.  The bottom-left half of
that edge sees conductivity theta_3 and the right half theta_4, giving the
load ``c (theta_3^{-1} g_left + theta_4^{-1} g_right)`` for precomputed
edge-mass vectors.

With the nodes numbered row by row, every operator is banded with
half-bandwidth ``cells + 2`` and is held only in LAPACK upper band form: one
cell-order scatter assembles the four quadrant stiffness parts and the mass
matrix as five bands.  The mass band is factored once, ``M = U^T U`` with U
upper banded (``scipy.linalg.cholesky_banded``); a solve combines the four
stiffness bands in O(N b) and hands the SPD result to LAPACK ``pbsv``, one
call per state.

States are exposed in *ambient coordinates*: a nodal vector ``h`` maps to
``U h`` (BLAS ``tbmv``) and back by a banded triangular solve (LAPACK
``tbtrs``), which turns the finite-element L2 inner product into the plain dot
product used by every other module.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import blas, cholesky_banded, lapack

from .errors import ContractViolation
from .geometry import as_vector

# Local Q1 matrices on a square cell, node order SW, SE, NE, NW.
_K_LOCAL = (1.0 / 6.0) * np.array(
    [
        [4.0, -1.0, -2.0, -1.0],
        [-1.0, 4.0, -1.0, -2.0],
        [-2.0, -1.0, 4.0, -1.0],
        [-1.0, -2.0, -1.0, 4.0],
    ]
)
_M_LOCAL = (1.0 / 36.0) * np.array(
    [
        [4.0, 2.0, 1.0, 2.0],
        [2.0, 4.0, 2.0, 1.0],
        [1.0, 2.0, 4.0, 2.0],
        [2.0, 1.0, 2.0, 4.0],
    ]
)


def _check_theta(theta) -> np.ndarray:
    t = np.asarray(theta, dtype=float)
    if t.shape != (4,):
        raise ContractViolation(f"theta must have 4 entries, got shape {t.shape}")
    if not np.all(np.isfinite(t)) or np.any(t <= 0.0):
        raise ContractViolation(f"conductivities must be positive and finite, got {t}")
    return t


def _combine(t: np.ndarray, parts) -> np.ndarray:
    """``sum_i t_i parts_i``, summed in quadrant order."""
    out = t[0] * parts[0]
    for i in range(1, 4):
        out = out + t[i] * parts[i]
    return out


class ThermalBlockModel:
    """Discretized thermal block, held in LAPACK upper band form only.

    ``stiffness_bands`` holds the four quadrant stiffness parts and
    ``mass_factor`` the upper Cholesky factor U of the mass (``M = U^T U``),
    both at half-bandwidth ``bandwidth``; no dense (N, N) array is held.
    """

    def __init__(self, cells: int = 24):
        if cells < 2 or cells % 2:
            raise ContractViolation(f"cells must be an even integer >= 2, got {cells}")
        self.cells = cells
        n_side = cells + 1
        h = 1.0 / cells

        # Cells in row-major order; node (ix, iy) has index iy * n_side + ix.
        cy, cx = np.divmod(np.arange(cells * cells), cells)
        sw = cy * n_side + cx
        loc = np.stack([sw, sw + 1, sw + 1 + n_side, sw + n_side], axis=1)  # SW, SE, NE, NW
        left = (cx + 0.5) / cells < 0.5
        top = (cy + 0.5) / cells >= 0.5
        quad = np.where(top, np.where(left, 0, 1), np.where(left, 2, 3))

        # Scatter the local matrices in cell order, so every entry sums its
        # cell contributions in a fixed order: the stiffness into its
        # quadrant's part, the mass into part 4.  The top edge is eliminated
        # (homogeneous Dirichlet): the free nodes are the rows iy < cells, a
        # prefix of the node numbering, so entries that touch a top-edge node
        # are dropped.  A cell couples nodes at most n_side + 1 apart (SW to
        # NE); upper entries (r, c), c >= r, go straight to band form at
        # [b - (c - r), c].
        n_free = cells * n_side
        self.bandwidth = b = n_side + 1
        rows = np.repeat(loc, 4, axis=1)
        cols = np.tile(loc, (1, 4))
        up = (cols < n_free) & (cols >= rows)
        part = np.stack([np.broadcast_to(quad[:, None], up.shape), np.full(up.shape, 4)])
        local = np.broadcast_to(np.stack([_K_LOCAL, h * h * _M_LOCAL]).reshape(2, 1, 16), part.shape)
        bands = np.zeros((5, b + 1, n_free))
        np.add.at(bands, (part[:, up], (b - cols + rows)[up], cols[up]), local[:, up])
        self.stiffness_bands = tuple(bands[:4])
        self.mass_factor = cholesky_banded(bands[4])

        # Bottom-edge flux load, split by the conductivity seen by each half:
        # row 0 is the left half, row 1 the right half.
        flux = np.zeros((2, n_free))
        edge = np.stack([cx[:cells], cx[:cells] + 1], axis=1)
        np.add.at(flux, (np.where(left[:cells], 0, 1)[:, None], edge), 0.5 * h)
        self.flux_left, self.flux_right = flux

    @property
    def ambient_dim(self) -> int:
        return self.cells * (self.cells + 1)

    def stiffness_band(self, theta) -> np.ndarray:
        """``A(theta)`` in LAPACK upper band form, ``ab[b - k, k:] = diag(A, k)``."""
        return _combine(_check_theta(theta), self.stiffness_bands)

    def to_ambient(self, nodal) -> np.ndarray:
        """Nodal coefficients -> ambient coordinates (U h)."""
        return blas.dtbmv(self.bandwidth, self.mass_factor, as_vector(nodal, self.ambient_dim))

    def from_ambient(self, coords) -> np.ndarray:
        """Ambient coordinates -> nodal coefficients (solve U h = coords)."""
        nodal, info = lapack.dtbtrs(self.mass_factor, as_vector(coords, self.ambient_dim))
        if info:
            raise np.linalg.LinAlgError(f"LAPACK dtbtrs failed with info={info}")
        return nodal

    def solve(self, theta, flux: float = 0.0) -> np.ndarray:
        """Solve the diffusion problem and return the state in ambient coordinates.

        ``flux`` scales the conductivity-normalized bottom-edge load; ``A(theta)``
        is SPD for the validated ``theta > 0``.
        """
        t = _check_theta(theta)
        if not np.isfinite(flux):
            raise ContractViolation(f"flux must be finite, got {flux}")
        rhs = flux * (self.flux_left / t[2] + self.flux_right / t[3])
        _, nodal, info = lapack.dpbsv(_combine(t, self.stiffness_bands), rhs, overwrite_ab=1)
        if info:
            raise np.linalg.LinAlgError(f"LAPACK dpbsv failed with info={info}")
        return self.to_ambient(nodal)
