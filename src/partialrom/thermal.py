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

With the nodes numbered row by row, the stiffness is banded with
half-bandwidth ``cells + 2`` and is held only in LAPACK upper band form: one
cell-order scatter assembles the four quadrant parts as four bands.  The Q1
mass is the tensor product of two 1-D P1 masses, ``M = M_y (x) M_x`` (M_y
without the Dirichlet top row of nodes), so its upper Cholesky factor is
``U = U_y (x) U_x``, the two small bidiagonal factors of ``M_y = U_y^T U_y``
and ``M_x = U_x^T U_x``.

States are solved by exact static condensation onto the quadrant interface
Gamma (the free nodes on the lines x = 1/2 and y = 1/2, ``2 cells`` of them).
Each quadrant's interior couples only to itself and to Gamma, through its own
part alone, so with ``K_q``, ``B_q``, ``C_q`` the interior, interior-Gamma
and Gamma blocks of part q the interface operator is affine in theta,
``S(theta) = sum_q theta_q S_q`` with ``S_q = C_q - B_q^T K_q^{-1} B_q``, and
the interior values follow from the interface values by fixed linear maps.
This set-up is derived once, at construction; a state then costs one small
SPD solve and one product, batched over rows of theta.
``stiffness_band`` combines the full bands and stays the independent
reference.

States are exposed in *ambient coordinates*: a nodal vector ``h``, read row
by row as a (cells, cells + 1) grid H, maps to ``U h = U_y H U_x^T`` and back
by two triangular solves, which turns the finite-element L2 inner product into
the plain dot product used by every other module.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import ContractViolation
from .geometry import as_vector

# Local Q1 stiffness on a square cell, node order SW, SE, NE, NW.
_K_LOCAL = (1.0 / 6.0) * np.array(
    [
        [4.0, -1.0, -2.0, -1.0],
        [-1.0, 4.0, -1.0, -2.0],
        [-2.0, -1.0, 4.0, -1.0],
        [-1.0, -2.0, -1.0, 4.0],
    ]
)


#: Rows of theta condensed and solved together.  It bounds the memory of a
#: batch (a (rows, 2 cells, 2 cells) interface stack, 1.2 MB at cells 24) and
#: moves no result: every per-row step is elementwise or a stacked product.
#: At cells 24, with BLAS on one thread, 361 states take 12.2-13.2 ms in
#: blocks of 64 against 14.6-15.1 ms in blocks of 256, and 482 states 16.0-16.2
#: against 17.5-17.6 ms (best of 40 calls).
_BLOCK_ROWS = 64


def _check_theta(theta, batch: bool = False) -> np.ndarray:
    """``theta`` as floats, of shape (4,) or, with ``batch``, also (T, 4); every
    entry finite and positive."""
    try:
        t = np.asarray(theta, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ContractViolation(f"theta must be an array of numbers: {exc}") from None
    if t.shape[-1:] != (4,) or t.ndim > 1 + batch:
        shapes = "(4,) or (T, 4)" if batch else "(4,)"
        raise ContractViolation(f"theta must have shape {shapes}, got shape {t.shape}")
    bad = np.flatnonzero(~np.all(np.isfinite(t) & (t > 0.0), axis=-1).reshape(-1))
    if bad.size:
        row = np.atleast_2d(t)[bad[0]]
        where = f" (row {bad[0]})" if t.ndim == 2 else ""
        raise ContractViolation(f"conductivities must be positive and finite, got {row}{where}")
    return t


def _band_block(ab: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Dense ``A[rows][:, cols]`` of the symmetric ``A`` held in upper band form ``ab``."""
    b = ab.shape[0] - 1
    r, c = rows[:, None], cols[None, :]
    offset = np.abs(c - r)
    inside = offset <= b
    return np.where(inside, ab[np.where(inside, b - offset, 0), np.maximum(r, c)], 0.0)


def _condense(bands: np.ndarray, flux: np.ndarray, mass_factors) -> tuple:
    """The stiffness parts ``bands`` (4, b + 1, N) condensed onto the interface
    Gamma (g nodes), as ``(schur, loads, images)``.

    ``schur[q]`` (g, g) is ``S_q``; ``loads`` (2, g) holds the two rows of
    ``flux`` condensed onto Gamma.  A state with interface values u and load
    coefficients a = flux (1/theta_3, 1/theta_4) is ``[u, a_j / theta_q] @
    images``: row k < g of ``images`` (g + 8, N) is the ambient image of the
    interface extension of node k (1 at the node, ``-K_q^{-1} B_q`` inside each
    quadrant), and row g + 2 q + j that of ``K_q^{-1}`` applied to load j on
    quadrant q's interior.  Raises ``np.linalg.LinAlgError`` unless every
    ``K_q`` is SPD.
    """
    u_y, u_x = mass_factors
    half, n = len(u_y) // 2, bands.shape[-1]
    iy, ix = np.divmod(np.arange(n), len(u_x))
    on_gamma = (ix == half) | (iy == half)
    gamma = np.flatnonzero(on_gamma)
    g = gamma.size
    quad = np.where(iy > half, np.where(ix < half, 0, 1), np.where(ix < half, 2, 3))
    schur = np.empty((4, g, g))
    loads = flux[:, gamma]
    extension = np.zeros((n, g + 8))
    extension[gamma, np.arange(g)] = 1.0
    for q, ab in enumerate(bands):
        inner = np.flatnonzero(~on_gamma & (quad == q))
        coupling = _band_block(ab, inner, gamma)
        interior = _band_block(ab, inner, inner)
        np.linalg.cholesky(interior)  # LinAlgError unless K_q is SPD
        x = np.linalg.solve(interior, np.hstack([coupling, flux[:, inner].T]))
        schur[q] = _band_block(ab, gamma, gamma) - coupling.T @ x[:, :g]
        loads = loads - x[:, g:].T @ coupling
        extension[inner, :g] = -x[:, :g]
        extension[inner, g + 2 * q : g + 2 * q + 2] = x[:, g:]
    images = (u_y @ extension.T.reshape(g + 8, len(u_y), -1) @ u_x.T).reshape(g + 8, n)
    return schur, loads, images


class ThermalBlockModel:
    """Discretized thermal block; no dense (N, N) array is held.

    ``stiffness_bands`` holds the four quadrant stiffness parts, one
    (4, bandwidth + 1, N) array in LAPACK upper band form, and ``mass_factors``
    the 1-D upper Cholesky factors ``(U_y, U_x)``, (cells, cells) and
    (cells + 1, cells + 1), of the mass ``M = U^T U`` with ``U = U_y (x) U_x``.
    """

    def __init__(self, cells: int = 24):
        integral = isinstance(cells, numbers.Integral) and not isinstance(cells, bool)
        if not integral or cells < 2 or cells % 2:
            raise ContractViolation(f"cells must be an even integer >= 2, got {cells!r}")
        self.cells = cells = int(cells)
        n_side = cells + 1
        h = 1.0 / cells

        # Cells in row-major order; node (ix, iy) has index iy * n_side + ix.
        cy, cx = np.divmod(np.arange(cells * cells), cells)
        sw = cy * n_side + cx
        loc = np.stack([sw, sw + 1, sw + 1 + n_side, sw + n_side], axis=1)  # SW, SE, NE, NW
        left = (cx + 0.5) / cells < 0.5
        top = (cy + 0.5) / cells >= 0.5
        quad = np.where(top, np.where(left, 0, 1), np.where(left, 2, 3))

        # Scatter the local stiffness in cell order into each cell's quadrant
        # part, so every entry sums its cell contributions in a fixed order.
        # The top edge is eliminated (homogeneous Dirichlet): the free nodes
        # are the rows iy < cells, a prefix of the node numbering, so entries
        # that touch a top-edge node are dropped.  A cell couples nodes at
        # most n_side + 1 apart (SW to NE); upper entries (r, c), c >= r, go
        # straight to band form at [b - (c - r), c].
        n_free = cells * n_side
        self.bandwidth = b = n_side + 1
        rows = np.repeat(loc, 4, axis=1)
        cols = np.tile(loc, (1, 4))
        up = (cols < n_free) & (cols >= rows)
        part = np.broadcast_to(quad[:, None], up.shape)
        local = np.broadcast_to(_K_LOCAL.reshape(1, 16), up.shape)
        self.stiffness_bands = bands = np.zeros((4, b + 1, n_free))
        np.add.at(bands, (part[up], (b - cols + rows)[up], cols[up]), local[up])

        # The 1-D P1 mass, (h/6) [2 1; 1 2] per segment, on the x nodes; the
        # y factor drops the Dirichlet top node.
        diag = np.full(n_side, 4.0)
        diag[[0, -1]] = 2.0
        mass = (h / 6.0) * (np.diag(diag) + np.eye(n_side, k=1) + np.eye(n_side, k=-1))
        self.mass_factors = (np.linalg.cholesky(mass[:cells, :cells]).T, np.linalg.cholesky(mass).T)

        # Bottom-edge flux load, split by the conductivity seen by each half:
        # row 0 is the left half, row 1 the right half.
        flux = np.zeros((2, n_free))
        edge = np.stack([cx[:cells], cx[:cells] + 1], axis=1)
        np.add.at(flux, (np.where(left[:cells], 0, 1)[:, None], edge), 0.5 * h)
        self.flux_left, self.flux_right = flux
        self._schur, self._loads, self._images = _condense(bands, flux, self.mass_factors)

    @property
    def ambient_dim(self) -> int:
        return self.cells * (self.cells + 1)

    def stiffness_band(self, theta) -> np.ndarray:
        """``A(theta)`` in LAPACK upper band form, ``ab[b - k, k:] = diag(A, k)``."""
        parts = self.stiffness_bands
        return np.matmul(_check_theta(theta), parts.reshape(4, -1)).reshape(parts.shape[1:])

    def to_ambient(self, nodal) -> np.ndarray:
        """Nodal coefficients -> ambient coordinates (U h = U_y H U_x^T)."""
        u_y, u_x = self.mass_factors
        grid = as_vector(nodal, self.ambient_dim).reshape(self.cells, -1)
        return (u_y @ grid @ u_x.T).reshape(-1)

    def from_ambient(self, coords) -> np.ndarray:
        """Ambient coordinates -> nodal coefficients (solve U h = coords)."""
        u_y, u_x = self.mass_factors
        grid = as_vector(coords, self.ambient_dim).reshape(self.cells, -1)
        return np.linalg.solve(u_x, np.linalg.solve(u_y, grid).T).T.reshape(-1)

    def solve(self, theta, flux: float = 0.0) -> np.ndarray:
        """Solve the diffusion problem and return the state in ambient coordinates.

        ``theta`` is one parameter of shape (4,), giving an (N,) state, or a
        (T, 4) batch, giving (T, N) states.  ``flux`` scales the
        conductivity-normalized bottom-edge load.  Every row is checked before
        any arithmetic, and each row's interface operator ``S(theta)`` must be
        SPD (``np.linalg.LinAlgError`` otherwise).  A row's state is bitwise
        the same alone or anywhere in any batch.
        """
        t = _check_theta(theta, batch=True)
        if not np.isfinite(flux):
            raise ContractViolation(f"flux must be finite, got {flux}")
        rows = np.atleast_2d(t)
        g = self._schur.shape[1]
        out = np.empty((len(rows), self.ambient_dim))
        for start in range(0, len(rows), _BLOCK_ROWS):
            block = rows[start : start + _BLOCK_ROWS]
            schur = np.matmul(block[:, None, :], self._schur.reshape(4, -1)).reshape(-1, g, g)
            np.linalg.cholesky(schur)  # LinAlgError unless every S(theta) is SPD
            a = flux / block[:, 2:]
            rhs = a[:, :1] * self._loads[0] + a[:, 1:] * self._loads[1]
            interface = np.linalg.solve(schur, rhs[:, :, None])[:, :, 0]
            coeffs = np.hstack([interface, (a[:, None, :] / block[:, :, None]).reshape(-1, 8)])
            out[start : start + len(block)] = np.matmul(coeffs[:, None, :], self._images)[:, 0]
        return out if t.ndim == 2 else out[0]
