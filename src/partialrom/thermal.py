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

States are exposed in *ambient coordinates*: with the free-node mass matrix
factored as ``M = L L^T``, a nodal vector ``h`` maps to ``L^T h``, which turns
the finite-element L2 inner product into the plain dot product used by every
other module.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cholesky, solve_triangular

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


class ThermalBlockModel:
    """Discretized thermal block with per-quadrant stiffness parts."""

    def __init__(self, cells: int = 24):
        if cells < 2 or cells % 2:
            raise ContractViolation(f"cells must be an even integer >= 2, got {cells}")
        self.cells = cells
        n_side = cells + 1
        self.n_nodes = n_side * n_side

        def node(ix: int, iy: int) -> int:
            return iy * n_side + ix

        h = 1.0 / cells
        stiff = [np.zeros((self.n_nodes, self.n_nodes)) for _ in range(4)]
        mass = np.zeros((self.n_nodes, self.n_nodes))
        for cy in range(cells):
            for cx in range(cells):
                loc = [node(cx, cy), node(cx + 1, cy), node(cx + 1, cy + 1), node(cx, cy + 1)]
                left = (cx + 0.5) / cells < 0.5
                top = (cy + 0.5) / cells >= 0.5
                quad = (0 if left else 1) if top else (2 if left else 3)
                ks = stiff[quad]
                for a in range(4):
                    ia = loc[a]
                    ks[ia, loc] += _K_LOCAL[a]
                    mass[ia, loc] += h * h * _M_LOCAL[a]

        # Bottom-edge flux load, split by the conductivity seen by each half.
        g_left = np.zeros(self.n_nodes)
        g_right = np.zeros(self.n_nodes)
        for cx in range(cells):
            target = g_left if (cx + 0.5) / cells < 0.5 else g_right
            target[node(cx, 0)] += 0.5 * h
            target[node(cx + 1, 0)] += 0.5 * h

        # Eliminate the top edge (homogeneous Dirichlet).
        free = np.array([node(ix, iy) for iy in range(cells) for ix in range(n_side)])
        self.free_nodes = free
        self.stiffness_parts = tuple(np.ascontiguousarray(s[np.ix_(free, free)]) for s in stiff)
        self.mass = np.ascontiguousarray(mass[np.ix_(free, free)])
        self.flux_left = g_left[free]
        self.flux_right = g_right[free]
        self.mass_chol = cholesky(self.mass, lower=True)

    @property
    def ambient_dim(self) -> int:
        return self.free_nodes.shape[0]

    def stiffness(self, theta) -> np.ndarray:
        t = _check_theta(theta)
        out = t[0] * self.stiffness_parts[0]
        for i in range(1, 4):
            out = out + t[i] * self.stiffness_parts[i]
        return out

    def to_ambient(self, nodal) -> np.ndarray:
        """Nodal coefficients -> ambient coordinates (L^T h)."""
        return self.mass_chol.T @ as_vector(nodal, self.ambient_dim)

    def from_ambient(self, coords) -> np.ndarray:
        """Ambient coordinates -> nodal coefficients (solve L^T h = coords)."""
        return solve_triangular(
            self.mass_chol.T, as_vector(coords, self.ambient_dim), lower=False
        )

    def solve(self, theta, flux: float = 0.0, source_coeffs=None) -> np.ndarray:
        """Solve the diffusion problem and return the state in ambient coordinates.

        ``flux`` scales the conductivity-normalized bottom-edge load;
        ``source_coeffs`` is a volumetric source given in ambient coordinates
        (its nodal load is ``L source_coeffs``).
        """
        t = _check_theta(theta)
        rhs = np.zeros(self.ambient_dim)
        if flux:
            rhs += flux * (self.flux_left / t[2] + self.flux_right / t[3])
        if source_coeffs is not None:
            rhs += self.mass_chol @ as_vector(source_coeffs, self.ambient_dim)
        nodal = np.linalg.solve(self.stiffness(t), rhs)
        return self.to_ambient(nodal)
