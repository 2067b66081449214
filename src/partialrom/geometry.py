"""Core Euclidean geometry: subspaces, degenerate ellipsoids, and prior manifolds.

The ambient space is R^N with the standard inner product.  Vectors are plain
1-D ``numpy`` arrays; a ``Subspace`` wraps an orthonormal basis stored
column-wise.  A *degenerate ellipsoid* is the tube ``{h : dist(h, V) <= w}``
around a subspace ``V``; a prior manifold is a finite intersection of such
tubes.  Discretized PDE states enter this picture after the mass-Cholesky
change of coordinates (see :mod:`partialrom.thermal`), so no weighted inner
products appear anywhere downstream.

Every pass over a whole cloud (a ``SnapshotSet``'s finiteness check, its
largest norm, the nested-prefix widths) walks it in the row blocks of
:func:`row_blocks`, so its temporaries are bounded by a block, not by the
cloud: at least ``_PASS_ROWS`` rows and fewer than twice that, unless the
whole cloud is shorter.  The check and the norm are bitwise those of one
pass; the widths agree with one pass to rounding, since each block is its
own product.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation

#: Residual threshold used when orthonormalizing: a candidate vector whose
#: residual after projection falls below DROP_TOL * (1 + ||v||) is discarded
#: as linearly dependent.
DROP_TOL = 1e-10

#: Slack added to a tube's width in every membership test, the sampler's
#: acceptance test included, so that boundary points survive rounding noise.
TUBE_SLACK = 1e-9

#: Rows per block of a pass over a whole cloud (see :func:`row_blocks`).
_PASS_ROWS = 64


def as_vector(h, ambient_dim: int | None = None) -> np.ndarray:
    """Validate ``h`` as a finite 1-D float vector, optionally of fixed length."""
    return _as_finite(h, 1, ambient_dim)


def _as_finite(x, ndim: int, length: int | None) -> np.ndarray:
    """``x`` as a finite float array with ``ndim`` axes, the last one ``length`` long if given."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != ndim:
        raise ContractViolation(f"expected a {ndim}-D array, got shape {arr.shape}")
    if length is not None and arr.shape[-1] != length:
        raise ContractViolation(
            f"vector has length {arr.shape[-1]}, expected ambient dimension {length}"
        )
    if not np.all(np.isfinite(arr)):
        raise ContractViolation("vector has non-finite entries")
    return arr


def gram_schmidt_residual(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``v`` projected twice off the orthonormal columns of ``q``, ``r -= q (q^T r)``.

    The second pass removes the cancellation error of the first, which makes
    classical Gram-Schmidt as accurate as the modified loop.
    """
    r = v.copy()
    for _ in range(2):
        r -= q @ (q.T @ r)
    return r


def _mgs(columns: np.ndarray, base: np.ndarray | None = None) -> np.ndarray:
    """Two-pass block Gram-Schmidt: ``[base | accepted columns]``.

    ``base`` (N, k0), orthonormal and possibly without columns, is copied
    through bitwise.  Each column of ``columns`` (N, d) is taken in input order
    and projected off every column accepted so far by
    :func:`gram_schmidt_residual`.  A column whose residual falls below
    ``DROP_TOL * (1 + ||v||)`` is dropped as dependent.
    """
    k = 0 if base is None else base.shape[1]
    q = np.empty((columns.shape[0], k + columns.shape[1]))
    if k:
        q[:, :k] = base
    for v in columns.T:
        r = gram_schmidt_residual(q[:, :k], v)
        nrm = np.linalg.norm(r)
        if nrm >= DROP_TOL * (1.0 + np.linalg.norm(v)):
            q[:, k] = r / nrm
            k += 1
    return q[:, :k]


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of R^N held as an orthonormal column basis.

    ``basis`` has shape (N, d); d = 0 encodes the zero subspace.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2:
            raise ContractViolation(f"basis must be 2-D, got shape {b.shape}")
        if not np.all(np.isfinite(b)):
            raise ContractViolation("basis has non-finite entries")
        if b.shape[1]:
            gram = b.T @ b
            if not np.allclose(gram, np.eye(b.shape[1]), atol=1e-8):
                raise ContractViolation("basis columns are not orthonormal")
        b = np.ascontiguousarray(b)
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(np.zeros((ambient_dim, 0)))

    def contains(self, h, tol: float = 1e-10) -> bool:
        return dist(h, self) <= tol * (1.0 + float(np.linalg.norm(h)))


def orthonormalize(vectors, ambient_dim: int | None = None) -> Subspace:
    """Build a :class:`Subspace` spanning ``vectors``, dropping dependent ones.

    ``vectors`` may be a list of 1-D arrays or a 2-D array whose *rows* are the
    vectors; an empty (0, N) array gives the zero subspace of R^N.  Order
    matters: the accepted basis directions follow the input order (see
    :func:`_mgs`).
    """
    rows = np.asarray(vectors, dtype=float)
    if rows.shape == (0,) and ambient_dim is not None:
        rows = rows.reshape(0, ambient_dim)
    return Subspace(_mgs(_as_finite(rows, 2, ambient_dim).T))


def project(h, subspace: Subspace) -> np.ndarray:
    """Orthogonal projection of ``h`` onto the subspace."""
    v = as_vector(h, subspace.ambient_dim)
    b = subspace.basis
    return b @ (b.T @ v)


def distances(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Distance of each row of ``x`` (any leading shape) to the span of orthonormal ``basis``."""
    return np.linalg.norm(x - (x @ basis) @ basis.T, axis=-1)


def dist(h, subspace: Subspace) -> float:
    """Euclidean distance from ``h`` to the subspace."""
    return float(distances(as_vector(h, subspace.ambient_dim), subspace.basis))


def lies_in(inner: Subspace, outer: Subspace, tol: float = 1e-8) -> bool:
    """Whether ``inner`` lies in ``outer``: ``||B - A (A^T B)||_F <= tol (1 + dim inner)``
    for the orthonormal bases B of ``inner`` and A of ``outer``."""
    a, b = outer.basis, inner.basis
    return float(np.linalg.norm(b - a @ (a.T @ b))) <= tol * (1 + inner.dim)


def direct_sum(a: Subspace, b: Subspace) -> Subspace:
    """Span of the union of two subspaces (not required to be orthogonal).

    The basis is a's columns, bitwise, followed by b's orthonormalized against
    them and in order, dependent ones dropped.  The Gram-Schmidt loop runs over
    b's columns, so pass the large orthonormal block as ``a``.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ContractViolation("subspaces live in different ambient dimensions")
    return Subspace(_mgs(b.basis, base=a.basis))


@dataclass(frozen=True)
class DegenerateEllipsoid:
    """The tube ``{h : dist(h, subspace) <= width}`` around a subspace."""

    subspace: Subspace
    width: float

    def __post_init__(self):
        if not np.isfinite(self.width) or self.width < 0:
            raise ContractViolation(f"ellipsoid width must be finite and >= 0, got {self.width}")

    @property
    def ambient_dim(self) -> int:
        return self.subspace.ambient_dim


def ellipsoid_contains(ellipsoid: DegenerateEllipsoid, h) -> bool:
    return dist(h, ellipsoid.subspace) <= ellipsoid.width + TUBE_SLACK


@dataclass(frozen=True)
class PriorManifold:
    """Intersection of finitely many degenerate ellipsoids (the prior set)."""

    ellipsoids: tuple[DegenerateEllipsoid, ...]

    def __post_init__(self):
        ells = tuple(self.ellipsoids)
        if not ells:
            raise ContractViolation("a prior needs at least one ellipsoid")
        n_amb = ells[0].ambient_dim
        for e in ells[1:]:
            if e.ambient_dim != n_amb:
                raise ContractViolation("prior ellipsoids live in different ambient dimensions")
        object.__setattr__(self, "ellipsoids", ells)

    @property
    def n_factors(self) -> int:
        return len(self.ellipsoids)

    @property
    def ambient_dim(self) -> int:
        return self.ellipsoids[0].ambient_dim

    def factor(self, j: int) -> DegenerateEllipsoid:
        """Factor ``j``, counted from 1."""
        if not 1 <= j <= self.n_factors:
            raise ContractViolation(f"factor index must be in [1, {self.n_factors}], got {j}")
        return self.ellipsoids[j - 1]

    @classmethod
    def single(cls, subspace: Subspace, width: float) -> "PriorManifold":
        return cls((DegenerateEllipsoid(subspace, width),))


def prior_contains(prior: PriorManifold, h) -> bool:
    return all(ellipsoid_contains(e, h) for e in prior.ellipsoids)


def row_blocks(n_rows: int):
    """Slices of consecutive blocks of ``_PASS_ROWS`` rows covering ``n_rows``.

    A short tail is folded into the last block, so no block has fewer than
    ``_PASS_ROWS`` rows (nor twice as many) unless ``n_rows`` itself is
    smaller; zero rows give no block.
    """
    if n_rows == 0:
        return
    count = max(n_rows // _PASS_ROWS, 1)
    for b in range(count):
        yield slice(b * _PASS_ROWS, n_rows if b == count - 1 else (b + 1) * _PASS_ROWS)


def prefix_distances_sq(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Squared distance of each row of ``x`` (any leading shape) to the span
    of every column prefix of the orthonormal ``basis``, dims 0..d, as
    ``x.shape[:-1] + (d + 1,)``.

    The squared distance at prefix length j is built as the exact residual at
    the full basis (two passes) plus the squared coordinates beyond j;
    subtracting cumulative squares from ``||v||^2`` instead would bottom out
    at the cancellation level ``sqrt(eps_machine) * ||v||``, which matters
    when genuine widths sit many orders below the vector norms.  Every
    product is one ``np.matmul``, so stacked rows round as they would alone.
    """
    coords = x @ basis
    resid = x - coords @ basis.T
    resid -= (resid @ basis) @ basis.T  # second pass controls cancellation error
    term_sq = np.einsum("...j,...j->...", resid, resid)
    beyond = np.zeros(coords.shape[:-1] + (basis.shape[1] + 1,))
    beyond[..., :-1] = np.cumsum(coords[..., ::-1] ** 2, axis=-1)[..., ::-1]
    return term_sq[..., None] + beyond


def prefix_widths(vectors: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Worst-case distance of row vectors to every basis-prefix span (dims 1..d).

    ``basis`` is an (N, d) orthonormal matrix whose column prefixes define the
    nested spaces; the distances are those of :func:`prefix_distances_sq`,
    taken over blocks of rows with a running column maximum.
    """
    if basis.shape[1] == 0:
        return np.zeros(0)
    widest_sq = np.zeros(basis.shape[1])
    for rows in row_blocks(len(vectors)):
        np.maximum(widest_sq, prefix_distances_sq(vectors[rows], basis)[:, 1:].max(axis=0),
                   out=widest_sq)
    return np.sqrt(widest_sq)


@dataclass(frozen=True)
class SnapshotSet:
    """A finite cloud of ambient vectors, stored as rows of one matrix."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        if v.ndim != 2 or v.shape[0] == 0:
            raise ContractViolation(f"snapshot matrix must be 2-D and nonempty, got shape {v.shape}")
        if not all(np.isfinite(v[rows]).all() for rows in row_blocks(len(v))):
            raise ContractViolation("snapshots contain non-finite entries")
        v = np.ascontiguousarray(v)
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @classmethod
    def from_list(cls, snapshots) -> "SnapshotSet":
        return cls(np.vstack([as_vector(h) for h in snapshots]))

    @property
    def ambient_dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return self.vectors.shape[0]

    def __iter__(self):
        return iter(self.vectors)

    def concat(self, other: "SnapshotSet") -> "SnapshotSet":
        if other.ambient_dim != self.ambient_dim:
            raise ContractViolation("snapshot sets live in different ambient dimensions")
        return SnapshotSet(np.vstack([self.vectors, other.vectors]))

    @functools.cached_property
    def max_norm(self) -> float:
        """Largest snapshot norm, the cloud's width over S_0 = {0} (``vectors`` is
        read-only), with the row norms taken block by block."""
        return max(float(np.linalg.norm(self.vectors[rows], axis=1).max())
                   for rows in row_blocks(len(self)))

    def residual_norms(self, subspace: Subspace) -> np.ndarray:
        """Distances of every snapshot to ``subspace``."""
        if subspace.ambient_dim != self.ambient_dim:
            raise ContractViolation("subspace ambient dimension does not match snapshots")
        return distances(self.vectors, subspace.basis)
