"""Deterministic point estimation from partial observations.

The estimate for a single-ellipsoid prior is the center of the posterior
slice — the unique observation-consistent state with no deviation along the
unconstrained directions.  It is linear in the observation values, so a zero
observation maps to the exact zero vector.  Reducing the manifold of point
estimates (instead of the full posterior) is the natural baseline against
which the posterior-sampling pipeline is compared.
"""

from __future__ import annotations

import numpy as np

from .bases import SuitableBases, compute_suitable_bases
from .errors import UnsupportedPriorError
from .geometry import DegenerateEllipsoid, PriorManifold, SnapshotSet, Subspace
from .sampling import Observation, build_slice, observe_cloud


def _single_factor(prior: PriorManifold | DegenerateEllipsoid) -> DegenerateEllipsoid:
    if isinstance(prior, DegenerateEllipsoid):
        return prior
    if prior.n_factors != 1:
        raise UnsupportedPriorError(
            f"point estimation is defined for a single-ellipsoid prior, got {prior.n_factors} factors"
        )
    return prior.ellipsoids[0]


def point_estimate(
    obs: Observation,
    prior: PriorManifold | DegenerateEllipsoid,
    bases: SuitableBases,
) -> np.ndarray:
    """Slice center for ``obs`` under a single-ellipsoid prior."""
    return build_slice(obs, _single_factor(prior), bases).center


def estimate_manifold(
    manifold_samples: SnapshotSet,
    w_subspace: Subspace,
    prior: PriorManifold | DegenerateEllipsoid,
    bases: SuitableBases | None = None,
) -> SnapshotSet:
    """Point estimates of every manifold sample (the estimate manifold): the
    posterior sampler's per-point path from observation to slice center, so
    row i is bitwise ``point_estimate(observe(h_i, w_subspace), prior, bases)``."""
    factor = _single_factor(prior)
    if bases is None:
        bases = compute_suitable_bases(factor.subspace, w_subspace)
    a_star = bases.w_star_coefficients(observe_cloud(manifold_samples, w_subspace))
    return SnapshotSet(bases.slice_centers(a_star[:, None, :])[:, 0])
