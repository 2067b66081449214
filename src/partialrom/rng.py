"""Deterministic random-stream derivation.

All stochastic code in the package draws from Philox counter-based generators
keyed by an integer seed plus an index path, so independent components (and
independent manifold points within one run) get reproducible, non-overlapping
streams.
"""

from __future__ import annotations

import numpy as np


def derived_rng(seed: int, *path: int) -> np.random.Generator:
    """Return a generator for stream ``path`` under the master ``seed``.

    The same (seed, path) always yields the same stream; distinct paths give
    statistically independent streams.
    """
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, path)))


def derived_seed(seed: int, *path: int) -> int:
    """A 64-bit integer seed for stream ``path`` under the master ``seed``."""
    return int(_seed_sequence(seed, path).generate_state(1, np.uint64)[0])


def _seed_sequence(seed: int, path: tuple) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))


def as_rng(rng_or_seed: int | np.random.Generator) -> np.random.Generator:
    """Accept either a ready generator or a bare integer seed."""
    if isinstance(rng_or_seed, np.random.Generator):
        return rng_or_seed
    return derived_rng(int(rng_or_seed))
