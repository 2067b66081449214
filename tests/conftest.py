"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from partialrom.geometry import Subspace
from partialrom.rng import derived_rng


def random_orthonormal(rng: np.random.Generator, ambient_dim: int, dim: int) -> np.ndarray:
    """A uniformly random (N, d) matrix with orthonormal columns."""
    g = rng.standard_normal((ambient_dim, dim))
    q, _ = np.linalg.qr(g)
    return q[:, :dim]


def random_subspace_pair(
    rng: np.random.Generator, ambient_dim: int, m: int, n: int
) -> tuple[Subspace, Subspace]:
    """An independent random (W, V) observation/prior subspace pair."""
    w = Subspace(random_orthonormal(rng, ambient_dim, m))
    v = Subspace(random_orthonormal(rng, ambient_dim, n))
    return w, v


def prescribed_pair(
    rng: np.random.Generator, m: int, n: int, p: int, q: int, r: int, cosines=None
) -> tuple[Subspace, Subspace]:
    """A (W, V) pair with p principal cosines equal to 1, q - p strictly
    between 0 and 1 (``cosines`` if given, else uniform draws), the rest 0,
    and an r-dim W⊥ ∩ V⊥ (ambient m + n - p + r).

    Column j of V is cos_j w_j (j < min(m, n)) plus, for j >= p, sin_j times
    its own direction outside W, so V's columns are its rotated basis v*.
    """
    ambient = m + n - p + r
    e = np.linalg.qr(rng.standard_normal((ambient, ambient)))[0]
    if cosines is None:
        cosines = rng.uniform(0.05, 0.95, q - p)
    cosines = np.concatenate([np.ones(p), cosines, np.zeros(n - q)])
    k = min(m, n)
    v = np.zeros((ambient, n))
    v[:, :k] = e[:, :k] * cosines[:k]
    v[:, p:] += e[:, m : m + n - p] * np.sqrt(1.0 - cosines[p:] ** 2)
    return Subspace(e[:, :m]), Subspace(v)


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return derived_rng(987654321)
