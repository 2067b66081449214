"""Deterministic random-stream derivation.

All stochastic code in the package draws from Philox counter-based generators
keyed by an integer seed plus an index path, so independent components (and
independent manifold points within one run) get reproducible, non-overlapping
streams.  :class:`Streams` draws the per-point streams (seed, i) of a whole
cloud through one generator, keyed per point by :func:`point_keys`.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import ContractViolation

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_MASK = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def derived_rng(seed: int, *path: int) -> np.random.Generator:
    """Return a generator for stream ``path`` under the master ``seed``.

    The same (seed, path) always yields the same stream; distinct paths give
    statistically independent streams.
    """
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, path)))


def derived_seed(seed: int, *path: int) -> int:
    """A 64-bit integer seed for stream ``path`` under the master ``seed``."""
    return int(_seed_sequence(seed, path).generate_state(1, np.uint64)[0])


def _checked_seed(seed, name: str = "seed") -> int:
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ContractViolation(f"{name} must be a non-negative integer, got {seed!r}")
    return int(seed)


def _seed_sequence(seed: int, path: tuple) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        entropy=_checked_seed(seed),
        spawn_key=tuple(_checked_seed(p, f"stream path element {k}") for k, p in enumerate(path)),
    )


def point_keys(seed: int, count: int) -> np.ndarray:
    """Philox keys of ``derived_rng(seed, i)`` for every i < ``count``, (count, 2) uint64.

    ``SeedSequence(seed, spawn_key=(i,))`` hashes the seed's 32-bit words,
    zero-padded to the pool size (which hashes as the seed alone, so the
    pool so far is ``SeedSequence(seed).pool``), then mixes the word i into
    every pool word and hashes the pool into the key (``generate_state``).
    Those last two steps are done here over all i at once, in uint64 arrays
    masked to 32 bits; every hash constant is a Python int.
    """
    seed = _checked_seed(seed)
    if not 0 <= count <= _MASK:
        raise ContractViolation(f"count must be in [0, 2**32), got {count}")
    words = max(1, -(-seed.bit_length() // 32))
    pool = np.random.SeedSequence(seed).pool.astype(np.uint64)
    # hashmix calls so far: one per pool word, one per ordered pair of pool
    # words, and one per pool word for each seed word beyond the pool size.
    calls = _POOL_SIZE**2 + _POOL_SIZE * max(0, words - _POOL_SIZE)
    hash_a = _INIT_A * pow(_MULT_A, calls, 2**32) & _MASK
    index = np.arange(count, dtype=np.uint64)
    state = np.empty((_POOL_SIZE, count), dtype=np.uint64)
    hash_b = _INIT_B
    for k in range(_POOL_SIZE):
        value = index ^ hash_a
        hash_a = hash_a * _MULT_A & _MASK
        value = value * hash_a & _MASK
        value ^= value >> 16
        mixed = (_MIX_MULT_L * pool[k] - _MIX_MULT_R * value) & _MASK
        mixed ^= mixed >> 16
        mixed ^= hash_b
        hash_b = hash_b * _MULT_B & _MASK
        mixed = mixed * hash_b & _MASK
        state[k] = mixed ^ (mixed >> 16)
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)


class Streams:
    """Random streams by point index, all drawn through one generator, so a
    cloud of points costs one ``Generator`` and one ``SeedSequence`` of the
    seed, not one of each per point.

    ``Streams(gen)`` hands out the caller's ``gen`` for every point, as it
    stands (a one-point call).  ``Streams.per_point(seed, count)`` gives
    point i the stream of ``derived_rng(seed, i)``: :meth:`open` sets the
    one Philox generator to point i's key, at counter 0 with an empty buffer,
    unless :meth:`hold` kept point i's state after an earlier draw, which it
    then resumes.
    """

    def __init__(self, gen: np.random.Generator, keys: np.ndarray | None = None):
        self.gen = gen
        self.keys = keys
        self._held: dict[int, dict] = {}
        self._fresh = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": None},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    @classmethod
    def per_point(cls, seed: int, count: int) -> "Streams":
        return cls(np.random.Generator(np.random.Philox(key=0)), point_keys(seed, count))

    def open(self, i: int) -> np.random.Generator:
        """The generator, positioned at point ``i``'s stream."""
        if self.keys is not None:
            state = self._held.pop(i, None)
            if state is None:
                self._fresh["state"]["key"] = self.keys[i]
                state = self._fresh
            self.gen.bit_generator.state = state
        return self.gen

    def hold(self, i: int) -> None:
        """Keep point ``i``'s state after a draw, for its next :meth:`open`."""
        if self.keys is not None:
            self._held[i] = self.gen.bit_generator.state


def as_rng(rng_or_seed: int | np.random.Generator) -> np.random.Generator:
    """Accept either a ready generator or a bare integer seed."""
    if isinstance(rng_or_seed, np.random.Generator):
        return rng_or_seed
    return derived_rng(rng_or_seed)
