"""Tests for deterministic derived random streams."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from partialrom.errors import ContractViolation
from partialrom.rng import Streams, as_rng, derived_rng, derived_seed, point_keys

#: Seeds of one to five 32-bit words, at the word boundaries, plus random
#: 64-bit seeds drawn once from a fixed stream.
KEY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128 + 987654321] + [
    int(s) for s in np.random.default_rng(2024).integers(0, 2**64, 4, dtype=np.uint64)
]


def test_same_seed_and_path_reproduces():
    a = derived_rng(42, 3, 1).standard_normal(8)
    b = derived_rng(42, 3, 1).standard_normal(8)
    assert_allclose(a, b, rtol=0)


def test_different_paths_differ():
    a = derived_rng(42, 0).standard_normal(8)
    b = derived_rng(42, 1).standard_normal(8)
    c = derived_rng(42, 0, 0).standard_normal(8)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)


def test_different_seeds_differ():
    a = derived_rng(1).standard_normal(8)
    b = derived_rng(2).standard_normal(8)
    assert not np.allclose(a, b)


def test_uses_counter_based_bit_generator():
    gen = derived_rng(0)
    assert type(gen.bit_generator).__name__ == "Philox"


def test_as_rng_passthrough_and_seed():
    gen = derived_rng(7)
    assert as_rng(gen) is gen
    assert_allclose(as_rng(7).standard_normal(4), derived_rng(7).standard_normal(4), rtol=0)


def test_derived_seed_streams_are_pinned():
    # The harness seeds its posterior clouds (paths 21 and 22) and the sample
    # command (path 41) with these; changing them changes every curves.csv.
    assert derived_seed(1234, 21, 0) == 6526231902357209946
    assert derived_seed(1234, 22, 4) == 10082556834527395002
    assert derived_seed(1234, 41) == 12149159294769532915


@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_point_keys_are_seed_sequence_philox_keys(seed):
    # Pins the vectorized hash to numpy's own: a numpy release that changed
    # SeedSequence or Philox seeding would fail here, not in moved curves.
    keys = point_keys(seed, 3000)
    expected = [
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(i,))).state["state"]["key"]
        for i in range(3000)
    ]
    assert keys.dtype == np.uint64 and np.array_equal(keys, np.array(expected))
    assert np.array_equal(point_keys(seed, 7), keys[:7])


@pytest.mark.parametrize("seed", [0, 2**64 - 1, 2**128 + 987654321])
def test_streams_resume_each_point_bitwise(seed):
    # Two chunks per point, the points interleaved, each resumed from the
    # state it held: bitwise derived_rng(seed, i) drawing both chunks in turn.
    streams = Streams.per_point(seed, 5)
    first, second = {}, {}
    for i in (3, 0, 4):
        gen = streams.open(i)
        first[i] = (gen.standard_normal(7), gen.random(3))
        streams.hold(i)
    for i in (4, 3, 0):
        gen = streams.open(i)
        second[i] = (gen.standard_normal(5), gen.random(2))
    for i in (0, 3, 4):
        gen = derived_rng(seed, i)
        expected = [gen.standard_normal(7), gen.random(3), gen.standard_normal(5), gen.random(2)]
        assert all(np.array_equal(a, b) for a, b in zip([*first[i], *second[i]], expected))
    # A point opened without a hold starts its stream afresh.
    start = derived_rng(seed, 1).standard_normal(4)
    assert np.array_equal(streams.open(1).standard_normal(4), start)
    assert np.array_equal(streams.open(1).standard_normal(4), start)


def test_streams_of_a_generator_continue_it():
    # A one-point call's generator is handed out as it stands, never re-keyed.
    gen, twin = derived_rng(8), derived_rng(8)
    streams = Streams(gen)
    first = streams.open(0).random(3)
    streams.hold(0)
    second = streams.open(0).random(3)
    assert streams.open(5) is gen
    assert np.array_equal(np.concatenate([first, second]), twin.random(6))


@pytest.mark.parametrize("seed", [-1, 1.5, "3", True, np.float64(2.0)])
def test_bad_seeds_are_contract_violations(seed):
    calls = (lambda: point_keys(seed, 3), lambda: derived_rng(seed), lambda: derived_seed(seed, 1))
    for call in calls:
        with pytest.raises(ContractViolation, match="^seed must be a non-negative integer"):
            call()


def test_numpy_integer_seeds_are_accepted():
    assert np.array_equal(point_keys(np.uint64(2**64 - 1), 4), point_keys(2**64 - 1, 4))
    assert derived_seed(np.int64(1234), 41) == derived_seed(1234, 41)


@pytest.mark.parametrize("element", [-1, 1.5, "3", True, np.float64(2.0)])
def test_bad_stream_path_elements_are_contract_violations(element):
    # Each path element obeys the seed's rule: coercing with int() would draw
    # stream 1 for 1.5 and for True, and -1 would end in numpy's ValueError.
    calls = ((0, lambda: derived_rng(0, element)), (1, lambda: derived_seed(3, 2, element)))
    for k, call in calls:
        with pytest.raises(ContractViolation, match=f"^stream path element {k} must be a non-neg"):
            call()


def test_numpy_integer_stream_path_elements_are_accepted():
    assert derived_seed(1234, np.int64(22), np.uint8(4)) == derived_seed(1234, 22, 4)
    a = derived_rng(0, np.int32(1)).standard_normal(4)
    assert np.array_equal(a, derived_rng(0, 1).standard_normal(4))
