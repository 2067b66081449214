"""Passes over a whole cloud hold temporaries of a few row blocks, not of the cloud.

The passes are a cloud's finiteness check (``SnapshotSet``), its largest norm,
the nested-prefix widths and greedy.  The posterior sampler likewise holds
temporaries of a few point blocks (``sampling._BLOCK_POINTS`` points) beyond
its output.

``tracemalloc`` sees numpy's array allocations, so the peak it records inside
a call is the memory the call's arrays took on top of its inputs.  The bound
is six blocks of rows (plus greedy's few numbers per row), under a third of
the 20-block cloud and under a sixth of the 40-block one, so an edit that
brings back a temporary the size of the cloud fails here.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import random_orthonormal
from partialrom.geometry import _PASS_ROWS, SnapshotSet, prefix_widths
from partialrom.greedy import StoppingRule, greedy
from partialrom.rng import derived_rng
from partialrom.sampling import _BLOCK_POINTS, sample_posterior
from partialrom.worlds import build_synthetic_world

AMBIENT = 300
MAX_DIM = 10
BLOCK_BYTES = _PASS_ROWS * AMBIENT * 8
PASSES = ["SnapshotSet", "prefix_widths", "max_norm", "greedy"]


def _peak_bytes(call) -> int:
    """Peak traced memory during ``call()`` above what was traced before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _cloud(n_rows: int) -> np.ndarray:
    """Rank 6 plus 1e-9 noise, so greedy's stale-row recompute runs too."""
    rng = derived_rng(31, n_rows)
    low_rank = rng.standard_normal((n_rows, 6)) @ rng.standard_normal((6, AMBIENT))
    return low_rank + 1e-9 * rng.standard_normal((n_rows, AMBIENT))


def _passes(n_rows: int) -> dict[str, int]:
    vectors = _cloud(n_rows)
    basis = random_orthonormal(derived_rng(32), AMBIENT, MAX_DIM)
    clouds = [SnapshotSet(vectors) for _ in range(2)]  # max_norm is cached per cloud
    return {
        "SnapshotSet": _peak_bytes(lambda: SnapshotSet(vectors)),
        "prefix_widths": _peak_bytes(lambda: prefix_widths(vectors, basis)),
        "max_norm": _peak_bytes(lambda: clouds[0].max_norm),
        "greedy": _peak_bytes(lambda: greedy(clouds[1], StoppingRule(max_dim=MAX_DIM))),
    }


@pytest.fixture(scope="module")
def peaks() -> dict[int, dict[str, int]]:
    return {n: _passes(n) for n in (20 * _PASS_ROWS, 40 * _PASS_ROWS)}


@pytest.mark.parametrize("name", PASSES)
def test_peak_is_a_few_blocks_plus_per_row_state(peaks, name):
    for n_rows, by_name in peaks.items():
        # A block holds fewer than 2 * _PASS_ROWS rows and a step keeps up to
        # three arrays of a block; greedy also keeps a few numbers per row.
        per_row = n_rows * (MAX_DIM + 4) * 8 if name == "greedy" else 0
        assert by_name[name] < 6 * BLOCK_BYTES + per_row, (n_rows, by_name[name])


@pytest.mark.parametrize("name", PASSES)
def test_peak_does_not_grow_with_the_rows(peaks, name):
    small, large = peaks[20 * _PASS_ROWS][name], peaks[40 * _PASS_ROWS][name]
    per_row = 20 * _PASS_ROWS * (MAX_DIM + 4) * 8 if name == "greedy" else 0
    assert large - small < BLOCK_BYTES / 8 + per_row, (small, large)


PER_POINT = 5


@pytest.fixture(scope="module")
def sampler_peaks() -> dict[tuple[int, int], float]:
    """Peak of one ``sample_posterior`` call beyond its output, in point blocks
    of ``_BLOCK_POINTS * PER_POINT`` rows, per (tubes, points)."""
    world = build_synthetic_world(n_points=256, seed=3)
    w = world.observation_subspace(25)
    block_bytes = _BLOCK_POINTS * PER_POINT * world.ambient_dim * 8
    peaks = {}
    for n_factors in (1, 11):
        prior = world.prior_manifold(25, n_factors)
        for n_points in (128, 256):
            cloud = SnapshotSet(world.cloud.vectors[:n_points])
            out = []
            peak = _peak_bytes(lambda: out.append(sample_posterior(cloud, w, prior, PER_POINT)))
            peaks[n_factors, n_points] = (peak - out[0].vectors.nbytes) / block_bytes
    return peaks


@pytest.mark.parametrize("n_factors", [1, 11])
def test_sampler_peak_is_a_few_point_blocks(sampler_peaks, n_factors):
    # The scratch arrays of one round are a few blocks; the held Philox states
    # of a multi-tube prior grow with the points, by well under a block here.
    small, large = sampler_peaks[n_factors, 128], sampler_peaks[n_factors, 256]
    assert large < 7, (small, large)
    assert large - small < 1, (small, large)
