"""Passes over a whole cloud hold temporaries of a few row blocks, not of the cloud.

The passes are a cloud's finiteness check (``SnapshotSet``), its largest norm,
the nested-prefix widths and greedy.  The posterior sampler likewise holds
temporaries of a few point blocks (``sampling._BLOCK_POINTS`` points) beyond
its output, and a run holds one posterior cloud at a time and frees the
thermal relaxed cloud once the prior is read off it.

``tracemalloc`` sees numpy's array allocations, so the peak it records inside
a call is the memory the call's arrays took on top of its inputs.  The bound
is six blocks of rows (plus greedy's few numbers per row), under a third of
the 20-block cloud and under a sixth of the 40-block one, so an edit that
brings back a temporary the size of the cloud fails here.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

import partialrom.experiment as experiment
from conftest import random_orthonormal
from partialrom.experiment import (
    _build_bundle,
    run_experiment,
    synthetic_defaults,
    thermal_defaults,
)
from partialrom.geometry import _PASS_ROWS, SnapshotSet, prefix_widths
from partialrom.greedy import StoppingRule, greedy
from partialrom.rng import derived_rng
from partialrom.sampling import _BLOCK_POINTS, sample_posterior
from partialrom.worlds import build_synthetic_world, build_thermal_world

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


def _retained_bytes(call) -> int:
    """Traced memory still held after ``call()`` above what was traced before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[0] - before
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


@pytest.mark.parametrize("n_factors", [1, 11])
def test_sampler_draws_in_place(sampler_peaks, n_factors):
    # A block's first round is drawn in place in its output rows, so no round
    # holds a Gaussian array, a batch of centers and a gathered copy of the
    # kept draws at once.  Drawing into a separate batch reads 4.2 (one tube)
    # and 6.1 (eleven) blocks here; in place reads 2.7 and 4.1.
    limit = {1: 3.2, 11: 4.6}[n_factors]
    peaks = [sampler_peaks[n_factors, n_points] for n_points in (128, 256)]
    assert max(peaks) < limit, peaks


def test_run_holds_one_posterior_cloud_at_a_time():
    # Two factors, so each repetition draws two clouds; each 256 x 5 x 200
    # cloud (2 MB) is eight point blocks.  The peak is the bundle, one cloud,
    # greedy's few numbers per row of it and 3.5 blocks of scratch.  Holding
    # the point-estimate cloud (256 x 200) through the repetitions reads 5.1
    # blocks, and the single-tube cloud while the multi-tube one is drawn 11.5.
    cfg = synthetic_defaults(n_factors=2, n_points=256, per_point=PER_POINT, reps=2, seed=3)
    run_experiment(cfg)  # warm-up: first-use caches are not the run's arrays
    bundles = []
    bundle_bytes = _retained_bytes(lambda: bundles.append(_build_bundle(cfg)))
    rows = cfg.n_points * PER_POINT
    cloud_bytes = rows * cfg.ambient * 8
    greedy_rows = rows * (cfg.i_max + 4) * 8
    block_bytes = _BLOCK_POINTS * PER_POINT * cfg.ambient * 8
    peak = _peak_bytes(lambda: run_experiment(cfg))
    extra_blocks = (peak - bundle_bytes - cloud_bytes - greedy_rows) / block_bytes
    assert extra_blocks < 4.5, extra_blocks


def test_thermal_relaxed_cloud_is_freed_before_the_t_greedy(monkeypatch):
    # The relaxed cloud is about ten times the target cloud at the defaults;
    # once its widths and the priors are read, nothing of the run refers to it.
    refs, alive_at_greedy = [], []

    def build_world(*args, **kwargs):
        world = build_thermal_world(*args, **kwargs)
        refs.append(weakref.ref(world.relax_cloud.vectors))
        return world

    def traced_greedy(*args, **kwargs):
        alive_at_greedy.append(refs[0]() is not None)
        return greedy(*args, **kwargs)

    monkeypatch.setattr(experiment, "build_thermal_world", build_world)
    monkeypatch.setattr(experiment, "greedy", traced_greedy)
    cfg = thermal_defaults(cells=4, t_steps=3, relax_max=16, m=4, n=8, reps=1, i_max=10,
                           per_point=2, seed=3)
    _build_bundle(cfg)
    assert alive_at_greedy == [False]
