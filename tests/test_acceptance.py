"""Acceptance gate: nine end-to-end criteria, one reported line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
``ACCEPTANCE <n> <name>: PASS|FAIL`` lines on the terminal.  Every check is
fully seeded, so the measured quantities are identical on every run.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import partialrom
from conftest import random_subspace_pair
from partialrom.bases import SuitableBases, compute_suitable_bases
from partialrom.bounds import (
    certificate_widths,
    empirical_width,
    posterior_width_bounds,
    width_degenerate_ellipsoid,
)
from partialrom.estimate import point_estimate
from partialrom.experiment import run_experiment, synthetic_defaults, thermal_defaults
from partialrom.geometry import DegenerateEllipsoid, PriorManifold, SnapshotSet, Subspace
from partialrom.rng import derived_rng
from partialrom.sampling import (
    build_slice,
    observe,
    sample_posterior,
    sample_slice,
    sample_slice_multi,
    union_set_contains,
)

INF = float("inf")


def _report(number, name, problems, detail=""):
    ok = not problems
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}): " + "; ".join(problems) + (
        f" [{detail}]" if detail else ""
    )


def _mean_curve(result, method, target):
    """Average the recorded error curve of (method, target) across reps."""
    by_rep = {}
    for rec in result.records:
        if rec.method == method and rec.target == target:
            by_rep.setdefault(rec.rep, {})[rec.i] = rec.value
    reps = sorted(by_rep)
    i_vals = sorted(by_rep[reps[0]])
    table = np.array([[by_rep[r][i] for i in i_vals] for r in reps])
    return np.asarray(i_vals), table.mean(axis=0)


def test_suitable_bases_invariant_suite():
    start = time.perf_counter()
    problems = []
    ambient = 40
    for trial in range(100):
        rng = derived_rng(1001, trial)
        m = int(rng.integers(1, 16))
        n = int(rng.integers(1, 16))
        w, v = random_subspace_pair(rng, ambient, m, n)
        b = compute_suitable_bases(v, w)
        if np.abs(b.w_star.T @ b.w_star - np.eye(m)).max() > 1e-10:
            problems.append(f"trial {trial}: rotated observation basis not orthonormal")
        if np.abs(b.v_star.T @ b.v_star - np.eye(n)).max() > 1e-10:
            problems.append(f"trial {trial}: rotated prior basis not orthonormal")
        cross = b.w_star.T @ b.v_star
        expected = np.zeros((m, n))
        d = min(m, n)
        expected[:d, :d] = np.diag(b.sigma)
        if np.abs(cross - expected).max() > 1e-8:
            problems.append(f"trial {trial}: cross-Gram is not diag(sigma)")
        blocks = np.column_stack(
            [b.w_star, b.w_tilde, b.v_star_tail, b.u_basis]
        )
        if blocks.shape != (ambient, ambient):
            problems.append(f"trial {trial}: four blocks have {blocks.shape[1]} columns")
        elif np.abs(blocks.T @ blocks - np.eye(ambient)).max() > 1e-10:
            problems.append(f"trial {trial}: four-block basis is not an ONB of the ambient space")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        problems.append(f"runtime {elapsed:.2f}s >= 5s")
    _report(1, "suitable-bases-invariants", problems[:5], f"{elapsed:.2f}s")


def test_slice_sampler_soundness():
    start = time.perf_counter()
    problems = []
    ambient = 30
    for trial in range(50):
        rng = derived_rng(2002, trial)
        m = int(rng.integers(2, 11))
        n = int(rng.integers(2, 9))
        eps_prime = float(rng.choice([0.05, 0.5]))
        w, v = random_subspace_pair(rng, ambient, m, n)
        in_v = v.basis @ rng.standard_normal(n)
        perp = rng.standard_normal(ambient)
        perp -= v.basis @ (v.basis.T @ perp)
        perp *= (0.8 * eps_prime * rng.random()) / np.linalg.norm(perp)
        h = in_v + perp
        obs = observe(h, w)
        prior = DegenerateEllipsoid(v, eps_prime)
        bases = compute_suitable_bases(v, w)
        samples = sample_slice(build_slice(obs, prior, bases), 1000, rng=rng)
        obs_err = np.abs(w.basis.T @ samples.vectors.T - obs.values[:, None]).max()
        if obs_err > 1e-8:
            problems.append(f"trial {trial}: observation mismatch {obs_err:.2e}")
        dist = samples.residual_norms(v).max()
        if dist > eps_prime + 1e-8:
            problems.append(f"trial {trial}: prior width violated by {dist - eps_prime:.2e}")

    for trial in range(5):
        rng = derived_rng(2003, trial)
        w, v2 = random_subspace_pair(rng, ambient, 12, 6)
        v1 = Subspace(v2.basis[:, :3])
        w1, w2 = 0.8, 0.1
        prior = PriorManifold((DegenerateEllipsoid(v1, w1), DegenerateEllipsoid(v2, w2)))
        h = (
            v1.basis @ rng.standard_normal(3)
            + 0.5 * w2 * v2.basis[:, 3]
            + 0.3 * w2 * _unit_perp(rng, v2)
        )
        obs = observe(h, w)
        bases = compute_suitable_bases(v2, w)
        res = sample_slice_multi(obs, prior, j_star=2, n_samples=200, rng=rng, bases=bases)
        if not res.complete:
            problems.append(f"nested trial {trial}: rejection sampler did not complete")
        obs_err = np.abs(w.basis.T @ res.samples.vectors.T - obs.values[:, None]).max()
        if obs_err > 1e-8:
            problems.append(f"nested trial {trial}: observation mismatch {obs_err:.2e}")
        for factor in prior.ellipsoids:
            worst = res.samples.residual_norms(factor.subspace).max()
            if worst > factor.width + 1e-8:
                problems.append(
                    f"nested trial {trial}: factor width {factor.width} exceeded ({worst:.4e})"
                )
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        problems.append(f"runtime {elapsed:.2f}s >= 30s")
    _report(2, "sampler-soundness", problems[:5], f"{elapsed:.2f}s")


def _unit_perp(rng, subspace):
    vec = rng.standard_normal(subspace.ambient_dim)
    vec -= subspace.basis @ (subspace.basis.T @ vec)
    return vec / np.linalg.norm(vec)


def test_point_estimate_matches_slice_center():
    problems = []
    for trial in range(100):
        rng = derived_rng(3003, trial)
        ambient = int(rng.integers(10, 41))
        m = int(rng.integers(1, 1 + min(12, ambient // 2)))
        n = int(rng.integers(1, 1 + min(12, ambient // 2)))
        w, v = random_subspace_pair(rng, ambient, m, n)
        prior = DegenerateEllipsoid(v, 0.2)
        bases = compute_suitable_bases(v, w)
        h = rng.standard_normal(ambient)
        obs = observe(h, w)
        est = point_estimate(obs, prior, bases)
        center = build_slice(obs, prior, bases).center
        if np.abs(est - center).max() > 1e-10:
            problems.append(f"trial {trial}: estimate differs from slice center")
        zero_est = point_estimate(observe(np.zeros(ambient), w), prior, bases)
        if not (zero_est == 0.0).all():
            problems.append(f"trial {trial}: zero observation did not return exact zeros")
    _report(3, "point-estimate-identity", problems[:5])


def test_posterior_cloud_respects_width_bounds():
    start = time.perf_counter()
    problems = []
    ambient, m, n, k = 40, 8, 10, 2
    eps_prime = 0.05
    for trial in range(20):
        rng = derived_rng(4004, trial)
        w, v = random_subspace_pair(rng, ambient, m, n)
        t_sub = Subspace(v.basis[:, :k])
        coords = rng.uniform(-1.0, 1.0, size=(100, k))
        noise = rng.standard_normal((100, ambient))
        noise /= np.linalg.norm(noise, axis=1, keepdims=True)
        noise *= (1e-6 * rng.random(100))[:, None]
        manifold = SnapshotSet(coords @ t_sub.basis.T + noise)
        eps = empirical_width(manifold, t_sub)

        prior = DegenerateEllipsoid(v, eps_prime)
        bases = compute_suitable_bases(v, w)
        cloud = sample_posterior(manifold, w, prior, per_point=100, seed=4100 + trial)
        i_max = k + (ambient - m)
        curve = posterior_width_bounds(
            k, n, ambient, eps, eps_prime, bases.sigma, bases.p, bases.q, m, i_max=i_max
        )
        widths = certificate_widths(cloud, t_sub, bases, i_max)
        for i, bound in enumerate(curve.combined):
            if not math.isfinite(bound):
                continue
            width = widths[i]
            if width > bound + 1e-6:
                problems.append(
                    f"trial {trial}: width {width:.4e} exceeds bound {bound:.4e} at i={i}"
                )
                break
        for x in cloud.vectors[:: len(cloud.vectors) // 5]:
            if not union_set_contains(x, t_sub, eps, prior, bases):
                problems.append(f"trial {trial}: posterior sample escaped the slice union")
                break
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        problems.append(f"runtime {elapsed:.2f}s >= 120s")
    _report(4, "width-bound-monte-carlo", problems[:5], f"{elapsed:.2f}s")


def test_closed_form_tube_width_table():
    problems = []
    for k, eps in ((4, 1e-5), (25, 1e-2), (45, 1e-4)):
        for i in range(k):
            if width_degenerate_ellipsoid(k, eps, i) != INF:
                problems.append(f"(k={k}) width at i={i} should be infinite")
        for i in range(k, k + 20):
            if width_degenerate_ellipsoid(k, eps, i) != eps:
                problems.append(f"(k={k}) width at i={i} should equal {eps} exactly")
    _report(5, "closed-form-widths", problems[:5])


def test_synthetic_benchmark_reproduction():
    start = time.perf_counter()
    problems = []
    cfg = synthetic_defaults(
        n_factors=11, reps=5, per_point=5, n_points=150, i_max=40, seed=1234
    )
    result = run_experiment(cfg)

    _, point_post = _mean_curve(result, "point", "Mpost")
    for method in ("post_single", "post_multi"):
        _, post = _mean_curve(result, method, "Mpost")
        ratio = float((post / point_post).max())
        if ratio > 1.05:
            problems.append(
                f"{method} exceeds the point-estimate curve on the posterior cloud "
                f"(worst ratio {ratio:.4f} > 1.05)"
            )

    m, k_hat = cfg.m, cfg.k_hat
    _, point_m = _mean_curve(result, "point", "M")
    floor = float(point_m[: m - k_hat + 1].min())
    if floor < 0.5 * cfg.eps_main:
        problems.append(
            f"point-estimate error dropped to {floor:.4e} before i = m - k_hat "
            f"(limit {0.5 * cfg.eps_main})"
        )
    _, post_m = _mean_curve(result, "post_single", "M")
    at_recovery = float(post_m[k_hat + 5])
    if at_recovery >= 10.0 * cfg.eps_perturb:
        problems.append(
            f"posterior-sampling error {at_recovery:.4e} at i = k_hat + 5 is not below "
            f"{10.0 * cfg.eps_perturb}"
        )
    elapsed = time.perf_counter() - start
    if elapsed >= 300.0:
        problems.append(f"runtime {elapsed:.2f}s >= 300s")
    _report(6, "synthetic-reproduction", problems[:5], f"{elapsed:.2f}s")


def test_thermal_benchmark_reproduction():
    start = time.perf_counter()
    problems = []
    cfg = thermal_defaults(
        t_steps=10, relax_max=2000, reps=3, m=10, n=30, per_point=5, i_max=40, seed=1234
    )
    result = run_experiment(cfg)
    eps_prime_last = float(result.manifest["eps_prime"])

    _, post = _mean_curve(result, "post_single", "Mpost")
    floor_ratio = float(post[cfg.i_max]) / eps_prime_last
    if not (1.0 / 3.0 <= floor_ratio <= 3.0):
        problems.append(
            f"error floor is {floor_ratio:.3f}x the empirical prior width "
            f"(required within a factor 3)"
        )
    below_one = np.nonzero(post < 1.0)[0]
    first = int(below_one[0]) if below_one.size else cfg.i_max + 1
    if first < cfg.n - cfg.m:
        problems.append(
            f"posterior curve drops below 1.0 at i={first}, before n - m = {cfg.n - cfg.m}"
        )
    elapsed = time.perf_counter() - start
    if elapsed >= 600.0:
        problems.append(f"runtime {elapsed:.2f}s >= 600s")
    _report(7, "thermal-reproduction", problems[:5], f"{elapsed:.2f}s")


def test_sampling_cost_scales_linearly_in_ambient_dim(monkeypatch):
    def forbid(self):
        raise AssertionError("full ambient basis must not be materialized while sampling")

    monkeypatch.setattr(SuitableBases, "u_basis", property(forbid))

    def posterior_run(ambient):
        rng = derived_rng(8008, ambient)
        w, v = random_subspace_pair(rng, ambient, 20, 20)
        coords = rng.standard_normal((20, 20))
        manifold = SnapshotSet(coords @ v.basis.T)
        prior = DegenerateEllipsoid(v, 0.1)

        def run():
            t0 = time.perf_counter()
            sample_posterior(manifold, w, prior, per_point=100, seed=88)
            return time.perf_counter() - t0

        run()  # warm-up
        return run

    # Interleaved, so a burst of load from other processes hits both sizes.
    run_small, run_large = posterior_run(400), posterior_run(800)
    t_small = t_large = INF
    for _ in range(5):
        t_small = min(t_small, run_small())
        t_large = min(t_large, run_large())
    ratio = t_large / t_small
    problems = []
    if ratio > 2.5:
        problems.append(
            f"doubling the ambient dimension scaled wall time by {ratio:.2f}x "
            f"({t_small * 1e3:.1f} ms -> {t_large * 1e3:.1f} ms), limit 2.5x"
        )
    _report(8, "complexity-scaling", problems, f"{ratio:.2f}x")


def test_identical_seeds_byte_identical_csv(tmp_path):
    code = "import sys; from partialrom.cli import main; sys.exit(main(sys.argv[1:]))"
    # The child imports the package this suite imported, installed or not.
    path = [str(Path(partialrom.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}

    def run(out_dir):
        args = [
            sys.executable, "-c", code,
            "setup2", "--out", str(out_dir),
            "--ambient", "24", "--n-max", "10", "--k-hat", "2", "--delta", "1e-2",
            "--m", "6", "--n", "6", "--n-points", "6", "--per-point", "2",
            "--reps", "2", "--i-max", "6", "--seed", "42",
        ]
        proc = subprocess.run(args, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return (out_dir / "curves.csv").read_bytes()

    first = run(tmp_path / "a")
    second = run(tmp_path / "b")
    problems = []
    if first != second:
        problems.append("two runs with the same seed produced different CSV bytes")
    _report(9, "determinism", problems)
