"""The four benchmark workloads: inputs from a seed, operations, replays, checks.

An *operation* is one experiment run (``thermal``, ``synthetic``) or one
Monte-Carlo trial (``widths_mc``, ``widths_highdim``).  A *pass* is the
workload as specified once: one experiment, or every trial.

``BENCHMARK.json`` gates ``thermal`` and ``synthetic`` only.  On a 2-vCPU
virtual machine the operation times of the ``widths_*`` workloads swing by up
to 2x for tens of seconds at a time with the host's load, so the medians of
20-second runs spread 23-26% (interquartile range over median, ten seeds)
where the gate allows at most 25%.  They stay runnable by name for layer work
on sampling at small N (``widths_mc``) and on ``bounds`` / ``bases.u_basis``
(``widths_highdim``), which the gated workloads do not reach.

Untraced operations call ``partialrom`` exactly as a user would.  Traced
operations replay the same work through the public calls it is made of, with a
span around each call (see ``tracing.py``); nothing inside the package is
patched.  Correctness checks run outside the timed region and do not depend on
the random stream, so they keep holding when a later change redraws it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from partialrom.bases import compute_suitable_bases
from partialrom.bounds import empirical_width, posterior_width_bounds, proof_subspace
from partialrom.estimate import estimate_manifold
from partialrom.experiment import (
    CurveRecord,
    ExperimentResult,
    RunConfig,
    nested_width_curve_from_greedy,
    run_experiment,
    synthetic_defaults,
    thermal_defaults,
)
from partialrom.geometry import DegenerateEllipsoid, SnapshotSet, Subspace
from partialrom.greedy import StoppingRule, greedy
from partialrom.rng import derived_rng
from partialrom.sampling import (
    PiDistribution,
    observe,
    sample_posterior,
    sample_slice_multi,
)
from partialrom.thermal import ThermalBlockModel
from partialrom.worlds import build_synthetic_world, build_thermal_world, random_subspace

#: Greedy and nested-width curves may not rise by more than this relative amount.
CURVE_RTOL = 1e-12
#: A certified width may exceed its closed-form bound by at most this much.
BOUND_TOL = 1e-6
#: A draw reproduces its observation to this tolerance, relative to its norm.
OBS_RTOL = 1e-10
#: A draw may lie this far beyond the prior tube width.
TUBE_TOL = 1e-9


def derived_seed(master: int, *path: int) -> int:
    """The integer seed ``run_experiment`` derives for stream ``path``."""
    ss = np.random.SeedSequence(entropy=master, spawn_key=path)
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# Experiment workloads (thermal, synthetic)
# ---------------------------------------------------------------------------


@dataclass
class ExperimentOutcome:
    records: list
    n_points: int
    rep_infos: list
    eps_prime: float
    csv_path: Path


class ExperimentWorkload:
    """One ``run_experiment`` + ``write`` per operation; one operation per pass."""

    def __init__(self, make_config):
        self.make_config = make_config

    def make_inputs(self, seed: int, tiny: bool) -> RunConfig:
        cfg = self.make_config(seed, tiny)
        cfg.validate()
        return cfg

    def pass_ops(self, cfg: RunConfig) -> int:
        return 1

    def run_op(self, cfg: RunConfig, k: int, out_dir: Path, tracer) -> ExperimentOutcome:
        if tracer.enabled:
            result = replay_experiment(cfg, tracer)
            with tracer.span("experiment.write"):
                csv_path, _ = result.write(out_dir)
        else:
            result = run_experiment(cfg)
            csv_path, _ = result.write(out_dir)
        return ExperimentOutcome(
            records=result.records,
            n_points=result.manifest["n_manifold_points"],
            rep_infos=result.manifest["repetitions"],
            eps_prime=float(result.manifest["eps_prime"]),
            csv_path=csv_path,
        )

    def check(self, cfg: RunConfig, outcome: ExperimentOutcome) -> list[str]:
        return check_experiment(cfg, outcome)


def _thermal_config(seed: int, tiny: bool) -> RunConfig:
    if tiny:
        return thermal_defaults(
            cells=4, t_steps=3, relax_max=16, reps=2, m=4, n=8, per_point=2, i_max=10,
            jobs=1, seed=seed,
        )
    return thermal_defaults(
        cells=24, t_steps=10, relax_max=256, reps=3, m=10, n=30, per_point=5, i_max=40,
        jobs=1, seed=seed,
    )


def _synthetic_config(seed: int, tiny: bool) -> RunConfig:
    if tiny:
        return synthetic_defaults(
            n_factors=11, reps=2, n_points=40, per_point=3, i_max=40, jobs=1, seed=seed
        )
    return synthetic_defaults(
        n_factors=11, reps=5, n_points=150, per_point=5, i_max=40, jobs=1, seed=seed
    )


def _records(method: str, rep: int, target: str, values) -> list[CurveRecord]:
    return [CurveRecord(method, rep, i, target, float(v)) for i, v in enumerate(values)]


def _greedy(tr, cloud: SnapshotSet, stop: StoppingRule):
    tr.add("greedy.rows", len(cloud))
    return tr.call("greedy", greedy, cloud, stop)


def _widths(tr, gr, cloud: SnapshotSet, i_max: int) -> list[float]:
    return tr.call("geometry.prefix_widths", nested_width_curve_from_greedy, gr, cloud, i_max)


@dataclass
class _Bundle:
    m_cloud: SnapshotSet
    w: Subspace
    prior_single: object
    prior_multi: object
    widths: np.ndarray
    t_sub: Subspace
    eps_intrinsic: float
    bases: object


def _replay_bundle(cfg: RunConfig, tr) -> _Bundle:
    """The world set-up of ``run_experiment``, one public call per span."""
    if cfg.setup == 1:
        model = tr.call("thermal.assembly", ThermalBlockModel, cfg.cells)
        # Instance attribute: times every solve without touching the class.
        model.solve = functools.partial(tr.call, "thermal.solve", model.solve)
        with tr.span("worlds.build"):
            world = build_thermal_world(
                model,
                theta_min=cfg.theta_min,
                theta_step=cfg.theta_step,
                t_steps=cfg.t_steps,
                relax_max=cfg.relax_max,
                n_prior=cfg.n,
                flux=cfg.flux,
            )
            n_dim = world.n_prior
            prior_single = world.prior_manifold(1)
            prior_multi = world.prior_manifold(cfg.n_factors) if cfg.n_factors > 1 else None
            w_sub = random_subspace(model.ambient_dim, cfg.m, derived_rng(cfg.seed, 11))
            widths = np.empty(n_dim + 1)
            widths[0] = float(np.linalg.norm(world.relax_cloud.vectors, axis=1).max())
            widths[1:] = world.greedy_prior.error_curve[:n_dim]
        v_single = prior_single.ellipsoids[0].subspace
        proj = (world.m_cloud.vectors @ v_single.basis) @ v_single.basis.T
        t_gr = _greedy(tr, SnapshotSet(proj), StoppingRule(max_dim=cfg.k_intrinsic or 4))
        t_sub = t_gr.subspace(t_gr.terminal_dim)
        m_cloud = world.m_cloud
    else:
        with tr.span("worlds.build"):
            world = build_synthetic_world(
                ambient_dim=cfg.ambient,
                n_max=cfg.n_max,
                k_hat=cfg.k_hat,
                delta=cfg.delta,
                eps_main=cfg.eps_main,
                eps_perturb=cfg.eps_perturb,
                n_points=cfg.n_points,
                seed=cfg.seed,
            )
            prior_single = world.prior_manifold(cfg.n, 1)
            prior_multi = world.prior_manifold(cfg.n, cfg.n_factors) if cfg.n_factors > 1 else None
            w_sub = world.observation_subspace(cfg.m)
            widths = np.empty(cfg.n + 1)
            widths[0] = float(np.linalg.norm(world.cloud.vectors, axis=1).max())
            widths[1:] = world.nested_width_curve(cfg.n)
        t_sub = Subspace(world.v_tilde[:, : cfg.k_intrinsic or cfg.k_hat])
        m_cloud = world.cloud
    eps_intrinsic = tr.call("bounds.empirical_width", empirical_width, m_cloud, t_sub)
    bases = tr.call(
        "bases.suitable", compute_suitable_bases, prior_single.ellipsoids[0].subspace, w_sub
    )
    return _Bundle(m_cloud, w_sub, prior_single, prior_multi, widths, t_sub, eps_intrinsic, bases)


def _replay_multi(cfg: RunConfig, b: _Bundle, pi, seed: int, tr) -> SnapshotSet:
    """``sample_posterior`` on the multi-tube prior, point by point, keeping the
    draw counts that ``sample_posterior`` discards."""
    prior = b.prior_multi
    j_star = cfg.j_star or prior.n_factors
    bases = compute_suitable_bases(prior.ellipsoids[j_star - 1].subspace, b.w)
    chunks = []
    for i, h in enumerate(b.m_cloud):
        res = sample_slice_multi(
            observe(h, b.w), prior, j_star, cfg.per_point, cfg.max_draw_factor * cfg.per_point,
            pi, cfg.d_box, derived_rng(seed, i), bases=bases,
        )
        tr.add("sampling.multi_draws", res.n_draws)
        tr.add("sampling.multi_accepted", res.n_accepted)
        tr.add("sampling.multi_incomplete_points", int(not res.complete))
        chunks.append(res.samples.vectors)
    return SnapshotSet(np.vstack(chunks))


def replay_experiment(cfg: RunConfig, tr) -> ExperimentResult:
    """``run_experiment`` (at ``jobs=1``) rebuilt from public calls under spans.

    At the pinned configurations it writes the same ``curves.csv`` bytes as
    ``run_experiment``; the traced run records whether it did.
    """
    with tr.span("experiment.run"):
        b = _replay_bundle(cfg, tr)
        stop = StoppingRule(max_dim=cfg.i_max)
        records: list[CurveRecord] = []
        gr_perf = _greedy(tr, b.m_cloud, stop)
        records += _records("perf", 0, "M", _widths(tr, gr_perf, b.m_cloud, cfg.i_max))
        est = tr.call(
            "estimate.manifold", estimate_manifold, b.m_cloud, b.w, b.prior_single, b.bases
        )
        gr_point = _greedy(tr, est, stop)
        records += _records("point", 0, "M", _widths(tr, gr_point, b.m_cloud, cfg.i_max))

        n_dim = len(b.widths) - 1
        records += _records(
            "prior_single", 0, "bound", [b.widths[min(i, n_dim)] for i in range(cfg.i_max + 1)]
        )
        if b.prior_multi is not None:
            n_fac = b.prior_multi.n_factors
            records += _records("prior_multi", 0, "bound", [
                b.widths[0] if i == 0 else b.widths[min(i, n_fac - 1)] if i < n_dim else b.widths[n_dim]
                for i in range(cfg.i_max + 1)
            ])
        bs = b.bases
        eps_prime = b.prior_single.ellipsoids[0].width
        bound = tr.call(
            "bounds.closed_form", posterior_width_bounds,
            k=b.t_sub.dim, n=bs.n, ambient_dim=bs.ambient_dim, eps=b.eps_intrinsic,
            eps_prime=eps_prime, sigma=bs.sigma, p=bs.p, q=bs.q, m=bs.m, i_max=cfg.i_max,
        )
        records += _records("bound_dbar", 0, "bound", bound.d_bar)
        records += _records("bound_dbarbar", 0, "bound", bound.d_bbar)

        pi = PiDistribution.from_name(cfg.pi)
        rep_infos = []
        for rep in range(cfg.reps):
            single = tr.call(
                "sampling.single", sample_posterior, b.m_cloud, b.w, b.prior_single,
                cfg.per_point, pi_dist=pi, d_box=cfg.d_box, seed=derived_seed(cfg.seed, 21, rep),
            )
            tr.add("sampling.single_samples", len(single))
            gr_single = _greedy(tr, single, stop)
            records += _records("post_single", rep, "M", _widths(tr, gr_single, b.m_cloud, cfg.i_max))
            records += _records("post_single", rep, "Mpost", _widths(tr, gr_single, single, cfg.i_max))
            records += _records("perf", rep, "Mpost", _widths(tr, gr_perf, single, cfg.i_max))
            records += _records("point", rep, "Mpost", _widths(tr, gr_point, single, cfg.i_max))
            info = {"n_posterior_single": len(single)}
            if b.prior_multi is not None:
                with tr.span("sampling.multi"):
                    multi = _replay_multi(cfg, b, pi, derived_seed(cfg.seed, 22, rep), tr)
                gr_multi = _greedy(tr, multi, stop)
                records += _records("post_multi", rep, "M", _widths(tr, gr_multi, b.m_cloud, cfg.i_max))
                records += _records("post_multi", rep, "Mpost", _widths(tr, gr_multi, multi, cfg.i_max))
                info["n_posterior_multi"] = len(multi)
            rep_infos.append(info)
        records.sort(key=lambda r: (r.method, r.target, r.rep, r.i))
        manifest = {
            "config": cfg.to_dict(),
            "n_manifold_points": len(b.m_cloud),
            "eps_prime": repr(float(eps_prime)),
            "repetitions": rep_infos,
        }
    return ExperimentResult(config=cfg, records=records, manifest=manifest)


def _mean_curve(records, method: str, target: str) -> np.ndarray:
    by_rep: dict[int, dict[int, float]] = {}
    for r in records:
        if r.method == method and r.target == target:
            by_rep.setdefault(r.rep, {})[r.i] = r.value
    return np.array([[row[i] for i in sorted(row)] for _, row in sorted(by_rep.items())]).mean(axis=0)


def check_experiment(cfg: RunConfig, out: ExperimentOutcome) -> list[str]:
    """Acceptance criteria 6 (synthetic) or 7 (thermal), nonincreasing greedy
    curves, and the posterior cloud sizes of every repetition."""
    problems = []
    curves: dict[tuple, list[float]] = {}
    for r in out.records:
        if not r.method.startswith(("prior_", "bound_")):
            curves.setdefault((r.method, r.target, r.rep), []).append(r.value)
    for key, vals in sorted(curves.items()):
        v = np.asarray(vals)
        if np.any(v[1:] > v[:-1] * (1.0 + CURVE_RTOL)):
            problems.append(f"curve {key} increases")
    expected = out.n_points * cfg.per_point
    for rep, info in enumerate(out.rep_infos):
        keys = ["n_posterior_single"] + (["n_posterior_multi"] if cfg.n_factors > 1 else [])
        for key in keys:
            if info.get(key) != expected:
                problems.append(f"rep {rep}: {key} = {info.get(key)}, expected {expected}")

    post = _mean_curve(out.records, "post_single", "Mpost")
    if cfg.setup == 1:
        floor_ratio = float(post[cfg.i_max]) / out.eps_prime
        if not 1.0 / 3.0 <= floor_ratio <= 3.0:
            problems.append(f"criterion 7: error floor {floor_ratio:.3f} x prior width")
        below = np.nonzero(post < 1.0)[0]
        first = int(below[0]) if below.size else cfg.i_max + 1
        if first < cfg.n - cfg.m:
            problems.append(f"criterion 7: curve below 1 at i={first} < n - m = {cfg.n - cfg.m}")
    else:
        point_post = _mean_curve(out.records, "point", "Mpost")
        methods = ("post_single", "post_multi") if cfg.n_factors > 1 else ("post_single",)
        for method in methods:
            ratio = float((_mean_curve(out.records, method, "Mpost") / point_post).max())
            if ratio > 1.05:
                problems.append(f"criterion 6: {method}/point ratio {ratio:.4f} > 1.05")
        floor = float(_mean_curve(out.records, "point", "M")[: cfg.m - cfg.k_hat + 1].min())
        if floor < 0.5 * cfg.eps_main:
            problems.append(f"criterion 6: point-estimate floor {floor:.4e} < {0.5 * cfg.eps_main}")
        at = float(_mean_curve(out.records, "post_single", "M")[cfg.k_hat + 5])
        if at >= 10.0 * cfg.eps_perturb:
            problems.append(f"criterion 6: posterior error {at:.4e} at i = k_hat + 5")
    return problems


# ---------------------------------------------------------------------------
# Width-bound Monte-Carlo workloads (widths_mc, widths_highdim)
# ---------------------------------------------------------------------------


@dataclass
class Trial:
    w: Subspace
    prior: DegenerateEllipsoid
    t_sub: Subspace
    manifold: SnapshotSet
    eps: float
    sample_seed: int


@dataclass
class WidthsInputs:
    ambient: int
    m: int
    n: int
    k: int
    draws: int
    trials: list


@dataclass
class WidthsOutcome:
    trial: Trial
    cloud: SnapshotSet
    certified: list  # (i, bound, width) for every finite combined bound


class WidthsWorkload:
    """Criterion-4 geometry: sample the posterior of a tube around T ⊂ V and
    certify every finite combined width bound with its proof subspace."""

    def __init__(self, ambient, m, n, k, eps_prime, trials, points, draws, tiny):
        self.full = dict(ambient=ambient, m=m, n=n, k=k, trials=trials, points=points, draws=draws)
        self.tiny = tiny
        self.eps_prime = eps_prime

    def make_inputs(self, seed: int, tiny: bool) -> WidthsInputs:
        size = self.tiny if tiny else self.full
        ambient, m, n, k = size["ambient"], size["m"], size["n"], size["k"]
        trials = []
        for t in range(size["trials"]):
            rng = derived_rng(seed, t)
            w = random_subspace(ambient, m, rng)
            v = random_subspace(ambient, n, rng)
            t_sub = Subspace(v.basis[:, :k])
            coords = rng.uniform(-1.0, 1.0, size=(size["points"], k))
            noise = rng.standard_normal((size["points"], ambient))
            noise *= (1e-6 * rng.random(size["points"]) / np.linalg.norm(noise, axis=1))[:, None]
            manifold = SnapshotSet(coords @ t_sub.basis.T + noise)
            trials.append(Trial(
                w=w,
                prior=DegenerateEllipsoid(v, self.eps_prime),
                t_sub=t_sub,
                manifold=manifold,
                eps=empirical_width(manifold, t_sub),
                sample_seed=int(rng.integers(2**63)),
            ))
        return WidthsInputs(ambient, m, n, k, size["draws"], trials)

    def pass_ops(self, inp: WidthsInputs) -> int:
        return len(inp.trials)

    def run_op(self, inp: WidthsInputs, k: int, out_dir: Path, tr) -> WidthsOutcome:
        trial = inp.trials[k % len(inp.trials)]
        v = trial.prior.subspace
        bases = tr.call("bases.suitable", compute_suitable_bases, v, trial.w)
        cloud = tr.call(
            "sampling.single", sample_posterior, trial.manifold, trial.w, trial.prior,
            per_point=inp.draws, seed=trial.sample_seed,
        )
        tr.add("sampling.single_samples", len(cloud))
        curve = tr.call(
            "bounds.closed_form", posterior_width_bounds,
            inp.k, inp.n, inp.ambient, trial.eps, self.eps_prime, bases.sigma,
            bases.p, bases.q, inp.m, i_max=inp.k + inp.ambient - inp.m,
        )
        with tr.span("bases.u_basis"):
            bases.u_basis
        certified = []
        for i, bound in enumerate(curve.combined):
            if math.isfinite(bound):
                sub = tr.call("bounds.proof_subspace", proof_subspace, i, trial.t_sub, bases)
                width = tr.call("bounds.empirical_width", empirical_width, cloud, sub)
                certified.append((i, bound, width))
        return WidthsOutcome(trial, cloud, certified)

    def check(self, inp: WidthsInputs, out: WidthsOutcome) -> list[str]:
        problems = [
            f"width {width:.4e} exceeds bound {bound:.4e} at i={i}"
            for i, bound, width in out.certified
            if width > bound + BOUND_TOL
        ]
        if not out.certified:
            problems.append("no finite bound was certified")
        t = out.trial
        return problems[:3] + check_draws(out.cloud, t.w, t.prior, t.manifold)


def check_draws(cloud: SnapshotSet, w: Subspace, prior: DegenerateEllipsoid,
                manifold: SnapshotSet) -> list[str]:
    """Every draw reproduces its point's observation and stays in the tube."""
    x = cloud.vectors
    per_point = len(cloud) // len(manifold)
    if per_point * len(manifold) != len(cloud):
        return [f"{len(cloud)} draws for {len(manifold)} points"]
    obs = np.repeat(manifold.vectors @ w.basis, per_point, axis=0)
    obs_err = np.abs(x @ w.basis - obs).max(axis=1)
    scale = np.maximum(1.0, np.linalg.norm(x, axis=1))
    problems = []
    bad = np.count_nonzero(obs_err > OBS_RTOL * scale)
    if bad:
        problems.append(f"{bad} draws miss their observation (worst {obs_err.max():.2e})")
    dist = cloud.residual_norms(prior.subspace)
    bad = np.count_nonzero(dist > prior.width + TUBE_TOL)
    if bad:
        problems.append(f"{bad} draws leave the prior tube (worst {dist.max() - prior.width:.2e})")
    return problems


WORKLOADS = {
    "thermal": ExperimentWorkload(_thermal_config),
    "synthetic": ExperimentWorkload(_synthetic_config),
    # Per-draw Python overhead of the sampler dominates; bounds take ~20%.
    "widths_mc": WidthsWorkload(
        ambient=40, m=8, n=10, k=2, eps_prime=0.05, trials=20, points=100,
        draws=100, tiny=dict(ambient=16, m=4, n=5, k=2, trials=2, points=5, draws=10),
    ),
    # u_basis Gram-Schmidt over 400 vectors, ~380 proof subspaces and widths of
    # a 2000x400 cloud take ~95%; sampling is projection-bound.
    "widths_highdim": WidthsWorkload(
        ambient=400, m=20, n=20, k=2, eps_prime=0.05, trials=2, points=20,
        draws=100, tiny=dict(ambient=24, m=4, n=4, k=2, trials=2, points=4, draws=10),
    ),
}
