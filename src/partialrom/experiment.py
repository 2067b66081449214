"""Reproduction harness: configured runs, curve records, CSV and manifest output.

A run builds one world (thermal or synthetic), draws posterior clouds for
``reps`` repetitions with per-repetition derived streams, reduces every cloud
greedily, and records worst-case error curves for each method against the
target manifold (``target=M``), the posterior cloud (``target=Mpost``), and
reference curves (``target=bound``).  Methods:

* ``perf``        greedy on the target manifold itself (the benchmark),
* ``point``       greedy on the point-estimate manifold,
* ``post_single`` greedy on a posterior cloud under the single-ellipsoid prior,
* ``post_multi``  greedy on a posterior cloud under the intersection prior,
* ``prior_*``     what prior knowledge alone achieves at each dimension,
* ``bound_*``     the two width-bound sequences.

Identical configurations (including seeds) produce byte-identical CSVs; a
manifest JSON embeds the full configuration so any run can be repeated from
its output directory alone.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bases import SuitableBases, compute_suitable_bases
from .bounds import (
    empirical_width,
    format_extended,
    posterior_width_bounds,
)
from .errors import ConfigError, ContractViolation
from .estimate import estimate_manifold
from .geometry import PriorManifold, SnapshotSet, Subspace, prefix_widths
from .greedy import GreedyResult, StoppingRule, greedy
from .rng import derived_rng, derived_seed
from .sampling import PiDistribution, sample_posterior
from .thermal import ThermalBlockModel
from .worlds import (
    build_synthetic_world,
    build_thermal_world,
    random_subspace,
)

CSV_HEADER = "method,rep,i,target,value"


@dataclass
class RunConfig:
    """Flat, fully serializable description of one harness run."""

    setup: int = 2
    seed: int = 1234
    reps: int = 5
    i_max: int = 40
    per_point: int = 5
    pi: str = "mixture"
    d_box: float = 10.0
    m: int = 25
    n: int = 25
    n_factors: int = 1
    j_star: int = 0            # 0 = last factor
    max_draw_factor: int = 100
    k_intrinsic: int = 0       # 0 = setup default (4 thermal, k_hat synthetic)
    jobs: int = 0              # ignored (reps run serially); kept so manifests that set it load
    # thermal world
    cells: int = 24
    theta_min: float = 0.1
    theta_step: float = 0.1
    t_steps: int = 20
    relax_max: int = 4096
    flux: float = 1.0
    # synthetic world
    ambient: int = 200
    n_max: int = 50
    k_hat: int = 5
    delta: float = 1e-4
    eps_main: float = 1.0
    eps_perturb: float = 1e-3
    n_points: int = 150

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
            if f.type == "int" and not integral:
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.setup not in (1, 2):
            raise ConfigError(f"setup must be 1 or 2, got {self.setup}")
        for name in ("reps", "i_max", "per_point", "m", "n", "n_factors", "max_draw_factor"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        try:
            PiDistribution.from_name(self.pi)
        except ContractViolation as exc:
            raise ConfigError(f"bad pi: {exc}") from exc
        if self.d_box < 0:
            raise ConfigError(f"d_box must be >= 0, got {self.d_box}")
        # A posterior draw is a slice point plus up to n coordinates of size
        # d_box.  n * d_box^2 <= float max / 4 keeps the draw's squared norm
        # finite while the slice point's stays below a quarter of float max.
        if self.d_box > (d_box_max := math.sqrt(sys.float_info.max / (4 * self.n))):
            raise ConfigError(
                f"d_box = {self.d_box} exceeds sqrt(float max / (4 n)) = {d_box_max:.6g}:"
                " the squared norms of posterior draws would overflow"
            )
        if self.n_factors > self.n:
            raise ConfigError(f"n_factors = {self.n_factors} exceeds n = {self.n}")
        if self.j_star and not 1 <= self.j_star <= self.n_factors:
            raise ConfigError(f"j_star must be 0 or in [1, {self.n_factors}], got {self.j_star}")
        if self.k_intrinsic < 0 or self.jobs < 0:
            raise ConfigError("k_intrinsic and jobs must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.setup == 1:
            if self.cells < 2 or self.cells % 2:
                raise ConfigError(f"cells must be an even integer >= 2, got {self.cells}")
            if self.t_steps < 1 or self.theta_min <= 0 or self.theta_step <= 0:
                raise ConfigError("t_steps must be >= 1 and theta grid values positive")
            top = float(self.theta_min) + float(self.theta_step) * int(self.t_steps)
            if not math.isfinite(top):
                raise ConfigError(
                    f"the theta grid's top value theta_min + theta_step * t_steps overflows"
                    f" ({self.theta_min} + {self.theta_step} * {self.t_steps})"
                )
            if self.flux == 0:
                raise ConfigError("flux must be nonzero: a zero load makes every state zero")
            if self.relax_max < 16:
                raise ConfigError(f"relax_max must be >= 16, got {self.relax_max}")
            if self.m > (ambient := self.cells * (self.cells + 1)):
                raise ConfigError(f"m = {self.m} exceeds the ambient dimension {ambient}")
        else:
            ambient = self.ambient
            if 2 * self.n_max > self.ambient:
                raise ConfigError(
                    f"need 2 n_max <= ambient, got {2 * self.n_max} > {self.ambient}"
                )
            if not 0.0 < self.delta < 1.0:
                raise ConfigError(f"delta must lie strictly in (0, 1), got {self.delta}")
            if not 1 <= self.k_hat <= self.n_max:
                raise ConfigError(f"k_hat must be in [1, {self.n_max}], got {self.k_hat}")
            if self.eps_main <= 0 or self.eps_perturb <= 0 or self.n_points < 1:
                raise ConfigError("eps_main, eps_perturb must be > 0 and n_points >= 1")
            if self.m > self.n_max or self.n > self.n_max:
                raise ConfigError(f"m and n must not exceed n_max = {self.n_max}")
            if (self.k_intrinsic or self.k_hat) > self.n:
                raise ConfigError(f"k_intrinsic or k_hat exceeds n = {self.n}: T would not lie in V")
        if self.i_max > ambient:
            raise ConfigError(f"i_max = {self.i_max} exceeds the ambient dimension {ambient}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        coerced = {}
        for f in dataclasses.fields(cls):
            if f.name not in data:
                continue
            raw = data[f.name]
            try:
                # A boolean is no number and 2.7 no int: neither may become 1 or 2.
                if f.type != "str" and isinstance(raw, bool) or (
                    f.type == "int" and isinstance(raw, float) and not raw.is_integer()
                ):
                    raise ValueError(raw)
                coerced[f.name] = {"int": int, "float": float, "str": str}[f.type](raw)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"bad value for {f.name}: {raw!r}") from exc
        return cls(**coerced)

    @classmethod
    def from_config_file(cls, path: str | Path) -> "RunConfig":
        """Parse a flat ``key = value`` text file."""
        data: dict = {}
        for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in stripped.split("=", 1))
            data[key] = value
        return cls.from_dict(data)

    @classmethod
    def from_manifest(cls, path: str | Path) -> "RunConfig":
        try:
            manifest = json.loads(_read_text(path))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(manifest, dict) or not isinstance(manifest.get("config"), dict):
            raise ConfigError(f"{path} has no 'config' object")
        return cls.from_dict(manifest["config"])


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def thermal_defaults(**overrides) -> RunConfig:
    return RunConfig(setup=1, **overrides)


def synthetic_defaults(**overrides) -> RunConfig:
    return RunConfig(setup=2, **overrides)


@dataclass(frozen=True)
class CurveRecord:
    method: str
    rep: int
    i: int
    target: str  # M | Mpost | bound
    value: float

    def to_csv_row(self) -> str:
        return f"{self.method},{self.rep},{self.i},{self.target},{format_extended(self.value)}"


@dataclass
class WorldBundle:
    """Common view of either world consumed by the run loop."""

    name: str
    m_cloud: SnapshotSet
    w_subspace: Subspace
    prior_single: PriorManifold
    prior_multi: PriorManifold | None
    prior_width_by_dim: np.ndarray  # empirical widths of the prior source cloud, dims 0..n
    t_subspace: Subspace
    eps_intrinsic: float
    bases_single: SuitableBases


def nested_width_curve_from_greedy(
    gr: GreedyResult, cloud: SnapshotSet, i_max: int
) -> list[float]:
    """Width of ``cloud`` over each nested greedy space, dims 0..i_max.

    Exploits that nested greedy bases share prefixes, so one coordinate matrix
    serves every dimension.  Beyond the terminal dimension the value is held.
    On the cloud ``gr`` was built on (``max_dim = i_max``) it is the held
    ``gr.error_curve``: ``greedy`` records that with the same pass.
    """
    d = min(gr.terminal_dim, i_max)
    return _held_curve([cloud.max_norm, *prefix_widths(cloud.vectors, gr.basis[:, :d])], i_max)


def _held_curve(widths, i_max: int, dims=None) -> list[float]:
    """``widths[d]`` at the largest measured dimension ``d <= i``, i = 0..i_max;
    ``dims`` (ascending from 0) lists the measured ones, all by default."""
    dims = np.arange(len(widths)) if dims is None else np.asarray(dims)
    held = dims[np.searchsorted(dims, np.arange(i_max + 1), side="right") - 1]
    return [float(widths[d]) for d in held]


def _build_bundle(cfg: RunConfig) -> WorldBundle:
    """The run's world, reduced to what the run reads of it.

    Each world gives its target cloud, its prior family, and the prior widths
    (dims 0..n) measured on the prior's source cloud.  The thermal source is
    the relaxed cloud, about ten times the target cloud (4,473 x 600 at the
    defaults); :func:`_thermal_world` reads it and returns, so it is freed
    before the intrinsic space T is computed.
    """
    if cfg.setup == 1:
        m_cloud, priors, prior_widths, v = _thermal_world(cfg)
        w_sub = random_subspace(m_cloud.ambient_dim, cfg.m, derived_rng(cfg.seed, 11))
        t_gr = greedy(
            SnapshotSet((m_cloud.vectors @ v) @ v.T), StoppingRule(max_dim=cfg.k_intrinsic or 4)
        )
        t_sub = t_gr.subspace(t_gr.terminal_dim)
        name = "thermal"
    else:
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
        m_cloud = world.cloud
        priors = _priors(cfg, functools.partial(world.prior_manifold, cfg.n))
        prior_widths = np.array([m_cloud.max_norm, *world.nested_width_curve(cfg.n)])
        w_sub = world.observation_subspace(cfg.m)
        t_sub = Subspace(world.v_tilde[:, : cfg.k_intrinsic or cfg.k_hat])
        name = "synthetic"

    prior_single, prior_multi = priors
    return WorldBundle(
        name=name,
        m_cloud=m_cloud,
        w_subspace=w_sub,
        prior_single=prior_single,
        prior_multi=prior_multi,
        prior_width_by_dim=prior_widths,
        t_subspace=t_sub,
        eps_intrinsic=empirical_width(m_cloud, t_sub),
        bases_single=compute_suitable_bases(prior_single.ellipsoids[0].subspace, w_sub),
    )


def _priors(cfg: RunConfig, prior_manifold) -> tuple[PriorManifold, PriorManifold | None]:
    """The single-ellipsoid prior and, for ``n_factors > 1``, the intersection prior."""
    return prior_manifold(1), prior_manifold(cfg.n_factors) if cfg.n_factors > 1 else None


def _thermal_world(
    cfg: RunConfig,
) -> tuple[SnapshotSet, tuple[PriorManifold, PriorManifold | None], np.ndarray, np.ndarray]:
    """The thermal world's target cloud, priors, prior widths (dims 0..n) and
    prior basis V.  Nothing returned refers to the world, so its relaxed cloud
    dies with this call."""
    world = build_thermal_world(
        ThermalBlockModel(cfg.cells),
        theta_min=cfg.theta_min,
        theta_step=cfg.theta_step,
        t_steps=cfg.t_steps,
        relax_max=cfg.relax_max,
        n_prior=cfg.n,
        flux=cfg.flux,
    )
    gr = world.greedy_prior
    widths = np.array([world.relax_cloud.max_norm, *gr.error_curve[: world.n_prior]])
    v = gr.subspace(world.n_prior).basis
    return world.m_cloud, _priors(cfg, world.prior_manifold), widths, v


def posterior_cloud(
    cfg: RunConfig,
    bundle: WorldBundle,
    prior: PriorManifold,
    seed: int,
    m_cloud: SnapshotSet | None = None,
) -> SnapshotSet:
    """Posterior samples of ``m_cloud`` (default: the world's manifold cloud)
    under ``prior``, drawn with the run's sampler settings.

    ``cfg.j_star`` picks the reference factor of a multi-factor prior.
    """
    return sample_posterior(
        bundle.m_cloud if m_cloud is None else m_cloud,
        bundle.w_subspace,
        prior,
        cfg.per_point,
        pi_dist=PiDistribution.from_name(cfg.pi),
        d_box=cfg.d_box,
        seed=seed,
        j_star=(cfg.j_star or None) if prior.n_factors > 1 else None,
        max_draws_per_point=cfg.max_draw_factor * cfg.per_point,
    )


@dataclass
class ExperimentResult:
    config: RunConfig
    records: list[CurveRecord]
    manifest: dict

    def write(self, out_dir: str | Path) -> tuple[Path, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / "curves.csv"
        write_csv(self.records, csv_path)
        manifest_path = out / "manifest.json"
        manifest_path.write_text(json.dumps(self.manifest, indent=2, sort_keys=True) + "\n")
        return csv_path, manifest_path


def write_csv(records: list[CurveRecord], path: str | Path) -> None:
    lines = [CSV_HEADER]
    lines.extend(r.to_csv_row() for r in records)
    Path(path).write_text("\n".join(lines) + "\n")


def _curve_records(method: str, rep: int, target: str, values) -> list[CurveRecord]:
    return [CurveRecord(method, rep, i, target, float(v)) for i, v in enumerate(values)]


def _run_rep(
    cfg: RunConfig,
    bundle: WorldBundle,
    rep: int,
    gr_perf: GreedyResult,
    gr_point: GreedyResult,
) -> tuple[list[CurveRecord], dict]:
    """One repetition's curves: a posterior cloud per prior, drawn and reduced
    by :func:`_posterior_records`, so each cloud is freed before the next is
    drawn."""
    info: dict = {}
    records: list[CurveRecord] = []
    for kind, prior, stream in (("single", bundle.prior_single, 21), ("multi", bundle.prior_multi, 22)):
        if prior is None:
            continue
        # The deterministic families are judged against this repetition's cloud.
        judged = {"perf": gr_perf, "point": gr_point} if kind == "single" else {}
        kind_records, info[f"n_posterior_{kind}"] = _posterior_records(
            cfg, bundle, rep, kind, prior, derived_seed(cfg.seed, stream, rep), judged
        )
        records += kind_records
    return records, info


def _posterior_records(
    cfg: RunConfig,
    bundle: WorldBundle,
    rep: int,
    kind: str,
    prior: PriorManifold,
    seed: int,
    judged: dict[str, GreedyResult],
) -> tuple[list[CurveRecord], int]:
    """The ``post_<kind>`` curves of one posterior cloud and its size, plus
    the ``Mpost`` curve of each method in ``judged`` against that cloud."""
    cloud = posterior_cloud(cfg, bundle, prior, seed)
    gr = greedy(cloud, StoppingRule(max_dim=cfg.i_max))
    widths = nested_width_curve_from_greedy(gr, bundle.m_cloud, cfg.i_max)
    records = _curve_records(f"post_{kind}", rep, "M", widths)
    own = _held_curve([cloud.max_norm, *gr.error_curve], cfg.i_max)
    records += _curve_records(f"post_{kind}", rep, "Mpost", own)
    for method, gr_method in judged.items():
        widths = nested_width_curve_from_greedy(gr_method, cloud, cfg.i_max)
        records += _curve_records(method, rep, "Mpost", widths)
    return records, len(cloud)


def run_experiment(cfg: RunConfig) -> ExperimentResult:
    cfg.validate()
    bundle = _build_bundle(cfg)
    stop = StoppingRule(max_dim=cfg.i_max)

    records: list[CurveRecord] = []
    gr_perf = greedy(bundle.m_cloud, stop)
    own = _held_curve([bundle.m_cloud.max_norm, *gr_perf.error_curve], cfg.i_max)
    records += _curve_records("perf", 0, "M", own)
    # The point-estimate cloud is read by its greedy alone, so it is never named.
    gr_point = greedy(
        estimate_manifold(
            bundle.m_cloud, bundle.w_subspace, bundle.prior_single, bundle.bases_single
        ),
        stop,
    )
    records += _curve_records(
        "point", 0, "M", nested_width_curve_from_greedy(gr_point, bundle.m_cloud, cfg.i_max)
    )

    # Reference curves: the two bound sequences, and what each prior alone
    # gives at dimension i, the width at its largest nested dimension <= i.
    widths = bundle.prior_width_by_dim
    records += _curve_records("prior_single", 0, "bound", _held_curve(widths, cfg.i_max))
    if bundle.prior_multi is not None:
        dims = [0] + [e.subspace.dim for e in bundle.prior_multi.ellipsoids]
        records += _curve_records("prior_multi", 0, "bound", _held_curve(widths, cfg.i_max, dims))

    b = bundle.bases_single
    eps_prime = bundle.prior_single.ellipsoids[0].width
    bound = posterior_width_bounds(
        k=bundle.t_subspace.dim,
        n=b.n,
        ambient_dim=b.ambient_dim,
        eps=bundle.eps_intrinsic,
        eps_prime=eps_prime,
        sigma=b.sigma,
        p=b.p,
        q=b.q,
        m=b.m,
        i_max=cfg.i_max,
    )
    records += _curve_records("bound_dbar", 0, "bound", bound.d_bar)
    records += _curve_records("bound_dbarbar", 0, "bound", bound.d_bbar)

    rep_infos: list[dict] = []
    for rep in range(cfg.reps):
        rep_records, info = _run_rep(cfg, bundle, rep, gr_perf, gr_point)
        records += rep_records
        rep_infos.append(info)

    records.sort(key=lambda r: (r.method, r.target, r.rep, r.i))
    manifest = _build_manifest(cfg, bundle, records, rep_infos)
    return ExperimentResult(config=cfg, records=records, manifest=manifest)


def _build_manifest(
    cfg: RunConfig, bundle: WorldBundle, records: list[CurveRecord], rep_infos: list[dict]
) -> dict:
    summary: dict = {}
    by_curve: dict[tuple[str, str], dict[int, list[float]]] = {}
    for r in records:
        by_curve.setdefault((r.method, r.target), {}).setdefault(r.i, []).append(r.value)
    for (method, target), per_i in sorted(by_curve.items()):
        entry = {"i": sorted(per_i)}
        entry["min"] = [format_extended(min(per_i[i])) for i in entry["i"]]
        entry["mean"] = [
            format_extended(sum(per_i[i]) / len(per_i[i]) if all(math.isfinite(v) for v in per_i[i]) else math.inf)
            for i in entry["i"]
        ]
        entry["max"] = [format_extended(max(per_i[i])) for i in entry["i"]]
        summary.setdefault(method, {})[target] = entry
    b = bundle.bases_single
    return {
        "world": bundle.name,
        "config": cfg.to_dict(),
        "ambient_dim": bundle.m_cloud.ambient_dim,
        "n_manifold_points": len(bundle.m_cloud),
        "eps_intrinsic": format_extended(bundle.eps_intrinsic),
        "eps_prime": format_extended(bundle.prior_single.ellipsoids[0].width),
        # Stability factor sigma_q of (V, W); 1 / beta is mu(V, W) of Binev et al.
        "beta": format_extended(b.sigma[b.q - 1] if b.q else 0.0),
        # Greedy stops at the relaxed cloud's numerical rank, so a thermal
        # prior may have fewer dimensions than the configured n.
        "n_prior": b.n,
        "repetitions": rep_infos,
        "summary": summary,
    }
