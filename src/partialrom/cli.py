"""Command-line harness.

Subcommands: ``setup1`` (thermal world run), ``setup2`` (synthetic world run),
``bounds`` (width-bound table), ``sample`` (dump raw posterior samples) and
``selftest`` (quick internal checks).  Exit codes: 0 success, 2 configuration
error, 3 numerical failure.

Configuration values resolve in order: built-in defaults, then a flat
``key = value`` config file (``--config``) or a previous run's manifest
(``--from-manifest``), then same-name command-line flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .bases import principal_counts
from .bounds import check_dimensions, format_extended, posterior_width_bounds
from .errors import ConfigError, ContractViolation, EmptySliceError, InfeasibleGeometry
from .experiment import RunConfig, _build_bundle, posterior_cloud, run_experiment
from .geometry import SnapshotSet
from .rng import derived_rng, derived_seed
from .sampling import d_box_limit

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_NUMERICAL_ERRORS = (
    ContractViolation,
    InfeasibleGeometry,
    EmptySliceError,
    np.linalg.LinAlgError,
    FloatingPointError,
)

_FLAG_HELP = {
    "d_box": "half-width of the uniform deviations along the unobserved prior"
    f" directions; at most sqrt(float max / (4 n)), {d_box_limit(RunConfig.n):.2g} at the default"
    f" n = {RunConfig.n}, so that the squared norms of posterior draws cannot overflow",
}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="flat key = value config file")
    parser.add_argument(
        "--from-manifest", metavar="FILE", help="reuse the 'config' block of a manifest.json"
    )
    for f in dataclasses.fields(RunConfig):
        if f.name == "setup":
            continue
        flag = "--" + f.name.replace("_", "-")
        parser.add_argument(
            flag, dest=f.name, default=None, metavar=f.name.upper(), help=_FLAG_HELP.get(f.name)
        )


def _resolve_config(args: argparse.Namespace, setup: int) -> RunConfig:
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(RunConfig)
        if f.name != "setup" and getattr(args, f.name, None) is not None
    }
    if args.config and args.from_manifest:
        raise ConfigError("--config and --from-manifest are mutually exclusive")
    base: dict = {}
    if args.from_manifest:
        base = RunConfig.from_manifest(args.from_manifest).to_dict()
        if base["setup"] != setup:
            raise ConfigError(f"manifest is for setup {base['setup']}, command expects {setup}")
    elif args.config:
        base = RunConfig.from_config_file(args.config).to_dict()
    return RunConfig.from_dict({**base, **overrides, "setup": setup})


def _prepare_out(path: str, directory: bool) -> Path:
    """Create the ``--out`` directory (for a file, its parent) before any world is built."""
    out = Path(path)
    try:
        (out if directory else out.parent).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    if not directory and out.is_dir():
        raise ConfigError(f"cannot write {path}: it is a directory")
    return out


def _cmd_run(args: argparse.Namespace, setup: int) -> int:
    cfg = _resolve_config(args, setup)
    cfg.validate()
    _prepare_out(args.out, directory=True)
    result = run_experiment(cfg)
    csv_path, manifest_path = result.write(args.out)
    print(f"wrote {csv_path} ({len(result.records)} records) and {manifest_path}")
    return EXIT_OK


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")


def _parse_sigma(args: argparse.Namespace) -> np.ndarray:
    n_pairs = min(args.m, args.n)
    if args.sigma:
        try:
            vals = np.array([float(tok) for tok in args.sigma.split(",")])
        except ValueError as exc:
            raise ConfigError(f"--sigma must be comma-separated numbers: {exc}") from exc
    elif args.sigma_mode == "aligned":
        vals = np.ones(n_pairs)
    elif args.sigma_mode == "orthogonal":
        vals = np.zeros(n_pairs)
    else:  # random
        rng = derived_rng(args.seed, 31)
        vals = np.sort(rng.random(n_pairs))[::-1]
    if vals.shape[0] != n_pairs:
        raise ConfigError(f"expected {n_pairs} sigma values, got {vals.shape[0]}")
    if not np.all((vals >= 0) & (vals <= 1)):
        raise ConfigError("sigma values must be numbers in [0, 1]")
    if np.any(np.diff(vals) > 1e-12):
        raise ConfigError("sigma values must be nonincreasing")
    return vals


def _cmd_bounds(args: argparse.Namespace) -> int:
    for flag, value in (("--eps", args.eps), ("--eps-prime", args.eps_prime)):
        if not (math.isfinite(value) and value >= 0):
            raise ConfigError(f"{flag} must be finite and >= 0, got {value}")
    if args.i_max is not None and args.i_max < 0:
        raise ConfigError(f"--i-max must be >= 0, got {args.i_max}")
    # A negative --ambient is impossible geometry, which posterior_width_bounds reports.
    if args.i_max is not None and 0 <= args.ambient < args.i_max:
        raise ConfigError(f"--i-max = {args.i_max} exceeds --ambient = {args.ambient}")
    _check_seed(args.seed)
    check_dimensions(args.k, args.n, args.m)  # before _parse_sigma sizes sigma by min(m, n)
    sigma = _parse_sigma(args)
    out = _prepare_out(args.out, directory=True) if args.out else None
    p, q = principal_counts(sigma)
    curve = posterior_width_bounds(
        k=args.k,
        n=args.n,
        ambient_dim=args.ambient,
        eps=args.eps,
        eps_prime=args.eps_prime,
        sigma=sigma,
        p=p,
        q=q,
        m=args.m,
        i_max=args.i_max,
    )
    lines = ["i,d_bar,d_bbar,combined"]
    for i, (a, b, c) in enumerate(zip(curve.d_bar, curve.d_bbar, curve.combined)):
        lines.append(f"{i},{format_extended(a)},{format_extended(b)},{format_extended(c)}")
    text = "\n".join(lines) + "\n"
    if out:
        (out / "bounds.csv").write_text(text)
        manifest = {
            "command": "bounds",
            "k": args.k,
            "n": args.n,
            "ambient": args.ambient,
            "m": args.m,
            "eps": args.eps,
            "eps_prime": args.eps_prime,
            "i_max": args.i_max,
            "seed": args.seed,
            "sigma": [float(s) for s in sigma],
            "p": p,
            "q": q,
            "k_star": curve.k_star,
        }
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out / 'bounds.csv'}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> int:
    if args.max_points < 0:
        raise ConfigError(f"--max-points must be >= 0, got {args.max_points}")
    cfg = _resolve_config(args, args.setup)
    # No curves are written, so i_max (default 40) need not fit the ambient dimension.
    dataclasses.replace(cfg, i_max=1).validate()
    if args.multi and cfg.n_factors < 2:
        raise ConfigError(f"--multi needs --n-factors >= 2, got {cfg.n_factors}")
    out = _prepare_out(args.out, directory=False)
    bundle = _build_bundle(cfg)
    cloud = bundle.m_cloud
    if args.max_points and len(cloud) > args.max_points:
        idx = np.linspace(0, len(cloud) - 1, args.max_points).round().astype(int)
        bundle = dataclasses.replace(bundle, m_cloud=SnapshotSet(cloud.vectors[np.unique(idx)]))
    prior = bundle.prior_multi if args.multi else bundle.prior_single
    samples = posterior_cloud(cfg, bundle, prior, derived_seed(cfg.seed, 41))
    header = "sample," + ",".join(f"c{j}" for j in range(samples.ambient_dim))
    lines = [header]
    for i, row in enumerate(samples):
        lines.append(str(i) + "," + ",".join(format_extended(v) for v in row))
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out} ({len(samples)} samples, ambient dimension {samples.ambient_dim})")
    return EXIT_OK


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_selftest

    _check_seed(args.seed)
    failures = run_selftest(seed=args.seed)
    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="partialrom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("setup1", help="run the thermal-block world")
    p1.add_argument("--out", required=True, metavar="DIR")
    _add_config_flags(p1)
    p1.set_defaults(func=lambda a: _cmd_run(a, 1))

    p2 = sub.add_parser("setup2", help="run the synthetic aligned-basis world")
    p2.add_argument("--out", required=True, metavar="DIR")
    _add_config_flags(p2)
    p2.set_defaults(func=lambda a: _cmd_run(a, 2))

    pb = sub.add_parser("bounds", help="tabulate the posterior width bounds")
    pb.add_argument("--k", type=int, required=True)
    pb.add_argument("--n", type=int, required=True)
    pb.add_argument("--m", type=int, required=True)
    pb.add_argument("--ambient", type=int, required=True)
    pb.add_argument("--eps", type=float, required=True)
    pb.add_argument("--eps-prime", type=float, required=True)
    pb.add_argument("--i-max", type=int, default=None)
    pb.add_argument("--sigma", help="comma-separated nonincreasing values in [0, 1]")
    pb.add_argument(
        "--sigma-mode",
        choices=("aligned", "orthogonal", "random"),
        default="random",
        help="synthetic sigma pattern when --sigma is not given",
    )
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--out", metavar="DIR")
    pb.set_defaults(func=_cmd_bounds)

    ps = sub.add_parser("sample", help="dump raw posterior samples as CSV")
    ps.add_argument("--setup", type=int, choices=(1, 2), required=True)
    ps.add_argument("--out", required=True, metavar="FILE")
    ps.add_argument("--max-points", type=int, default=0, help="subsample the manifold cloud first")
    ps.add_argument("--multi", action="store_true", help="use the intersection prior")
    _add_config_flags(ps)
    ps.set_defaults(func=_cmd_sample)

    pt = sub.add_parser("selftest", help="run quick internal consistency checks")
    pt.add_argument("--seed", type=int, default=0)
    pt.set_defaults(func=_cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
