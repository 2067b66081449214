"""Tests for the reproduction harness: configs, runs, CSV and manifest output."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from partialrom.bases import compute_suitable_bases
from partialrom.errors import ConfigError
from partialrom.experiment import (
    CSV_HEADER,
    CurveRecord,
    RunConfig,
    _held_curve,
    nested_width_curve_from_greedy,
    run_experiment,
    synthetic_defaults,
    thermal_defaults,
    write_csv,
)
from partialrom.geometry import SnapshotSet
from partialrom.greedy import StoppingRule, greedy
from partialrom.rng import derived_rng
from partialrom.worlds import build_synthetic_world


def tiny_synthetic(**overrides) -> RunConfig:
    base = dict(
        ambient=24, n_max=10, k_hat=2, m=6, n=6, delta=1e-2,
        n_points=8, per_point=2, reps=2, i_max=6, seed=77, n_factors=2,
    )
    base.update(overrides)
    return synthetic_defaults(**base)


def tiny_thermal(**overrides) -> RunConfig:
    base = dict(
        cells=4, t_steps=2, relax_max=100, m=6, n=5,
        reps=1, per_point=2, i_max=8, seed=5,
    )
    base.update(overrides)
    return thermal_defaults(**base)


class TestNestedWidthCurve:
    def test_matches_per_dimension_empirical_widths(self):
        rng = derived_rng(4)
        train = SnapshotSet(rng.standard_normal((20, 9)))
        judge = SnapshotSet(rng.standard_normal((15, 9)))
        gr = greedy(train, StoppingRule(max_dim=5))
        curve = nested_width_curve_from_greedy(gr, judge, i_max=8)
        assert len(curve) == 9
        assert_allclose(curve[0], np.linalg.norm(judge.vectors, axis=1).max(), rtol=1e-12)
        for d in range(1, 6):
            expected = judge.residual_norms(gr.subspace(d)).max()
            assert_allclose(curve[d], expected, rtol=1e-9)
        # Held flat beyond the terminal dimension.
        assert curve[6] == curve[5] and curve[8] == curve[5]

    @pytest.mark.parametrize("rows, cols, i_max", [(20, 9, 5), (6, 9, 8), (30, 40, 12)])
    def test_own_cloud_curve_is_read_off_greedy(self, rows, cols, i_max):
        # A cloud judged against its own greedy spaces (max_dim = i_max) gets
        # the curve of a fresh prefix_widths pass, bit for bit, also when
        # greedy stops short of i_max (6 rows).
        cloud = SnapshotSet(derived_rng(41, rows).standard_normal((rows, cols)))
        gr = greedy(cloud, StoppingRule(max_dim=i_max))
        own = _held_curve([cloud.max_norm, *gr.error_curve], i_max)
        assert own == nested_width_curve_from_greedy(gr, cloud, i_max)
        assert len(own) == i_max + 1


class TestRunConfig:
    def test_defaults_validate(self):
        thermal_defaults().validate()
        synthetic_defaults().validate()

    def test_setup_helpers(self):
        assert thermal_defaults().setup == 1
        assert synthetic_defaults().setup == 2

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            RunConfig(setup=3).validate()
        with pytest.raises(ConfigError):
            synthetic_defaults(reps=0).validate()
        with pytest.raises(ConfigError):
            synthetic_defaults(pi="gaussian").validate()
        with pytest.raises(ConfigError):
            synthetic_defaults(d_box=-1.0).validate()
        with pytest.raises(ConfigError):
            synthetic_defaults(n=5, n_factors=6).validate()
        with pytest.raises(ConfigError):
            synthetic_defaults(n_factors=2, j_star=3).validate()
        with pytest.raises(ConfigError):
            thermal_defaults(cells=5).validate()
        with pytest.raises(ConfigError):
            thermal_defaults(relax_max=10).validate()
        with pytest.raises(ConfigError):
            synthetic_defaults(ambient=50, n_max=30).validate()
        with pytest.raises(ConfigError):
            synthetic_defaults(delta=1.5).validate()
        with pytest.raises(ConfigError):
            synthetic_defaults(m=60).validate()
        # T = span of the first k prior directions must lie in V (dimension n).
        with pytest.raises(ConfigError):
            synthetic_defaults(n=4, k_hat=5).validate()
        with pytest.raises(ConfigError):
            synthetic_defaults(k_intrinsic=30).validate()
        bad = [
            (synthetic_defaults(k_intrinsic=-1), "k_intrinsic and jobs must be >= 0"),
            (thermal_defaults(jobs=-1), "k_intrinsic and jobs must be >= 0"),
            (thermal_defaults(t_steps=0), "t_steps must be >= 1 and theta"),
            (thermal_defaults(theta_min=0.0), "t_steps must be >= 1 and theta"),
            (thermal_defaults(theta_step=-0.1), "t_steps must be >= 1 and theta"),
            (synthetic_defaults(k_hat=0), r"k_hat must be in \[1, 50\]"),
            (synthetic_defaults(k_hat=51), r"k_hat must be in \[1, 50\]"),
            (synthetic_defaults(eps_main=0.0), "eps_main, eps_perturb must be > 0"),
            (synthetic_defaults(eps_perturb=-1e-3), "eps_main, eps_perturb must be > 0"),
            (synthetic_defaults(n_points=0), "eps_main, eps_perturb must be > 0"),
        ]
        for cfg, message in bad:
            with pytest.raises(ConfigError, match=f"^{message}"):
                cfg.validate()

    @pytest.mark.parametrize(
        "field, value",
        [("i_max", 2.5), ("per_point", 2.0), ("reps", True), ("seed", 3.0), ("cells", 24.0),
         ("n_points", "150"), ("max_draw_factor", False), ("jobs", None)],
    )
    def test_int_fields_must_be_integers(self, field, value):
        # A library caller bypasses from_dict's coercion; a non-integral or
        # boolean int field is a config error, not a failure inside the run.
        make = thermal_defaults if field == "cells" else synthetic_defaults
        with pytest.raises(ConfigError, match=f"^{field} must be an integer"):
            make(**{field: value}).validate()

    @pytest.mark.parametrize("field", ["seed", "cells", "n_points", "reps"])
    def test_numpy_integer_fields_accepted(self, field):
        make = thermal_defaults if field == "cells" else synthetic_defaults
        default = getattr(make(), field)
        make(**{field: np.int64(default)}).validate()

    def test_from_dict_coerces_strings(self):
        cfg = RunConfig.from_dict({"setup": "2", "seed": "9", "d_box": "2.5", "pi": "mixture"})
        assert cfg.setup == 2 and cfg.seed == 9 and cfg.d_box == 2.5
        # Integral numbers are accepted for int fields, ints for float fields.
        cfg = RunConfig.from_dict({"reps": 3.0, "d_box": 2})
        assert cfg.reps == 3 and isinstance(cfg.reps, int) and cfg.d_box == 2.0

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"sedd": 1})

    def test_from_dict_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"seed": "twelve"})
        for bad in ({"reps": 2.7}, {"reps": True}, {"seed": False}, {"reps": math.nan},
                    {"reps": "2.5"}, {"d_box": True}):
            with pytest.raises(ConfigError):
                RunConfig.from_dict(bad)

    def test_config_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# harness configuration\n"
            "setup = 2\n"
            "seed=31   # inline comment\n"
            "\n"
            "d_box = 4.0\n"
        )
        cfg = RunConfig.from_config_file(path)
        assert cfg.setup == 2 and cfg.seed == 31 and cfg.d_box == 4.0

    def test_config_file_bad_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed 31\n")
        with pytest.raises(ConfigError):
            RunConfig.from_config_file(path)

    def test_manifest_round_trip(self, tmp_path):
        cfg = tiny_synthetic()
        res = run_experiment(cfg)
        res.write(tmp_path)
        back = RunConfig.from_manifest(tmp_path / "manifest.json")
        assert back == cfg

    def test_manifest_without_config_section(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"world": "synthetic"}))
        with pytest.raises(ConfigError):
            RunConfig.from_manifest(path)


class TestCurveRecordsAndCsv:
    def test_to_csv_row(self):
        rec = CurveRecord("perf", 0, 3, "M", 0.5)
        assert rec.to_csv_row() == "perf,0,3,M,0.5"
        inf_rec = CurveRecord("bound_dbar", 0, 0, "bound", math.inf)
        assert inf_rec.to_csv_row() == "bound_dbar,0,0,bound,inf"

    def test_write_csv(self, tmp_path):
        path = tmp_path / "curves.csv"
        write_csv([CurveRecord("perf", 0, 0, "M", 1.0)], path)
        assert path.read_text() == f"{CSV_HEADER}\nperf,0,0,M,1.0\n"


@pytest.fixture(scope="module")
def result():
    return run_experiment(tiny_synthetic())


class TestSyntheticRun:
    def test_expected_curves_present(self, result):
        cfg = result.config
        keys = {(r.method, r.target, r.rep) for r in result.records}
        expected = {("perf", "M", 0), ("point", "M", 0)}
        expected |= {("prior_single", "bound", 0), ("prior_multi", "bound", 0)}
        expected |= {("bound_dbar", "bound", 0), ("bound_dbarbar", "bound", 0)}
        for rep in range(cfg.reps):
            for method in ("post_single", "post_multi"):
                expected |= {(method, "M", rep), (method, "Mpost", rep)}
            expected |= {("perf", "Mpost", rep), ("point", "Mpost", rep)}
        assert keys == expected
        # Every curve spans i = 0..i_max exactly once.
        for key in expected:
            rows = [r for r in result.records if (r.method, r.target, r.rep) == key]
            assert [r.i for r in rows] == list(range(cfg.i_max + 1))

    def test_prior_reference_values(self):
        # Each prior row is the width at its largest nested dimension <= i:
        # dims 0..n for prior_single, 0 plus the factor dims for prior_multi.
        res = run_experiment(tiny_synthetic(n_factors=3, i_max=9, reps=1))
        world = build_synthetic_world(
            ambient_dim=24, n_max=10, k_hat=2, delta=1e-2, n_points=8, seed=77
        )
        widths = [np.linalg.norm(world.cloud.vectors, axis=1).max(), *world.nested_width_curve(6)]

        def rows(method):
            return [r.value for r in res.records if r.method == method]

        assert rows("prior_single") == [widths[min(i, 6)] for i in range(10)]
        # Factor dims 1, 2 and 6.
        assert rows("prior_multi") == [widths[d] for d in (0, 1, 2, 2, 2, 2, 6, 6, 6, 6)]

    def test_one_i0_width_per_cloud(self):
        # The i = 0 value of a curve is its cloud's largest norm, one number
        # per cloud: the prior source cloud is the target cloud here.
        cfg = synthetic_defaults(n_factors=11, reps=2, n_points=40, per_point=3, i_max=40, seed=0)
        at_0 = {}
        for r in run_experiment(cfg).records:
            if r.i == 0:
                at_0.setdefault((r.target, r.rep), {})[r.method] = r.value
        m_values = set(at_0[("M", 0)].values()) | set(at_0[("M", 1)].values())
        m_values |= {at_0[("bound", 0)]["prior_single"], at_0[("bound", 0)]["prior_multi"]}
        assert len(m_values) == 1
        for rep in range(cfg.reps):
            post = at_0[("Mpost", rep)]
            assert post["perf"] == post["point"] == post["post_single"]

    def test_records_sorted(self, result):
        keys = [(r.method, r.target, r.rep, r.i) for r in result.records]
        assert keys == sorted(keys)

    def test_posterior_curves_finite_and_nonincreasing(self, result):
        for rep in range(result.config.reps):
            vals = [
                r.value for r in result.records
                if r.method == "post_single" and r.target == "Mpost" and r.rep == rep
            ]
            assert all(math.isfinite(v) for v in vals)
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_manifest_contents(self, result):
        man = result.manifest
        assert man["world"] == "synthetic"
        assert man["ambient_dim"] == 24
        assert man["n_manifold_points"] == 8
        assert float(man["eps_prime"]) > 0.0
        assert float(man["eps_intrinsic"]) > 0.0
        assert len(man["repetitions"]) == result.config.reps
        assert man["repetitions"][0]["n_posterior_single"] == 8 * 2
        assert RunConfig.from_dict(man["config"]) == result.config

    def test_manifest_records_prior_dimension(self, result):
        assert result.manifest["n_prior"] == result.config.n == 6

    def test_manifest_records_stability_factor(self, result):
        # beta = sigma_q of (V, W) for the single-tube prior.  The synthetic
        # world's weakest observed prior directions have cosine delta = 1e-2.
        world = build_synthetic_world(
            ambient_dim=24, n_max=10, k_hat=2, delta=1e-2, n_points=8, seed=77
        )
        sb = compute_suitable_bases(world.prior_subspace(6), world.observation_subspace(6))
        assert sb.q == 6
        assert result.manifest["beta"] == repr(float(sb.sigma[5]))
        assert_allclose(float(result.manifest["beta"]), 1e-2, rtol=1e-12)

    def test_manifest_summary_statistics(self, result):
        summary = result.manifest["summary"]
        entry = summary["post_single"]["Mpost"]
        i = entry["i"].index(3)
        vals = [
            r.value for r in result.records
            if r.method == "post_single" and r.target == "Mpost" and r.i == 3
        ]
        assert_allclose(float(entry["min"][i]), min(vals))
        assert_allclose(float(entry["max"][i]), max(vals))
        assert_allclose(float(entry["mean"][i]), sum(vals) / len(vals))
        # Infinite entries collapse the mean to the inf token.
        dbar = summary["bound_dbar"]["bound"]
        assert dbar["mean"][0] == "inf"

    def test_csv_round_trip_format(self, result, tmp_path):
        path = tmp_path / "curves.csv"
        write_csv(result.records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(result.records) + 1
        for line in lines[1:]:
            method, rep, i, target, value = line.split(",")
            int(rep), int(i)
            assert target in ("M", "Mpost", "bound")
            assert value == "inf" or math.isfinite(float(value))


class TestDeterminism:
    def test_two_runs_identical_csv(self, tmp_path):
        cfg = tiny_synthetic()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a.records, pa)
        write_csv(b.records, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_jobs_do_not_change_records(self, tmp_path):
        # jobs is ignored, but a manifest that sets it must still replay.
        csv_a, manifest = run_experiment(tiny_synthetic(jobs=1)).write(tmp_path / "a")
        data = json.loads(manifest.read_text())
        data["config"]["jobs"] = 4
        manifest.write_text(json.dumps(data))
        cfg = RunConfig.from_manifest(manifest)
        assert cfg.jobs == 4
        csv_b, _ = run_experiment(cfg).write(tmp_path / "b")
        assert csv_a.read_bytes() == csv_b.read_bytes()

    def test_seed_changes_posterior_curves(self):
        a = run_experiment(tiny_synthetic(seed=77))
        b = run_experiment(tiny_synthetic(seed=78))
        va = [r.value for r in a.records if r.method == "post_single" and r.target == "Mpost"]
        vb = [r.value for r in b.records if r.method == "post_single" and r.target == "Mpost"]
        assert va != vb


class TestThermalRun:
    def test_single_prior_run(self, tmp_path):
        res = run_experiment(tiny_thermal())
        methods = {r.method for r in res.records}
        assert "post_single" in methods and "perf" in methods
        assert "post_multi" not in methods and "prior_multi" not in methods
        assert res.manifest["world"] == "thermal"
        assert res.manifest["ambient_dim"] == 20
        assert res.manifest["n_manifold_points"] == 9
        csv_path, manifest_path = res.write(tmp_path)
        assert csv_path.read_text().startswith(CSV_HEADER)
        reloaded = json.loads(manifest_path.read_text())
        assert reloaded["config"]["cells"] == 4

    def test_manifest_records_prior_dimension_used(self):
        # The relaxed cloud of this grid has rank 10, so greedy and the prior
        # stop there although n = 12 is asked for.
        res = run_experiment(tiny_thermal(n=12))
        assert res.manifest["config"]["n"] == 12
        assert res.manifest["n_prior"] == 10

    def test_perf_at_m_is_greedy_benchmark(self):
        res = run_experiment(tiny_thermal())
        perf = [r.value for r in res.records if r.method == "perf" and r.target == "M"]
        # 9 snapshots of a 2-parameter family: error hits zero within i_max
        # and the curve is nonincreasing from the max norm.
        assert perf[0] > 0.0
        assert all(a >= b - 1e-12 for a, b in zip(perf, perf[1:]))
        assert perf[-1] < 1e-10
