"""Tests for the command-line interface (all invocations in-process)."""

import json
import math
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from partialrom.cli import main
from partialrom.rng import derived_seed
from partialrom.sampling import PiDistribution, sample_posterior
from partialrom.worlds import build_synthetic_world


def tiny_setup2_args(out_dir):
    return [
        "setup2", "--out", str(out_dir),
        "--ambient", "24", "--n-max", "10", "--k-hat", "2", "--delta", "1e-2",
        "--m", "6", "--n", "6", "--n-points", "6", "--per-point", "2",
        "--reps", "1", "--i-max", "5", "--seed", "7",
    ]


def tiny_setup1_args(out_dir):
    return [
        "setup1", "--out", str(out_dir),
        "--cells", "4", "--t-steps", "3", "--relax-max", "16", "--m", "4", "--n", "8",
        "--reps", "1", "--i-max", "10", "--per-point", "2",
    ]


class TestSelftest:
    def test_all_components_pass(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7
        assert "FAIL" not in out
        for name in (
            "suitable-bases", "slice-sampler", "point-estimate", "greedy",
            "width-bounds", "thermal-solver", "synthetic-world",
        ):
            assert f"PASS {name}" in out


class TestBounds:
    BASE = [
        "bounds", "--k", "2", "--n", "3", "--m", "3", "--ambient", "10",
        "--eps", "1e-3", "--eps-prime", "0.1", "--sigma", "1,0.5,0.2",
    ]

    def parse(self, text):
        lines = text.strip().splitlines()
        assert lines[0] == "i,d_bar,d_bbar,combined"
        rows = []
        for line in lines[1:]:
            i, a, b, c = line.split(",")
            rows.append((int(i), float(a), float(b), float(c)))
        return rows

    def test_stdout_table(self, capsys):
        assert main(self.BASE + ["--i-max", "4"]) == 0
        rows = self.parse(capsys.readouterr().out)
        assert [r[0] for r in rows] == [0, 1, 2, 3, 4]
        # k* = 2: inf below, then (eps + eps')/sigma_3, then eps'.
        assert rows[0][1] == math.inf and rows[1][1] == math.inf
        assert_allclose(rows[2][1], 0.101 / 0.2, rtol=1e-12)
        assert_allclose(rows[3][1], 0.1, rtol=1e-12)
        # d_bbar floor sits at i = k + (N - m) = 9, beyond this table.
        assert all(r[2] == math.inf for r in rows)
        assert_allclose(rows[2][3], 0.101 / 0.2, rtol=1e-12)

    def test_output_directory(self, tmp_path, capsys):
        out = tmp_path / "bounds_run"
        assert main(self.BASE + ["--i-max", "10", "--out", str(out)]) == 0
        rows = self.parse((out / "bounds.csv").read_text())
        assert len(rows) == 11
        # The d_bbar floor appears at i = 9 with value eps.
        assert rows[8][2] == math.inf
        assert_allclose(rows[9][2], 1e-3, rtol=1e-12)
        man = json.loads((out / "manifest.json").read_text())
        assert man["command"] == "bounds"
        assert man["k_star"] == 2
        assert man["p"] == 1 and man["q"] == 3
        assert_allclose(man["sigma"], [1.0, 0.5, 0.2])

    def test_sigma_mode_aligned(self, capsys):
        args = [
            "bounds", "--k", "1", "--n", "2", "--m", "2", "--ambient", "8",
            "--eps", "0.01", "--eps-prime", "0.5", "--sigma-mode", "aligned",
            "--i-max", "3",
        ]
        assert main(args) == 0
        rows = self.parse(capsys.readouterr().out)
        # p = q = n: k* = min(2, 1 + 0) = 1 and the middle branch divides by 1.
        assert rows[0][1] == math.inf
        assert_allclose(rows[1][1], 0.51, rtol=1e-12)
        assert_allclose(rows[2][1], 0.5, rtol=1e-12)
        # Orthogonal: q = 0, so k* = n = 2: inf below n, then eps'.
        assert main(args[:-3] + ["orthogonal", "--i-max", "3"]) == 0
        rows = self.parse(capsys.readouterr().out)
        assert [r[1] for r in rows] == [math.inf, math.inf, 0.5, 0.5]

    def test_sigma_mode_random_is_seeded(self, capsys):
        args = [
            "bounds", "--k", "1", "--n", "3", "--m", "4", "--ambient", "12",
            "--eps", "0.01", "--eps-prime", "0.5", "--sigma-mode", "random",
            "--seed", "5", "--i-max", "6",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_sigma_validation_exit_codes(self, capsys):
        bad_order = self.BASE[: -1] + ["0.2,0.5,1"]
        assert main(bad_order) == 2
        assert "configuration error" in capsys.readouterr().err
        bad_count = self.BASE[: -1] + ["1,0.5"]
        assert main(bad_count) == 2
        bad_range = self.BASE[: -1] + ["1,0.5,-0.1"]
        assert main(bad_range) == 2
        for bad_value in ("1,x,0.2", "1,nan,0.2"):
            assert main(self.BASE[: -1] + [bad_value]) == 2
        assert main(self.BASE + ["--i-max", "-3"]) == 2
        assert "--i-max" in capsys.readouterr().err

    def test_i_max_above_ambient_exits_2(self, capsys):
        # BASE has --ambient 10: the table may reach i = 10 but not beyond.
        assert main(self.BASE + ["--i-max", "11"]) == 2
        assert "--i-max" in capsys.readouterr().err
        assert main(self.BASE + ["--i-max", "10"]) == 0
        assert len(self.parse(capsys.readouterr().out)) == 11

    @pytest.mark.parametrize("flag", ["--eps", "--eps-prime"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-0.1"])
    def test_non_finite_width_exits_2(self, flag, value, capsys):
        # A negative width is as invalid as a non-finite one: exit 2, not 3.
        args = list(self.BASE)
        args[args.index(flag) + 1] = value
        assert main(args) == 2
        assert flag in capsys.readouterr().err

    def test_invalid_geometry_exits_numerical(self, capsys):
        args = [
            "bounds", "--k", "-1", "--n", "3", "--m", "3", "--ambient", "10",
            "--eps", "1e-3", "--eps-prime", "0.1", "--sigma", "1,0.5,0.2",
        ]
        assert main(args) == 3
        assert "numerical failure" in capsys.readouterr().err
        # A negative --n or --m (no --sigma) is caught before sigma is sized by it.
        for n, m in (("-4", "3"), ("4", "-3")):
            args = [
                "bounds", "--k", "1", "--n", n, "--m", m, "--ambient", "20",
                "--eps", "0.1", "--eps-prime", "0.2",
            ]
            assert main(args) == 3
            err = capsys.readouterr().err
            assert "numerical failure" in err and "m, n >= 1" in err

    @pytest.mark.parametrize(
        "k, n, ambient", [("2", "3", "-5"), ("6", "4", "10")], ids=["negative-ambient", "k-above-n"]
    )
    def test_impossible_geometry_exits_numerical(self, k, n, ambient, capsys):
        # --i-max is explicit, so a negative --ambient is not caught as a negative i_max.
        args = [
            "bounds", "--k", k, "--n", n, "--m", "3", "--ambient", ambient,
            "--eps", "1e-3", "--eps-prime", "0.1", "--sigma", "1,0.5,0.2", "--i-max", "5",
        ]
        assert main(args) == 3
        assert "numerical failure" in capsys.readouterr().err


class TestRunCommands:
    def test_setup2_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(tiny_setup2_args(out)) == 0
        csv_lines = (out / "curves.csv").read_text().splitlines()
        assert csv_lines[0] == "method,rep,i,target,value"
        assert len(csv_lines) > 1
        man = json.loads((out / "manifest.json").read_text())
        assert man["world"] == "synthetic"
        assert man["config"]["seed"] == 7
        assert man["config"]["setup"] == 2
        assert "wrote" in capsys.readouterr().out

    def test_setup1_writes_outputs(self, tmp_path):
        out = tmp_path / "run1"
        args = [
            "setup1", "--out", str(out), "--cells", "4", "--t-steps", "2",
            "--relax-max", "100", "--m", "5", "--n", "4", "--reps", "1",
            "--per-point", "2", "--i-max", "5", "--seed", "3",
        ]
        assert main(args) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["world"] == "thermal"
        assert man["ambient_dim"] == 20

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 31\nn_points = 6\nn_max = 10\nk_hat = 2\n"
                       "delta = 1e-2\nambient = 24\nm = 6\nn = 6\n"
                       "reps = 1\nper_point = 2\ni_max = 4\n")
        out = tmp_path / "run"
        args = ["setup2", "--out", str(out), "--config", str(cfg), "--seed", "99"]
        assert main(args) == 0
        man = json.loads((out / "manifest.json").read_text())
        assert man["config"]["seed"] == 99
        assert man["config"]["n_points"] == 6

    def test_rerun_from_manifest_reproduces_csv(self, tmp_path):
        first = tmp_path / "first"
        assert main(tiny_setup2_args(first)) == 0
        second = tmp_path / "second"
        args = ["setup2", "--out", str(second), "--from-manifest", str(first / "manifest.json")]
        assert main(args) == 0
        assert (first / "curves.csv").read_bytes() == (second / "curves.csv").read_bytes()

    def test_setup2_t_outside_v_exits_config(self, tmp_path, capsys):
        args = tiny_setup2_args(tmp_path / "run") + ["--k-intrinsic", "30"]
        assert main(args) == 2
        assert "k_intrinsic" in capsys.readouterr().err
        assert not (tmp_path / "run" / "curves.csv").exists()

    def test_setup1_m_above_ambient_exits_config(self, tmp_path, capsys):
        out = tmp_path / "run"
        args = [
            "setup1", "--out", str(out), "--cells", "2", "--t-steps", "2",
            "--relax-max", "16", "--m", "10", "--n", "4", "--reps", "1",
            "--per-point", "2", "--i-max", "5", "--seed", "3",
        ]
        assert main(args) == 2
        assert "m = 10 exceeds the ambient dimension" in capsys.readouterr().err
        assert not (out / "curves.csv").exists()

    @pytest.mark.parametrize("setup, ambient", [(1, 6), (2, 24)])
    def test_i_max_above_ambient_exits_config(self, tmp_path, capsys, setup, ambient):
        # Every curve is padded to i_max + 1 values, so i_max is bounded by
        # the ambient dimension (cells (cells + 1) for setup 1).
        def args(out, i_max):
            if setup == 2:
                return tiny_setup2_args(out) + ["--i-max", str(i_max)]
            return [
                "setup1", "--out", str(out), "--cells", "2", "--t-steps", "2",
                "--relax-max", "16", "--m", "4", "--n", "4", "--reps", "1",
                "--per-point", "2", "--i-max", str(i_max), "--seed", "3",
            ]

        assert main(args(tmp_path / "ok", ambient)) == 0
        assert main(args(tmp_path / "bad", ambient + 1)) == 2
        assert f"i_max = {ambient + 1} exceeds the ambient dimension {ambient}" in capsys.readouterr().err
        assert not (tmp_path / "bad" / "curves.csv").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--flux", "0", "flux must be nonzero"),
            ("--theta-step", "1e308", "the theta grid's top value"),
            ("--d-box", "1e154", "d_box = 1e+154 exceeds sqrt(float max / (4 n))"),
        ],
        ids=["zero-flux", "theta-grid-overflow", "d-box-overflow"],
    )
    def test_degenerate_setup1_value_exits_config(self, tmp_path, capsys, flag, value, message):
        # A zero load makes every state zero; the others overflow the theta
        # grid or the squared norms of the posterior draws.
        out = tmp_path / "run"
        assert main(tiny_setup1_args(out) + [flag, value]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "curves.csv").exists()

    def test_largest_admitted_d_box_writes_finite_curves(self, tmp_path):
        # n = 8 prior directions, 4 of them observed: the draws' deviations
        # reach about 2 d_box in norm, and no operation may warn of overflow.
        d_box_max = math.sqrt(sys.float_info.max / (4 * 8))
        out = tmp_path / "run"
        assert main(tiny_setup1_args(out) + ["--d-box", repr(d_box_max)]) == 0
        rows = [line.split(",") for line in (out / "curves.csv").read_text().splitlines()[1:]]
        mpost = [float(value) for method, _, _, target, value in rows if target == "Mpost"]
        assert {method for method, _, _, target, _ in rows if target == "Mpost"} == {
            "perf", "point", "post_single"
        }
        assert all(math.isfinite(v) for v in mpost)
        assert max(mpost) > d_box_max
        above = repr(float(np.nextafter(d_box_max, math.inf)))
        assert main(tiny_setup1_args(tmp_path / "bad") + ["--d-box", above]) == 2

    def test_manifest_setup_mismatch(self, tmp_path, capsys):
        run2 = tmp_path / "run2"
        assert main(tiny_setup2_args(run2)) == 0
        args = ["setup1", "--out", str(tmp_path / "x"),
                "--from-manifest", str(run2 / "manifest.json")]
        assert main(args) == 2
        assert "setup" in capsys.readouterr().err

    def test_config_and_manifest_mutually_exclusive(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\n")
        args = ["setup2", "--out", str(tmp_path / "x"),
                "--config", str(cfg), "--from-manifest", str(cfg)]
        assert main(args) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sede = 1\n")
        assert main(["setup2", "--out", str(tmp_path / "x"), "--config", str(cfg)]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_bad_flag_value_exits_2(self, tmp_path):
        assert main(["setup2", "--out", str(tmp_path / "x"), "--seed", "twelve"]) == 2

    def test_invalid_config_exits_2(self, tmp_path):
        # reps = 0 fails validation inside run_experiment.
        assert main(tiny_setup2_args(tmp_path / "x") + ["--reps", "0"]) == 2

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("setup2", "--d-box", "nan"),
            ("setup1", "--theta-min", "nan"),
            ("setup1", "--theta-step", "nan"),
            ("setup1", "--flux", "nan"),
            ("setup2", "--eps-main", "nan"),
            ("setup2", "--eps-perturb", "nan"),
            ("setup2", "--eps-main", "inf"),
        ],
    )
    def test_non_finite_config_value_exits_2(self, tmp_path, capsys, command, flag, value):
        assert main([command, "--out", str(tmp_path / "x"), flag, value]) == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, content",
        [
            ("--config", None),
            ("--config", b"seed = 1\n\xff\n"),
            ("--from-manifest", None),
            ("--from-manifest", b"not json"),
            ("--from-manifest", b'{"config": 5}'),
            ("--from-manifest", b"5"),
            ("--from-manifest", b'{"config": {"reps": 1e400}}'),
            ("--from-manifest", b'{"config": {"setup": 2, "reps": 2.7}}'),
        ],
        ids=[
            "config-missing", "config-not-utf8", "manifest-missing", "manifest-not-json",
            "manifest-config-number", "manifest-number", "manifest-int-overflow",
            "manifest-fractional-int",
        ],
    )
    def test_unreadable_or_malformed_file_exits_2(self, tmp_path, capsys, option, content):
        path = tmp_path / "input"
        if content is not None:
            path.write_bytes(content)
        assert main(["setup2", "--out", str(tmp_path / "x"), option, str(path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_starved_multi_prior_exits_3(self, tmp_path, capsys):
        args = [
            "setup2", "--out", str(tmp_path / "x"),
            "--ambient", "30", "--n-max", "12", "--k-hat", "2", "--delta", "1e-2",
            "--m", "4", "--n", "10", "--n-factors", "5", "--n-points", "4",
            "--per-point", "2", "--reps", "1", "--i-max", "4",
            "--max-draw-factor", "2", "--seed", "3",
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(args) == 3
        assert "numerical failure" in capsys.readouterr().err


class TestSample:
    def test_sample_csv(self, tmp_path, capsys):
        out = tmp_path / "samples.csv"
        args = [
            "sample", "--setup", "2", "--out", str(out),
            "--ambient", "24", "--n-max", "10", "--k-hat", "2", "--delta", "1e-2",
            "--m", "6", "--n", "6", "--n-points", "5", "--per-point", "3",
            "--seed", "11",
        ]
        assert main(args) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sample," + ",".join(f"c{j}" for j in range(24))
        assert len(lines) == 1 + 5 * 3
        first = lines[1].split(",")
        assert first[0] == "0"
        assert all(math.isfinite(float(tok)) for tok in first[1:])

    def test_max_points_subsamples(self, tmp_path):
        out = tmp_path / "sub.csv"
        args = [
            "sample", "--setup", "2", "--out", str(out), "--max-points", "2",
            "--ambient", "24", "--n-max", "10", "--k-hat", "2", "--delta", "1e-2",
            "--m", "6", "--n", "6", "--n-points", "5", "--per-point", "3",
            "--seed", "11",
        ]
        assert main(args) == 0
        assert len(out.read_text().splitlines()) == 1 + 2 * 3
        at = args.index("--max-points") + 1
        assert main(args[:at] + ["0"] + args[at + 1:]) == 0  # 0 keeps every point
        assert len(out.read_text().splitlines()) == 1 + 5 * 3
        assert main(args[:at] + ["-5"] + args[at + 1:]) == 2

    def test_multi_prior_sampling(self, tmp_path):
        out = tmp_path / "multi.csv"
        args = [
            "sample", "--setup", "2", "--out", str(out), "--multi",
            "--ambient", "24", "--n-max", "10", "--k-hat", "2", "--delta", "1e-2",
            "--m", "8", "--n", "6", "--n-factors", "2", "--n-points", "4",
            "--per-point", "2", "--seed", "11",
        ]
        assert main(args) == 0
        assert len(out.read_text().splitlines()) == 1 + 4 * 2

    def test_multi_needs_several_factors(self, tmp_path, capsys):
        out = tmp_path / "multi.csv"
        args = [
            "sample", "--setup", "2", "--out", str(out), "--multi",
            "--ambient", "24", "--n-max", "10", "--k-hat", "2", "--delta", "1e-2",
            "--m", "8", "--n", "6", "--n-points", "4", "--per-point", "2", "--seed", "11",
        ]
        assert main(args) == 2  # n_factors defaults to 1: no multi-tube prior
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()
        assert main(args + ["--n-factors", "1"]) == 2
        assert not out.exists()

    def test_multi_honours_j_star(self, tmp_path):
        out = tmp_path / "multi.csv"
        args = [
            "sample", "--setup", "2", "--out", str(out), "--multi", "--j-star", "2",
            "--ambient", "24", "--n-max", "10", "--k-hat", "2", "--delta", "1e-2",
            "--m", "8", "--n", "6", "--n-factors", "3", "--n-points", "4",
            "--per-point", "2", "--seed", "11",
        ]
        assert main(args) == 0
        world = build_synthetic_world(
            ambient_dim=24, n_max=10, k_hat=2, delta=1e-2, n_points=4, seed=11
        )
        expected = sample_posterior(
            world.cloud, world.observation_subspace(8), world.prior_manifold(6, 3), 2,
            pi_dist=PiDistribution.from_name("mixture"), seed=derived_seed(11, 41), j_star=2,
            max_draws_per_point=100 * 2,
        )
        rows = [line.split(",")[1:] for line in out.read_text().splitlines()[1:]]
        assert np.array_equal(np.array(rows, dtype=float), expected.vectors)

    def test_deterministic_across_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = [
            "sample", "--setup", "2",
            "--ambient", "24", "--n-max", "10", "--k-hat", "2", "--delta", "1e-2",
            "--m", "6", "--n", "6", "--n-points", "3", "--per-point", "2",
            "--seed", "21",
        ]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestArgparseBehavior:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--bogus"])
        assert exc.value.code == 2

    def test_setup2_requires_out(self):
        with pytest.raises(SystemExit) as exc:
            main(["setup2"])
        assert exc.value.code == 2


@pytest.mark.parametrize("command", ["setup2", "sample", "bounds", "selftest"])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    # Every seed feeds np.random.SeedSequence, which takes no negative entropy;
    # a negative seed is a configuration error, caught before any stream.
    args = {
        "setup2": ["setup2", "--out", str(tmp_path / "x"), "--seed", "-1"],
        "sample": ["sample", "--setup", "2", "--out", str(tmp_path / "s.csv"), "--seed", "-3"],
        "bounds": [
            "bounds", "--k", "1", "--n", "4", "--m", "3", "--ambient", "20",
            "--sigma-mode", "random", "--seed", "-1", "--eps", "0.1", "--eps-prime", "0.2",
        ],
        "selftest": ["selftest", "--seed", "-1"],
    }[command]
    assert main(args) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
