"""Command-line interface: exit codes, record emission, config handling.

Everything runs in-process through main(argv); one subprocess test covers
the module entry point.
"""

import json
import subprocess
import sys

import pytest

from minweight.cli import (
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    main,
    render_csv,
    render_json,
)
from minweight.families import SpanningTreeFamily
from minweight.montecarlo import ExperimentConfig, run


def invoke(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success(self, capsys):
        code, out, err = invoke(["mst", "--n", "8", "--trials", "3"], capsys)
        assert code == EXIT_OK
        assert "mean=" in err

    def test_negative_q_is_usage_error(self, capsys):
        code, out, err = invoke(
            ["mst", "--n", "8", "--trials", "3", "--q", "-1"], capsys
        )
        assert code == EXIT_USAGE
        assert "--q" in err

    def test_missing_size(self, capsys):
        code, out, err = invoke(["mst", "--trials", "3"], capsys)
        assert code == EXIT_USAGE
        assert "n_grid" in err or "n " in err

    def test_both_sizes(self, capsys):
        code, _, err = invoke(
            ["mst", "--n", "8", "--n-grid", "4,8", "--trials", "3"], capsys
        )
        assert code == EXIT_USAGE

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_bad_choice_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["mst", "--n", "8", "--format", "xml"])
        assert info.value.code == 2

    def test_verification_failure(self, capsys):
        code, _, err = invoke(
            ["mst", "--n", "12", "--trials", "30", "--tolerance", "1e-9"], capsys
        )
        assert code == EXIT_VERIFY
        assert "FAIL" in err

    def test_verification_pass(self, capsys):
        code, _, err = invoke(
            ["mst", "--n", "12", "--trials", "30", "--tolerance", "10"], capsys
        )
        assert code == EXIT_OK
        assert "limit check" in err

    def test_tolerance_requires_unit_q(self, capsys):
        code, _, err = invoke(
            ["mst", "--n", "12", "--trials", "5", "--q", "2",
             "--tolerance", "0.1"], capsys
        )
        assert code == EXIT_USAGE

    def test_unwritable_out_is_io_error(self, capsys):
        code, _, err = invoke(
            ["mst", "--n", "8", "--trials", "2",
             "--out", "/nonexistent-dir/x.csv"], capsys
        )
        assert code == EXIT_IO
        assert "cannot write" in err

    def test_missing_required_flags(self, capsys):
        assert invoke(["patch", "--n", "10", "--trials", "2"], capsys)[0] == \
            EXIT_USAGE
        assert invoke(["dual", "--n", "8", "--trials", "2"], capsys)[0] == \
            EXIT_USAGE
        assert invoke(["coupling", "--trials", "200"], capsys)[0] == EXIT_USAGE
        assert invoke(["split", "--n", "8", "--trials", "2"], capsys)[0] == \
            EXIT_USAGE
        assert invoke(["tail", "--n", "8", "--trials", "4"], capsys)[0] == \
            EXIT_USAGE
        assert invoke(["bounds"], capsys)[0] == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["patch", "--n", "5", "--r", "10", "--trials", "1"],
        ["dual", "--n", "5", "--L", "-1", "--trials", "1"],
        ["dual", "--family", "matchings", "--n", "5", "--L", "nan", "--r", "1",
         "--trials", "2"],
    ], ids=["patch-r-too-large", "dual-negative-budget", "dual-nan-budget"])
    def test_bad_trial_arguments_are_usage_errors(self, argv, capsys):
        code, _, err = invoke(argv, capsys)
        assert code == EXIT_USAGE
        assert "trial 0" in err

    def test_solver_bug_is_internal_error(self, monkeypatch, capsys):
        # An empty patch never completes a depleted set: _verify_patch raises.
        monkeypatch.setattr(
            SpanningTreeFamily, "cheapest_completion", lambda self, g, w: (0.0, ())
        )
        code, _, err = invoke(["patch", "--n", "8", "--r", "2", "--trials", "1"],
                              capsys)
        assert code == EXIT_INTERNAL
        assert "trial 0" in err
        assert "Traceback" in err
        assert "RuntimeError: patch failed to complete the subset" in err


class TestRecordEmission:
    ARGS = ["mst", "--n", "8", "--trials", "3", "--seed", "5"]
    CONFIG = ExperimentConfig(family="trees", n=8, trials=3, master_seed=5)

    def test_csv_round_trip(self, capsys):
        code, out, _ = invoke(self.ARGS, capsys)
        assert code == EXIT_OK
        assert out.endswith("\n") and not out.endswith("\n\n")
        lines = out.splitlines()
        assert lines[0] == "trial,n,q,seed,value"
        assert len(lines) == 4
        records = run(self.CONFIG)
        for line, rec in zip(lines[1:], records):
            trial, n, q, seed, value = line.split(",")
            assert int(trial) == rec.trial
            assert int(n) == rec.n
            assert float(q) == rec.q
            assert int(seed) == rec.seed
            assert float(value) == rec.value  # 17 digits: exact round trip

    def test_json_mirrors_csv(self, capsys):
        code, out, _ = invoke(self.ARGS + ["--format", "json"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        records = run(self.CONFIG)
        assert len(payload) == 3
        for entry, rec in zip(payload, records):
            assert list(entry) == ["trial", "n", "q", "seed", "value"]
            assert entry["value"] == rec.value
            assert entry["seed"] == rec.seed

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        target = tmp_path / "records.csv"
        code, out, _ = invoke(self.ARGS + ["--out", str(target)], capsys)
        assert code == EXIT_OK
        assert out == ""  # records went to the file
        code2, stdout_text, _ = invoke(self.ARGS, capsys)
        assert target.read_text() == stdout_text

    @pytest.mark.parametrize("argv", [
        ["oracle", "--trials", "1"],
        ["oracle", "--trials", "1", "--format", "json"],
        ["coupling", "--s", "0.5", "--trials", "400"],
        ["bounds", "--op", "ab-min", "--a", "4", "--b", "1", "--p", "1"],
    ])
    def test_report_out_file_matches_stdout(self, argv, tmp_path, capsys):
        target = tmp_path / "report.out"
        code, out, _ = invoke(argv + ["--out", str(target)], capsys)
        assert code == EXIT_OK
        assert out == ""
        code2, stdout_text, _ = invoke(argv, capsys)
        assert code2 == EXIT_OK
        assert target.read_bytes() == stdout_text.encode()

    def test_dual_activates_extra_columns(self, capsys):
        code, out, _ = invoke(
            ["dual", "--n", "8", "--L", "1.0", "--r", "2", "--trials", "4"],
            capsys,
        )
        assert code == EXIT_OK
        header = out.splitlines()[0]
        assert header == "trial,n,q,seed,value,defect,near_value"

    def test_empty_renders_header_only(self):
        assert render_csv([]) == "trial,n,q,seed,value\n"
        assert render_json([]) == "[]\n"


class TestBoundsCommand:
    def test_ab_min_reference_output(self, capsys):
        code, out, _ = invoke(
            ["bounds", "--op", "ab-min", "--a", "4", "--b", "1", "--p", "1"],
            capsys,
        )
        assert code == EXIT_OK
        assert out.splitlines() == [
            "s0 = 0.33333333333333331",
            "fmin = 9",
            "secant_bound = 10",
        ]

    def test_ball_volume(self, capsys):
        code, out, _ = invoke(
            ["bounds", "--op", "ball-volume", "--q", "1", "--m", "3", "--L", "1"],
            capsys,
        )
        assert code == EXIT_OK
        assert out == "probability = 0.16666666666666666\n"

    def test_upper_tail(self, capsys):
        code, out, _ = invoke(
            ["bounds", "--op", "upper-tail", "--q", "1", "--t", "2"], capsys
        )
        assert code == EXIT_OK
        assert out == "probability = 0.5\n"

    def test_mean_median(self, capsys):
        code, out, _ = invoke(["bounds", "--op", "mean-median", "--q", "1"], capsys)
        assert code == EXIT_OK
        assert out == "ratio = 2.8853900817779268\n"

    def test_bad_arguments_are_usage_errors(self, capsys):
        # a < b violates the evaluator's domain
        code, _, err = invoke(
            ["bounds", "--op", "ab-min", "--a", "1", "--b", "4", "--p", "1"],
            capsys,
        )
        assert code == EXIT_USAGE
        code, _, err = invoke(
            ["bounds", "--op", "ab-min", "--a", "4", "--b", "1"], capsys
        )
        assert code == EXIT_USAGE
        assert "--p" in err

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "bound.txt"
        code, out, _ = invoke(
            ["bounds", "--op", "r-min", "--ell", "199", "--eps", "0.05",
             "--out", str(target)], capsys
        )
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text() == "radius = 69.059436570956422\n"


class TestConfigFile:
    def test_config_provides_defaults_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# experiment setup\n"
            "n = 8\n"
            "trials = 5  # overridden below\n"
            "seed = 5\n"
        )
        code, out, _ = invoke(
            ["mst", "--config", str(cfg), "--trials", "3"], capsys
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 4  # header + the 3 trials from the flag
        records = run(ExperimentConfig(family="trees", n=8, trials=3, master_seed=5))
        assert float(lines[1].split(",")[4]) == records[0].value

    def test_dashed_keys_normalize(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("n-grid = 4,6,8\ntrials = 2\n")
        code, out, err = invoke(["mst", "--config", str(cfg)], capsys)
        assert code == EXIT_OK
        assert {line.split(",")[1] for line in out.splitlines()[1:]} == \
            {"4", "6", "8"}

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = invoke(["mst", "--n", "8", "--config", str(cfg)], capsys)
        assert code == EXIT_CONFIG
        assert "bogus" in err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        code, _, err = invoke(["mst", "--n", "8", "--config", str(cfg)], capsys)
        assert code == EXIT_CONFIG
        assert "key = value" in err

    def test_missing_config_file(self, capsys):
        code, _, err = invoke(
            ["mst", "--n", "8", "--config", "/no/such/file.cfg"], capsys
        )
        assert code == EXIT_CONFIG

    def test_choice_values_rechecked(self, tmp_path, capsys):
        cfg = tmp_path / "strategy.cfg"
        cfg.write_text("g-strategy = steal-everything\n")
        code, _, err = invoke(
            ["patch", "--n", "10", "--r", "2", "--trials", "2",
             "--config", str(cfg)], capsys
        )
        assert code == EXIT_CONFIG

    def test_bad_config_value_type(self, tmp_path, capsys):
        cfg = tmp_path / "types.cfg"
        cfg.write_text("trials = plenty\n")
        code, _, err = invoke(["mst", "--n", "8", "--config", str(cfg)], capsys)
        assert code == EXIT_CONFIG
        assert "trials" in err


class TestExperimentCommands:
    def test_patch(self, capsys):
        code, out, err = invoke(
            ["patch", "--n", "10", "--r", "2", "--trials", "4"], capsys
        )
        assert code == EXIT_OK
        assert "patch n=10" in err
        assert "patch_cost" in out.splitlines()[0]

    def test_dual_duality_check(self, capsys):
        code, _, err = invoke(
            ["dual", "--n", "8", "--L", "1.0", "--r", "2", "--trials", "10"],
            capsys,
        )
        assert code == EXIT_OK
        assert "0 violations" in err

    def test_coupling(self, capsys):
        code, out, err = invoke(
            ["coupling", "--s", "0.5", "--trials", "400"], capsys
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["violations"] == 0
        assert payload["all_ok"] is True
        assert payload["trials"] == 400

    def test_split(self, capsys):
        code, _, err = invoke(
            ["split", "--n", "8", "--r", "2", "--s", "0.3", "--trials", "10"],
            capsys,
        )
        assert code == EXIT_OK
        assert "violations: 0 / 10" in err

    def test_tail(self, capsys):
        code, _, err = invoke(
            ["tail", "--n", "10", "--t-grid", "1.0,2.0", "--trials", "40"],
            capsys,
        )
        assert code == EXIT_OK
        assert "median estimate" in err

    def test_oracle(self, capsys):
        code, out, _ = invoke(["oracle", "--trials", "2"], capsys)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 50
        assert all(line.endswith("2/2") for line in lines)

    def test_assignment(self, capsys):
        code, out, err = invoke(
            ["assignment", "--n", "6", "--trials", "3"], capsys
        )
        assert code == EXIT_OK
        assert "matchings n=6" in err


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "minweight", "bounds", "--op", "ab-min",
             "--a", "4", "--b", "1", "--p", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert "fmin = 9" in proc.stdout
