"""Command-line interface: exit codes, record emission, config handling.

Everything runs in-process through main(argv); one subprocess test covers
the module entry point.
"""

import hashlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import minweight
from minweight import montecarlo
from minweight.cli import (
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    _experiment_config,
    _write_records,
    build_parser,
    main,
    render_csv,
)
from minweight.families import MatchingFamily, SolveResult, SpanningTreeFamily
from minweight.montecarlo import ExperimentConfig, run
from minweight.weights import InvalidInput


def invoke(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def bounds_ops():
    """The `--op` choices of the bounds subcommand's parser."""
    bounds = build_parser().parse_args(["bounds"]).subparser
    return next(a.choices for a in bounds._actions if a.dest == "op")


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

    def test_unwritable_out_is_io_error(self, monkeypatch, capsys):
        ran = []  # the file is opened before the first trial
        monkeypatch.setattr(montecarlo, "_trial", lambda *args: ran.append(args))
        code, _, err = invoke(
            ["mst", "--n", "8", "--trials", "2",
             "--out", "/nonexistent-dir/x.csv"], capsys
        )
        assert code == EXIT_IO
        assert "cannot write" in err
        assert ran == []

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

    @pytest.mark.parametrize("argv, flag", [
        ("patch --n 10", "--r"), ("dual --n 8", "--L"),
        ("split --n 8 --s 0.3", "--r"), ("split --n 8 --r 2", "--s"),
    ], ids=["patch-r", "dual-L", "split-r", "split-s"])
    def test_a_missing_kind_parameter_names_its_flag(self, argv, flag, capsys):
        # dual's --L fills the config's budget; the message names the flag.
        code, out, err = invoke(argv.split() + ["--trials", "2"], capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: {flag} is required for this subcommand\n"

    @pytest.mark.parametrize("argv", [
        ["patch", "--n", "5", "--r", "10", "--trials", "1"],
        ["dual", "--n", "5", "--L", "-1", "--trials", "1"],
        ["dual", "--family", "matchings", "--n", "5", "--L", "nan", "--r", "1",
         "--trials", "2"],
        ["dual", "--n", "5", "--L", "1", "--r", "9", "--trials", "1"],
        ["split", "--n", "5", "--r", "9", "--s", "0.5", "--trials", "1"],
        ["patch", "--n", "5", "--r", "-1", "--trials", "1"],
    ], ids=["patch-r-too-large", "dual-negative-budget", "dual-nan-budget",
            "dual-r-too-large", "split-r-too-large", "patch-negative-r"])
    def test_bad_trial_arguments_are_usage_errors(self, argv, capsys):
        code, _, err = invoke(argv, capsys)
        assert code == EXIT_USAGE
        assert "trial 0" in err

    @pytest.mark.parametrize("argv", [
        "mst --n 5 --trials 2 --q 0.0001 --base exponential",
        "dual --family matchings --n 5 --L 1 --q 0.0001 --base exponential "
        "--trials 2",
    ], ids=["mst", "dual-matchings"])
    def test_overflowed_weights_are_usage_errors(self, argv, capsys):
        # E^(1/q) overflows to inf for most exponential draws at q = 1e-4.
        code, out, err = invoke(argv.split(), capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert "weights must be finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        "mst --n 5 --trials 2 --q 1e-4 --base exponential",
        "split --n 5 --r 2 --s 0.5 --q 1e-3 --base exponential --trials 2",
    ], ids=["mst", "split"])
    def test_overflowed_weights_print_no_runtime_warning(self, argv, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = invoke(argv.split(), capsys)
        assert code == EXIT_USAGE
        assert err.startswith("error:")
        assert [c for c in caught if issubclass(c.category, RuntimeWarning)] == []

    @pytest.mark.parametrize("argv", [
        "split --n 5 --r 2 --s 1e-5 --q 0.01 --trials 2",
        "split --n 5 --r 2 --s 0.99999 --q 0.01 --trials 2",
        "coupling --s 1e-5 --q 0.01 --trials 100",
    ], ids=["split-small-s", "split-large-s", "coupling"])
    def test_split_constant_overflow_is_a_usage_error(self, argv, capsys):
        code, out, err = invoke(argv.split(), capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert "overflow" in err and "Traceback" not in err

    @pytest.mark.parametrize("q, ties", [("1e-3", "52 green and 39 red"),
                                         ("1e300", "99 green and 99 red")])
    def test_coupling_ties_are_a_usage_error(self, q, ties, capsys):
        # U^(1/q) underflows to 0 (q = 1e-3) or rounds to 1 (q = 1e300), so
        # a quartile of the independence table is empty.
        code, out, err = invoke(
            f"coupling --s 0.5 --trials 100 --q {q}".split(), capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            f"error: coupling draws tie at q={float(q)}: {ties} draws repeat another "
            "(they underflow to 0 or round to 1), so a quartile of the 4x4 "
            "independence table is empty\n")

    def test_coupling_overflow_is_a_usage_error(self, capsys):
        # E^(1/q) overflows to inf for most exponential draws at q = 1e-3.
        code, out, err = invoke(
            "coupling --s 0.5 --trials 100 --q 1e-3 --base exponential".split(), capsys
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error:") and "weights must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_oracle_needs_a_trial(self, trials, capsys):
        code, _, err = invoke(["oracle", "--trials", trials], capsys)
        assert code == EXIT_USAGE
        assert "at least one vector" in err

    def test_solver_bug_is_internal_error(self, monkeypatch, capsys):
        # An empty patch never completes a depleted set: _verify_patch raises.
        monkeypatch.setattr(
            SpanningTreeFamily, "cheapest_completion",
            lambda self, g, w: SolveResult(0.0, ()),
        )
        code, _, err = invoke(["patch", "--n", "8", "--r", "2", "--trials", "1"],
                              capsys)
        assert code == EXIT_INTERNAL
        assert "trial 0" in err
        assert "Traceback" in err
        assert "RuntimeError: patch failed to complete the subset" in err

    def test_value_error_inside_a_trial_is_internal_error(self, monkeypatch,
                                                          capsys):
        # Only InvalidInput marks rejected input; a solver's ValueError is a bug.
        def broken(self, w, k):
            raise ValueError("solver bug")

        monkeypatch.setattr(MatchingFamily, "_k_matching", broken)
        code, _, err = invoke(
            "dual --family matchings --n 3 --L 1 --trials 1".split(), capsys
        )
        assert code == EXIT_INTERNAL
        assert "trial 0" in err
        assert "Traceback" in err
        assert "ValueError: solver bug" in err

    def test_crash_outside_a_trial_is_internal_error(self, monkeypatch, capsys):
        # oracle_suite calls the solvers directly, not through a trial.
        def broken(self, subset):
            raise IndexError("broken solver")

        monkeypatch.setattr(SpanningTreeFamily, "min_patch_size", broken)
        code, _, err = invoke(["oracle", "--trials", "1"], capsys)
        assert code == EXIT_INTERNAL
        assert "Traceback" in err
        assert "IndexError: broken solver" in err

    def test_value_error_outside_a_trial_is_internal_error(self, monkeypatch,
                                                           capsys):
        # A ValueError is not a usage error unless argument checking raised it.
        def broken(self, subset):
            raise ValueError("solver bug")

        monkeypatch.setattr(SpanningTreeFamily, "min_patch_size", broken)
        code, _, err = invoke(["oracle", "--trials", "1"], capsys)
        assert code == EXIT_INTERNAL
        assert "Traceback" in err
        assert "ValueError: solver bug" in err

    @pytest.mark.parametrize("argv", [
        "mst --n 1", "mst --n-grid 1,5,6", "assignment --n 0",
        "patch --n 1 --r 1", "dual --n 1 --L 1", "split --n 1 --r 1 --s 0.5",
        "tail --n 1 --t-grid 1", "tail --n-grid 5,6,7 --t-grid 1",
        "tail --n 8 --trials 1 --t-grid 1", "tail --n 8 --t-grid nan",
        "coupling --s 0", "coupling --s 1.5", "coupling --s nan",
        "coupling --s 0.5 --trials 99", "coupling --s 0.5 --seed -1",
        "oracle --trials 0", "oracle --trials -3", "oracle --seed -1",
        "mst --n-grid 5,6,7 --trials 1", "assignment --n-grid 2,3,4 --trials 1",
    ])
    def test_argument_checks_run_before_the_work(self, argv, capsys):
        code, out, err = invoke(argv.split(), capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("tolerance, expected", [
        ([], EXIT_OK), (["--tolerance", "5"], EXIT_VERIFY),
    ], ids=["no-check", "tolerance"])
    def test_a_zero_std_leaves_the_slope_undefined(self, tolerance, expected,
                                                   capsys):
        # At q = 0.001 most weights underflow to 0: every size's std is 0.
        argv = "mst --n-grid 5,6,7 --trials 3 --q 0.001".split() + tolerance
        code, out, err = invoke(argv, capsys)
        assert code == expected
        assert len(out.splitlines()) == 10
        assert "std slope: undefined" in err and "Traceback" not in err

    @pytest.mark.parametrize("tolerance, expected, message", [
        ("0", EXIT_VERIFY, "FAIL: slope -0.2414 above cap -0.2500"),
        ("0.2", EXIT_OK, "slope cap: -0.049999999999999989"),
    ], ids=["above-cap", "below-cap"])
    def test_the_std_slope_is_held_to_its_cap(self, tolerance, expected,
                                              message, capsys):
        argv = "mst --n-grid 8,16,32 --trials 10 --seed 7 --tolerance".split()
        code, _, err = invoke(argv + [tolerance], capsys)
        assert code == expected
        assert message in err

    @pytest.mark.parametrize("argv, fields, message", [
        ("patch --n 8 --r 2 --trials 1",
         dict(patch_cost=0.5, component_cost=0.25),
         "FAIL: component patch beat the exact patch 1 times"),
        ("dual --n 8 --L 1.0 --r 2 --trials 1",
         dict(defect=5, near_value=0.5),
         "FAIL: budget/distance duality violated"),
    ], ids=["patch-dominance", "duality"])
    def test_a_doctored_record_fails_verification(self, argv, fields, message,
                                                  monkeypatch, capsys):
        record = montecarlo.TrialRecord(trial=0, n=8, q=1.0, seed=0, value=1.0,
                                        **fields)
        monkeypatch.setattr(montecarlo, "trials", lambda config: iter([record]))
        code, _, err = invoke(argv.split(), capsys)
        assert code == EXIT_VERIFY
        assert message in err

    @pytest.mark.parametrize("argv, message", [
        (["mst", "--n", "20", "--q", "2"], "needs --q 1"),
        (["mst", "--n-grid", "8,12"], "needs at least 3 sizes"),
    ], ids=["needs-unit-q", "needs-three-sizes"])
    def test_tolerance_usage_errors_come_before_the_run(self, argv, message,
                                                         tmp_path, capsys):
        argv = argv + ["--tolerance", "0.1", "--trials", "3"]
        target = tmp_path / "records.csv"
        code, out, err = invoke(argv, capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert message in err
        code, out, _ = invoke(argv + ["--out", str(target)], capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert not target.exists()


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
        text = io.StringIO()
        _write_records([], "json", text)
        assert text.getvalue() == "[]\n"

    # sha256 of stdout at seed 7, in each format.  A change that alters
    # records on purpose updates these digests and says so.
    PINNED = [
        ("mst --n 8 --trials 3",
         "33cd2c18412e18af81b724555784e720b4035de9948a586bf34b6f2499699ad6",
         "2ec31a364b723d0a2a042753b392bf97900e1ec9114fd6d871138b4b891a396f"),
        ("mst --n-grid 5,8,11 --trials 3",
         "fe9a47a019a65ff3f94f628eb0f43c19f1fbec90c608050fc7ff1deed10ebabb",
         "73d16d913a78c7a0357959bb30ed5fdc8be2a1a2df447b7cdd7f145911a7b7b5"),
        ("assignment --n 5 --trials 3",
         "a52f5eb35545b8ad06914df1f9c7d7745180472a69224ab097daa01992c46299",
         "d099da25bdd0b393ea07fe57ba175235207702147600d6e7cebcd422c57e493e"),
        ("patch --n 8 --r 0 --trials 3",
         "e6bf8663e962d725df057def9d67c0e3509e6b0f065e6a62f1440a6a6285ba88",
         "25854ec34d5a5b8e53ab3f5b5c9b6ee3944451c3ba0faf52acfac87cd0e1f636"),
        ("patch --n 8 --r 2 --trials 3",
         "4c26d7a0df768c0d89dfde2704110aa2e03b9b61c00603cb31805b7ed0a31740",
         "7c5160880ea3c75cc7a35670c29baa8ee88cae51e68cc9871dc3ef9cb249707c"),
        ("patch --family matchings --n 5 --r 2 --trials 3",
         "4538b2303dbc525df25bb9a412f162a6346c0b079022fb9784ce7e190b915f26",
         "89dc3914578b11bda1ec004862e6274f48bb0742af4029c7167b5553e92ce4c0"),
        ("dual --n 8 --L 1 --trials 3",
         "46961e0a039e145778f0b738ab489a9d16801fc6c700ca6e6680f6ba3e2a9385",
         "93dab51c186f159d603d9096494776c0f50c5d14826e365a31e0ef54232519a1"),
        ("dual --family matchings --n 5 --L 1 --r 2 --trials 3",
         "46e02d8863e7ff436d33ee52993d439d835aadbbdc795471c389414e564b95c7",
         "00a378b827e92011010f8975a718c095ded5e146176a9a4781c6da7edf003ea3"),
        ("split --n 8 --r 2 --s 0.3 --trials 3",
         "4cd5edca14bdc7f289b2d9d96af7a74820ab96c8e88c86db6dfc993b1cbb50fc",
         "4916ef87ad1fe587d7c8e90e07936b9aa4271f5dc80e12390d8e950943e79dde"),
        ("tail --n 8 --t-grid 1,2 --trials 4",
         "4dc44cb5843e9a9f34b2a4fee3abf0e9f9b6d790d1faf2521acfce1abf3650f2",
         "d5942e8d1f053bf7a388d715c1fc3dae5ffe3285d9c2000afc1cba5e71beb6ab"),
    ]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv, csv_digest, json_digest", PINNED,
                             ids=[argv for argv, _, _ in PINNED])
    def test_records_match_their_pinned_digest(self, argv, csv_digest,
                                               json_digest, fmt, capsys):
        code, out, _ = invoke(argv.split() + ["--seed", "7", "--format", fmt],
                              capsys)
        assert code == EXIT_OK
        digest = csv_digest if fmt == "csv" else json_digest
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("cause, expected", [
        (InvalidInput, EXIT_USAGE), (ZeroDivisionError, EXIT_INTERNAL),
    ], ids=["invalid-input", "crash"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_a_failed_trial_keeps_the_records_before_it(
            self, k, fmt, cause, expected, monkeypatch, tmp_path, capsys):
        argv = self.ARGS[:3] + ["--trials", "5", "--format", fmt]
        _, full, _ = invoke(argv, capsys)
        trial = montecarlo._trial

        def failing(config, fam, n, i, sid, rng):
            if i == k:
                raise cause("trial broke")
            return trial(config, fam, n, i, sid, rng)

        monkeypatch.setattr(montecarlo, "_trial", failing)
        target = tmp_path / "records.out"
        code, out, err = invoke(argv, capsys)
        assert (code, f"value trial {k} at n=8" in err) == (expected, True)
        code, empty, _ = invoke(argv + ["--out", str(target)], capsys)
        assert (code, empty, target.read_text()) == (expected, "", out)
        # The full run's bytes up to the end of record k - 1.
        assert full.startswith(out)
        if fmt == "csv":  # the header and k rows
            assert out.splitlines() == full.splitlines()[:k + 1]
        else:  # "[" and k elements, each ending with "}"
            assert out.endswith("}") and full[len(out)] == ","
            assert json.loads(out + "\n]") == json.loads(full)[:k]


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

    def test_nan_argument_is_usage_error(self, capsys):
        code, out, err = invoke(
            ["bounds", "--op", "upper-tail", "--q", "1", "--t", "nan"], capsys
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert "need t >= 0" in err

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

    # Each op's flags and stdout; an op missing here fails below.
    PINNED = {
        "ab-min": ("--a 4 --b 1 --p 1",
                   "s0 = 0.33333333333333331\nfmin = 9\nsecant_bound = 10\n"),
        "concentration": ("--L 1 --lam 0.5 --q 2", "bound = 2.0809690924707316\n"),
        "r-min": ("--ell 199 --eps 0.05", "radius = 69.059436570956422\n"),
        "ball-volume": ("--q 1 --m 3 --L 1", "probability = 0.16666666666666666\n"),
        "upper-tail": ("--q 1 --t 2", "probability = 0.5\n"),
        "mean-median": ("--q 1", "ratio = 2.8853900817779268\n"),
        "first-moment": ("--ell0 16 --ell1 64 --beta 0.5 --c 1 --t 1",
                         "l_lower = 0.52656128073101027\n"
                         "failure_prob_bound = 1.1253517471925912e-07\n"
                         "c0 = 2.7182818284590451\n"
                         "c1 = 0.35783549024530675\n"
                         "small_sets_dominate = True\n"
                         "log_markov_sum = -18.522691462924502\n"),
        "fluctuation-exponent": ("--q 3", "exponent = -0.375\n"),
    }

    @pytest.mark.parametrize("op", bounds_ops())
    def test_every_op_prints_its_pinned_output(self, op, capsys):
        flags, expected = self.PINNED[op]
        argv = ["bounds", "--op", op, *flags.split()]
        assert invoke(argv, capsys) == (EXIT_OK, expected, "")

    @pytest.mark.parametrize("argv, expected", [
        # t^q, Gamma(1 + 1/q), 2^(p+1) and (u + v)^(p+1) overflow: each
        # result is the float limit of its quantity.
        ("--op upper-tail --t 2 --q 2000", "probability = 0\n"),
        ("--op upper-tail --t 1e200 --q 2", "probability = 0\n"),
        ("--op mean-median --q 0.001", "ratio = inf\n"),
        ("--op ab-min --a 1 --b 1 --p 2000",
         "s0 = 0.5\nfmin = inf\nsecant_bound = inf\n"),
        # 2^(p+1) overflows, but a tiny a brings both results back into range.
        ("--op ab-min --a 1e-300 --b 1e-300 --p 1100",
         "s0 = 0.5\nfmin = 2.7165970580990875e+31\n"
         "secant_bound = 2.7165970580987718e+31\n"),
        ("--op concentration --L 1 --lam 1 --q 0.0009", "bound = inf\n"),
    ], ids=["upper-tail-q", "upper-tail-t", "mean-median", "ab-min", "ab-min-tiny-a",
            "concentration"])
    def test_a_result_beyond_double_range_is_its_limit(self, argv, expected, capsys):
        assert invoke(["bounds", *argv.split()], capsys) == (EXIT_OK, expected, "")

    @pytest.mark.parametrize("c, q", [("3", "0.001"), ("1e-300", "0.001")],
                             ids=["over", "under"])
    def test_first_moment_c0_beyond_double_range_is_usage_error(self, c, q, capsys):
        argv = (f"bounds --op first-moment --q {q} --ell0 5 --ell1 10 --beta 0.5 "
                f"--c {c} --t 0.1").split()
        assert invoke(argv, capsys) == (
            EXIT_USAGE, "", "error: bad value for --op first-moment: c0 = c^(1/q) "
            f"Gamma(1+q)^(1/q) e/q overflows or underflows at c={float(c)}, "
            f"q={float(q)}\n")

    @pytest.mark.parametrize("q, expected", [
        # Gamma(1+q) in range: c0 from math.gamma (lgamma would end q=2's in ...660).
        ("1",
         "l_lower = 0.19401816834514177\n"
         "failure_prob_bound = 0.60653065971263342\n"
         "c0 = 8.1548454853771357\n"
         "c1 = 0.70757606661833661\n"
         "small_sets_dominate = True\n"
         "log_markov_sum = -3.0212638684965238\n"),
        ("2",
         "l_lower = 0.84483901039143283\n"
         "failure_prob_bound = 0.60653065971263342\n"
         "c0 = 3.3292017284021669\n"
         "c1 = 0.84117540775889099\n"
         "small_sets_dominate = True\n"
         "log_markov_sum = -3.678119289079087\n"),
        # Gamma(201) overflows a double; c0 itself is near 1.
        ("200",
         "l_lower = 4.8566511474741025\n"
         "failure_prob_bound = 0.60653065971263342\n"
         "c0 = 1.0236100370141137\n"
         "c1 = 0.99827194410796338\n"
         "small_sets_dominate = True\n"
         "log_markov_sum = -6.1024502089724137\n"),
    ], ids=["q1", "q2", "past-gamma"])
    def test_first_moment_across_gamma_range(self, q, expected, capsys):
        argv = (f"bounds --op first-moment --q {q} --ell0 5 --ell1 10 --beta 0.5 "
                "--c 3 --t 0.1").split()
        assert invoke(argv, capsys) == (EXIT_OK, expected, "")

    @pytest.mark.parametrize("argv, bound_lines, mean_bound", [
        ("--t-grid 0,1 --q 0.005",
         ["t=0: survival=1 bound=1 se=0 ok=True",
          "t=1: survival=0 bound=1 se=0 ok=True"], "ratio_bound=inf: True"),
        ("--t-grid 1e300 --q 1e300",
         ["t=1.0000000000000001e+300: survival=0 bound=0 se=0 ok=True"],
         "ratio_bound=8: True"),
    ], ids=["small-q", "large-t"])
    def test_tail_bounds_beyond_double_range(self, argv, bound_lines, mean_bound,
                                             capsys):
        code, _, err = invoke(["tail", "--n", "5", "--trials", "4", *argv.split()],
                              capsys)
        lines = err.splitlines()
        assert code == EXIT_OK
        assert lines[1:-1] == bound_lines
        assert lines[-1].endswith(mean_bound)

    @pytest.mark.parametrize("argv, flag", [
        ("--op mean-median --a 3", "--a"),
        ("--op r-min --ell 199 --q 7", "--q"),
        ("--op ab-min --a 4 --b 1 --p 1 --eps 0.2 --m 3", "--eps"),
    ])
    def test_a_flag_the_op_does_not_read_is_usage_error(self, argv, flag, capsys):
        code, out, err = invoke(["bounds", *argv.split()], capsys)
        op = argv.split()[1]
        assert (code, out, err) == (
            EXIT_USAGE, "", f"error: {flag} is not read by --op {op}\n")


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

    def test_patch_at_zero_distance(self, capsys):
        code, out, err = invoke(
            ["patch", "--n", "10", "--r", "0", "--trials", "3", "--format", "json"],
            capsys,
        )
        assert code == EXIT_OK
        assert [rec["patch_cost"] for rec in json.loads(out)] == [0, 0, 0]
        assert "patch n=10 r=0: mean_cost=0" in err
        assert "normalized" not in err

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


# Child interpreters import the minweight this process imported, installed or not.
_SRC = str(Path(minweight.__file__).resolve().parents[1])
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "minweight", "bounds", "--op", "ab-min",
             "--a", "4", "--b", "1", "--p", "1"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == EXIT_OK
        assert "fmin = 9" in proc.stdout

    def test_stdout_closed_by_its_reader_is_an_io_error(self):
        # A reader that stops early, as `| head -1` does, ends the run.
        proc = subprocess.Popen(
            [sys.executable, "-m", "minweight", "mst", "--n", "30", "--trials",
             "100000"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=CHILD_ENV)
        assert proc.stdout.readline() == b"trial,n,q,seed,value\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == EXIT_IO
        assert proc.stderr.read() == b"error: cannot write stdout: [Errno 32] Broken pipe\n"
        proc.stderr.close()

    def test_import_leaves_scipy_stats_unloaded(self):
        # Only the coupling experiment needs scipy.stats, and it is slow to import.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, minweight, minweight.cli; "
             "print('scipy.stats' in sys.modules)"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr

    def test_tree_trials_leave_scipy_unloaded(self):
        # Tree trials never call scipy.  A matching family loads only scipy's
        # compiled assignment routine, and its first patch size the
        # bipartite-matching solver.
        code = (
            "import sys, minweight, minweight.cli\n"
            "from minweight.montecarlo import ExperimentConfig, run\n"
            "for kind, extra in [('value', {}), ('patch', {'r': 2}),\n"
            "                    ('dual', {'budget': 1.0}),\n"
            "                    ('split', {'r': 2, 's': 0.5})]:\n"
            "    run(ExperimentConfig(family='trees', n=6, trials=1, kind=kind,\n"
            "                         **extra))\n"
            "print([m for m in sys.modules if m.partition('.')[0] == 'scipy'])\n"
            "minweight.MatchingFamily(3)\n"
            "run(ExperimentConfig(family='matchings', n=6, trials=1, kind='dual',\n"
            "                     budget=1.0))\n"
            "print([m in sys.modules for m in\n"
            "       ('scipy.optimize._lsap', 'scipy.optimize', 'scipy.sparse')])\n"
            "run(ExperimentConfig(family='matchings', n=6, trials=1, kind='patch',\n"
            "                     r=2))\n"
            "print('scipy.sparse.csgraph' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=CHILD_ENV)
        assert (proc.returncode, proc.stdout) == (
            0, "[]\n[True, False, False]\nTrue\n"), proc.stderr

    @pytest.mark.parametrize("first", ["family", "scipy.optimize"])
    def test_matching_family_solves_with_scipys_public_function(self, first):
        # Loading the assignment routine from its file gives the builtin that
        # scipy.optimize exports, whichever of the two loads first.
        build = "fam = minweight.MatchingFamily(4)\n"
        public = "import scipy.optimize\n"
        code = ("import minweight\n"
                + (build + public if first == "family" else public + build)
                + "print(fam._assign is scipy.optimize.linear_sum_assignment)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=CHILD_ENV)
        assert (proc.returncode, proc.stdout) == (0, "True\n"), proc.stderr


README =Path(__file__).resolve().parents[1] / "README.md"
README_COMMANDS = re.search(
    r"^minweight \{([a-z,]+)\}$", README.read_text(), re.MULTILINE
).group(1).split(",")


class TestFlagTable:
    @pytest.mark.parametrize("command", README_COMMANDS)
    def test_every_subcommand_formats_its_help(self, command, capsys):
        # A bad %(default)s in a help string fails only when help is printed.
        with pytest.raises(SystemExit) as info:
            main([command, "-h"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: minweight {command}")

    def test_readme_names_exactly_the_subcommands(self, capsys):
        with pytest.raises(SystemExit):
            main(["-h"])
        usage = capsys.readouterr().out
        assert "{" + ",".join(README_COMMANDS) + "}" in usage

    def test_readme_command_line_names_every_op(self):
        section = README.read_text().split("## Command line", 1)[1].split("\n## ")[0]
        missing = [op for op in bounds_ops()
                   if not re.search(rf"(?<![\w-]){op}(?![\w-])", section)]
        assert missing == []

    def test_parsed_defaults_are_the_experiment_defaults(self):
        args = build_parser().parse_args(["mst", "--n", "8"])
        assert _experiment_config(args, "trees", "value") == \
            ExperimentConfig(family="trees", n=8)
        assert args.format == "csv"

    @pytest.mark.parametrize("base, config, flags", [
        ("dual --n 5 --r 2 --trials 3", "L = 0.9\nfamily = matchings\n",
         "--L 0.9 --family matchings"),
        ("mst --trials 2", "n-grid = 4,6,8\n", "--n-grid 4,6,8"),
        ("tail --n 8 --trials 20", "t-grid = 1.0,1.5\n", "--t-grid 1.0,1.5"),
        ("assignment --n 5 --trials 3", "base = exponential\nq = 2\n",
         "--base exponential --q 2"),
        ("patch --n 8 --r 3 --trials 3", "g_strategy = adversarial-heaviest\n",
         "--g-strategy adversarial-heaviest"),
    ], ids=["L-family", "n-grid", "t-grid", "base-q", "g-strategy"])
    def test_config_keys_reach_the_run(self, base, config, flags, tmp_path,
                                       capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        from_file = invoke(base.split() + ["--config", str(cfg)], capsys)
        from_flags = invoke(base.split() + flags.split(), capsys)
        assert from_file == from_flags and from_file[0] == EXIT_OK
        assert invoke(base.split(), capsys) != from_flags

    @pytest.mark.parametrize("config", ["r = 2\n", "tri = 3\n", "config = x\n"])
    def test_config_key_must_name_a_flag_of_the_subcommand(self, config,
                                                           tmp_path, capsys):
        # Another subcommand's flag, a flag's prefix and a nested config file.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        code, out, err = invoke(["mst", "--n", "8", "--config", str(cfg)], capsys)
        assert (code, out) == (EXIT_CONFIG, "")
        assert "unknown config key" in err

    @pytest.mark.parametrize("argv", [
        *(f"{cmd} --tolerance 0.1" for cmd in
          ("patch", "dual", "tail", "split", "coupling", "bounds", "oracle")),
        "coupling --format json", "bounds --format json",
        "bounds --op mean-median --trials 5", "bounds --seed 3",
        "bounds --base uniform", "oracle --q 2", "oracle --base uniform",
    ])
    def test_flags_a_subcommand_would_ignore_are_usage_errors(self, argv,
                                                             capsys):
        with pytest.raises(SystemExit) as info:
            main(argv.split())
        assert info.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_coupling_json_keys(self, capsys):
        code, out, _ = invoke(["coupling", "--s", "0.5", "--trials", "200"], capsys)
        assert code == EXIT_OK
        assert list(json.loads(out)) == [
            "q", "base", "s", "trials", "violations", "ks_x_p", "ks_green_p",
            "ks_red_p", "ks_pair_p", "pearson_p", "chi2_p", "alpha", "all_ok",
        ]
