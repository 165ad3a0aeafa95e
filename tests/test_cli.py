import hashlib
import json

import pytest

from clfrd import estimation
from clfrd.cli import EXIT_CONVERGENCE, EXIT_DOMAIN, EXIT_IO, EXIT_OK, EXIT_USAGE, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFit:
    def test_students_clfrd(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit", "--data", "builtin:students", "--model", "clfrd",
            "--format", "json", "--no-meta",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["params"]["alpha"] == pytest.approx(6.19e-4, rel=0.02)
        assert payload["params"]["beta"] == pytest.approx(1.02e-3, rel=0.02)
        assert payload["params"]["lambda"] == pytest.approx(1.714, rel=0.02)
        assert payload["neg2_loglik"] <= 396.15

    def test_devices_rayleigh(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit", "--data", "builtin:devices", "--model", "rd",
            "--format", "json", "--no-meta",
        )
        assert code == EXIT_OK
        assert json.loads(out)["params"]["sigma"] == pytest.approx(39.6472, abs=1e-3)

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--data", "/no/such/file.csv")
        assert code == EXIT_IO
        assert "/no/such/file.csv" in err

    def test_text_rendering(self, capsys):
        code, out, _ = run_cli(capsys, "fit", "--data", "builtin:students", "--model", "ed")
        assert code == EXIT_OK
        assert "lambda" in out and "-2*loglik" in out

    def test_non_convergence_exit_code(self, capsys, monkeypatch):
        def stuck(*_):
            raise estimation.NonConvergenceError("stuck on the ridge")

        monkeypatch.setattr(estimation, "fit_model", stuck)
        code, out, err = run_cli(capsys, "fit", "--data", "builtin:students")
        assert code == EXIT_CONVERGENCE and out == ""
        assert "fit did not converge: stuck on the ridge" in err

    def test_other_runtime_error_propagates(self, capsys, monkeypatch):
        def broken(*_):
            raise RuntimeError("a fault, not a fit failure")

        monkeypatch.setattr(estimation, "fit_model", broken)
        with pytest.raises(RuntimeError, match="a fault"):
            main(["fit", "--data", "builtin:students"])


class TestCompare:
    def test_dataset2_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--data", "builtin:appliances", "--format", "json", "--no-meta",
        )
        assert code == EXIT_OK
        rows = {r["model"]: r for r in json.loads(out)["rows"]}
        assert len(rows) == 5
        assert rows["clfrd"]["ks_stat"] == pytest.approx(0.1551, abs=0.002)
        assert rows["clfrd"]["neg2_loglik"] == pytest.approx(143.28, abs=0.05)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--data", "builtin:students", "--models", "ed,rd", "--format", "csv",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("model,neg2_loglik,ks_stat")
        assert len(lines) == 3

    def test_unknown_model(self, capsys):
        code, _, err = run_cli(capsys, "compare", "--data", "builtin:students", "--models", "zzz")
        assert code == EXIT_DOMAIN

    def test_json_byte_identical_without_meta(self, capsys):
        args = ("compare", "--data", "builtin:devices", "--format", "json", "--no-meta")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestPinnedFitOutput:
    # sha256 of the --no-meta JSON bytes: any change in a printed estimate,
    # statistic or flag changes them
    PINNED = {
        ("compare", "students"): "6f3689bbdef37e2bbb99e5b1cb053abd881f4c5899a552a7d1e742982a6e41a8",
        ("compare", "appliances"): "3b28ba73a6fb5f85f792dd72129a79969d3936b2dcedd41ec0cfc8be0156483e",
        ("compare", "devices"): "9e7b5652385ba47995ca2ed833e60d1a693d0a5fabba37e95356ed52e207c4d0",
        ("fit", "students"): "30104151a0f77da12613197f3626b33ce8c00a8c7aacc39b45e8ea6926c5f654",
        ("fit", "appliances"): "ed4ad30326780b4b50e814a3a03013509f22a12a84c615a8d839cf8707dad977",
        ("fit", "devices"): "cce53a781842db6c02bb9320bb732aab5685e1c0a7f20f1ff7a8a5e8d814ffa3",
    }

    @pytest.mark.parametrize("command, dataset", sorted(PINNED))
    def test_json_bytes(self, capsys, command, dataset):
        model = ("--model", "clfrd") if command == "fit" else ()
        code, out, _ = run_cli(capsys, command, "--data", f"builtin:{dataset}", *model,
                               "--format", "json", "--no-meta")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED[command, dataset]

    # the recovery study on sets 1 and 8: any change in a study estimate,
    # failure count or bound count changes these bytes
    STUDY_PINNED = "b014b5e0ad00df84b15e1e13a17d063244339a541cb1559b73ef037f1852717c"

    def test_study_json_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--sets", "1,8", "--sizes", "100",
                               "--reps", "25", "--format", "json", "--no-meta")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == self.STUDY_PINNED

    # compound-construction variates at the default seed: any change in the
    # order of the draws or in how they are mapped changes these bytes
    COMPOUND_SAMPLE_PINNED = "51fc3aec0f2fbab3f9b3f49d56da0def96186309fe3dbba4217432db7d60544e"

    def test_compound_sample_json_bytes(self, capsys, monkeypatch):
        monkeypatch.delenv("CLFRD_SEED", raising=False)
        code, out, _ = run_cli(capsys, "sample", "--alpha", "2", "--beta", "2", "--lambda", "2",
                               "-n", "2000", "--method", "compound", "--format", "json", "--no-meta")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == self.COMPOUND_SAMPLE_PINNED


class TestSimulate:
    def test_deterministic_csv(self, capsys):
        args = ("simulate", "--sets", "8", "--sizes", "30", "--reps", "5",
                "--seed", "99", "--format", "csv")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        assert out1.splitlines()[0].startswith("set_id,alpha,beta,lambda,n,param")
        assert len(out1.strip().splitlines()) == 4

    def test_set_bounds(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--sets", "9", "--reps", "5")
        assert code == EXIT_DOMAIN


class TestSample:
    def test_reproducible(self, capsys):
        args = ("sample", "--alpha", "2", "--beta", "2", "--lambda", "2",
                "-n", "50", "--seed", "7")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        values = [float(v) for v in out1.strip().splitlines()]
        assert len(values) == 50 and all(v >= 0 for v in values)

    def test_methods_differ_but_both_run(self, capsys):
        base = ("sample", "--alpha", "2", "--beta", "2", "--lambda", "2",
                "-n", "20", "--seed", "7")
        _, inv, _ = run_cli(capsys, *base, "--method", "inverse")
        _, cmp_, _ = run_cli(capsys, *base, "--method", "compound")
        assert inv != cmp_

    def test_bad_params(self, capsys):
        code, _, _ = run_cli(capsys, "sample", "--alpha", "-1", "--beta", "2",
                             "--lambda", "2", "-n", "5")
        assert code == EXIT_DOMAIN


class TestCurve:
    def test_columns_and_empirical_head(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", "--data", "builtin:students", "--grid-points", "50",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "x,empirical,clfrd,lfrd,rd,ed,ged"
        assert len(lines) == 51
        first = lines[1].split(",")
        # below the smallest observation the empirical survival is 1
        assert float(first[0]) < 4.0
        assert float(first[1]) == 1.0

    def test_fitted_column_matches_model(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", "--data", "builtin:students", "--models", "ed",
            "--grid-points", "10",
        )
        from clfrd import fit_model, builtin

        fit = fit_model("ed", builtin("students").values)
        lines = out.strip().splitlines()
        for line in lines[1:3]:
            x, _, sf = (float(v) for v in line.split(","))
            assert sf == pytest.approx(fit.model.sf(x), rel=1e-12)


class TestProps:
    def test_reference_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "props", "--alpha", "2", "--beta", "2", "--lambda", "2",
            "--at", "0.5", "--format", "json", "--no-meta",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["mrl"] == pytest.approx(0.2211234, abs=1e-4)
        assert payload["mit"] == pytest.approx(0.3592062, abs=1e-4)
        assert payload["hazard_shape"] == "bathtub"

    def test_text_parameters_line(self, capsys):
        code, out, _ = run_cli(capsys, "props", "--alpha", "2", "--beta", "0.5", "--lambda", "3")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "parameters: {'alpha': 2.0, 'beta': 0.5, 'lambda': 3.0}"

    def test_negative_parameter(self, capsys):
        code, _, _ = run_cli(capsys, "props", "--alpha", "-2", "--beta", "2",
                             "--lambda", "2")
        assert code == EXIT_DOMAIN


class TestPlumbing:
    def test_usage_error_exit_code(self, capsys):
        assert main(["fit"]) == 2  # missing --data

    def test_format_a_subcommand_does_not_render_is_a_usage_error(self, capsys):
        params = ("--alpha", "1", "--beta", "1", "--lambda", "1")
        for argv in (("fit", "--data", "builtin:students", "--format", "csv"),
                     ("simulate", "--reps", "2", "--format", "text"),
                     ("sample", *params, "-n", "2", "--format", "csv"),
                     ("curve", "--data", "builtin:students", "--format", "json"),
                     ("props", *params, "--format", "csv")):
            code, out, err = run_cli(capsys, *argv)
            assert code == EXIT_USAGE and out == ""
            assert "argument --format: invalid choice" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "fit.json"
        code, out, _ = run_cli(
            capsys, "fit", "--data", "builtin:students", "--model", "ed",
            "--format", "json", "--no-meta", "--out", str(target),
        )
        assert code == EXIT_OK and out == ""
        assert json.loads(target.read_text())["model"] == "ed"

    def test_meta_block_present_by_default(self, capsys):
        _, out, _ = run_cli(capsys, "fit", "--data", "builtin:students",
                            "--model", "ed", "--format", "json")
        payload = json.loads(out)
        assert payload["meta"]["tool"] == "clfrd"
        assert "timestamp" in payload["meta"]

    def test_env_seed_respected(self, capsys, monkeypatch):
        monkeypatch.setenv("CLFRD_SEED", "1234")
        args = ("sample", "--alpha", "1", "--beta", "1", "--lambda", "1", "-n", "5")
        _, out_env, _ = run_cli(capsys, *args)
        monkeypatch.delenv("CLFRD_SEED")
        _, out_explicit, _ = run_cli(capsys, *args, "--seed", "1234")
        assert out_env == out_explicit

    def test_bad_env_seed_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("CLFRD_SEED", "abc")
        code, out, err = run_cli(capsys, "sample", "--alpha", "1", "--beta", "1",
                                 "--lambda", "1", "-n", "2")
        assert code == EXIT_USAGE and out == ""
        assert "argument --seed: invalid int value" in err

    def test_explicit_seed_wins_over_bad_env_seed(self, capsys, monkeypatch):
        args = ("sample", "--alpha", "1", "--beta", "1", "--lambda", "1", "-n", "5", "--seed", "1234")
        monkeypatch.setenv("CLFRD_SEED", "abc")
        code, out_bad_env, _ = run_cli(capsys, *args)
        monkeypatch.delenv("CLFRD_SEED")
        _, out_no_env, _ = run_cli(capsys, *args)
        assert code == EXIT_OK and out_bad_env == out_no_env

    def test_raw_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit", "--data", "builtin:appliances", "--model", "ed",
            "--format", "json", "--no-meta", "--raw",
        )
        # unscaled appliances: rate is 1000x smaller
        assert json.loads(out)["params"]["lambda"] == pytest.approx(0.3627e-3, rel=1e-3)
