import json

import numpy as np
import pytest

from clfrd import (
    Clfrd, SeededStream, StudyConfig, run_cell, run_study, sample_inverse,
)
from clfrd.cli import main
from clfrd.distributions import DEFAULT_PARAMETER_SETS
from clfrd.estimation import fit_clfrd_block
from clfrd.sampling import DEFAULT_SEED
from clfrd.simulation import _cell_seed, study_rows


SMALL = Clfrd(0.5, 0.5, 0.5)


def simulate(capsys, *argv):
    """Standard output of ``clfrd simulate`` with these arguments."""
    assert main(["simulate", *argv]) == 0
    return capsys.readouterr().out


class TestRunCell:
    def test_determinism(self):
        a = run_cell(SMALL, 50, 20, seed=901)
        b = run_cell(SMALL, 50, 20, seed=901)
        assert study_rows([a]) == study_rows([b])

    def test_distinct_replication_streams(self):
        cell = run_cell(SMALL, 50, 20, seed=901)
        for ps in cell.per_param.values():
            assert ps.sd > 0.0

    def test_identities(self):
        cell = run_cell(SMALL, 50, 30, seed=11)
        z = 1.9599639845400545
        for ps in cell.per_param.values():
            assert ps.mse == pytest.approx(ps.bias**2 + ps.sd**2, abs=1e-9)
            assert ps.ciw == pytest.approx(2.0 * z * ps.sd, abs=1e-9)
            assert ps.ciw == pytest.approx(ps.ci_up - ps.ci_low, abs=1e-12)

    def test_failures_counted(self):
        cell = run_cell(SMALL, 50, 30, seed=11)
        assert 0 <= cell.failures <= 30
        assert cell.degenerate == (cell.failures > 6)

    def test_rep_validation(self):
        with pytest.raises(ValueError):
            run_cell(SMALL, 50, 1, seed=1)

    def test_outcome_counts_match_per_replication_fits(self):
        # set 1 at n=100: replication 31 hits the iteration cap, several
        # converge with beta pinned at the 1e-10 bound
        truth, seed = Clfrd(2.0, 2.0, 2.0), _cell_seed(DEFAULT_SEED, 1, 100)
        rows = [fit_clfrd_block(sample_inverse(truth, 100, SeededStream(seed, r))[None], (2.0, 2.0, 2.0))
                for r in range(45)]
        kept = [f for f in rows if f.converged[0]]
        failed = [f for f in rows if not f.converged[0]]
        cell = run_cell(truth, 100, 45, seed)
        assert cell.failures == 45 - len(kept) >= 1
        assert cell.failure_reasons == {
            "iteration_cap": sum(bool(f.at_iteration_cap[0]) for f in failed),
            "other": sum(not f.at_iteration_cap[0] for f in failed),
        }
        assert cell.at_bound == sum(bool(f.at_bound[0]) for f in kept) >= 1
        mean = np.array([f.theta[0] for f in kept]).mean(axis=0)
        assert [cell.per_param[p].mean_mle for p in ("alpha", "beta", "lambda")] == list(mean)

    def test_block_shorter_than_four_is_rejected(self):
        with pytest.raises(ValueError, match="n >= 4"):
            run_cell(SMALL, 3, 5, seed=1)


class TestRunStudy:
    def test_empty_sizes_gives_empty_table(self):
        cfg = StudyConfig(parameter_sets=(SMALL,), sample_sizes=(), replications=5)
        assert run_study(cfg) == []

    def test_deterministic_csv(self, capsys):
        argv = ("--sets", "8", "--sizes", "30", "--reps", "8", "--seed", "77")
        a = simulate(capsys, *argv)
        b = simulate(capsys, *argv)
        assert a == b

    def test_subset_reproduces_full_study_cell(self):
        big = Clfrd(2.0, 0.5, 0.5)
        full = StudyConfig(parameter_sets=(SMALL, big), sample_sizes=(30, 40),
                           replications=6, base_seed=5150)
        subset = StudyConfig(parameter_sets=(big,), sample_sizes=(40,),
                             replications=6, base_seed=5150, set_labels=(2,))
        full_rows = [r for r in study_rows(run_study(full)) if r["set_id"] == 2 and r["n"] == 40]
        sub_rows = study_rows(run_study(subset))
        assert full_rows == sub_rows

    def test_row_schema(self):
        cfg = StudyConfig(parameter_sets=(SMALL,), sample_sizes=(30,), replications=5, base_seed=3)
        rows = study_rows(run_study(cfg))
        assert len(rows) == 3  # one per parameter
        expected_keys = ["set_id", "alpha", "beta", "lambda", "n", "param",
                         "mle", "bias", "sd", "mse", "low", "up", "ciw", "failures"]
        assert list(rows[0].keys()) == expected_keys
        assert {r["param"] for r in rows} == {"alpha", "beta", "lambda"}

    def test_csv_header(self, capsys):
        text = simulate(capsys, "--sets", "8", "--sizes", "30", "--reps", "5", "--seed", "3")
        assert text.splitlines()[0] == "set_id,alpha,beta,lambda,n,param,mle,bias,sd,mse,low,up,ciw,failures"

    def test_json_round_trip(self, capsys):
        payload = json.loads(simulate(capsys, "--sets", "8", "--sizes", "30", "--reps", "5",
                                      "--seed", "3", "--format", "json"))
        assert payload["meta"]["seed"] == 3
        assert len(payload["rows"]) == 3

    def test_json_reports_outcomes_per_cell(self, capsys):
        cfg = StudyConfig(parameter_sets=(DEFAULT_PARAMETER_SETS[0], SMALL), sample_sizes=(30, 40),
                          replications=6, base_seed=3, set_labels=(1, 8))
        summaries = run_study(cfg)
        cells = json.loads(simulate(capsys, "--sets", "1,8", "--sizes", "30,40", "--reps", "6",
                                    "--seed", "3", "--format", "json", "--no-meta"))["cells"]
        assert [(c["set_id"], c["n"]) for c in cells] == [(s.set_id, s.n) for s in summaries]
        for c, s in zip(cells, summaries):
            assert c["failures"] == s.failures == sum(c["failure_reasons"].values())
            assert c["failure_reasons"] == s.failure_reasons
            assert set(c["failure_reasons"]) == {"iteration_cap", "other"}
            assert c["at_bound"] == s.at_bound

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StudyConfig(replications=1)
        with pytest.raises(ValueError):
            StudyConfig(sample_sizes=(5,))
        with pytest.raises(ValueError):
            StudyConfig(ci_level=1.2)


class TestFullStudyInvariants:
    def test_consistency_trend(self, recovery_study):
        # estimator quality improves with sample size: mse shrinks from
        # n = 100 to n = 300 in nearly every (set, parameter) combination
        summaries, _ = recovery_study
        by_cell = {(s.set_id, s.n): s for s in summaries}
        improved = 0
        for set_id in range(1, 9):
            for pname in ("alpha", "beta", "lambda"):
                small = by_cell[(set_id, 100)].per_param[pname].mse
                large = by_cell[(set_id, 300)].per_param[pname].mse
                improved += large <= small
        assert improved >= 22

    def test_sd_shrinks_for_smallest_set(self, recovery_study):
        summaries, _ = recovery_study
        by_cell = {(s.set_id, s.n): s for s in summaries}
        assert (
            by_cell[(8, 300)].per_param["alpha"].sd
            < by_cell[(8, 100)].per_param["alpha"].sd
        )

    def test_no_degenerate_cells(self, recovery_study):
        summaries, _ = recovery_study
        assert not any(s.degenerate for s in summaries)
        assert max(s.failures for s in summaries) <= 0.05 * 500
