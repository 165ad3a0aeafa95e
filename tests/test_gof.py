import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import kolmogorov
from scipy.stats import kstwo

import clfrd
from clfrd import (
    Clfrd,
    Exponential,
    LinearFailureRate,
    Rayleigh,
    ad_stat,
    aic,
    cm_stat,
    compare_models,
    ks_test,
)
from clfrd import estimation
from clfrd.gof import GofWarning

# published per-dataset estimates used to anchor the statistics
P_CLFRD_D1 = Clfrd(6.19e-4, 1.02e-3, 1.7140)
P_LFRD_D3 = LinearFailureRate(1.36e-2, 2.40e-4)
P_RD_D2 = Rayleigh(2.6473)
P_CLFRD_D3 = Clfrd(1.60e-2, 1.57e-4, 5.57e-3)


def perfect_fit_sample(n):
    # synthetic sample whose probits land exactly on (i - 1/2) / n
    u = (np.arange(1, n + 1) - 0.5) / n
    return u, (lambda x: x)


class TestKsTest:
    def test_dataset1_at_published_estimates(self, students):
        stat, pvalue = ks_test(students, P_CLFRD_D1.cdf)
        assert stat == pytest.approx(0.1190, abs=0.002)
        assert pvalue == pytest.approx(0.5048, abs=0.03)

    def test_dataset3_lfrd(self, devices):
        stat, _ = ks_test(devices, P_LFRD_D3.cdf)
        assert stat == pytest.approx(0.1769, abs=0.002)

    def test_perfect_fit_statistic(self):
        u, cdf = perfect_fit_sample(25)
        stat, _ = ks_test(u, cdf)
        assert stat == pytest.approx(1.0 / 50.0, abs=1e-15)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(13)
        data = rng.exponential(scale=2.0, size=37)
        cdf = Exponential(0.5).cdf
        stat, _ = ks_test(data, cdf)
        u = np.sort(cdf(np.sort(data)))
        n = u.size
        brute = max(
            max(abs(i / n - ui), abs((i - 1) / n - ui))
            for i, ui in zip(range(1, n + 1), u)
        )
        assert stat == pytest.approx(brute, abs=1e-15)

    def test_exact_switch(self, appliances):
        # appliances has no ties and n = 36 < 100: the exact null law
        stat, pvalue = ks_test(appliances, P_RD_D2.cdf)
        assert pvalue == kstwo.sf(stat, appliances.size)
        assert pvalue != kolmogorov(math.sqrt(appliances.size) * stat)

    def test_asymptotic_uses_limit_law(self, students):
        # students has ties, so the asymptotic limit law is chosen
        stat, pvalue = ks_test(students, P_CLFRD_D1.cdf)
        assert pvalue == pytest.approx(kolmogorov(math.sqrt(students.size) * stat), abs=1e-15)

    def test_invalid_cdf_values(self):
        with pytest.raises(ValueError):
            ks_test([1.0, 2.0], lambda x: x)  # cdf(2.0) = 2 > 1


class TestAdStat:
    def test_dataset1_clfrd(self, students):
        assert ad_stat(students, P_CLFRD_D1.cdf) == pytest.approx(0.7048, abs=0.02)

    def test_dataset2_rayleigh(self, appliances):
        assert ad_stat(appliances, P_RD_D2.cdf) == pytest.approx(7.6518, abs=0.05)

    def test_hand_summation_oracle(self):
        u, cdf = perfect_fit_sample(10)
        n = 10
        expected = -n - sum(
            (2 * i - 1) * (math.log(ui) + math.log(1 - u[n - i]))
            for i, ui in zip(range(1, n + 1), u)
        ) / n
        assert ad_stat(u, cdf) == pytest.approx(expected, abs=1e-12)

    def test_clamp_warning(self):
        data = np.array([0.5, 1.0, 2.0])
        with pytest.warns(GofWarning):
            value = ad_stat(data, lambda x: np.clip(x - 0.5, 0.0, 1.0))
        assert np.isfinite(value)


class TestCmStat:
    def test_dataset1_clfrd(self, students):
        assert cm_stat(students, P_CLFRD_D1.cdf) == pytest.approx(0.1197, abs=0.005)

    def test_dataset3_clfrd(self, devices):
        assert cm_stat(devices, P_CLFRD_D3.cdf) == pytest.approx(0.4420, abs=0.01)

    def test_perfect_fit_floor(self):
        u, cdf = perfect_fit_sample(20)
        assert cm_stat(u, cdf) == pytest.approx(1.0 / 240.0, abs=1e-15)


class TestProbitInvariance:
    def test_monotone_reparameterization(self, students):
        # x -> x^3 with the matching cdf leaves AD and CM unchanged
        cube = students**3
        cdf3 = lambda x: P_CLFRD_D1.cdf(np.cbrt(x))
        assert ad_stat(cube, cdf3) == pytest.approx(ad_stat(students, P_CLFRD_D1.cdf), rel=1e-12)
        assert cm_stat(cube, cdf3) == pytest.approx(cm_stat(students, P_CLFRD_D1.cdf), rel=1e-12)
        assert ks_test(cube, cdf3)[0] == pytest.approx(ks_test(students, P_CLFRD_D1.cdf)[0], rel=1e-12)


class TestAic:
    def test_three_parameter_row(self):
        std, red = aic(396.108, 3)
        assert std == pytest.approx(402.108, abs=1e-9)
        assert red == pytest.approx(400.108, abs=1e-9)

    def test_one_parameter_row(self):
        std, red = aic(408.392, 1)
        assert std == pytest.approx(410.392, abs=1e-9)
        assert red == pytest.approx(408.392, abs=1e-9)

    def test_zero_parameters_rejected(self):
        with pytest.raises(ValueError):
            aic(100.0, 0)


class TestPvalueMonotonicity:
    def test_decreasing_in_statistic(self):
        n = 40
        stats = np.linspace(0.05, 0.5, 30)
        pvals = [kolmogorov(math.sqrt(n) * d) for d in stats]
        assert np.all(np.diff(pvals) < 0.0)


class TestCompareModels:
    def test_dataset2_compounded_model_wins_loglik(self, appliances):
        reports = compare_models(appliances)
        neg2 = {r.model_name: r.neg2_loglik for r in reports}
        assert neg2["clfrd"] == pytest.approx(143.28, abs=0.05)
        assert neg2["clfrd"] == min(neg2.values())

    def test_dataset3_highest_pvalue(self, devices):
        # at the ridge optimum the compounded fit coincides with the
        # linear-failure-rate one, which still tops the p-value column
        reports = compare_models(devices)
        pvals = {r.model_name: r.ks_pvalue for r in reports}
        best = max(pvals.values())
        assert pvals["clfrd"] == pytest.approx(best, abs=1e-6)

    def test_single_model(self, students):
        reports = compare_models(students, models=("rd",))
        assert len(reports) == 1 and reports[0].model_name == "rd"

    def test_ranked_by_standard_aic(self, students):
        reports = compare_models(students)
        aics = [r.aic_standard for r in reports]
        assert aics == sorted(aics)

    def test_fit_error_captured_per_row(self, students):
        reports = compare_models(students, models=("ed", "nosuch"))
        by_name = {r.model_name: r for r in reports}
        assert by_name["nosuch"].error is not None
        assert math.isnan(by_name["nosuch"].ks_stat)
        assert by_name["ed"].error is None
        # failed rows sort last
        assert reports[-1].model_name == "nosuch"

    def test_untyped_error_propagates(self, students, monkeypatch):
        def broken(name, data):
            raise RuntimeError("a fault, not a fit failure")

        monkeypatch.setattr(estimation, "fit_model", broken)
        with pytest.raises(RuntimeError, match="a fault"):
            compare_models(students, models=("ed",))

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            compare_models([])


def _fresh_interpreter(code):
    # stdout of ``code`` run in a new interpreter that imports this checkout's package
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(clfrd.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    return out.stdout.strip()


@pytest.mark.parametrize("module", ["clfrd", "clfrd.cli"])
def test_import_leaves_scipy_stats_unloaded(module):
    # only the exact K-S branch needs scipy.stats, and it imports it there
    assert _fresh_interpreter(f"import sys, {module}; print('scipy.stats' in sys.modules)") == "False"


def test_distribution_and_samplers_load_no_scipy():
    # the package imports each module on first use, and these need numpy only
    code = ("import sys; from clfrd import Clfrd, SeededStream, sample_inverse; "
            "print([m for m in sys.modules if m.startswith('scipy')])")
    assert _fresh_interpreter(code) == "[]"


@pytest.mark.parametrize("code", [
    "from clfrd import DEFAULT_PARAMETER_SETS, Clfrd",
    "import clfrd.cli",
    "import clfrd.cli; clfrd.cli.main(['sample', '--alpha', '2', '--beta', '2', '--lambda', '2', '-n', '5'])",
], ids=["parameter_sets", "import_cli", "cli_sample"])
def test_cold_start_loads_no_scipy(code):
    # the published triples, the CLI and ``clfrd sample`` need numpy only
    out = _fresh_interpreter(f"import sys; {code}; print([m for m in sys.modules if m.startswith('scipy')])")
    assert out.splitlines()[-1] == "[]"


def test_fit_and_study_leave_scipy_optimize_linalg_and_special_unloaded():
    # setulb comes from its extension file and the Wald z from the standard library
    code = ("import sys, clfrd.simulation; "
            "from clfrd import DEFAULT_PARAMETER_SETS, StudyConfig, builtin, fit_clfrd, run_study; "
            "fit_clfrd(builtin('students').values); "
            "run_study(StudyConfig(parameter_sets=DEFAULT_PARAMETER_SETS[7:], sample_sizes=(100,), "
            "replications=5, set_labels=(8,))); "
            "print([m for m in ('scipy.optimize', 'scipy.linalg', 'scipy.special') if m in sys.modules])")
    assert _fresh_interpreter(code) == "[]"


def test_star_import_binds_every_public_name():
    code = "import clfrd; from clfrd import *; print([n for n in clfrd.__all__ if n not in globals()])"
    assert _fresh_interpreter(code) == "[]"


def test_public_names_are_their_defining_modules_objects():
    for name in set(clfrd.__all__) - {"__version__"}:
        module = f"clfrd.{clfrd._MODULE_OF[name]}"
        obj = getattr(clfrd, name)
        assert obj is getattr(importlib.import_module(module), name)
        assert getattr(obj, "__module__", module) == module


def test_all_is_unique_and_listed_by_dir():
    assert len(set(clfrd.__all__)) == len(clfrd.__all__)
    assert set(clfrd.__all__) <= set(dir(clfrd))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        clfrd.no_such_name
