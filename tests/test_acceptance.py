"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Reference numbers are the published tables for the
compounded linear failure rate model; tolerances are fixed here, not
calibrated.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import ks_2samp

from clfrd import (
    Clfrd,
    LinearFailureRate,
    SeededStream,
    ad_stat,
    clfrd_loglik,
    clfrd_observed_information,
    clfrd_score,
    cm_stat,
    fit_clfrd,
    fit_model,
    hazard_shape,
    ks_test,
    lr_monotone_check,
    mit,
    mrl,
    pdf_shape,
    sample_compound,
    sample_inverse,
)
from clfrd.datasets import builtin
from clfrd.properties import PdfShape

from conftest import PARAMETER_SETS
from test_properties import (
    MIT_TABLE,
    MRL_TABLE,
    _ALLOWED_PATTERNS,
    near_classifier_boundary,
    scan_hazard_pattern,
)

# --------------------------------------------------------------------------
# published reference values

# model comparison tables: (neg2, ks, pvalue, aic, ad, cm) per model
COMPARISON_TABLES = {
    "students": {
        "lfrd": (400.32, 0.1365, 0.3326, 402.321, 0.9246, 0.1615),
        "rd": (404.30, 0.2171, 0.0216, 404.309, 3.0924, 0.5876),
        "ed": (408.40, 0.2042, 0.0365, 408.392, 2.5876, 0.4469),
        "ged": (393.62, 0.0937, 0.7935, 395.616, 0.3521, 0.0594),
        "clfrd": (396.10, 0.1190, 0.5048, 400.108, 0.7048, 0.1197),
    },
    "appliances": {
        "lfrd": (144.72, 0.1743, 0.1993, 146.719, 1.3549, 0.2536),
        "rd": (182.12, 0.2841, 0.0046, 182.117, 7.6518, 0.9272),
        "ed": (145.02, 0.1970, 0.1064, 145.013, 1.4970, 0.2995),
        "ged": (144.98, 0.2021, 0.0914, 146.977, 1.5298, 0.3145),
        "clfrd": (143.28, 0.1551, 0.3181, 147.285, 1.2365, 0.2017),
    },
    "devices": {
        "lfrd": (476.12, 0.1769, 0.0876, 478.127, 4.0346, 0.4627),
        "rd": (528.10, 0.2621, 0.0021, 528.106, 13.3206, 0.7913),
        "ed": (482.18, 0.1913, 0.0515, 482.179, 3.6542, 0.5199),
        "ged": (480.00, 0.2044, 0.0307, 481.990, 3.2585, 0.5667),
        "clfrd": (476.84, 0.1744, 0.0956, 480.829, 3.6818, 0.4420),
    },
}

CLFRD_NEG2_TARGETS = {"students": 396.10, "appliances": 143.28, "devices": 476.84}

# closed-form baseline estimates with half a unit in the last printed digit
CLOSED_FORM_TARGETS = {
    "students": {"ed": (3.86e-2, 5e-5), "rd": (22.4669, 5e-5)},
    "appliances": {"ed": (0.3627, 5e-5), "rd": (2.6473, 5e-5)},
    "devices": {"ed": (2.19e-2, 5e-5), "rd": (39.6472, 5e-5)},
}

# the published devices estimate is not a stationary point (the fitted
# optimum sits on the compounding ridge); the devices row of the
# comparison table is therefore anchored at the published triple
PUBLISHED_DEVICES_CLFRD = Clfrd(1.60e-2, 1.57e-4, 5.57e-3)

PUBLISHED_DEVICES_COV_DIAG = (5.237884e-5, 9.795843e-9, 2.409978e-1)

# recovery study tables: set id -> n -> (means, sds) for (alpha, beta, lam)
STUDY_TABLE = {
    1: {100: ((2.6488, 2.4092, 4.0689), (1.1007, 2.0918, 18.2388)),
        200: ((2.5469, 2.0675, 2.1451), (1.0421, 1.5071, 5.8166)),
        300: ((2.4934, 1.9348, 1.9618), (1.0252, 1.2478, 1.9201))},
    2: {100: ((1.8218, 2.1688, 0.8319), (0.6502, 1.1319, 0.8528)),
        200: ((1.8629, 1.9898, 0.8073), (0.6328, 0.7820, 0.8589)),
        300: ((1.8841, 1.9464, 0.7808), (0.6206, 0.6614, 0.8374))},
    3: {100: ((2.4055, 1.0513, 1.9741), (0.8435, 1.4241, 5.4596)),
        200: ((2.3065, 0.6725, 1.9179), (0.7917, 0.8297, 1.1986)),
        300: ((2.2574, 0.5618, 1.9771), (0.7560, 0.6381, 1.1946))},
    4: {100: ((1.8067, 0.7655, 0.7634), (0.5332, 0.6557, 0.6501)),
        200: ((1.8653, 0.6204, 0.7101), (0.5189, 0.4613, 0.5623)),
        300: ((1.8918, 0.5754, 0.6828), (0.5149, 0.4058, 0.5303))},
    5: {100: ((0.8145, 2.4510, 2.9627), (0.5289, 1.1566, 11.3550)),
        200: ((0.7181, 2.2906, 2.0510), (0.4453, 0.9448, 3.7559)),
        300: ((0.6613, 2.2196, 2.0132), (0.3817, 0.8507, 1.9913))},
    6: {100: ((0.5499, 1.9479, 0.7059), (0.3011, 0.6273, 1.0606)),
        200: ((0.5522, 1.9245, 0.6611), (0.2616, 0.4717, 0.9638)),
        300: ((0.5514, 1.9366, 0.6152), (0.2374, 0.4015, 0.8686))},
    7: {100: ((0.7690, 0.6194, 1.5414), (0.3768, 0.3667, 1.6865)),
        200: ((0.7044, 0.5431, 1.8215), (0.3626, 0.2566, 1.7179)),
        300: ((0.6645, 0.5227, 1.9506), (0.3417, 0.2213, 1.7405))},
    8: {100: ((0.5121, 0.4825, 0.7693), (0.2283, 0.1878, 1.1003)),
        200: ((0.5239, 0.4671, 0.7148), (0.2136, 0.1343, 1.0187)),
        300: ((0.5294, 0.4676, 0.6688), (0.2027, 0.1141, 0.9658))},
}

SET_ONE_BAND = {"low": 0.491, "up": 4.806}  # alpha at n = 100


def report(number: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


@pytest.fixture(scope="module")
def dataset_fits():
    out = {}
    for name in CLFRD_NEG2_TARGETS:
        data = builtin(name).values
        out[name] = {
            "data": data,
            "clfrd": fit_clfrd(data),
            "lfrd": fit_model("lfrd", data),
            "rd": fit_model("rd", data),
            "ed": fit_model("ed", data),
            "ged": fit_model("ged", data),
        }
    return out


def test_criterion_1_mrl_table():
    start = time.time()
    worst = 0.0
    for params, expected in MRL_TABLE.items():
        worst = max(worst, abs(mrl(Clfrd(*params), 0.5) - expected))
    elapsed = time.time() - start
    report(1, worst <= 1e-4 and elapsed < 5.0,
           f"residual-life table, 8 rows, max |err| = {worst:.2e} (tol 1e-4), {elapsed:.2f}s")


def test_criterion_2_mit_table():
    start = time.time()
    worst = 0.0
    for params, expected in MIT_TABLE.items():
        worst = max(worst, abs(mit(Clfrd(*params), 0.5) - expected))
    elapsed = time.time() - start
    report(2, worst <= 1e-4 and elapsed < 5.0,
           f"inactivity-time table, 8 rows, max |err| = {worst:.2e} (tol 1e-4), {elapsed:.2f}s")


def test_criterion_3_dataset_fits(dataset_fits):
    start = time.time()
    ok = True
    notes = []
    for name, target in CLFRD_NEG2_TARGETS.items():
        achieved = dataset_fits[name]["clfrd"].neg2_loglik
        ok &= achieved <= target + 0.05
        notes.append(f"{name} -2logL {achieved:.3f} <= {target + 0.05:.2f}")
    for name, models in CLOSED_FORM_TARGETS.items():
        ed = dataset_fits[name]["ed"].params["lambda"]
        rd = dataset_fits[name]["rd"].params["sigma"]
        ok &= abs(ed - models["ed"][0]) <= models["ed"][1]
        ok &= abs(rd - models["rd"][0]) <= models["rd"][1]
    elapsed = time.time() - start
    ok &= elapsed < 30.0
    report(3, ok, "; ".join(notes) + f"; closed forms at printed precision; {elapsed:.1f}s")


def test_criterion_4_comparison_tables(dataset_fits):
    tolerances = dict(ks=0.002, p=0.03, aic=0.05, ad=0.05, cm=0.01)
    worst = {k: 0.0 for k in tolerances}
    for name, table in COMPARISON_TABLES.items():
        data = dataset_fits[name]["data"]
        for model_name, (_, ks_ref, p_ref, aic_ref, ad_ref, cm_ref) in table.items():
            if name == "devices" and model_name == "clfrd":
                model = PUBLISHED_DEVICES_CLFRD
                neg2 = -2.0 * clfrd_loglik(model, data)
            else:
                fit = dataset_fits[name][model_name]
                model, neg2 = fit.model, fit.neg2_loglik
            ks_val, p_val = ks_test(data, model.cdf)
            aic_red = neg2 + 2.0 * (model.param_count - 1)
            worst["ks"] = max(worst["ks"], abs(ks_val - ks_ref))
            worst["p"] = max(worst["p"], abs(p_val - p_ref))
            worst["aic"] = max(worst["aic"], abs(aic_red - aic_ref))
            worst["ad"] = max(worst["ad"], abs(ad_stat(data, model.cdf) - ad_ref))
            worst["cm"] = max(worst["cm"], abs(cm_stat(data, model.cdf) - cm_ref))
    ok = all(worst[k] <= tolerances[k] for k in tolerances)
    detail = ", ".join(f"{k} {worst[k]:.4f}/{tolerances[k]}" for k in tolerances)
    report(4, ok, f"comparison tables, worst |err|/tol per column: {detail}")


def test_criterion_5_covariance_spot_check(dataset_fits):
    data = dataset_fits["devices"]["data"]
    cov = np.linalg.inv(clfrd_observed_information(PUBLISHED_DEVICES_CLFRD, data))
    rel = [abs(c / p - 1.0) for c, p in zip(np.diag(cov), PUBLISHED_DEVICES_COV_DIAG)]
    report(5, max(rel) <= 0.20,
           f"devices covariance diagonal, worst relative error {max(rel):.3f} (tol 0.20)")


def test_criterion_6_simulation_study(recovery_study):
    from scipy.special import ndtri

    summaries, elapsed = recovery_study
    z = float(ndtri(0.975))  # computed quantile; 1.959964 to the printed digits
    ok = abs(z - 1.959964) <= 1e-6
    worst_ratio = 0.0
    worst_cell = None
    for s in summaries:
        ref_mean, ref_sd = STUDY_TABLE[s.set_id][s.n]
        for j, pname in enumerate(("alpha", "beta", "lambda")):
            ps = s.per_param[pname]
            tol = 4.0 * ref_sd[j] / math.sqrt(500.0)
            ratio = abs(ps.mean_mle - ref_mean[j]) / tol
            if ratio > worst_ratio:
                worst_ratio, worst_cell = ratio, (s.set_id, s.n, pname)
            ok &= ratio <= 1.0
            ok &= abs(ps.mse - (ps.bias**2 + ps.sd**2)) <= 1e-9
            ok &= abs(ps.ciw - 2.0 * z * ps.sd) <= 1e-9 * max(1.0, ps.ciw)
    # band construction reproduces the published low/up for set 1, n = 100
    ref_mean, ref_sd = STUDY_TABLE[1][100]
    low = ref_mean[0] - z * ref_sd[0]
    up = ref_mean[0] + z * ref_sd[0]
    ok &= abs(low - SET_ONE_BAND["low"]) <= 1e-3 and abs(up - SET_ONE_BAND["up"]) <= 1e-3
    ok &= elapsed < 600.0
    report(6, ok,
           f"recovery study 8x3 at 500 reps in {elapsed:.0f}s; worst |mean err|/tol "
           f"{worst_ratio:.2f} at {worst_cell}; identities hold to 1e-9")


def test_criterion_7_property_suites():
    notes = []

    worst_rt = 0.0
    for params in PARAMETER_SETS:
        m = Clfrd(*params)
        q = np.arange(0.01, 0.995, 0.01)
        worst_rt = max(worst_rt, float(np.max(np.abs(m.cdf(m.quantile(q)) - q))))
    ok = worst_rt <= 1e-9
    notes.append(f"round trip {worst_rt:.1e}")

    from scipy.integrate import quad

    worst_norm = 0.0
    for params in PARAMETER_SETS:
        m = Clfrd(*params)
        total = quad(m.pdf, 0.0, m.quantile(1 - 1e-10), epsabs=1e-10, limit=200)[0]
        worst_norm = max(worst_norm, abs(total - 1.0))
    ok &= worst_norm <= 1e-6
    notes.append(f"normalization {worst_norm:.1e}")

    rng = np.random.default_rng(777)
    worst_score = 0.0
    for name in ("students", "appliances", "devices"):
        data = builtin(name).values
        scale = 1.0 / data.mean()
        for _ in range(20):
            theta = np.exp(rng.uniform(-1.0, 1.0, 3)) * (scale, scale**2, 1.0)
            m = Clfrd(*theta)
            analytic = clfrd_score(m, data)
            fd = np.zeros(3)
            for i in range(3):
                h = 1e-6 * (1 + theta[i])
                up_t, dn_t = theta.copy(), theta.copy()
                up_t[i] += h
                dn_t[i] -= h
                d1 = (clfrd_loglik(Clfrd(*up_t), data) - clfrd_loglik(Clfrd(*dn_t), data)) / (2 * h)
                up_t[i] = theta[i] + h / 2
                dn_t[i] = theta[i] - h / 2
                d2 = (clfrd_loglik(Clfrd(*up_t), data) - clfrd_loglik(Clfrd(*dn_t), data)) / h
                fd[i] = (4 * d2 - d1) / 3
            worst_score = max(worst_score, float(np.max(np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd)))))
    ok &= worst_score <= 1e-5
    notes.append(f"score vs fd {worst_score:.1e}")

    worst_p = 1.0
    for params in PARAMETER_SETS:
        m = Clfrd(*params)
        a = sample_inverse(m, 10**4, SeededStream(31001))
        b = sample_compound(m, 10**4, SeededStream(31002))
        worst_p = min(worst_p, float(ks_2samp(a, b).pvalue))
    ok &= worst_p > 0.001
    notes.append(f"sampler agreement min p {worst_p:.3f}")

    rng = np.random.default_rng(20257)
    checked = 0
    shapes_ok = True
    for _ in range(200):
        m = Clfrd(*np.exp(rng.uniform(np.log(0.1), np.log(5.0), 3)))
        if not near_classifier_boundary(m):
            shapes_ok &= scan_hazard_pattern(m) in _ALLOWED_PATTERNS[hazard_shape(m)]
            checked += 1
        p_label = pdf_shape(m)
        x = np.linspace(0.0, m.quantile(0.99), 2000)
        g = m.pdf(x)
        d = np.diff(g)
        tol = 1e-9 * float(np.max(np.abs(g)))
        if p_label is PdfShape.DECREASING:
            shapes_ok &= bool(np.all(d <= tol))
        else:
            shapes_ok &= bool(d[0] > -tol and np.any(d > tol))
    ok &= shapes_ok and checked > 100
    notes.append(f"shape scans agree on {checked} classified triples")

    rng = np.random.default_rng(1234)
    grid = np.arange(0.0, 10.0001, 0.01)
    lr_ok = True
    for _ in range(50):
        a1, b1, l1 = np.exp(rng.uniform(np.log(0.1), np.log(5.0), 3))
        ra = float(np.exp(rng.uniform(0.0, 1.0)))
        rb = float(np.exp(rng.uniform(0.0, math.log(ra)))) if ra > 1.0 else 1.0
        small = Clfrd(a1, b1, l1)
        large = Clfrd(a1 * ra, b1 * rb, l1 * float(np.exp(rng.uniform(0.0, 1.0))))
        lr_ok &= lr_monotone_check(small, large, grid)
    ok &= lr_ok
    notes.append("likelihood-ratio order on 50 ordered pairs")

    report(7, ok, "; ".join(notes))


def test_criterion_8_lfr_nesting():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        a, b = np.exp(rng.uniform(np.log(0.1), np.log(5.0), 2))
        lfr = LinearFailureRate(a, b)
        m = Clfrd(a, b, 1e-8)
        x = np.linspace(0.0, lfr.quantile(0.999), 1000)
        worst = max(worst, float(np.max(np.abs(m.pdf(x) - lfr.pdf(x)))))
        worst = max(worst, float(np.max(np.abs(m.cdf(x) - lfr.cdf(x)))))
    report(8, worst <= 1e-6,
           f"vanishing-compounding limit, sup distance {worst:.1e} (tol 1e-6)")
