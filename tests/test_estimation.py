import functools
import math
import re

import numpy as np
import pytest
from scipy.optimize import approx_fprime, minimize
from scipy.special import ndtri

from clfrd import (
    MODEL_REGISTRY,
    Clfrd,
    NonConvergenceError,
    SeededStream,
    clfrd_loglik,
    clfrd_observed_information,
    clfrd_score,
    fit_clfrd,
    fit_model,
    builtin,
    sample_inverse,
)
from clfrd import estimation
from clfrd.estimation import _FAMILIES, _loglik_score, _neg_loglik_fd, fit_clfrd_block
from clfrd.distributions import DEFAULT_PARAMETER_SETS
from clfrd.sampling import DEFAULT_SEED
from clfrd.simulation import _cell_seed, _fit_replications

# published estimates for the three benchmark datasets
PUBLISHED_CLFRD = {
    "students": (6.19e-4, 1.02e-3, 1.7140),
    "appliances": (6.38e-2, 2.58e-2, 2.7986),
    "devices": (1.60e-2, 1.57e-4, 5.57e-3),
}


def _central_diff(data, theta, i, h):
    up, dn = theta.copy(), theta.copy()
    up[i] += h
    dn[i] -= h
    l_up = clfrd_loglik(Clfrd(*up), data)
    l_dn = clfrd_loglik(Clfrd(*dn), data)
    return (l_up - l_dn) / (2 * h), np.finfo(float).eps * max(abs(l_up), abs(l_dn)) / h


def loglik_fd_gradient(model, data, h_scale=1e-6):
    # Richardson-extrapolated central differences (truncation O(h^4)),
    # plus the cancellation floor eps * |loglik| / h of the oracle itself
    theta = model.to_vector()
    grad = np.zeros(3)
    floor = np.zeros(3)
    for i in range(3):
        h = h_scale * (1.0 + abs(theta[i]))
        d1, f1 = _central_diff(data, theta, i, h)
        d2, f2 = _central_diff(data, theta, i, h / 2.0)
        grad[i] = (4.0 * d2 - d1) / 3.0
        floor[i] = max(f1, f2)
    return grad, floor


class TestLoglik:
    def test_published_point_dataset1(self, students):
        m = Clfrd(*PUBLISHED_CLFRD["students"])
        assert -2.0 * clfrd_loglik(m, students) == pytest.approx(396.10, abs=0.05)

    def test_single_observation_identity(self):
        m = Clfrd(1.5, 0.5, 2.0)
        assert clfrd_loglik(m, [0.7]) == pytest.approx(float(m.log_pdf(0.7)), rel=1e-14)

    def test_equals_log_pdf_sum(self, devices):
        m = Clfrd(0.02, 1e-4, 0.5)
        assert clfrd_loglik(m, devices) == pytest.approx(float(np.sum(m.log_pdf(devices))), abs=1e-8)

    def test_rejects_nonpositive_data(self):
        with pytest.raises(ValueError):
            clfrd_loglik(Clfrd(1, 1, 1), [1.0, 0.0, 2.0])


class TestScore:
    def test_matches_finite_differences(self, students, appliances, devices):
        rng = np.random.default_rng(4242)
        for data in (students, appliances, devices):
            scale = 1.0 / data.mean()
            for _ in range(20):
                theta = np.exp(rng.uniform(-1.5, 1.5, 3)) * (scale, scale**2, 1.0)
                m = Clfrd(*theta)
                analytic = clfrd_score(m, data)
                fd, floor = loglik_fd_gradient(m, data)
                tol = 1e-5 * np.maximum(1.0, np.abs(fd)) + 8.0 * floor
                assert np.all(np.abs(analytic - fd) <= tol), (theta, analytic, fd, tol)

    def test_vanishes_at_interior_optimum(self, students):
        fit = fit_clfrd(students)
        assert np.max(np.abs(clfrd_score(fit.model, students))) < 1e-4 * students.size

    def test_constant_data_stays_finite(self):
        m = Clfrd(1.0, 1.0, 1.0)
        assert np.all(np.isfinite(clfrd_score(m, np.full(10, 2.5))))


class TestObservedInformation:
    def test_matches_score_differences(self, students):
        fit = fit_clfrd(students)
        theta = fit.model.to_vector()
        info = clfrd_observed_information(fit.model, students)
        fd = np.zeros((3, 3))
        for i in range(3):
            h = 1e-5 * (1.0 + abs(theta[i]))
            up, dn = theta.copy(), theta.copy()
            up[i] += h
            dn[i] -= h
            fd[:, i] = -(clfrd_score(Clfrd(*up), students) - clfrd_score(Clfrd(*dn), students)) / (2 * h)
        np.testing.assert_allclose(info, fd, rtol=1e-4, atol=1e-4 * (1 + np.abs(fd).max()))

    def test_symmetry(self, devices):
        info = clfrd_observed_information(Clfrd(0.02, 2e-4, 0.1), devices)
        np.testing.assert_array_equal(info, info.T)

    def test_published_covariance_dataset3(self, devices):
        # inverse information at the published triple reproduces the
        # published variance diagonal
        m = Clfrd(*PUBLISHED_CLFRD["devices"])
        cov = np.linalg.inv(clfrd_observed_information(m, devices))
        published = (5.237884e-5, 9.795843e-9, 2.409978e-1)
        for got, want in zip(np.diag(cov), published):
            assert got == pytest.approx(want, rel=0.20)


class TestFitClfrd:
    def test_dataset2_reproduces_published_fit(self, appliances):
        fit = fit_clfrd(appliances)
        assert fit.converged
        assert fit.neg2_loglik <= 143.28 + 0.05
        assert fit.params["alpha"] == pytest.approx(6.38e-2, rel=0.02)
        assert fit.params["beta"] == pytest.approx(2.58e-2, rel=0.02)
        assert fit.params["lambda"] == pytest.approx(2.7986, rel=0.02)

    def test_refit_from_optimum_is_fixed_point(self, students):
        fit = fit_clfrd(students)
        again = fit_clfrd_block(students[None], fit.model.to_vector())
        assert -2.0 * clfrd_loglik(Clfrd(*again.theta[0]), students) >= fit.neg2_loglik - 1e-6

    def test_simulated_recovery_smoke(self):
        truth = Clfrd(0.5, 0.5, 0.5)
        data = np.vstack([sample_inverse(truth, 300, SeededStream(888, r)) for r in range(30)])
        fits = fit_clfrd_block(data, (0.5, 0.5, 0.5))
        est = fits.theta[fits.converged]
        assert est.shape[0] >= 25
        assert np.all(est.std(axis=0) > 0)
        # loose sanity band around the truth
        assert np.abs(est[:, 0].mean() - 0.5) < 0.2

    def test_minimum_sample_size(self):
        with pytest.raises(ValueError):
            fit_clfrd([1.0, 2.0, 3.0])

    def test_devices_boundary_fit(self, devices):
        # the likelihood supremum for this dataset is the plain
        # linear-failure-rate limit of the compounding ridge
        fit = fit_clfrd(devices)
        assert fit.converged
        assert fit.boundary
        assert fit.message == "parameter at edge of search region (flat compounding ridge)"
        assert fit.neg2_loglik == pytest.approx(476.127, abs=0.01)

    def test_profile_sanity(self, students, appliances):
        for data in (students, appliances):
            fit = fit_clfrd(data)
            base = fit.loglik
            theta = fit.model.to_vector()
            for i in range(3):
                for bump in (0.95, 1.05):
                    perturbed = theta.copy()
                    perturbed[i] *= bump
                    assert clfrd_loglik(Clfrd(*perturbed), data) <= base + 1e-9

    def test_log_scale_matches_natural_scale_run(self, students):
        fit = fit_clfrd(students)

        def neg_ll(theta):
            if np.any(theta <= 0):
                return math.inf
            return -clfrd_loglik(Clfrd(*theta), students)

        m = students.mean()
        direct = minimize(neg_ll, (1 / m, 1 / m**2, 1.0), method="Nelder-Mead",
                          options=dict(xatol=1e-12, fatol=1e-14, maxiter=8000, maxfev=16000))
        assert fit.neg2_loglik <= 2.0 * direct.fun + 1e-6

    def test_information_positive_definite_at_optima(self, students, appliances, devices):
        for data in (students, appliances, devices):
            fit = fit_clfrd(data)
            eigenvalues = np.linalg.eigvalsh(clfrd_observed_information(fit.model, data))
            assert np.all(eigenvalues > 0.0)


def reference_loglik(theta, x):
    # reference: one scalar parameter triple in one 1-D pass, the form the
    # raw kernel must reproduce bit for bit
    a, b, lam = theta
    y = a * x + 0.5 * b * x * x
    e = np.exp(-y)
    return float(
        -x.size * lam
        - a * x.sum()
        - 0.5 * b * (x * x).sum()
        + lam * e.sum()
        + np.log(a + b * x).sum()
        + np.log1p(lam * e).sum()
    )


def reference_neg_loglik(theta, x):
    # reference: -loglik alone, for scipy to take its own finite differences
    if np.any(theta <= 0.0) or np.any(~np.isfinite(theta)):
        return math.inf
    return -clfrd_loglik(Clfrd(*theta), x)


def reference_local_fit(x, start, max_iterations):
    return minimize(reference_neg_loglik, np.asarray(start, dtype=float), args=(x,),
                    method="L-BFGS-B", bounds=[(1e-10, None)] * 3,
                    options=dict(maxiter=max_iterations))


class TestRawKernels:
    @pytest.mark.parametrize("n", [1, 7, 128, 129, 8193, 100001])
    def test_row_kernel_is_bit_identical(self, n):
        # the row blocks straddle numpy's pairwise-summation and buffer sizes
        rng = np.random.default_rng(n)
        x = sample_inverse(Clfrd(2.0, 2.0, 2.0), n, SeededStream(31, n))
        theta = np.vstack([[2.0, 2.0, 2.0], np.exp(rng.uniform(-20.0, 25.0, (5, 3)))])
        for t in theta:
            assert _loglik_score(t, x)[0] == reference_loglik(t, x)
            assert _loglik_score(t, x)[0] == clfrd_loglik(Clfrd(*t), x)

    @pytest.mark.parametrize("name", ["lfrd", "rd", "ed", "ged"])
    def test_baseline_loglik_is_the_log_pdf_sum_bit_for_bit(self, name, students, devices):
        rng = np.random.default_rng(len(name))
        family = MODEL_REGISTRY[name]
        for x in (students, devices, sample_inverse(Clfrd(2.0, 2.0, 2.0), 1000, SeededStream(33))):
            for theta in np.exp(rng.uniform(-20.0, 20.0, (20, family.param_count))):
                assert _FAMILIES[name].loglik_score(theta, x)[0] == float(np.sum(family(*theta).log_pdf(x)))

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    @pytest.mark.parametrize("k", [1, 2, 3, 10])
    def test_stack_rows_are_the_point_calls_bit_for_bit(self, name, k, students, appliances, devices):
        # a (k, d) stack, as the multistart evaluates its active starts, with
        # rows at the e^(+-600) clip of the log-parameter wall
        kernel, dim = _FAMILIES[name].loglik_score, MODEL_REGISTRY[name].param_count
        rng = np.random.default_rng([k, dim])
        sample = sample_inverse(Clfrd(2.0, 2.0, 2.0), 1000, SeededStream(34))
        hexes = lambda values: [v.hex() for v in np.ravel(values).tolist()]
        for x in (students, appliances, devices, sample):
            for _ in range(5):
                theta = np.exp(rng.uniform(-20.0, 20.0, (k, dim)))
                theta[0, 0] = math.exp(estimation._LOG_WALL)
                theta[-1, -1] = math.exp(-estimation._LOG_WALL)
                with np.errstate(all="ignore"):  # overflow and inf - inf at the wall rows
                    loglik, score = kernel(theta, x)
                    rows = [kernel(t, x) for t in theta]
                assert loglik.shape == (k,) and score.shape == (k, dim)
                for i, (value, gradient) in enumerate(rows):
                    assert hexes(loglik[i]) == hexes(value), i
                    assert hexes(score[i]) == hexes(gradient), i

    @pytest.mark.parametrize("name", ["rd", "ed", "ged"])
    def test_stack_constants_are_math_log_as_in_log_pdf(self, name, students):
        # np.log differs from math.log in the last bit on a few arguments, 22
        # of these; at some of them, on data of unit scale, a kernel taking
        # its constant from np.log leaves log_pdf
        v = np.exp(np.random.default_rng(35).uniform(-20.0, 20.0, 100000))
        differs = v[np.log(v) != [math.log(t) for t in v.tolist()]]
        family = MODEL_REGISTRY[name]
        theta = np.ones((len(differs), family.param_count))
        theta[:, 0] = differs  # ged's constant is log(s * r), and s = 1
        for x in (students / students.mean(), sample_inverse(Clfrd(2.0, 2.0, 2.0), 1000, SeededStream(33))):
            loglik = _FAMILIES[name].loglik_score(theta, x)[0]
            for i, t in enumerate(theta):
                assert loglik[i] == float(np.sum(family(*t).log_pdf(x))), i

    def test_fd_objective_matches_scipy_forward_difference(self):
        # log-uniform over e^-20..e^25: components past 2^27 make 1e-8
        # vanish against them and take scipy's relative fallback step
        rng = np.random.default_rng(2026)
        x = sample_inverse(Clfrd(2.0, 2.0, 2.0), 100, SeededStream(32))
        thetas = np.exp(rng.uniform(-20.0, 25.0, (200, 3)))
        assert np.sum(thetas + 1e-8 == thetas) >= 20
        for theta in thetas:
            value, grad = _neg_loglik_fd(theta, x)
            assert value == -clfrd_loglik(Clfrd(*theta), x)
            np.testing.assert_array_equal(grad, approx_fprime(theta, reference_neg_loglik, 1e-8, x))

    def test_local_fit_reproduces_scipy_iterates(self, students):
        # replication 443 of set 4 at n=200 steps past theta ~ 4.5e7 in a
        # line search, where only the fallback step keeps the gradient finite;
        # set 1 r=31 hits the iteration cap and r=41 pins beta at its bound;
        # the last case starts a dataset fit near its published estimate
        cases = [(4, 200, 443)]
        cases += [(1, 100, r) for r in range(25, 45)]
        cases += [(8, 100, r) for r in range(20)]
        runs = [(cell_sample(*case), DEFAULT_PARAMETER_SETS[case[0] - 1].to_vector(), case)
                for case in cases]
        runs.append((students, (6e-4, 1e-3, 1.7), "students"))
        for x, start, case in runs:
            fit = fit_clfrd_block(x[None], start)
            ref = reference_local_fit(x, start, 100)
            np.testing.assert_array_equal(fit.theta[0], ref.x, err_msg=str(case))
            assert fit.nit[0] == ref.nit, case
            # scipy counts each of a gradient's four points as one evaluation
            assert 4 * fit.nfev[0] == ref.nfev, case
            assert fit.converged[0] == (ref.status == 0), case
            assert fit.at_iteration_cap[0] == (ref.status == 1), case


class TestLocalFitFlags:
    # set 1 at n=100 from its true parameters
    def _fit(self, r):
        x = sample_inverse(Clfrd(2.0, 2.0, 2.0), 100, SeededStream(7, r))
        return fit_clfrd_block(x[None], (2.0, 2.0, 2.0))

    def test_estimate_at_lower_bound_sets_boundary(self):
        fit = self._fit(44)
        assert fit.converged[0]
        assert fit.theta[0, 1] == 1e-10
        assert fit.at_bound[0]
        assert not fit.at_iteration_cap[0]

    def test_iteration_cap_is_not_boundary(self):
        fit = self._fit(24)
        assert not fit.converged[0]
        assert not fit.at_bound[0]
        assert fit.at_iteration_cap[0]

    def test_interior_fit_is_clean(self):
        fit = self._fit(0)
        assert fit.converged[0] and not fit.at_bound[0] and not fit.at_iteration_cap[0]


def cell_sample(set_id, n, r):
    # replication r of the recovery study's cell (set_id, n)
    truth = DEFAULT_PARAMETER_SETS[set_id - 1]
    return sample_inverse(truth, n, SeededStream(_cell_seed(DEFAULT_SEED, set_id, n), r))


def assert_same_fits(fits, rows, other, other_rows):
    for i, j in zip(rows, other_rows):
        np.testing.assert_array_equal(fits.theta[i], other.theta[j], err_msg=str(i))
        assert fits.nit[i] == other.nit[j], i
        assert tuple(fits.task[i]) == tuple(other.task[j]), i


class TestLockstepFits:
    # the study's blocks: replications drawn by run_cell's streams, fitted
    # from the truth with its iteration cap of 100
    CASES = [(1, 100, range(25, 45)), (4, 200, [443]), (8, 100, range(20))]

    @pytest.mark.parametrize("set_id, n, replications", CASES)
    def test_block_matches_scipy_per_replication(self, set_id, n, replications):
        # set 1 r=31 hits the iteration cap and r=41 pins beta at its
        # bound; set 4 r=443 needs the fallback finite-difference step
        truth = DEFAULT_PARAMETER_SETS[set_id - 1]
        seed = _cell_seed(DEFAULT_SEED, set_id, n)
        fits = _fit_replications(truth, n, seed, replications)
        for row, r in enumerate(replications):
            ref = reference_local_fit(cell_sample(set_id, n, r), truth.to_vector(), 100)
            np.testing.assert_array_equal(fits.theta[row], ref.x, err_msg=str(r))
            assert fits.nit[row] == ref.nit, r
            assert fits.converged[row] == (ref.status == 0), r
            assert fits.at_iteration_cap[row] == (ref.status == 1), r

    def test_result_does_not_depend_on_the_block(self):
        truth = DEFAULT_PARAMETER_SETS[0]
        seed = _cell_seed(DEFAULT_SEED, 1, 100)
        block = _fit_replications(truth, 100, seed, range(500))
        reversed_block = _fit_replications(truth, 100, seed, range(499, -1, -1))
        small = _fit_replications(truth, 100, seed, range(25, 50))
        assert_same_fits(block, range(500), reversed_block, range(499, -1, -1))
        assert_same_fits(block, range(25, 50), small, range(25))
        assert not block.converged[31] and block.at_bound[41]
        for r in (0, 31, 41):
            alone = _fit_replications(truth, 100, seed, [r])
            assert_same_fits(block, [r], alone, [0])

    def test_off_orthant_points_score_inf_without_touching_other_rows(self):
        x = np.vstack([cell_sample(1, 100, r) for r in range(6)])
        theta = np.array([[2.0, 2.0, 2.0], [-1.0, 2.0, 2.0], [2.0, 0.0, 2.0],
                          [2.0, 2.0, -1e-9], [math.inf, 2.0, 2.0], [0.5, 1e9, 3.0]])
        with np.errstate(invalid="ignore"):  # inf - inf in their gradients
            f, grad = _neg_loglik_fd(theta, x)
        assert np.all(f[1:5] == math.inf)
        # the lam-shifted point of (2, 2, -1e-9) is inside the orthant
        assert grad[3, 2] == -math.inf
        for r in (0, 5):
            value, g = _neg_loglik_fd(theta[r], x[r])
            assert f[r] == value == -clfrd_loglik(Clfrd(*theta[r]), x[r])
            np.testing.assert_array_equal(grad[r], g)

    def test_block_validation(self):
        x = np.vstack([cell_sample(1, 100, r) for r in range(3)])
        for bad in (x[0], x[:, :3], np.where(x == x[1, 7], -1.0, x), np.where(x == x[2, 0], math.nan, x)):
            with pytest.raises(ValueError):
                fit_clfrd_block(bad, (2.0, 2.0, 2.0))
        with pytest.raises(ValueError, match="start"):
            fit_clfrd_block(x, None)

    def test_passes_equal_one_pass(self):
        # 60 samples of 300 take three passes of at most 8192 observations
        x = np.vstack([cell_sample(1, 300, r) for r in range(60)])
        theta = np.exp(np.random.default_rng(5).uniform(-2.0, 2.0, (60, 3)))
        f, grad = estimation._neg_loglik_fd_passes(theta, x, estimation._sample_sums(x))
        one_f, one_grad = _neg_loglik_fd(theta, x)
        np.testing.assert_array_equal(f, one_f)
        np.testing.assert_array_equal(grad, one_grad)


class TestOneBlasThread:
    # fit_clfrd_block holds scipy's OpenBLAS to one thread, then restores it

    @staticmethod
    def _fit():
        return fit_clfrd_block(cell_sample(1, 100, 0)[None], (2.0, 2.0, 2.0))

    def test_fits_run_on_one_thread_and_restore_the_count(self, monkeypatch):
        threads = estimation._openblas_threads()
        if threads is None:
            pytest.skip("scipy without its bundled OpenBLAS")
        get, set_ = threads
        seen = []  # the count at each kernel call
        kernel = estimation._neg_loglik_fd

        def recording(*args):
            seen.append(get())
            return kernel(*args)

        monkeypatch.setattr(estimation, "_neg_loglik_fd", recording)
        before = get()
        set_(2)
        try:
            self._fit()
            assert get() == 2
        finally:
            set_(before)
        assert seen and set(seen) == {1}

    def test_count_is_restored_when_the_body_raises(self, monkeypatch):
        count = [4]

        def set_count(threads):
            count[0] = threads

        monkeypatch.setattr(estimation, "_openblas_threads", lambda: (lambda: count[0], set_count))
        with pytest.raises(ZeroDivisionError):
            with estimation._one_blas_thread():
                assert count == [1]
                1 / 0
        assert count == [4]

    @pytest.mark.parametrize("library", [None, object()], ids=["no library", "no symbol"])
    def test_missing_library_or_symbol_is_a_no_op(self, monkeypatch, library):
        def load(path):
            if library is None:
                raise OSError(f"cannot load {path}")
            return library

        expected = self._fit()
        monkeypatch.setattr(estimation.ctypes, "CDLL", load)
        # a fresh cache, so the lookup runs again against the patched loader
        monkeypatch.setattr(estimation, "_openblas_threads",
                            functools.cache(estimation._openblas_threads.__wrapped__))
        assert estimation._openblas_threads() is None
        fits = self._fit()
        assert_same_fits(fits, [0], expected, [0])
        assert fits.nfev[0] == expected.nfev[0]


class TestFitOptions:
    # the start of fit_clfrd_block, checked at that public boundary
    @pytest.mark.parametrize("start", [(-1.0, 2.0, 2.0), (0.0, 2.0, 2.0), (1.0, 2.0),
                                       (1.0, 2.0, 3.0, 4.0), (1.0, math.nan, 1.0),
                                       (1.0, math.inf, 1.0)])
    def test_rejects_invalid_start(self, start):
        with pytest.raises(ValueError, match="start"):
            fit_clfrd_block(np.ones((2, 4)), start)

    def test_accepts_positive_start(self):
        fits = fit_clfrd_block(cell_sample(1, 100, 0)[None], (1, 2.0, 3e-9))
        assert fits.theta.shape == (1, 3) and np.all(fits.theta > 0.0)


class TestWaldCi:
    def test_z_value(self, students):
        fit = fit_clfrd(students)
        ci = fit.ci
        z = (ci["alpha"][1] - fit.params["alpha"]) / fit.std_errors["alpha"]
        assert z == pytest.approx(1.959964, abs=1e-6)

    def test_width_identity(self, students):
        fit = fit_clfrd(students, ci_level=0.9)
        z = ndtri(0.95)
        for name, (lo, hi) in fit.ci.items():
            assert hi - lo == pytest.approx(2.0 * z * fit.std_errors[name], rel=1e-12)

    def test_simulated_coverage(self):
        # set 8 at n = 300: empirical alpha coverage of the 95% Wald interval
        # around the local estimate, where its observed information is
        # positive definite
        truth = Clfrd(0.5, 0.5, 0.5)
        data = np.vstack([sample_inverse(truth, 300, SeededStream(424242, r)) for r in range(500)])
        fits = fit_clfrd_block(data, truth.to_vector())
        z = float(ndtri(0.975))
        hits = total = 0
        for x, theta in zip(data[fits.converged], fits.theta[fits.converged]):
            info = clfrd_observed_information(Clfrd(*theta), x)
            try:
                np.linalg.cholesky(info)
            except np.linalg.LinAlgError:
                continue
            se = math.sqrt(np.linalg.inv(info)[0, 0])
            total += 1
            hits += theta[0] - z * se <= 0.5 <= theta[0] + z * se
        assert total > 450
        assert 0.85 <= hits / total <= 0.99


class TestBaselineFits:
    def test_exponential_closed_form(self, students):
        fit = fit_model("ed", students)
        assert fit.params["lambda"] == pytest.approx(3.86e-2, abs=1e-4)

    def test_rayleigh_closed_form(self, students):
        fit = fit_model("rd", students)
        assert fit.params["sigma"] == pytest.approx(22.4669, abs=1e-3)

    def test_rayleigh_devices(self, devices):
        fit = fit_model("rd", devices)
        assert fit.params["sigma"] == pytest.approx(39.6472, abs=1e-3)

    def test_ged_dataset3(self, devices):
        fit = fit_model("ged", devices)
        assert fit.neg2_loglik == pytest.approx(480.00, abs=0.05)
        assert fit.params["lambda"] == pytest.approx(1.87e-2, rel=0.01)
        assert fit.params["alpha"] == pytest.approx(0.7802, rel=0.01)

    def test_lfr_dataset2(self, appliances):
        fit = fit_model("lfrd", appliances)
        assert fit.params["alpha"] == pytest.approx(0.3254, rel=0.01)
        assert fit.params["beta"] == pytest.approx(1.47e-2, rel=0.02)

    def test_baseline_at_edge_names_no_ridge(self, students):
        # beta-hat of about 1e-15 in these units: the edge of the search
        # region, but a baseline has no compounding ridge
        fit = fit_model("lfrd", students * 1e6)
        assert fit.boundary
        assert fit.message == "parameter at edge of search region"

    def test_unknown_model(self, students):
        with pytest.raises(ValueError):
            fit_model("weibull", students)


class TestFittingDriver:
    DATASETS = ("students", "appliances", "devices")

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    @pytest.mark.parametrize("dataset", DATASETS)
    def test_every_family_passes_the_gate(self, name, dataset):
        x = builtin(dataset).values
        fit = fit_model(name, x)
        theta = fit.model.to_vector()
        # sup-norm of the log-scale gradient per observation, the driver's gate
        assert fit.converged
        assert np.max(np.abs(_FAMILIES[name].loglik_score(theta, x)[1] * theta)) / x.size < 1e-5

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_score_matches_differences_of_its_own_value(self, name, students):
        # the kernel's score against central differences of the value it
        # returns with it, off the optimum
        kernel = _FAMILIES[name].loglik_score
        theta = fit_model(name, students).model.to_vector() * 1.3
        h = 1e-6 * theta
        fd = [(kernel(theta + e, students)[0] - kernel(theta - e, students)[0]) / (2 * hi)
              for e, hi in zip(np.diag(h), h)]
        np.testing.assert_allclose(kernel(theta, students)[1], fd, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("name", ["lfrd", "rd", "ed", "ged"])
    def test_baseline_kernels_match_finite_differences(self, name, students):
        # information against central differences of the score, off the optimum
        family = _FAMILIES[name]
        theta = fit_model(name, students).model.to_vector() * 1.3
        h = 1e-6 * theta
        step = np.diag(h)
        score = lambda t: family.loglik_score(t, students)[1]
        fd_info = np.array([-(score(theta + e) - score(theta - e)) / (2 * hi) for e, hi in zip(step, h)])
        np.testing.assert_allclose(family.information(theta, students), fd_info.T, rtol=1e-6)

    @pytest.mark.parametrize("dataset", DATASETS)
    def test_closed_forms_within_one_ulp(self, dataset):
        x = builtin(dataset).values
        closed = {"ed": x.size / float(x.sum()),
                  "rd": math.sqrt(float((x * x).sum()) / (2.0 * x.size))}
        for name, estimate in closed.items():
            fit = fit_model(name, x)
            (value,) = fit.params.values()
            assert abs(value - estimate) <= math.ulp(estimate), name
            assert fit.iterations == 0

    @pytest.mark.parametrize("name", ["lfrd", "ged"])
    def test_no_start_passing_the_gate_raises(self, name, students, monkeypatch):
        # one L-BFGS-B iteration from each start stops short of the gate
        monkeypatch.setattr(estimation, "_MAX_ITERATIONS", 1)
        with pytest.raises(NonConvergenceError, match="gradient gate"):
            fit_model(name, students)

    @pytest.mark.parametrize("name, set_id, n, seed", [("clfrd", 2, 36, 1), ("clfrd", 2, 36, 2),
                                                       ("lfrd", 2, 36, 8), ("ged", 2, 50, 4)])
    def test_loglik_is_the_kernel_value_at_the_estimate(self, name, set_id, n, seed):
        # each of these samples has a start whose run ends in a failed line
        # search, after which the last value setulb was given is the failed
        # trial's, not the value at the point it returns
        x = sample_inverse(DEFAULT_PARAMETER_SETS[set_id - 1], n, SeededStream(seed, 0))
        fit = fit_model(name, x)
        assert fit.loglik == _FAMILIES[name].loglik_score(fit.model.to_vector(), x)[0]

    def test_gate_failure_names_the_starts_and_the_smallest_gradient(self, students, monkeypatch):
        monkeypatch.setattr(estimation, "_MAX_ITERATIONS", 1)
        with pytest.raises(NonConvergenceError) as failure:
            fit_model("ged", students)
        found = re.search(r"smallest scaled gradient of its 3 starts is (\S+), with a cap of 1 iterations",
                          str(failure.value))
        assert found and float(found.group(1)) >= 1e-5

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, math.nan])
    def test_ci_level_outside_the_unit_interval_raises(self, level, students):
        for name in MODEL_REGISTRY:
            with pytest.raises(ValueError, match="ci_level"):
                fit_model(name, students, level)


def log_scale_objective(name, x):
    # reference: -loglik and its log-scale gradient at one start's point,
    # +inf past the wall, as the multistart evaluates each row
    kernel, wall = _FAMILIES[name].loglik_score, estimation._LOG_WALL

    def objective(lt):
        theta = np.exp(np.clip(lt, -wall, wall))
        loglik, score = kernel(theta, x)
        return (math.inf if np.any(np.abs(lt) > wall) else -loglik), -score * theta

    return objective


class TestMultistartRows:
    # every start of a family is one row of one lockstep run; each row must
    # be scipy's own L-BFGS-B run from that start
    OPTIONS = dict(maxcor=10, ftol=10 * np.finfo(float).eps, gtol=1e-9, maxiter=500, maxls=20)

    @pytest.mark.parametrize("name", ["clfrd", "lfrd", "ged"])
    @pytest.mark.parametrize("dataset", TestFittingDriver.DATASETS)
    def test_each_start_is_scipys_lbfgsb_run(self, name, dataset, monkeypatch):
        x = builtin(dataset).values
        runs = []
        lockstep = estimation._lbfgsb_lockstep

        def recording(*args):
            runs.append(lockstep(*args))
            return runs[-1]

        monkeypatch.setattr(estimation, "_lbfgsb_lockstep", recording)
        fit = fit_model(name, x)
        (fits,) = runs
        starts = _FAMILIES[name].starts(x)
        assert len(fits.theta) == len(starts) and fit.iterations == fits.nit.sum()
        for row, start in enumerate(starts):
            ref = minimize(log_scale_objective(name, x), np.log(start), jac=True, method="L-BFGS-B",
                           options=self.OPTIONS)
            np.testing.assert_array_equal(fits.theta[row], ref.x, err_msg=str(row))
            assert fits.nit[row] == ref.nit, row
            assert fits.nfev[row] == ref.nfev, row

    def test_clfrd_starts_lam_on_a_decade_ladder(self, students):
        lams = [start[2] for start in _FAMILIES["clfrd"].starts(students)]
        assert lams == [0.1, 1.0, 10.0, 100.0, 1000.0] * 2


class TestNesting:
    # the compounded model holds the linear-failure-rate law at its lam -> 0
    # edge, so the clfrd fit may not end below the lfrd fit

    @pytest.mark.parametrize("dataset", TestFittingDriver.DATASETS)
    def test_clfrd_is_not_below_lfrd_on_the_datasets(self, dataset):
        x = builtin(dataset).values
        assert fit_clfrd(x).loglik >= fit_model("lfrd", x).loglik - 1e-9

    @pytest.mark.parametrize("set_id", [1, 5, 8])
    def test_clfrd_is_not_below_lfrd_on_small_samples(self, set_id):
        for seed in range(10):
            x = sample_inverse(DEFAULT_PARAMETER_SETS[set_id - 1], 36, SeededStream(seed, 0))
            assert fit_clfrd(x).loglik >= fit_model("lfrd", x).loglik - 1e-9, seed

    def test_devices_clfrd_reaches_the_lfrd_value(self, devices):
        # the devices supremum is the LFR edge of the ridge: the clfrd fit
        # may gain nothing over lfrd beyond rounding
        assert abs(fit_clfrd(devices).neg2_loglik - fit_model("lfrd", devices).neg2_loglik) <= 1e-6
