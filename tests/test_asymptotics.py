import math
import re
import warnings

import numpy as np
import pytest

from gtail import asymptotics as asy
from gtail.errors import DegenerateSampleError, DomainError


def model(gamma=1.0, rho=-1.0, beta=1.0):
    return asy.SecondOrderModel(gamma, rho, beta)


class TestXi:
    def test_hill_limit(self):
        assert asy.xi(0.5, 0.0, 1.0) == pytest.approx(0.5)

    def test_second_log_moment(self):
        for g in (0.3, 1.0, 4.0):
            assert asy.xi(g, 0.0, 2.0) == pytest.approx(2.0 * g * g, rel=1e-14)

    def test_power_only(self):
        assert asy.xi(1.0, 0.5, 0.0) == pytest.approx(2.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            asy.xi(1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            asy.xi(1.0, 0.0, -1.0)

    @pytest.mark.parametrize("gamma, r, u", [(1e308, 0.0, 2.0), (1.0, 0.0, 300.0),
                                             (1.0, 1.0 - 2.0**-52, 300.0), (math.nan, 0.0, 1.0)])
    def test_not_a_finite_float_is_a_domain_error(self, gamma, r, u):
        """A limit that overflows (gamma^u, Gamma(1 + u), the quotient) or
        is NaN is a DomainError naming its arguments, not a bare
        OverflowError or an inf."""
        with pytest.raises(DomainError, match=re.escape(f"at gamma={gamma}, r={r}, u={u}")):
            asy.xi(gamma, r, u)


class TestJointLimitConstants:
    def test_r_zero_reductions(self):
        for g, rho in [(0.5, -0.5), (1.0, -1.0), (2.0, -3.0)]:
            c = asy.joint_limit_constants(model(g, rho), 0.0)
            assert c.nu1 == 0.0
            assert c.s1_sq == 0.0
            assert c.s12 == 0.0
            assert c.nu2 == pytest.approx(1.0 / (1.0 - rho), rel=1e-14)
            assert c.s2_sq == pytest.approx(g * g, rel=1e-14)

    def test_hand_value(self):
        c = asy.joint_limit_constants(model(1.0, -1.0), 0.25)
        assert c.nu1 == pytest.approx(0.25 / (0.75 * 1.75), rel=1e-12)

    def test_covariance_psd_over_grid(self):
        for g in (0.3, 1.0, 4.0):
            for rho in (-0.2, -1.0, -5.0):
                for r in np.linspace(-2.0, 0.49 / g, 15):
                    c = asy.joint_limit_constants(model(g, rho), float(r))
                    det = c.s1_sq * c.s2_sq - c.s12**2
                    assert det >= -1e-12 * max(1.0, c.s1_sq * c.s2_sq)

    def test_domain(self):
        with pytest.raises(DomainError):
            asy.joint_limit_constants(model(1.0), 0.5)


class TestEstimatorLimitConstants:
    def test_hill_classical_constants(self):
        for g, rho in [(0.5, -2.0), (3.0, -0.7)]:
            nu, s2 = asy.estimator_limit_constants(model(g, rho), 0.0, 1)
            assert nu == pytest.approx(1.0 / (1.0 - rho), rel=1e-14)
            assert s2 == pytest.approx(g * g, rel=1e-14)

    def test_moment_ratio_classical_constants(self):
        for g, rho in [(0.5, -2.0), (3.0, -0.7)]:
            nu, s2 = asy.estimator_limit_constants(model(g, rho), 0.0, 3)
            assert nu == pytest.approx(1.0 / (1.0 - rho) ** 2, rel=1e-14)
            assert s2 == pytest.approx(2.0 * g * g, rel=1e-14)

    def test_hand_value(self):
        nu, s2 = asy.estimator_limit_constants(model(1.0, -1.0), 0.25, 1)
        assert nu == pytest.approx(0.75 / 1.75, rel=1e-13)
        assert s2 == pytest.approx(1.125, rel=1e-13)

    def test_j2_matches_j1_at_r0(self):
        nu1, s1 = asy.estimator_limit_constants(model(1.3, -0.8), 0.0, 1)
        nu2, s2 = asy.estimator_limit_constants(model(1.3, -0.8), 0.0, 2)
        assert nu2 == pytest.approx(nu1, rel=1e-14)
        assert s2 == pytest.approx(s1, rel=1e-14)

    def test_variance_positive(self):
        for j in (1, 2, 3):
            for r in (-1.5, -0.2, 0.0, 0.3):
                _, s2 = asy.estimator_limit_constants(model(1.0, -1.0), r, j)
                assert s2 > 0


class TestAmse:
    def test_hand_value(self):
        # A(10) = 0.1, nu1 = 0.5, sigma1^2 = 1
        assert asy.amse(model(1.0, -1.0, 1.0), 0.0, 1, 100, 1000) == \
            pytest.approx(0.0125, rel=1e-13)

    def test_variance_term_scaling(self):
        m = model(1.0, -8.0, 0.001)  # near-negligible bias term
        a1 = asy.amse(m, 0.0, 1, 250, 1000)
        a2 = asy.amse(m, 0.0, 1, 500, 1000)
        assert a1 / a2 == pytest.approx(2.0, rel=1e-3)

    def test_local_minimum_at_k_star(self):
        m = model(1.0, -1.0, 1.0)
        k = asy.k_star(m, 0.0, 1, 1000)
        for other in (k - 1, k + 1):
            assert asy.amse(m, 0.0, 1, k, 1000) <= asy.amse(m, 0.0, 1, other, 1000)


class TestKStar:
    def test_hand_value(self):
        assert asy.k_star(model(1.0, -1.0, 1.0), 0.0, 1, 1000) == 126

    def test_beta_doubling_exponent(self):
        m1 = model(1.0, -1.0, 1.0)
        m2 = model(1.0, -1.0, 2.0)
        k1 = float(asy.tail_size(0.0, m1.rho, m1.beta_hall, 1, 10_000))
        k2 = float(asy.tail_size(0.0, m2.rho, m2.beta_hall, 1, 10_000))
        assert k2 / k1 == pytest.approx(2.0 ** (-2.0 / 3.0), rel=1e-12)

    def test_brute_force_scan_agreement(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 60:
            g = rng.uniform(0.3, 3.0)
            rho = -rng.uniform(0.3, 4.0)
            beta = rng.choice([-1.5, -0.5, 0.5, 1.0, 2.0])
            n = int(rng.choice([500, 2000, 5000]))
            j = int(rng.integers(1, 4))
            r = rng.uniform(-0.5, 0.45) / g
            m = asy.SecondOrderModel(g, rho, float(beta))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # boundary clamps are fine here
                k_opt = asy.k_star(m, r, j, n)
            ks = np.arange(2, n)
            nu, s2 = asy.estimator_limit_constants(m, r, j)
            vals = nu**2 * (g * beta * (n / ks) ** rho) ** 2 + s2 / ks
            assert abs(int(ks[np.argmin(vals)]) - k_opt) <= 1
            checked += 1

    def test_bias_free_rejected(self):
        m = asy.SecondOrderModel(1.0, -math.inf, 0.0)
        with pytest.raises(DegenerateSampleError):
            asy.k_star(m, 0.1, 1, 1000)

    def test_bias_free_tuning_rejected(self):
        # nu_2 = 0 where 1 - R^2 - rho = 0, here at R = -2, rho = -3
        with pytest.raises(DegenerateSampleError, match="nu_j"):
            asy.k_star(model(1.0, -3.0, 1.0), -2.0, 2, 1000)

    def test_clamping_warns(self):
        m = model(1.0, -0.05, 1.0)
        with pytest.warns(UserWarning):
            k = asy.k_star(m, 0.0, 1, 10)
        assert 2 <= k <= 9


class TestRStar:
    def test_closed_forms_at_minus_one(self):
        assert asy.r_star(-1.0, 1) == pytest.approx((3 - math.sqrt(7)) / 2, rel=1e-14)
        assert asy.r_star(-1.0, 3) == pytest.approx((3 - math.sqrt(13)) / 2, rel=1e-14)

    def test_r3_limits(self):
        assert asy.r_star(-1e-9, 3) == pytest.approx(0.0, abs=1e-8)
        assert asy.r_star(-1e9, 3) == pytest.approx(-1.0, abs=1e-6)
        for rho in np.linspace(-20, -0.05, 40):
            assert -1.0 < asy.r_star(float(rho), 3) < 0.0

    def test_takes_one_float(self):
        assert type(asy.r_star(np.float64(-1.0), 1)) is float
        # one row at a time: secondorder._tail_arrays loops the rows of a block
        for j in (1, 2, 3):
            with pytest.raises(TypeError):
                asy.r_star(np.array([-1.0, -2.0]), j)

    @pytest.mark.parametrize("rho, j", [(-1e300, 1), (-1e300, 3), (-1e200, 3), (-1e300, 2),
                                        (-1e154, 2)])
    def test_rho_too_negative_for_a_float_is_a_domain_error(self, rho, j):
        # (2 - rho)^2 or a coefficient of the degree-9 polynomial overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=re.escape(f"not a finite float at rho={rho}") + "$"):
                asy.r_star(rho, j)

    def test_r2_polynomial_residual(self):
        for rho in np.linspace(-10, -0.1, 25):
            R = asy.r_star(float(rho), 2)
            coeffs = asy.r2_polynomial_coeffs(float(rho))
            residual = np.polyval(coeffs, R) / coeffs[0]
            assert abs(residual) < 1e-8
            assert R < 0.5

    def test_eta_global_minimizer_on_grid(self):
        grid = np.arange(-0.999, 0.4995, 1e-3)
        for rho in (-0.3, -1.0, -4.0, -9.0):
            for j in (1, 2, 3):
                R = asy.r_star(rho, j)
                best = asy.eta(rho, R, j)
                vals = asy.eta(rho, grid, j)
                assert best <= np.nanmin(vals) + 1e-15

    def test_eta_stationary_at_optimum(self):
        h = 1e-7
        for rho in (-0.5, -1.0, -3.0, -8.0):
            for j in (1, 3):
                R = asy.r_star(rho, j)
                deriv = (asy.eta(rho, R + h, j) - asy.eta(rho, R - h, j)) / (2 * h)
                assert abs(deriv) < 1e-6


class TestEta:
    def test_gamma_independence_against_full_formula(self):
        # independent route: gamma^(4 rho) nu_j^2 (sigma_j^2)^(-2 rho) with the
        # full gamma-dependent limit constants
        for gamma in (0.3, 1.0, 4.0):
            for rho in (-0.4, -1.0, -6.0):
                for j in (1, 2, 3):
                    for R in (-0.8, -0.2, 0.0 + 1e-9, 0.3):
                        m = asy.SecondOrderModel(gamma, rho, 1.0)
                        nu, s2 = asy.estimator_limit_constants(m, R / gamma, j)
                        full = gamma ** (4 * rho) * nu**2 * s2 ** (-2 * rho)
                        assert asy.eta(rho, R, j) == pytest.approx(full, rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            asy.eta(-1.0, 0.6, 1)
        with pytest.raises(DomainError):
            asy.eta(0.1, 0.0, 1)


class TestRatioFunctions:
    def test_psi_mr_deep_limit(self):
        assert asy.PSI_MR_LIMIT == 27.0 / 16.0
        assert asy.psi_MR(-1e6) == pytest.approx(asy.PSI_MR_LIMIT, abs=1e-4)

    def test_psi_mr_zero_limit(self):
        assert asy.psi_MR(-1e-8) == pytest.approx(1.0, abs=1e-6)

    def test_phi3_deep_limit(self):
        assert asy.PHI3_LIMIT == 27.0 / 32.0
        assert asy.phi3(-1e8) == pytest.approx(asy.PHI3_LIMIT, abs=1e-4)

    def test_phi3_crossing(self):
        lo, hi = asy.PHI3_CROSSING - 1e-3, asy.PHI3_CROSSING + 1e-3
        assert (asy.phi3(lo) - 1.0) * (asy.phi3(hi) - 1.0) < 0

    def test_psi_h_max(self):
        grid = -np.exp(np.linspace(math.log(1e-4), math.log(1e4), 100_000))
        assert 1.0 <= asy.psi_H(grid).max() <= 1.06

    def test_psi_mr_strictly_decreasing(self):
        grid = np.linspace(-50.0, -0.01, 20_000)
        vals = asy.psi_MR(grid)
        assert np.all(np.diff(vals) < 0)

    def test_closed_forms_match_generic_ratio(self):
        for rho in (-0.2, -0.9, -2.5, -7.0):
            r1, r3 = asy.r_star(rho, 1), asy.r_star(rho, 3)
            assert asy.psi_H(rho) == pytest.approx(
                asy.amse_ratio(rho, 0.0, 1, r1, 1), rel=1e-12)
            assert asy.psi_MR(rho) == pytest.approx(
                asy.amse_ratio(rho, 0.0, 3, r3, 3), rel=1e-12)
            assert asy.phi3(rho) == pytest.approx(
                asy.amse_ratio(rho, r1, 1, r3, 3), rel=1e-12)

    def test_generalized_never_loses_to_classical(self):
        grid = np.linspace(-30.0, -0.05, 200)
        assert np.all(asy.psi_H(grid) >= 1.0)
        assert np.all(asy.psi_MR(grid) >= 1.0)

    @pytest.mark.parametrize("fn, rho", [
        (asy.psi_MR, -1e17), (asy.psi_H, -1.4e154), (asy.phi3, -1.4e154)])
    def test_not_a_float_is_a_domain_error(self, fn, rho):
        # the closed form ends in NaN here; an array names its first such rho
        message = re.escape(f"{fn.__name__} is not a finite float at rho={rho}") + "$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for arg in (rho, np.array([-1.0, rho, 10.0 * rho])):
                with pytest.raises(DomainError, match=message):
                    fn(arg)
        assert math.isfinite(fn(rho / 10.0))

    def test_phi2_finite_and_positive(self):
        for rho in np.linspace(-9.5, -0.2, 30):
            v = asy.phi2(float(rho))
            assert 0.5 < v < 2.0


class TestRobustnessLimit:
    def test_positive_r(self):
        assert asy.robustness_limit(1.0, 0.5) == pytest.approx(1.0)

    def test_negative_r(self):
        for g in (0.4, 1.0, 3.0):
            assert asy.robustness_limit(g, -0.3) == 0.0

    def test_r_zero_unbounded(self):
        assert asy.robustness_limit(2.0, 0.0) == math.inf

    def test_at_optimal_tuning_of_g1(self):
        for gamma in (0.5, 1.0, 2.0):
            for rho in (-0.5, -1.0, -4.0):
                r1 = asy.r_star(rho, 1) / gamma
                expected = gamma * (1 - rho + math.sqrt((2 - rho) ** 2 - 2))
                assert asy.robustness_limit(gamma, r1) == pytest.approx(expected, rel=1e-12)

    def test_same_for_all_estimators(self):
        for j in (1, 2, 3):
            assert asy.robustness_limit(1.0, 0.25, j) == pytest.approx(3.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            asy.robustness_limit(2.0, 0.5)


def test_gamma_free_quantities_across_gamma():
    # psi/phi/eta/R* depend on rho only; evaluating through the generic ratio
    # at several gammas must agree to 1e-10 relative
    for rho in (-0.5, -2.0):
        ref = None
        for gamma in (0.3, 1.0, 4.0):
            r1 = asy.r_star(rho, 1) / gamma
            m = asy.SecondOrderModel(gamma, rho, 1.0)
            nu0, s0 = asy.estimator_limit_constants(m, 0.0, 1)
            nu1, s1 = asy.estimator_limit_constants(m, r1, 1)
            val = ((nu0**2 * s0 ** (-2 * rho)) /
                   (nu1**2 * s1 ** (-2 * rho))) ** (1 / (1 - 2 * rho))
            if ref is None:
                ref = val
            assert val == pytest.approx(ref, rel=1e-10)
            assert val == pytest.approx(asy.psi_H(rho), rel=1e-10)
