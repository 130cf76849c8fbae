"""Closed-form asymptotic calculus for the generalized estimators.

Under second-order regular variation with rate function A(t) and parameter
rho < 0, each estimator j in {1, 2, 3} (generalized Hill, second Hill
generalization, generalized moment ratio) is asymptotically normal:

    sqrt(k) (gamma_hat_j - gamma)  ->  N(mu * nu_j(r), sigma2_j(r)),

and its asymptotic mean squared error is

    AMSE(k) = nu_j(r)^2 A(n/k)^2 + sigma2_j(r) / k.

For Hall-class tails A(t) = gamma * beta * t^rho, which yields a closed-form
AMSE-optimal tail size k* and, after a second minimization over the tuning
parameter, an optimal scaled tuning R* = gamma * r* depending on rho only.
This module provides the constants, the optima, and the gamma-free
AMSE-ratio functions used to compare estimators.

All quantities are evaluated in log-space where products of large powers of
rho would otherwise overflow.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, DomainError

#: Limit of psi_MR as rho -> -inf.
PSI_MR_LIMIT = 27.0 / 16.0
#: Limit of phi3 as rho -> -inf.
PHI3_LIMIT = 27.0 / 32.0
#: rho at which phi3 crosses 1 (the generalized moment ratio stops dominating
#: the generalized Hill estimator at the asymptotic level).
PHI3_CROSSING = -4.57018


@dataclass(frozen=True)
class SecondOrderModel:
    """Hall-class tail parameters (gamma, rho, beta) with A(t) = gamma*beta*t^rho.

    ``beta_hall = 0`` marks a bias-free tail (exact power law): the AMSE has
    no interior optimum in k and :func:`k_star` rejects such a model.
    """

    gamma: float
    rho: float
    beta_hall: float

    def __post_init__(self):
        if self.gamma <= 0:
            raise DomainError(f"gamma must be > 0, got {self.gamma}")
        if not self.rho < 0:
            raise DomainError(f"rho must be < 0, got {self.rho}")

    @property
    def bias_free(self) -> bool:
        return self.beta_hall == 0.0


@dataclass(frozen=True)
class JointLimitConstants:
    """Bias and covariance constants of the joint limit of (G(k,r,0), G(k,r,1))."""

    nu1: float
    nu2: float
    s1_sq: float
    s2_sq: float
    s12: float


def xi(gamma: float, r: float, u: float) -> float:
    """Limit in probability of the statistic G_n(k,r,u): gamma^u Gamma(1+u) / (1-gamma r)^(1+u);
    a DomainError where it is not a finite float."""
    if gamma <= 0:
        raise DomainError(f"gamma must be > 0, got {gamma}")
    if u <= -1:
        raise DomainError(f"u must be > -1, got {u}")
    if gamma * r >= 1:
        raise DomainError(f"need gamma*r < 1, got {gamma * r}")
    try:
        value = gamma**u * math.gamma(1.0 + u) / (1.0 - gamma * r) ** (1.0 + u)
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"xi is not a finite float at gamma={gamma}, r={r}, u={u}")
    return value


def _check_half(gamma: float, r: float) -> None:
    if gamma * r >= 0.5:
        raise DomainError(f"need gamma*r < 1/2, got {gamma * r}")


def joint_limit_constants(m: SecondOrderModel, r: float) -> JointLimitConstants:
    """Constants of the bivariate normal limit of the two raw statistics."""
    g, rho = m.gamma, m.rho
    _check_half(g, r)
    d1, d2 = 1.0 - g * r, 1.0 - 2 * g * r
    nu1 = r / (d1 * (d1 - rho))
    nu2 = (1.0 - rho - g**2 * r**2) / (d1**2 * (d1 - rho) ** 2)
    s1_sq = g**2 * r**2 / (d2 * d1**2)
    s2_sq = g**2 * (d2 + 2.0 * g**4 * r**4) / (d2**3 * d1**4)
    s12 = g**2 * r * (d1 - g**2 * r**2) / (d2**2 * d1**3)
    return JointLimitConstants(nu1, nu2, s1_sq, s2_sq, s12)


def _nu_sigma_unit(R, rho: float, j: int):
    """nu_j and sigma2_j at gamma = 1 as functions of R = gamma*r: the one
    table of the estimators' limit constants. R may be a float or an array.

    For a Hall-class tail gamma cancels from the AMSE, its optimal k and its
    optimal tuning, so these depend on (R, rho) alone; at gamma != 1,
    sigma2_j scales by gamma^2 and nu_j is unchanged.
    """
    d1, d2 = 1.0 - R, 1.0 - 2.0 * R
    if j == 1:
        return d1 / (d1 - rho), d1**2 / d2
    if j == 2:
        nu = d1 * (1.0 - R**2 - rho) / ((1.0 + R) * (d1 - rho) ** 2)
        sigma2 = d1**2 * (d2 + 2.0 * R**4) / ((1.0 + R) ** 2 * d2**3)
        return nu, sigma2
    if j == 3:
        return d1**2 / (d1 - rho) ** 2, 2.0 * d1**4 / d2**3
    raise DomainError(f"estimator index must be 1, 2 or 3, got {j}")


def estimator_limit_constants(m: SecondOrderModel, r: float, j: int) -> tuple[float, float]:
    """Asymptotic bias constant nu_j(r) and variance sigma2_j(r) of estimator j."""
    nu, sigma2 = _nu_sigma_unit(_scaled_tuning(m.gamma, r, j), m.rho, j)
    return nu, m.gamma**2 * sigma2


def _scaled_tuning(gamma: float, r: float, j: int) -> float:
    """R = gamma*r, checked to lie in the domain of estimator j's limit."""
    _check_half(gamma, r)
    if j == 2 and 1.0 + gamma * r == 0.0:
        raise DomainError("estimator 2 undefined at gamma*r = -1")
    return gamma * r


def rate_A(m: SecondOrderModel, t: float) -> float:
    """Hall-class second-order rate function A(t) = gamma * beta * t^rho."""
    return m.gamma * m.beta_hall * t**m.rho


def amse(m: SecondOrderModel, r: float, j: int, k: int, n: int) -> float:
    """Two-term asymptotic MSE nu^2 A(n/k)^2 + sigma^2 / k."""
    if not (2 <= k < n):
        raise DomainError(f"need 2 <= k < n, got k={k}, n={n}")
    nu, sigma2 = estimator_limit_constants(m, r, j)
    a = rate_A(m, n / k)
    return nu**2 * a**2 + sigma2 / k


#: The error of a tail size that is not a finite float.
NO_TAIL_SIZE = "no finite AMSE-optimal tail size at rho={rho}, beta={beta}"


def tail_size(R, rho, beta, j: int, n: int):
    """Real AMSE-optimal tail size of estimator j at the scaled tuning
    R = gamma*r, for a Hall-class tail with second-order parameters (rho,
    beta), in log space:

        ln k* = [ln(sigma2_j / (-2 rho beta^2 nu_j^2)) - 2 rho ln n] / (1 - 2 rho)

    with nu_j, sigma2_j at gamma = 1 (gamma cancels). R, rho and beta are
    floats or arrays that broadcast together (the adaptive pipeline passes
    a block's rows); the result is NaN where the optimum is not finite: beta^2
    overflows or underflows (falls below the smallest normal float), or k*
    overflows. Raises DegenerateSampleError where nu_j = 0 (no bias term)
    and DomainError for n < 1.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    nu, sigma2 = _nu_sigma_unit(R, rho, j)
    if np.any(nu == 0.0):
        raise DegenerateSampleError(
            "nu_j(r) = 0: bias-free tuning, no finite optimum; use the largest admissible k")
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        beta2 = np.square(beta)
        ln_base = np.log(sigma2 / (-2.0 * rho * np.square(nu))) - np.log(beta2)
        k = np.exp((ln_base - 2.0 * rho * math.log(n)) / (1.0 - 2.0 * rho))
    return np.where((sys.float_info.min <= beta2) & (beta2 < np.inf) & np.isfinite(k), k, np.nan)


def k_star(m: SecondOrderModel, r: float, j: int, n: int) -> int:
    """AMSE-optimal tail size, rounded half to even and clamped to [2, n-1]
    with a warning. Raises DegenerateSampleError for a bias-free model or
    tuning and DomainError where the optimum is not finite."""
    if m.bias_free:
        raise DegenerateSampleError(
            "bias-free model (beta = 0): AMSE has no interior optimum; use the largest admissible k")
    k_real = float(tail_size(_scaled_tuning(m.gamma, r, j), m.rho, m.beta_hall, j, n))
    if math.isnan(k_real):
        raise DomainError(NO_TAIL_SIZE.format(rho=m.rho, beta=m.beta_hall))
    k = int(round(k_real))
    if k < 2 or k > n - 1:
        warnings.warn(f"optimal k {k_real:.1f} clamped to [2, {n - 1}]", stacklevel=2)
        k = min(max(k, 2), n - 1)
    return k


# --- optimal tuning -----------------------------------------------------------

def eta(rho: float, R, j: int):
    """Objective nu_j^2 * (sigma2_j)^(-2 rho) in the scaled tuning R = gamma*r.

    The gamma factors cancel, so the function is evaluated at gamma = 1 and
    depends on rho only. Minimizing eta over R < 1/2 minimizes the AMSE at
    the optimal k.
    """
    if not rho < 0:
        raise DomainError(f"rho must be < 0, got {rho}")
    R_arr = np.asarray(R, dtype=float)
    if np.any(R_arr >= 0.5):
        raise DomainError("eta requires R < 1/2")
    nu, sigma2 = _nu_sigma_unit(R_arr, rho, j)
    out = nu**2 * sigma2 ** (-2.0 * rho)
    return float(out) if np.isscalar(R) or R_arr.ndim == 0 else out


def r2_polynomial_coeffs(rho: float) -> np.ndarray:
    """Coefficients (descending powers R^9..R^0) of the stationarity polynomial
    for the second estimator's optimal scaled tuning; a DomainError where
    one is not a finite float."""
    try:
        coeffs = np.array([
            2.0,
            -2.0 * (1.0 - rho),
            -2.0 * (5.0 - 3.0 * rho),
            2.0 * (rho**2 - 3.0 * rho + 6.0),
            -2.0 * rho * (5.0 - 2.0 * rho),
            -6.0 * (1.0 - rho) ** 2,
            8.0 * rho**2 - 22.0 * rho + 15.0,
            -2.0 * (5.0 * rho**2 - 14.0 * rho + 9.0),
            4.0 * (rho**2 - 3.0 * rho + 2.0),
            -(1.0 - rho),
        ])
    except OverflowError:  # a power of a float rho
        coeffs = np.array([math.inf])
    if not np.isfinite(coeffs).all():
        raise DomainError(f"the R*_2 polynomial is not a finite float at rho={rho}")
    return coeffs


def r_star(rho: float, j: int) -> float:
    """Optimal scaled tuning R*_j = gamma * r*_j as a function of rho alone.

    j = 1 and j = 3 have closed forms (roots of quadratics); j = 2 requires
    all real roots of a degree-9 polynomial, found via the companion matrix,
    each admissible root scored by eta and the minimizer returned. rho is
    one float: ``secondorder._tail_arrays`` calls this once per row. A
    DomainError where R*_j is not a finite float.
    """
    rho = float(rho)
    if not rho < 0:
        raise DomainError(f"rho must be < 0, got {rho}")
    if j in (1, 3):
        try:
            R = ((2.0 - rho) - math.sqrt((2.0 - rho) ** 2 - (2.0 if j == 1 else 4.0 * rho))) / 2.0
        except OverflowError:
            R = math.nan
        if not math.isfinite(R):
            raise DomainError(f"R*_{j} is not a finite float at rho={rho}")
        return R
    if j == 2:
        roots = np.roots(r2_polynomial_coeffs(rho))
        real = roots[np.abs(roots.imag) < 1e-9 * (1.0 + np.abs(roots.real))].real
        candidates = [R for R in real if -1.0 < R < 0.5]
        if not candidates:
            raise DegenerateSampleError(f"no admissible real root of the degree-9 polynomial at rho={rho}")
        return min(candidates, key=lambda R: eta(rho, R, 2))
    raise DomainError(f"estimator index must be 1, 2 or 3, got {j}")


def amse_ratio(rho: float, R_num, j_num: int, R_den, j_den: int) -> float:
    """Limiting AMSE ratio of two tuned estimators at their optimal k:
    (eta_num / eta_den)^(1/(1-2 rho)), evaluated in log-space."""
    ln = math.log(eta(rho, R_num, j_num)) - math.log(eta(rho, R_den, j_den))
    return math.exp(ln / (1.0 - 2.0 * rho))


def _closed_ratio(ln):
    """The AMSE ratio exp(ln(rho) / (1 - 2 rho)) on a float or an array of
    rho < 0; a DomainError at the first rho where it is not a finite float."""
    @functools.wraps(ln)
    def ratio(rho):
        rho = np.asarray(rho, dtype=float)
        if np.any(rho >= 0):
            raise DomainError(f"{ln.__name__} requires rho < 0")
        with np.errstate(all="ignore"):  # a rho too negative for a float ends in NaN
            out = np.exp(ln(rho) / (1.0 - 2.0 * rho))
        bad = rho[~np.isfinite(out)]
        if bad.size:
            raise DomainError(f"{ln.__name__} is not a finite float at rho={float(bad[0])}")
        return float(out) if out.ndim == 0 else out
    return ratio


@_closed_ratio
def psi_H(rho):
    """AMSE of the Hill estimator over AMSE of the optimally tuned generalized Hill."""
    R = ((2.0 - rho) - np.sqrt((2.0 - rho) ** 2 - 2.0)) / 2.0
    return (2.0 * np.log(1.0 - R - rho) - 2.0 * rho * np.log(1.0 - 2.0 * R)
            - 2.0 * np.log(1.0 - rho) - (2.0 - 4.0 * rho) * np.log(1.0 - R))


@_closed_ratio
def psi_MR(rho):
    """AMSE of the moment ratio over AMSE of the optimally tuned generalized moment ratio."""
    v = np.sqrt((2.0 - rho) ** 2 - 4.0 * rho)
    return (-8.0 * rho * np.log(2.0) + 4.0 * np.log(v - rho) - 6.0 * rho * np.log(v - 1.0 + rho)
            - 4.0 * np.log(1.0 - rho) - (4.0 - 8.0 * rho) * np.log(v + rho))


def phi2(rho: float) -> float:
    """AMSE of the tuned generalized Hill over AMSE of the tuned second
    generalization; numeric only (no closed form for the degree-9 root)."""
    return amse_ratio(rho, r_star(rho, 1), 1, r_star(rho, 2), 2)


@_closed_ratio
def phi3(rho):
    """AMSE of the tuned generalized Hill over AMSE of the tuned generalized
    moment ratio; crosses 1 at PHI3_CROSSING."""
    v = np.sqrt((2.0 - rho) ** 2 - 4.0 * rho)
    w = np.sqrt((2.0 - rho) ** 2 - 2.0)
    return (-6.0 * rho * np.log(3.0) + (8.0 - 8.0 * rho) * np.log(v - rho)
            - 2.0 * rho * np.log(w + 1.0 - rho)
            - (3.0 - 5.0 * rho) * np.log(4.0) - 2.0 * np.log(1.0 - 2.0 * rho)
            + 6.0 * rho * np.log(v + 1.0 - rho) - (4.0 - 4.0 * rho) * np.log(w - rho))


def robustness_limit(gamma: float, r: float, j: int = 1) -> float:
    """Limiting effect of one arbitrarily large contamination on estimator j.

    Zero for r < 0, infinite for r = 0, (1 - gamma*r)/r for 0 < r < 1/gamma;
    identical for all three generalized estimators.
    """
    if j not in (1, 2, 3):
        raise DomainError(f"estimator index must be 1, 2 or 3, got {j}")
    if gamma <= 0:
        raise DomainError(f"gamma must be > 0, got {gamma}")
    if gamma * r >= 1:
        raise DomainError(f"need gamma*r < 1, got {gamma * r}")
    if r < 0:
        return 0.0
    if r == 0:
        return math.inf
    return (1.0 - gamma * r) / r
