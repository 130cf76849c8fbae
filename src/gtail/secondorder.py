"""Data-driven second-order parameter estimation and the adaptive pipeline.

The adaptive route to a tail index estimate runs five steps:

1. estimate the second-order parameter rho from a high-k sweep of three
   log-moment statistics;
2. estimate the Hall-class scale beta at the same k;
3. plug (rho_hat, beta_hat) into the closed-form AMSE-optimal tail size and
   compute the classical estimate (Hill for j = 1, moment ratio for j = 3);
4. compute the optimal scaled tuning R*_j(rho_hat) and divide by the
   classical estimate to get the tuning r;
5. recompute the optimal tail size for the tuned estimator and evaluate it.

The published description of the sweep leaves the choice of k and of the
tuning exponent tau to an external algorithm; here rho_hat(k, tau) is
evaluated for k in the window [n^0.90, n^0.995] for tau in {0, 1}, the tau
whose path has the smaller interquartile range wins, and the path median is
reported.

All five steps run on a :class:`~gtail.stats.SampleBlock` of equal-size
samples, one replication per row, as array operations over the rows: one
prefix-sum log-moment profile per block serves both tau, and the rho paths,
the tau choice, the median, the clamps, beta, the tail sizes, R*, r and both
estimates are computed for all rows at once, each row's value bit for bit
the one a single sample gets. :func:`adaptive_arrays` returns these arrays,
with the index of each row's failed step in :data:`STEPS`; the functions
that return result objects (:func:`estimate_rho`, :func:`adaptive_all`,
:func:`adaptive_estimate`) build them from the same arrays. A single Sample
is the one-row case: those functions return, for a block, one result per
row with a failed row's exception in its place, and for a Sample the result
itself, raising on failure.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import estimators
from .asymptotics import NO_TAIL_SIZE, r_star, tail_size
from .errors import DegenerateSampleError, DomainError, PipelineError
from .estimators import Estimate
from .stats import Sample, SampleBlock, log_moment_profile, stat_g

#: rho estimates below this are clamped (with a warning): more negative values
#: make the (i/k)^(-rho) power sums in beta_hat explode.
RHO_FLOOR = -25.0
#: rho estimates are kept strictly negative.
RHO_CEILING = -1e-6

_K_WINDOW_LOW = 0.90
_K_WINDOW_HIGH = 0.995


@dataclass(frozen=True)
class RhoEstimate:
    rho_hat: float
    tau: int
    k_used: int
    #: (k, rho_hat(k, tau)) rows over the k window at the chosen tau, finite
    #: values only
    path: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class BetaEstimate:
    beta_hat: float
    k_used: int

    @property
    def near_zero(self) -> bool:
        return abs(self.beta_hat) < 1e-6


def _block(s: Sample | SampleBlock) -> SampleBlock:
    return s if isinstance(s, SampleBlock) else SampleBlock.of(s)


def _per_sample(s: Sample | SampleBlock, results: list):
    """The per-row results for a block; for a Sample its one result, raised
    if it is an exception."""
    if isinstance(s, SampleBlock):
        return results
    (result,) = results
    if isinstance(result, Exception):
        raise result
    return result


def _t_statistic(m1, m2, m3, tau: int):
    """The three-moment contrast whose distance from 3 encodes rho (array-safe)."""
    if tau == 0:
        half_log_m2 = 0.5 * np.log(m2)
        num = np.log(m1) - half_log_m2
        den = half_log_m2 - np.log(m3) / 3.0
    elif tau > 0:
        m2_power = m2 ** (tau / 2.0)
        num = m1**tau - m2_power
        den = m2_power - m3 ** (tau / 3.0)
    else:
        raise DomainError(f"tau must be 0 or a positive integer, got {tau}")
    return num, den


def rho_hat(s: Sample, k: int, tau: int) -> float:
    """Second-order parameter estimate -|3(T-1)/(T-3)| at a single k."""
    m1 = stat_g(s, k, 0.0, 1.0)
    m2 = stat_g(s, k, 0.0, 2.0) / 2.0
    m3 = stat_g(s, k, 0.0, 3.0) / 6.0
    if m1 <= 0.0 or m2 <= 0.0 or m3 <= 0.0:
        raise DegenerateSampleError(f"non-positive log-moment statistic at k={k}")
    num, den = _t_statistic(m1, m2, m3, tau)
    if den == 0.0:
        raise DegenerateSampleError(f"degenerate moment contrast (zero denominator) at k={k}")
    t = num / den
    if t == 3.0:
        raise DegenerateSampleError(f"degenerate moment contrast (T = 3) at k={k}")
    return -abs(3.0 * (t - 1.0) / (t - 3.0))


def _rho_path(m1, m2, m3, ok, tau: int) -> np.ndarray:
    """rho_hat over the k window for every row; invalid entries become NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):
        num, den = _t_statistic(m1, m2, m3, tau)
        t = num / den
        path = -np.abs(3.0 * (t - 1.0) / (t - 3.0))
    path[~(ok & np.isfinite(path))] = np.nan
    return path


def _path_stats(path: np.ndarray):
    """Per row: the number of valid entries, and the interquartile range and
    median of the valid entries, from one sort of the block.

    The quartiles interpolate linearly at virtual index (count - 1) * q and
    an even count takes the midpoint of the two middle values: numpy's
    default percentile and its median, to the last bit.
    """
    srt = np.sort(path, axis=1)  # NaN sorts last
    count = path.shape[1] - np.isnan(path).sum(axis=1)
    last = np.maximum(count - 1, 0)
    rows = np.arange(path.shape[0])

    def quantile(q: float) -> np.ndarray:
        at = last * q
        lo = np.floor(at).astype(int)
        a, b = srt[rows, lo], srt[rows, np.minimum(lo + 1, last)]
        t = at - lo
        return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)

    half = count // 2
    odd = srt[rows, half]
    even = (srt[rows, np.maximum(half - 1, 0)] + odd) / 2
    return count, quantile(0.75) - quantile(0.25), np.where(count % 2 == 1, odd, even)


def _k_window(n: int) -> np.ndarray:
    lo = max(2, int(n**_K_WINDOW_LOW))
    hi = min(n - 1, int(n**_K_WINDOW_HIGH))
    if hi < lo:
        hi = lo
    return np.arange(lo, hi + 1)


_RHO_DEGENERATE = "rho estimation degenerate over the whole k window"
_BETA_DEGENERATE = "beta estimation degenerate (zero denominator)"


def _rho_arrays(block: SampleBlock):
    """Step 1 on every row: the k window, the k beta uses, and per row the
    clamped rho_hat (NaN where the path is invalid over the whole window),
    the chosen tau (-1 there) and the path rho_hat(k, tau) over the window
    (NaN at invalid k). Warns once per row clamped to RHO_FLOOR."""
    ks = _k_window(block.n)
    prof = log_moment_profile(block, ks, u_max=3)
    # contiguous columns, so that every row goes through the same ufunc loops
    m1, m2, m3 = prof[..., 0].copy(), prof[..., 1] / 2.0, prof[..., 2] / 6.0
    del prof
    ok = (m1 > 0) & (m2 > 0) & (m3 > 0)
    paths = np.stack([_rho_path(m1, m2, m3, ok, tau) for tau in (0, 1)])
    # both taus' rows through one sort
    (n0, n1), (iqr0, iqr1), (med0, med1) = (
        x.reshape(2, block.rows) for x in _path_stats(paths.reshape(2 * block.rows, ks.size)))
    # tau = 1 wins where only it has a valid path or its path is more stable
    one = (n1 > 0) & ((n0 == 0) | (iqr1 < iqr0))
    tau = np.where(one, 1, np.where(n0 > 0, 0, -1))
    median = np.where(one, med1, np.where(n0 > 0, med0, np.nan))
    for rho in median[median < RHO_FLOOR].tolist():
        warnings.warn(f"rho estimate {rho:.2f} clamped to {RHO_FLOOR}", stacklevel=3)
    rho = np.clip(median, RHO_FLOOR, RHO_CEILING)
    k_used = min(block.n - 1, int(block.n**_K_WINDOW_HIGH))
    return ks, k_used, rho, tau, np.where(one[:, None], paths[1], paths[0])


def _rho_estimate(ks, k_used: int, rho: float, tau: int, path: np.ndarray):
    """One row of _rho_arrays as a RhoEstimate, or the error of a row whose
    path is invalid over the whole window."""
    if tau < 0:
        return DegenerateSampleError(_RHO_DEGENERATE)
    valid = ~np.isnan(path)
    return RhoEstimate(rho, tau, k_used, np.column_stack((ks[valid], path[valid])))


def estimate_rho(s: Sample | SampleBlock):
    """Sweep rho_hat over the high-k window, pick the more stable tau by
    interquartile range, and report the path median (clamped to stay in
    [RHO_FLOOR, RHO_CEILING]).

    One log-moment profile serves both tau. For a block, returns one
    RhoEstimate per row, or the DegenerateSampleError of a row whose path is
    invalid over the whole window.
    """
    ks, k_used, rho, tau, paths = _rho_arrays(_block(s))
    return _per_sample(s, [_rho_estimate(ks, k_used, *row)
                           for row in zip(rho.tolist(), tau.tolist(), paths)])


def _beta_arrays(block: SampleBlock, k: int, rho):
    """Per row, beta_hat at k and the row's rho, and whether its
    denominator vanishes (beta is then not an estimate)."""
    rho = np.broadcast_to(np.asarray(rho, dtype=float), (block.rows,))
    if not np.all(rho < 0):
        raise DomainError(f"rho must be < 0, got {rho if block.rows > 1 else rho[0]}")
    if not (2 <= k <= block.n - 1):
        raise DomainError(f"k={k} outside [2, n-1] for n={block.n}")
    i = np.arange(1, k + 1, dtype=float)
    desc = block.sorted_desc
    # i-th scaled log-spacing of consecutive descending order statistics;
    # log of the ratio keeps the estimate exactly scale-free
    w = i * np.log(desc[:, :k] / desc[:, 1: k + 1])
    x = np.exp(-rho[:, None] * np.log(i / k))
    a1 = np.mean(x, axis=1)
    a2 = np.mean(w, axis=1)
    a3 = np.mean(x * w, axis=1)
    a4 = np.mean(x * x * w, axis=1)
    den = a1 * a3 - a4
    prefactor = np.array([math.exp(r * math.log(k / block.n)) for r in rho.tolist()])
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = prefactor * (a1 * a2 - a3) / den
    return beta, den == 0.0


def beta_hat(s: Sample | SampleBlock, k: int, rho):
    """Hall-class beta estimate from weighted scaled log-spacings.

    Power weights (i/k)^(-rho) and the prefactor (k/n)^rho are taken through
    exp/log so that strongly negative rho stays finite. For a block, rho
    holds one value per row and the result is a list with a
    DegenerateSampleError for each row whose denominator vanishes.
    """
    beta, degenerate = _beta_arrays(_block(s), k, rho)
    return _per_sample(s, [DegenerateSampleError(_BETA_DEGENERATE) if bad else b
                           for b, bad in zip(beta.tolist(), degenerate.tolist())])


def adaptive_k(n: int, rho, beta, j: int, generalized: bool):
    """Plug-in AMSE-optimal tail size, rounded and clamped to [2, n-1]: the
    real optimum :func:`~gtail.asymptotics.tail_size` at the classical
    (R = 0) or optimally tuned (R = R*_j(rho)) route of estimator 1 or 3.

    rho and beta may be arrays (one entry per row of a block): the result is
    then a float array of the entries' tail sizes, NaN where a scalar call
    raises DomainError because the optimum is not finite (beta^2 overflows
    or underflows, or the tail size overflows). Each entry is computed in
    Python floats, as for a scalar: at the few rows of a block that is
    faster than a pass of numpy calls, whose per-call cost dominates there.
    """
    if j not in (1, 3):
        raise DomainError(f"adaptive tail size defined for j in {{1, 3}}, got {j}")
    scalar = not (np.ndim(rho) or np.ndim(beta))
    if scalar:
        rhos, betas = [float(rho)], [float(beta)]
    else:
        rhos, betas = (a.tolist() for a in np.broadcast_arrays(
            np.asarray(rho, dtype=float), np.asarray(beta, dtype=float)))
    if not all(x < 0 for x in rhos):
        raise DomainError(f"rho must be < 0, got {rho}")
    if 0.0 in betas:
        raise DomainError("beta must be nonzero")
    Rs = [r_star(x, j) for x in rhos] if generalized else [0.0] * len(rhos)
    ks = []
    for R, rho_i, beta_i in zip(Rs, rhos, betas):
        try:
            ks.append(min(max(round(tail_size(R, rho_i, beta_i, j, n)), 2), n - 1))
        except DomainError:
            if scalar:
                raise
            ks.append(math.nan)
    return ks[0] if scalar else np.array(ks, dtype=float)


#: The steps of the adaptive pipeline in order; PipelineArrays.failed_step
#: holds the index of a row's failed step, -1 for a row that did not fail.
STEPS = ("rho", "beta", "k_classical", "classical", "r_star", "k_generalized", "generalized")


@dataclass(frozen=True)
class PipelineArrays:
    """Adaptive pipeline j on every row of a block, as arrays.

    rho, tau, path and beta are the second-order step, shared by both
    pipelines of a block: the clamped rho_hat, the chosen tau, rho_hat(k,
    tau) over ``k_window`` (NaN at invalid k) and beta_hat at k_used.
    k_c and k_g are the classical and tuned tail sizes (NaN where the
    optimum is not finite), r the tuning. Entries of a row from its failed
    step on are not estimates; they hold NaN or values computed from
    placeholders.
    """

    j: int
    k_window: np.ndarray
    k_used: int
    rho: np.ndarray
    tau: np.ndarray
    path: np.ndarray = field(repr=False)
    beta: np.ndarray
    k_c: np.ndarray
    classical: estimators.GeneralizedArrays
    r: np.ndarray
    k_g: np.ndarray
    generalized: estimators.GeneralizedArrays
    failed_step: np.ndarray

    @property
    def gamma_c(self) -> np.ndarray:
        return self.classical.gamma

    @property
    def gamma_g(self) -> np.ndarray:
        return self.generalized.gamma


def _valid_or_2(k: np.ndarray) -> np.ndarray:
    """Tail sizes with k = 2 in place of NaN, for rows whose result is unused."""
    return np.where(np.isnan(k), 2, k).astype(int)


class _SecondOrder(NamedTuple):
    """Steps 1 and 2 on every row of a block (see PipelineArrays);
    failed_step is 0 (rho), 1 (beta) or -1."""

    k_window: np.ndarray
    k_used: int
    rho: np.ndarray
    tau: np.ndarray
    path: np.ndarray
    beta: np.ndarray
    failed_step: np.ndarray


def adaptive_arrays(block: SampleBlock, js: tuple = (1, 3)) -> dict:
    """The five-step adaptive pipeline for each j in js on every row of a
    block, one shared rho/beta step: {j: PipelineArrays}. Each row's values
    are, bit for bit, those of adaptive_estimate on that row alone, and its
    failed_step is the step at which that call raises, or -1.
    """
    if block.n < 100:
        raise DomainError(f"adaptive pipeline needs n >= 100, got {block.n}")
    second = _second_order(block)
    return {j: _tail_arrays(block, j, second) for j in js}


def _second_order(block: SampleBlock) -> _SecondOrder:
    ks, k_used, rho, tau, path = _rho_arrays(block)
    no_rho = tau < 0
    beta, degenerate = _beta_arrays(block, k_used, np.where(no_rho, RHO_CEILING, rho))
    beta = np.where(no_rho | degenerate, np.nan, beta)
    failed_step = np.where(no_rho, 0, np.where(degenerate | (beta == 0.0), 1, -1))
    return _SecondOrder(ks, k_used, rho, tau, path, beta, failed_step)


def _tail_arrays(block: SampleBlock, j: int, second: _SecondOrder) -> PipelineArrays:
    """Steps 3-5 of pipeline j on every row. A row whose second-order step
    failed goes through them with placeholder values (rho = -1, beta = 1)."""
    placeholder = second.failed_step >= 0
    rho = np.where(placeholder, -1.0, second.rho)
    beta = np.where(placeholder, 1.0, second.beta)
    k_c = adaptive_k(block.n, rho, beta, j, generalized=False)
    classical = estimators.generalized_arrays(block, j, _valid_or_2(k_c), 0.0)
    gamma_c = classical.gamma
    with np.errstate(divide="ignore", invalid="ignore"):
        r = r_star(rho, j) / gamma_c
    k_g = adaptive_k(block.n, rho, beta, j, generalized=True)
    tuned = estimators.generalized_arrays(block, j, _valid_or_2(k_g),
                                          np.where(gamma_c > 0.0, r, 0.0))
    fails = {
        "k_classical": np.isnan(k_c),
        "classical": classical.tie | ~np.isfinite(gamma_c),
        "r_star": ~(gamma_c > 0.0),
        "k_generalized": np.isnan(k_g),
        "generalized": tuned.tie | ~np.isfinite(tuned.gamma),
    }
    failed_step = second.failed_step.copy()
    # a row fails at its first failing step, so later steps are marked first
    for step in reversed(STEPS[2:]):
        failed_step[fails[step] & ~placeholder] = STEPS.index(step)
    return PipelineArrays(j, second.k_window, second.k_used, second.rho, second.tau, second.path,
                          second.beta, k_c, classical, r, k_g, tuned, failed_step)


@dataclass(frozen=True)
class AdaptiveResult:
    classical: Estimate
    generalized: Estimate
    rho: RhoEstimate
    beta: BetaEstimate
    r_generalized: float


def adaptive_estimate(s: Sample, j: int) -> AdaptiveResult:
    """Run the five-step adaptive pipeline for estimator j in {1, 3}.

    Any failing step aborts with a PipelineError naming the step.
    """
    if j not in (1, 3):
        raise DomainError(f"adaptive pipeline defined for j in {{1, 3}}, got {j}")
    return _adaptive(s, (j,))[j]


def adaptive_all(s: Sample | SampleBlock):
    """Both adaptive pipelines (j = 1 and j = 3) sharing one rho/beta step.

    Returns {j: AdaptiveResult} for a Sample, raising the PipelineError of
    the first failing pipeline; for a block, one such dict per row, in which
    a failed pipeline holds its PipelineError.
    """
    return _adaptive(s, (1, 3))


def _adaptive(s: Sample | SampleBlock, js: tuple):
    block = _block(s)
    arrays = adaptive_arrays(block, js)
    rows = [{j: _result(arrays[j], i) for j in js} for i in range(block.rows)]
    if isinstance(s, SampleBlock):
        return rows
    (results,) = rows
    for result in results.values():
        if isinstance(result, PipelineError):
            raise result
    return results


def _result(a: PipelineArrays, i: int) -> AdaptiveResult | PipelineError:
    """Row i of pipeline arrays as the AdaptiveResult, or the PipelineError
    of its failed step with the step's own error as its cause."""
    rho, beta = float(a.rho[i]), float(a.beta[i])
    step = STEPS[a.failed_step[i]] if a.failed_step[i] >= 0 else None
    if step is None:
        return AdaptiveResult(
            a.classical.row(i), a.generalized.row(i),
            _rho_estimate(a.k_window, a.k_used, rho, int(a.tau[i]), a.path[i]),
            BetaEstimate(beta, a.k_used), float(a.r[i]))
    if step == "rho":
        cause = DegenerateSampleError(_RHO_DEGENERATE)
    elif step == "beta" and beta == 0.0:
        return PipelineError("beta", "beta estimate is exactly zero")
    elif step == "beta":
        cause = DegenerateSampleError(_BETA_DEGENERATE)
    elif step in ("k_classical", "k_generalized"):
        cause = DomainError(NO_TAIL_SIZE.format(rho=rho, beta=beta))
    elif step == "r_star":
        cause = DegenerateSampleError(f"classical estimate {float(a.gamma_c[i])} is not positive")
    else:
        cause = (a.classical if step == "classical" else a.generalized).row(i)
    err = PipelineError(step, str(cause))
    err.__cause__ = cause
    return err
