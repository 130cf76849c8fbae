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
samples, one replication per row (a Sample is the one-row block). The rho
sweep is one pass of
:func:`~gtail.stats.log_moment_profile` over the block in L2-sized tiles of
one scratch buffer: each tile's log-moment statistics become both taus' rho
paths in place, written straight into one (2, rows, k) array, the only array
the sweep holds over the whole window; after one sort, step 1 keeps only each
row's rho_hat and tau (one k's value is :func:`rho_hat`). The tau choice, the
median, the clamps, beta, both tail sizes and both estimates are array
operations over all rows. Only :func:`~gtail.asymptotics.r_star` is looped,
once per row and pipeline, because a numpy R* would differ in the last bit;
the same R feeds the tuned tail size and the tuning. Both tail sizes are
:func:`~gtail.asymptotics.tail_size` over the rows, rounded and clipped as
:func:`~gtail.asymptotics.k_star` rounds one model's. Each row's value is bit
for bit the one a single sample gets. :func:`adaptive_arrays` returns these
arrays and builds no objects. NaN alone carries a failed row through the
steps; its failed step, an index into :data:`STEPS`, is the first True of its
column in one table of per-step tests. The functions that return result
objects (:func:`estimate_rho`, :func:`beta_hat`, :func:`adaptive_estimate`)
take one Sample, run it as the one-row block it is and build the result from
row 0, raising where that row fails; its two Estimates, or an estimator's
error, come from :func:`~gtail.estimators.evaluate` on that Sample. They
and :func:`rho_hat` take one Sample only: a block, even of one row, is a
DomainError (:func:`~gtail.stats.one_sample`). Both pipelines of one
sample, sharing its rho/beta step, are ``adaptive_arrays(s)``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import estimators
from .asymptotics import NO_TAIL_SIZE, r_star, tail_size
from .errors import DegenerateSampleError, DomainError, PipelineError
from .estimators import Estimate, EstimatorSpec
from .stats import Sample, SampleBlock, log_moment_profile, one_sample, stat_g_rows

#: rho estimates below this are clamped (with a warning): more negative values
#: make the (i/k)^(-rho) power sums in beta_hat explode.
RHO_FLOOR = -25.0
#: rho estimates are kept strictly negative.
RHO_CEILING = -1e-6

#: The largest x whose math.exp(x) is a finite float.
_LOG_MAX = math.log(np.finfo(float).max)

_K_WINDOW_LOW = 0.90
_K_WINDOW_HIGH = 0.995


@dataclass(frozen=True)
class RhoEstimate:
    rho_hat: float
    tau: int
    k_used: int


@dataclass(frozen=True)
class BetaEstimate:
    beta_hat: float
    k_used: int


def _t_statistic(m1, m2, m3, tau: int, out=None, spare=(None, None)):
    """The three-moment contrast T whose distance from 3 encodes rho, on
    floats or arrays. With out and spare, arrays shaped like the moments, T
    is written to out and spare is overwritten."""
    if tau == 0:
        half_log_m2 = np.multiply(np.log(m2, out=spare[0]), 0.5, out=spare[0])
        num = np.subtract(np.log(m1, out=out), half_log_m2, out=out)
        third = np.divide(np.log(m3, out=spare[1]), 3.0, out=spare[1])
        den = np.subtract(half_log_m2, third, out=spare[0])
    elif tau > 0 and tau % 1 == 0:
        m2_power = np.power(m2, tau / 2.0, out=spare[0])
        num = np.subtract(np.power(m1, tau, out=out), m2_power, out=out)
        den = np.subtract(m2_power, np.power(m3, tau / 3.0, out=spare[1]), out=spare[0])
    else:
        raise DomainError(f"tau must be 0 or a positive integer, got {tau}")
    return np.divide(num, den, out=out)


def _rho_path(m1, m2, m3, tau: int, out=None, spare=(None, None)):
    """rho_hat = -|3(T-1)/(T-3)| from the three moments, on floats or
    arrays (see _t_statistic for out and spare); not finite where the
    contrast is degenerate."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = _t_statistic(m1, m2, m3, tau, out, spare)
        t_minus_3 = np.subtract(t, 3.0, out=spare[0])
        x = np.multiply(np.subtract(t, 1.0, out=out), 3.0, out=out)
        x = np.divide(x, t_minus_3, out=out)
        return np.negative(np.abs(x, out=out), out=out)


def rho_hat(s: Sample, k: int, tau: int) -> float:
    """Second-order parameter estimate -|3(T-1)/(T-3)| at a single k."""
    m1, m2, m3 = stat_g_rows(one_sample(s), 0, k, 0.0, (1, 2, 3)).tolist()
    m2, m3 = m2 / 2.0, m3 / 6.0
    if m1 <= 0.0 or m2 <= 0.0 or m3 <= 0.0:
        raise DegenerateSampleError(f"non-positive log-moment statistic at k={k}")
    rho = float(_rho_path(m1, m2, m3, tau))
    if not math.isfinite(rho):
        raise DegenerateSampleError(f"degenerate moment contrast at k={k}")
    return rho


def _rho_tile(g, spare, dst) -> None:
    """The fill of the rho sweep: rho_hat(k, tau) for tau = 0 and 1 into
    dst[tau] from one tile of log-moment statistics g, NaN at k where a
    moment is not positive or rho_hat is not finite."""
    m1, m2, m3 = g
    np.divide(m2, 2.0, out=m2)
    np.divide(m3, 6.0, out=m3)
    ok = (m1 > 0) & (m2 > 0) & (m3 > 0)
    *tmp, path = spare
    for tau in (0, 1):
        _rho_path(m1, m2, m3, tau, path, tmp)
        path[~(ok & np.isfinite(path))] = np.nan
        np.copyto(dst[tau], path[:, : dst.shape[-1]])


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


_RHO_DEGENERATE = "rho estimation degenerate over the whole k window"
_BETA_DEGENERATE = "beta estimation degenerate (zero denominator)"


def _rho_arrays(block: SampleBlock):
    """Step 1 on every row: the k beta uses (the top of the k window), and
    per row the clamped rho_hat (NaN where the path is invalid over the
    whole window) and the chosen tau (-1 there). Warns once per row clamped
    to RHO_FLOOR."""
    n = block.n
    lo, hi = max(2, int(n**_K_WINDOW_LOW)), min(n - 1, int(n**_K_WINDOW_HIGH))
    # both taus' rows through one sort, which is the paths' last use
    stats = _path_stats(log_moment_profile(
        block, lo, hi, np.empty((2, block.rows, hi - lo + 1)), _rho_tile).reshape(2 * block.rows, -1))
    (n0, n1), (iqr0, iqr1), (med0, med1) = (x.reshape(2, block.rows) for x in stats)
    # tau = 1 wins where only it has a valid path or its path is more stable
    one = (n1 > 0) & ((n0 == 0) | (iqr1 < iqr0))
    tau = np.where(one, 1, np.where(n0 > 0, 0, -1))
    median = np.where(one, med1, np.where(n0 > 0, med0, np.nan))
    for rho in median[median < RHO_FLOOR].tolist():
        warnings.warn(f"rho estimate {rho:.2f} clamped to {RHO_FLOOR}", stacklevel=3)
    return hi, np.clip(median, RHO_FLOOR, RHO_CEILING), tau


def estimate_rho(s: Sample) -> RhoEstimate:
    """Sweep rho_hat over the high-k window, pick the more stable tau by
    interquartile range, and report the path median (clamped to stay in
    [RHO_FLOOR, RHO_CEILING]). One tiled sweep serves both tau.
    """
    k_used, rho, tau = _rho_arrays(one_sample(s))
    if tau[0] < 0:
        raise DegenerateSampleError(_RHO_DEGENERATE)
    return RhoEstimate(float(rho[0]), int(tau[0]), k_used)


def _beta_arrays(block: SampleBlock, k: int, rho: np.ndarray):
    """Per row, beta_hat at k in [2, n-1] and the row's rho < 0, NaN where it
    is not an estimate (rho is NaN, or (k/n)^rho or beta_hat is not a finite
    float), and whether the row's denominator vanishes (beta is NaN there)."""
    i = np.arange(1, k + 1, dtype=float)
    desc = block.desc
    # i-th scaled log-spacing of consecutive descending order statistics;
    # log of the ratio keeps the estimate exactly scale-free. Three (rows, k)
    # arrays, each step written in place in the order of
    # w = i * log(d_i / d_i+1), x = exp(-rho * log(i / k)), x * w, (x * x) * w
    w = np.divide(desc[:, :k], desc[:, 1: k + 1])
    np.multiply(i, np.log(w, out=w), out=w)
    x = np.multiply(-rho[:, None], np.log(i / k))
    np.exp(x, out=x)
    a1 = np.mean(x, axis=1)
    a2 = np.mean(w, axis=1)
    xx = np.multiply(x, x)
    a3 = np.mean(np.multiply(x, w, out=x), axis=1)
    a4 = np.mean(np.multiply(xx, w, out=xx), axis=1)
    den = a1 * a3 - a4
    ln_prefactor = (rho * math.log(k / block.n)).tolist()
    prefactor = np.array([math.exp(y) if y <= _LOG_MAX else math.inf for y in ln_prefactor])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        beta = prefactor * (a1 * a2 - a3) / den
    return np.where(np.isfinite(beta), beta, np.nan), den == 0.0


def beta_hat(s: Sample, k: int, rho: float) -> float:
    """Hall-class beta estimate from weighted scaled log-spacings.

    Power weights (i/k)^(-rho) and the prefactor (k/n)^rho go through
    exp/log; a DomainError where the prefactor or the estimate overflows.
    """
    one_sample(s)
    if not rho < 0:
        raise DomainError(f"rho must be < 0, got {rho}")
    if rho == -math.inf:
        raise DomainError(f"rho must be finite, got {rho}")
    if not (2 <= k <= s.n - 1):
        raise DomainError(f"k={k} outside [2, n-1] for n={s.n}")
    (beta,), (zero_den,) = (x.tolist() for x in _beta_arrays(s, k, np.array([rho], dtype=float)))
    if zero_den:
        raise DegenerateSampleError(_BETA_DEGENERATE)
    if math.isnan(beta):
        raise DomainError(f"(k/n)^rho or beta_hat is not a finite float at rho={rho}, k={k}, n={s.n}")
    return beta


#: The steps of the adaptive pipeline in order; PipelineArrays.failed_step
#: holds the index of a row's failed step, -1 for a row that did not fail.
STEPS = ("rho", "beta", "k_classical", "classical", "r_star", "k_generalized", "generalized")


@dataclass(frozen=True)
class PipelineArrays:
    """Adaptive pipeline j on every row of a block, as arrays.

    rho, tau and beta are the second-order step, shared by both pipelines
    of a block: the clamped rho_hat, the chosen tau and beta_hat at k_used
    (no path is kept: rho_hat(s, k, tau) gives one k's value). k_c and k_g
    are the classical and tuned tail sizes, r the tuning, gamma_c and
    gamma_g the two estimates (NaN where the per-sample call raises, which
    makes the Estimate or the error). NaN alone carries a failed row (tau
    is -1 where rho is NaN): a row's entries from its failed step on are
    NaN, or an unused estimate at k = 2 where k is NaN.
    """

    j: int
    k_used: int
    rho: np.ndarray
    tau: np.ndarray
    beta: np.ndarray
    k_c: np.ndarray
    gamma_c: np.ndarray
    r: np.ndarray
    k_g: np.ndarray
    gamma_g: np.ndarray
    failed_step: np.ndarray


def _tail_sizes(n: int, rho: np.ndarray, beta: np.ndarray, j: int, R) -> np.ndarray:
    """Per row, :func:`~gtail.asymptotics.tail_size` at the scaled tuning R
    (0.0, or each row's R*_j(rho)), rounded half to even and clipped to
    [2, n-1]; NaN where the optimum is not finite."""
    return np.clip(np.rint(tail_size(R, rho, beta, j, n)), 2, n - 1)


def _valid_or_2(k: np.ndarray) -> np.ndarray:
    """Tail sizes with k = 2 in place of NaN, for rows whose result is unused."""
    return np.where(np.isnan(k), 2, k).astype(int)


def adaptive_arrays(block: SampleBlock, js: tuple = (1, 3)) -> dict:
    """The five-step adaptive pipeline for each j in js on every row of a
    block, one shared rho/beta step: {j: PipelineArrays}. Each row's values
    are, bit for bit, those of adaptive_estimate on that row alone, and its
    failed_step is the step at which that call raises, or -1.
    """
    for j in js:
        if j not in (1, 3):
            raise DomainError(f"adaptive pipeline defined for j in {{1, 3}}, got {j}")
    if block.n < 100:
        raise DomainError(f"adaptive pipeline needs n >= 100, got {block.n}")
    k_used, rho, tau = _rho_arrays(block)
    beta = _beta_arrays(block, k_used, rho)[0]  # NaN where rho is
    return {j: _tail_arrays(block, j, k_used, rho, tau, beta) for j in js}


def _tail_arrays(block: SampleBlock, j: int, k_used: int, rho: np.ndarray, tau: np.ndarray,
                 beta: np.ndarray) -> PipelineArrays:
    """Steps 3-5 of pipeline j on every row, from steps 1 and 2 (the first
    four fields of PipelineArrays); a failed row's NaN flows through, and
    its failed step is the first True in a (STEPS, rows) table."""
    kind, rows = estimators.KIND_OF_J[j], np.arange(block.rows)
    R = np.array([r_star(x, j) if x < 0 else math.nan for x in rho.tolist()])
    k_c = _tail_sizes(block.n, rho, beta, j, 0.0)
    gamma_c = estimators.estimate_arrays(block, kind, rows, _valid_or_2(k_c), 0.0)
    r = R / gamma_c  # NaN where gamma_c failed
    k_g = _tail_sizes(block.n, rho, beta, j, R)
    gamma_g = estimators.estimate_arrays(block, kind, rows, _valid_or_2(k_g),
                                         np.where(gamma_c > 0.0, r, 0.0))
    fails = np.array([np.isnan(rho), np.isnan(beta) | (beta == 0.0), np.isnan(k_c),
                      np.isnan(gamma_c), ~(gamma_c > 0.0), np.isnan(k_g), np.isnan(gamma_g)])
    failed_step = np.where(fails.any(0), fails.argmax(0), -1)
    return PipelineArrays(j, k_used, rho, tau, beta, k_c, gamma_c, r, k_g, gamma_g, failed_step)


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
    return _result(adaptive_arrays(one_sample(s), (j,))[j], 0, s)


def _result(a: PipelineArrays, i: int, s: Sample) -> AdaptiveResult:
    """Row i of pipeline arrays, whose sample is s, as the AdaptiveResult;
    raises the PipelineError of its failed step with the step's own error
    (an estimator's from estimators.evaluate on s) as its cause."""
    rho, beta = float(a.rho[i]), float(a.beta[i])

    def estimate(k, r=0.0) -> Estimate:
        return estimators.evaluate(s, EstimatorSpec(estimators.KIND_OF_J[a.j], int(k), float(r)))

    step = STEPS[a.failed_step[i]] if a.failed_step[i] >= 0 else None
    if step is None:
        return AdaptiveResult(
            estimate(a.k_c[i]), estimate(a.k_g[i], a.r[i]),
            RhoEstimate(rho, int(a.tau[i]), a.k_used),
            BetaEstimate(beta, a.k_used), float(a.r[i]))
    if step == "rho":
        cause = DegenerateSampleError(_RHO_DEGENERATE)
    elif step == "beta" and beta == 0.0:
        raise PipelineError("beta", "beta estimate is exactly zero")
    elif step == "beta":
        cause = DegenerateSampleError(_BETA_DEGENERATE)
    elif step in ("k_classical", "k_generalized"):
        cause = DomainError(NO_TAIL_SIZE.format(rho=rho, beta=beta))
    elif step == "r_star":
        cause = DegenerateSampleError(f"classical estimate {float(a.gamma_c[i])} is not positive")
    else:
        try:
            estimate(a.k_c[i]) if step == "classical" else estimate(a.k_g[i], a.r[i])
        except (DegenerateSampleError, DomainError) as exc:
            cause = exc
    raise PipelineError(step, str(cause)) from cause
