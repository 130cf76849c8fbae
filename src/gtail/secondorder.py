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

Steps 1 and 2 run on a :class:`~gtail.stats.SampleBlock` of equal-size
samples, one replication per row: one prefix-sum log-moment profile per
block serves both tau, and the rho paths, the tau choice, the median, the
clamps and beta are array operations over the rows. So are steps 3 to 5:
one call each gives the tail sizes, R*, r and both estimates of all rows,
each row's value bit for bit the one a single sample gets. A single Sample is
the one-row case. Functions that take either return, for a block, one result
per row with a failed row's exception in its place, and for a Sample the
result itself, raising on failure.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import estimators
from .asymptotics import r_star
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
        num = np.log(m1) - 0.5 * np.log(m2)
        den = 0.5 * np.log(m2) - np.log(m3) / 3.0
    elif tau > 0:
        num = m1**tau - m2 ** (tau / 2.0)
        den = m2 ** (tau / 2.0) - m3 ** (tau / 3.0)
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


def estimate_rho(s: Sample | SampleBlock):
    """Sweep rho_hat over the high-k window, pick the more stable tau by
    interquartile range, and report the path median (clamped to stay in
    [RHO_FLOOR, RHO_CEILING]).

    One log-moment profile serves both tau. For a block, returns one
    RhoEstimate per row, or the DegenerateSampleError of a row whose path is
    invalid over the whole window.
    """
    block = _block(s)
    ks = _k_window(block.n)
    prof = log_moment_profile(block, ks, u_max=3)
    # contiguous columns, so that every row goes through the same ufunc loops
    m1, m2, m3 = prof[..., 0].copy(), prof[..., 1] / 2.0, prof[..., 2] / 6.0
    del prof
    ok = (m1 > 0) & (m2 > 0) & (m3 > 0)
    tau = np.full(block.rows, -1)  # -1 until some tau has a valid path
    count = np.zeros(block.rows, dtype=int)
    best_iqr = np.full(block.rows, np.nan)
    median = np.full(block.rows, np.nan)
    # (k, rho_hat) pairs of the chosen tau, filled tau by tau
    pairs = np.empty((block.rows, ks.size, 2))
    pairs[..., 0] = ks
    for t in (0, 1):
        path = _rho_path(m1, m2, m3, ok, t)
        n_valid, iqr, med = _path_stats(path)
        better = (n_valid > 0) & ((tau < 0) | (iqr < best_iqr))
        tau[better], count[better] = t, n_valid[better]
        best_iqr[better], median[better] = iqr[better], med[better]
        pairs[better, :, 1] = path[better]
        del path
    k_used = min(block.n - 1, int(block.n**_K_WINDOW_HIGH))
    out = []
    for row in range(block.rows):
        if tau[row] < 0:
            out.append(DegenerateSampleError("rho estimation degenerate over the whole k window"))
            continue
        rho = float(median[row])
        if rho < RHO_FLOOR:
            warnings.warn(f"rho estimate {rho:.2f} clamped to {RHO_FLOOR}", stacklevel=2)
            rho = RHO_FLOOR
        if rho > RHO_CEILING:
            rho = RHO_CEILING
        path = pairs[row]
        if count[row] < ks.size:
            path = path[~np.isnan(path[:, 1])]
        out.append(RhoEstimate(rho, int(tau[row]), k_used, path))
    return _per_sample(s, out)


def beta_hat(s: Sample | SampleBlock, k: int, rho):
    """Hall-class beta estimate from weighted scaled log-spacings.

    Power weights (i/k)^(-rho) and the prefactor (k/n)^rho are taken through
    exp/log so that strongly negative rho stays finite. For a block, rho
    holds one value per row and the result is a list with a
    DegenerateSampleError for each row whose denominator vanishes.
    """
    block = _block(s)
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
    prefactor = np.array([math.exp(r * math.log(k / block.n)) for r in rho])
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = prefactor * (a1 * a2 - a3) / den
    return _per_sample(s, [
        DegenerateSampleError("beta estimation degenerate (zero denominator)") if d == 0.0
        else float(b) for b, d in zip(beta, den)])


def estimate_beta(s: Sample | SampleBlock, rho):
    """Beta at the same k the rho sweep used.

    For a block, rho is estimate_rho's list for it; a row whose rho failed
    keeps that exception in the result.
    """
    rhos = rho if isinstance(s, SampleBlock) else [rho]
    found = [r for r in rhos if isinstance(r, RhoEstimate)]
    if not found:
        return _per_sample(s, rhos)
    k = found[0].k_used  # the k window depends on n only
    betas = beta_hat(_block(s), k, [r.rho_hat if isinstance(r, RhoEstimate) else RHO_CEILING
                                    for r in rhos])
    out = []
    for r, b in zip(rhos, betas):
        if not isinstance(r, RhoEstimate):
            out.append(r)
        else:
            out.append(b if isinstance(b, Exception) else BetaEstimate(b, k))
    return _per_sample(s, out)


def adaptive_k(n: int, rho, beta, j: int, generalized: bool):
    """Plug-in AMSE-optimal tail size, rounded and clamped to [2, n-1].

    These are the printed specializations of the generic optimum for the
    classical (r = 0) and optimally tuned routes of estimators 1 and 3.
    rho and beta may be arrays (one entry per row of a block): the result is
    then a float array of the entries' tail sizes, NaN where a scalar call
    raises DomainError because the optimum is not finite (beta^2 overflows
    or underflows, or the tail size overflows). Each entry is the formula in
    Python floats, as for a scalar: at the few rows of a block that is
    faster than a pass of numpy calls, whose per-call cost dominates there.
    """
    if j not in (1, 3):
        raise DomainError(f"adaptive tail size defined for j in {{1, 3}}, got {j}")
    if not (np.ndim(rho) or np.ndim(beta)):
        rho, beta = float(rho), float(beta)
        k = _tail_size(n, rho, beta, j, r_star(rho, j) if generalized else None)
        if k is None:
            raise _no_tail_size(rho, beta)
        return k
    rho, beta = np.broadcast_arrays(np.asarray(rho, dtype=float), np.asarray(beta, dtype=float))
    R = r_star(rho, j).tolist() if generalized else [None] * rho.size
    ks = [_tail_size(n, rho_i, beta_i, j, R_i)
          for rho_i, beta_i, R_i in zip(rho.tolist(), beta.tolist(), R)]
    return np.array([math.nan if k is None else k for k in ks])


def _tail_size(n: int, rho: float, beta: float, j: int, R: float | None) -> int | None:
    """adaptive_k at one (rho, beta), tuned at R = R*_j(rho) or classical
    for R = None; None where the optimum is not finite."""
    if not rho < 0:
        raise DomainError(f"rho must be < 0, got {rho}")
    if beta == 0.0:
        raise DomainError("beta must be nonzero")
    try:
        if j == 1 and R is not None:
            base = (1.0 - rho - R) ** 2 / (-2.0 * rho * beta**2 * (1.0 - 2.0 * R))
        elif j == 1:
            base = (1.0 - rho) ** 2 / (-2.0 * rho * beta**2)
        elif R is not None:
            base = (1.0 - rho - R) ** 4 / (-rho * beta**2 * (1.0 - 2.0 * R) ** 3)
        else:
            base = (1.0 - rho) ** 4 / (-rho * beta**2)
        ln_k = math.log(base) / (1.0 - 2.0 * rho) - 2.0 * rho / (1.0 - 2.0 * rho) * math.log(n)
        k = int(round(math.exp(ln_k)))
    except (ArithmeticError, ValueError):  # overflow, division by zero, log of 0 or NaN
        return None
    return min(max(k, 2), n - 1)


def _no_tail_size(rho: float, beta: float) -> DomainError:
    return DomainError(f"no finite AMSE-optimal tail size at rho={rho}, beta={beta}")


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
    if block.n < 100:
        raise DomainError(f"adaptive pipeline needs n >= 100, got {block.n}")
    second = _second_order(block)
    steps = {j: _tail_steps(block, j, second) for j in js}
    rows = [{j: steps[j][i] for j in js} for i in range(block.rows)]
    if isinstance(s, SampleBlock):
        return rows
    (results,) = rows
    for result in results.values():
        if isinstance(result, PipelineError):
            raise result
    return results


def _rowwise(fn, rows: int, *args) -> list:
    """fn's per-row results; an exception raised for the whole block is the
    result of every row."""
    try:
        return fn(*args)
    except Exception as exc:
        return [exc] * rows


def _step_error(step: str, exc: Exception) -> PipelineError:
    err = PipelineError(step, str(exc))
    err.__cause__ = exc
    return err


def _second_order(block: SampleBlock) -> list:
    """Per row, (RhoEstimate, BetaEstimate) or the PipelineError of the
    failed step."""
    rhos = _rowwise(estimate_rho, block.rows, block)
    betas = _rowwise(estimate_beta, block.rows, block, rhos)
    out = []
    for rho, beta in zip(rhos, betas):
        if isinstance(rho, Exception):
            out.append(_step_error("rho", rho))
        elif isinstance(beta, Exception):
            out.append(_step_error("beta", beta))
        elif beta.beta_hat == 0.0:
            out.append(PipelineError("beta", "beta estimate is exactly zero"))
        else:
            out.append((rho, beta))
    return out


def _valid_or_2(k: np.ndarray) -> np.ndarray:
    """Tail sizes with k = 2 in place of NaN, for rows whose result is unused."""
    return np.where(np.isnan(k), 2, k).astype(int)


def _tail_steps(block: SampleBlock, j: int, second: list) -> list:
    """Steps 3-5 of pipeline j on every row of a block, given _second_order's
    per-row results: per row an AdaptiveResult or the PipelineError of the
    failed step.

    Rows whose second-order step failed go through the array steps with
    placeholder values (rho = -1, beta = 1) and keep their error.
    """
    failed = [isinstance(x, PipelineError) for x in second]
    rho = np.array([-1.0 if bad else x[0].rho_hat for x, bad in zip(second, failed)])
    beta = np.array([1.0 if bad else x[1].beta_hat for x, bad in zip(second, failed)])
    k_c = adaptive_k(block.n, rho, beta, j, generalized=False)
    classical = estimators.generalized_rows(block, j, _valid_or_2(k_c), 0.0)
    gamma_c = np.array([e.gamma_hat if isinstance(e, Estimate) else np.nan for e in classical])
    with np.errstate(divide="ignore", invalid="ignore"):
        r = r_star(rho, j) / gamma_c
    k_g = adaptive_k(block.n, rho, beta, j, generalized=True)
    tuned = estimators.generalized_rows(block, j, _valid_or_2(k_g),
                                        np.where(gamma_c > 0.0, r, 0.0))
    out = []
    for x, bad, rho_i, beta_i, kc_i, c, r_i, kg_i, t in zip(
            second, failed, rho.tolist(), beta.tolist(), k_c.tolist(), classical,
            r.tolist(), k_g.tolist(), tuned):
        if bad:
            out.append(x)
        elif math.isnan(kc_i):
            out.append(_step_error("k_classical", _no_tail_size(rho_i, beta_i)))
        elif isinstance(c, Exception):
            out.append(_step_error("classical", c))
        elif not c.gamma_hat > 0.0:
            out.append(_step_error("r_star", DegenerateSampleError(
                f"classical estimate {c.gamma_hat} is not positive")))
        elif math.isnan(kg_i):
            out.append(_step_error("k_generalized", _no_tail_size(rho_i, beta_i)))
        elif isinstance(t, Exception):
            out.append(_step_error("generalized", t))
        else:
            out.append(AdaptiveResult(c, t, *x, r_i))
    return out
