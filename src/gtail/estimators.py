"""Point estimators of the extreme value index gamma.

Seven estimators, all expressed through the statistics in :mod:`gtail.stats`:

* ``hill``, ``moment``, ``moment_ratio`` -- the classical trio (r = 0);
* ``g1`` -- generalized Hill, ``g2`` -- second Hill generalization,
  ``g3`` -- generalized moment ratio, each with a power tuning parameter r;
* ``hme`` -- harmonic moment estimator, identical to ``g1`` under the
  reparametrization r = 1 - beta.

Every estimate carries the statistics it consumed as diagnostics so that
downstream variance formulas can reuse them without recomputation. Every
estimator raises DegenerateSampleError at a tail size k whose top k values
all tie the threshold X_(k+1), where no estimate is defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSampleError, DomainError
from .stats import SMALL_R, Sample, SampleBlock, stat_g, stat_g_rows

KINDS = ("hill", "moment", "moment_ratio", "g1", "g2", "g3", "hme")


@dataclass(frozen=True)
class EstimatorSpec:
    kind: str
    k: int
    r: float = 0.0
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown estimator kind {self.kind!r}")
        if self.kind == "hme" and self.beta is None:
            raise DomainError("hme requires beta")


@dataclass(frozen=True)
class Estimate:
    gamma_hat: float
    spec: EstimatorSpec
    n: int
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.gamma_hat):
            raise DegenerateSampleError(f"non-finite estimate {self.gamma_hat}")


# Closed forms of the estimators in their statistics (array-safe), shared by
# the per-sample estimators and generalized_arrays.

def _quotient(num, den):
    """num / den, with the IEEE result (inf or NaN) also for a float den of
    0, where Python raises ZeroDivisionError."""
    if isinstance(den, float) and den == 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.float64(num) / den)
    return num / den


def _moment_ratio_form(g01, g02):
    return g02 / (2.0 * g01)


def _g1_form(g_r0, r):
    return _quotient(g_r0 - 1.0, r * g_r0)


def _g3_form(g_r0, g_r1, r):
    return _quotient(r * g_r1 - g_r0 + 1.0, r * r * g_r1)


#: The error of every estimator at a tail size whose top k values all equal
#: the threshold X_(k+1): each log-ratio is 0, so no estimate is defined.
TIE_MESSAGE = "all top ratios tie the threshold"


def _check_tie(s: Sample, k: int) -> None:
    """Raise the tie error if sorted_desc[0] == sorted_desc[k]; k is checked
    by the statistic computed before."""
    if s.sorted_desc[0] == s.sorted_desc[k]:
        raise DegenerateSampleError(TIE_MESSAGE)


def hill(s: Sample, k: int) -> Estimate:
    """Mean log-ratio of the top k observations to the threshold."""
    g01 = stat_g(s, k, 0.0, 1.0)
    _check_tie(s, k)
    return Estimate(g01, EstimatorSpec("hill", k), s.n, {"g_r1": g01})


def moment(s: Sample, k: int) -> Estimate:
    """Dekkers-Einmahl-de Haan moment estimator (classical form, r = 0)."""
    g1_ = stat_g(s, k, 0.0, 1.0)
    _check_tie(s, k)
    g2_ = stat_g(s, k, 0.0, 2.0)
    ratio = g2_ / g1_**2
    if ratio == 1.0:
        raise DegenerateSampleError("moment estimator undefined: G(k,0,2)/G(k,0,1)^2 = 1")
    gamma = g1_ + 0.5 * (1.0 - 1.0 / (ratio - 1.0))
    return Estimate(gamma, EstimatorSpec("moment", k), s.n, {"g_r1": g1_, "g_r2": g2_})


def moment_ratio(s: Sample, k: int) -> Estimate:
    """Ratio of the second to twice the first log-moment."""
    g1_ = stat_g(s, k, 0.0, 1.0)
    _check_tie(s, k)
    g2_ = stat_g(s, k, 0.0, 2.0)
    return Estimate(_moment_ratio_form(g1_, g2_), EstimatorSpec("moment_ratio", k), s.n,
                    {"g_r1": g1_, "g_r2": g2_})


def g1(s: Sample, k: int, r: float) -> Estimate:
    """Generalized Hill estimator with power tuning r (r = 0 is Hill)."""
    if abs(r) < SMALL_R:
        e = hill(s, k)
        return Estimate(e.gamma_hat, EstimatorSpec("g1", k, r=0.0), s.n, e.diagnostics)
    g_r0 = stat_g(s, k, r, 0.0)
    _check_tie(s, k)
    return Estimate(_g1_form(g_r0, r), EstimatorSpec("g1", k, r=r), s.n, {"g_r0": g_r0})


def g2(s: Sample, k: int, r: float) -> Estimate:
    """Second generalization of the Hill estimator, built from G_n(k,r,1)."""
    g_r1 = stat_g(s, k, r, 1.0)
    _check_tie(s, k)
    disc = 4.0 * r * g_r1 + 1.0
    if disc < 0.0:
        raise DomainError(f"g2 discriminant negative: 4*r*G(k,r,1)+1 = {disc}")
    gamma = 2.0 * g_r1 / (2.0 * r * g_r1 + 1.0 + math.sqrt(disc))
    return Estimate(gamma, EstimatorSpec("g2", k, r=r), s.n, {"g_r1": g_r1})


def g3(s: Sample, k: int, r: float) -> Estimate:
    """Generalized moment-ratio estimator (r = 0 is the moment ratio)."""
    if abs(r) < SMALL_R:
        e = moment_ratio(s, k)
        return Estimate(e.gamma_hat, EstimatorSpec("g3", k, r=0.0), s.n, e.diagnostics)
    g_r0 = stat_g(s, k, r, 0.0)
    _check_tie(s, k)
    g_r1 = stat_g(s, k, r, 1.0)
    return Estimate(_g3_form(g_r0, g_r1, r), EstimatorSpec("g3", k, r=r), s.n,
                    {"g_r0": g_r0, "g_r1": g_r1})


@dataclass(frozen=True)
class GeneralizedArrays:
    """g1 (j = 1) or g3 (j = 3) on every row of a block at the row's own k
    and r, as arrays: ``gamma[i]`` is the value ``g1(row i, ks[i], r[i])``
    (or g3) computes, ``tie[i]`` whether that call raises the tie error, and
    ``stats[:, i]`` the statistics it consumed (the diagnostics of its
    Estimate). A row whose gamma is not finite raises the Estimate's own
    error instead."""

    j: int
    n: int
    ks: np.ndarray
    r: np.ndarray  # the tuning of each row, 0.0 where the r = 0 branch is taken
    gamma: np.ndarray
    tie: np.ndarray
    stats: np.ndarray = field(repr=False)

    def row(self, i: int) -> Estimate | DegenerateSampleError:
        """Row i as the per-sample call's Estimate, or the error it raises."""
        if self.tie[i]:
            return DegenerateSampleError(TIE_MESSAGE)
        r = float(self.r[i])
        names = (("g_r1", "g_r2") if r == 0.0 else ("g_r0", "g_r1"))[:1 if self.j == 1 else 2]
        spec = EstimatorSpec("g1" if self.j == 1 else "g3", int(self.ks[i]), r=r)
        try:
            return Estimate(float(self.gamma[i]), spec, self.n,
                            dict(zip(names, self.stats[:, i].tolist())))
        except DegenerateSampleError as exc:
            return exc


def generalized_arrays(block: SampleBlock, j: int, ks, r) -> GeneralizedArrays:
    """g1 (j = 1) or g3 (j = 3) on every row of a block at the row's own k
    and r (a scalar or one value per row), bit for bit the per-sample
    values; r = 0 gives the classical estimates (hill, moment_ratio)."""
    if j not in (1, 3):
        raise DomainError(f"generalized rows are defined for j in {{1, 3}}, got {j}")
    ks = np.asarray(ks, dtype=int)
    r = np.asarray(r, dtype=float)
    if r.ndim == 0:
        r = np.full(block.rows, r)
    at_zero = np.abs(r) < SMALL_R  # rows that take the exact r = 0 branch
    gamma, stats = np.empty(block.rows), np.empty((1 if j == 1 else 2, block.rows))
    for zero in (True, False):
        rows = at_zero if zero else ~at_zero
        if rows.any():
            g, v = _branch(block, j, ks, 0.0 if zero else r, zero)
            gamma[rows], stats[:, rows] = g[rows], v[:, rows]
    desc = block.sorted_desc
    tie = desc[:, 0] == desc[np.arange(block.rows), ks]
    return GeneralizedArrays(j, block.n, ks, np.where(at_zero, 0.0, r), gamma, tie, stats)


def _branch(block: SampleBlock, j: int, ks: np.ndarray, r, at_zero: bool):
    """gamma and the statistics of every row for one branch of g1/g3: the
    r = 0 one (hill, moment_ratio) or the tuned one."""
    us = (1.0, 2.0) if at_zero else (0.0, 1.0)
    g = stat_g_rows(block, ks, r, us[:1] if j == 1 else us)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if j == 1:
            gamma = g[0] if at_zero else _g1_form(g[0], r)
        else:
            gamma = _moment_ratio_form(g[0], g[1]) if at_zero else _g3_form(g[0], g[1], r)
    return gamma, g


def generalized_rows(block: SampleBlock, j: int, ks, r) -> list:
    """g1 (j = 1) or g3 (j = 3) on every row of a block at the row's own k
    and r: entry i is ``g1(row i, ks[i], r[i])`` (or g3), bit for bit, or
    the DegenerateSampleError that call raises. r = 0 gives the classical
    estimates.
    """
    rows = generalized_arrays(block, j, ks, r)
    return [rows.row(i) for i in range(block.rows)]


def hme(s: Sample, k: int, beta: float) -> Estimate:
    """Harmonic moment estimator; delegates to g1 with r = 1 - beta."""
    e = g1(s, k, 1.0 - beta)
    return Estimate(e.gamma_hat, EstimatorSpec("hme", k, r=1.0 - beta, beta=beta),
                    s.n, e.diagnostics)


def evaluate(s: Sample, spec: EstimatorSpec) -> Estimate:
    """Dispatch a spec to the matching estimator."""
    if spec.kind == "hill":
        return hill(s, spec.k)
    if spec.kind == "moment":
        return moment(s, spec.k)
    if spec.kind == "moment_ratio":
        return moment_ratio(s, spec.k)
    if spec.kind == "g1":
        return g1(s, spec.k, spec.r)
    if spec.kind == "g2":
        return g2(s, spec.k, spec.r)
    if spec.kind == "g3":
        return g3(s, spec.k, spec.r)
    if spec.kind == "hme":
        return hme(s, spec.k, spec.beta)
    raise DomainError(f"unknown estimator kind {spec.kind!r}")
