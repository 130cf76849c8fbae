"""Point estimators of the extreme value index gamma.

Seven estimators, all expressed through the statistics in :mod:`gtail.stats`:

* ``hill``, ``moment``, ``moment_ratio`` -- the classical trio (r = 0);
* ``g1`` -- generalized Hill, ``g2`` -- second Hill generalization,
  ``g3`` -- generalized moment ratio, each with a power tuning parameter r;
* ``hme`` -- harmonic moment estimator, identical to ``g1`` under the
  reparametrization r = 1 - beta.

Every estimate carries the statistics it consumed as diagnostics so that
downstream variance formulas can reuse them without recomputation.
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
# the per-sample estimators and generalized_rows.

def _moment_ratio_form(g01, g02):
    return g02 / (2.0 * g01)


def _g1_form(g_r0, r):
    return (g_r0 - 1.0) / (r * g_r0)


def _g3_form(g_r0, g_r1, r):
    return (r * g_r1 - g_r0 + 1.0) / (r * r * g_r1)


def hill(s: Sample, k: int) -> Estimate:
    """Mean log-ratio of the top k observations to the threshold."""
    g01 = stat_g(s, k, 0.0, 1.0)
    return Estimate(g01, EstimatorSpec("hill", k), s.n, {"g_r1": g01})


def moment(s: Sample, k: int) -> Estimate:
    """Dekkers-Einmahl-de Haan moment estimator (classical form, r = 0)."""
    g1_ = stat_g(s, k, 0.0, 1.0)
    g2_ = stat_g(s, k, 0.0, 2.0)
    if g1_ == 0.0:
        raise DegenerateSampleError("all top ratios tie the threshold")
    ratio = g2_ / g1_**2
    if ratio == 1.0:
        raise DegenerateSampleError("moment estimator undefined: G(k,0,2)/G(k,0,1)^2 = 1")
    gamma = g1_ + 0.5 * (1.0 - 1.0 / (ratio - 1.0))
    return Estimate(gamma, EstimatorSpec("moment", k), s.n, {"g_r1": g1_, "g_r2": g2_})


def moment_ratio(s: Sample, k: int) -> Estimate:
    """Ratio of the second to twice the first log-moment."""
    g1_ = stat_g(s, k, 0.0, 1.0)
    g2_ = stat_g(s, k, 0.0, 2.0)
    if g1_ == 0.0:
        raise DegenerateSampleError("all top ratios tie the threshold")
    return Estimate(_moment_ratio_form(g1_, g2_), EstimatorSpec("moment_ratio", k), s.n,
                    {"g_r1": g1_, "g_r2": g2_})


def g1(s: Sample, k: int, r: float) -> Estimate:
    """Generalized Hill estimator with power tuning r (r = 0 is Hill)."""
    if abs(r) < SMALL_R:
        e = hill(s, k)
        return Estimate(e.gamma_hat, EstimatorSpec("g1", k, r=0.0), s.n, e.diagnostics)
    g_r0 = stat_g(s, k, r, 0.0)
    gamma = _g1_form(g_r0, r)
    return Estimate(gamma, EstimatorSpec("g1", k, r=r), s.n, {"g_r0": g_r0})


def g2(s: Sample, k: int, r: float) -> Estimate:
    """Second generalization of the Hill estimator, built from G_n(k,r,1)."""
    g_r1 = stat_g(s, k, r, 1.0)
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
    g_r1 = stat_g(s, k, r, 1.0)
    if g_r1 == 0.0:
        raise DegenerateSampleError("all top ratios tie the threshold")
    gamma = _g3_form(g_r0, g_r1, r)
    return Estimate(gamma, EstimatorSpec("g3", k, r=r), s.n, {"g_r0": g_r0, "g_r1": g_r1})


def generalized_rows(block: SampleBlock, j: int, ks, r) -> list:
    """g1 (j = 1) or g3 (j = 3) on every row of a block at the row's own k
    and r: entry i is ``g1(row i, ks[i], r[i])`` (or g3), bit for bit, or
    the DegenerateSampleError that call raises. r = 0 gives the classical
    estimates.
    """
    if j not in (1, 3):
        raise DomainError(f"generalized_rows is defined for j in {{1, 3}}, got {j}")
    ks = np.asarray(ks, dtype=int)
    r = np.asarray(r, dtype=float)
    rs = r.tolist() if r.ndim else [float(r)] * block.rows
    at_zero = [abs(x) < SMALL_R for x in rs]  # rows that take the exact r = 0 branch
    branches = {zero: _branch_rows(block, j, ks, r, zero) for zero in set(at_zero)}
    kind = "g1" if j == 1 else "g3"
    out = []
    for i, (k, r_i, zero) in enumerate(zip(ks.tolist(), rs, at_zero)):
        gamma, tie, diagnostics = branches[zero]
        if tie[i]:
            out.append(DegenerateSampleError("all top ratios tie the threshold"))
            continue
        spec = EstimatorSpec(kind, k, r=0.0 if zero else r_i)
        try:
            out.append(Estimate(gamma[i], spec, block.n, diagnostics[i]))
        except DegenerateSampleError as exc:
            out.append(exc)
    return out


def _branch_rows(block: SampleBlock, j: int, ks: np.ndarray, r: np.ndarray, at_zero: bool):
    """Per row, as lists: gamma, whether it ties the threshold, and the
    diagnostics, for one branch of g1/g3: the r = 0 one (hill,
    moment_ratio) or the tuned one."""
    if at_zero:
        names, us, r = ("g_r1", "g_r2"), (1.0, 2.0), 0.0
    else:
        names, us = ("g_r0", "g_r1"), (0.0, 1.0)
    if j == 1:
        names, us = names[:1], us[:1]
    g = stat_g_rows(block, ks, r, us)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if j == 1:
            gamma = g[0] if at_zero else _g1_form(g[0], r)
        else:
            gamma = _moment_ratio_form(g[0], g[1]) if at_zero else _g3_form(g[0], g[1], r)
    # moment_ratio and g3 divide by the u = 1 statistic
    tie = [False] * block.rows if j == 1 else (g[names.index("g_r1")] == 0.0).tolist()
    return gamma.tolist(), tie, [dict(zip(names, col)) for col in g.T.tolist()]


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
