"""Point estimators of the extreme value index gamma.

Seven estimators, all expressed through the statistics in :mod:`gtail.stats`:

* ``hill``, ``moment``, ``moment_ratio`` -- the classical trio (r = 0);
* ``g1`` -- generalized Hill, ``g2`` -- second Hill generalization,
  ``g3`` -- generalized moment ratio, each with a power tuning parameter r;
* ``hme`` -- harmonic moment estimator, identical to ``g1`` under the
  reparametrization r = 1 - beta.

Each kind is written once, in one table of the u it reads and its closed
form. The per-sample estimators and ``evaluate`` are the one place an
Estimate or an estimator's error is made; the array form,
:func:`estimate_arrays`, returns only the estimates at many (row, k, tuning)
triples of a block, NaN where the per-sample call raises.

What a call reads (its canonical spec, the r and us of its statistics,
its closed form) is looked up in a cache keyed by the call's kind, k and
tuning, their types and the sign of a zero tuning included. The canonical
spec, the Estimate's, has r = 0.0 on the r = 0 branches (the classical
kinds, and g1 and g3 at |r| < SMALL_R, -0.0 included), r = 1 - beta for
hme, and beta None for every other kind. A tuning may be any real number
and is read as a float, so a per-sample estimate is estimate_arrays', bit
for bit; any other tuning, or one beyond a double, is a DomainError.

An Estimate holds gamma_hat, the canonical spec and the sample size n; the
statistics it was computed from are, bit for bit, those that
:func:`gtail.stats.stat_g` and :meth:`SampleBlock.g_record` give at the
kind's u. Every estimator raises DegenerateSampleError at a tail size k
whose top k values all tie the threshold X_(k+1), where no estimate is
defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateSampleError, DomainError
from .stats import SMALL_R, Sample, SampleBlock, int_array, stat_g_rows


@dataclass(frozen=True)
class EstimatorSpec:
    """An estimator kind at an int tail size k and finite real tunings (r,
    and beta for hme); anything else is a DomainError."""

    kind: str
    k: int
    r: float = 0.0
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown estimator kind {self.kind!r}")
        if not isinstance(self.k, (int, np.integer)):
            raise DomainError(f"k must be an int, got {self.k!r}")
        if self.kind == "hme" and self.beta is None:
            raise DomainError("hme requires beta")
        if self.beta is not None:
            _real("beta", self.beta)
        _real("r", self.r)


def _real(name: str, value, finite: bool = True) -> float:
    """A tuning as a float; a DomainError where it is not a real number (a
    str, None, a list, a complex number of any type), is beyond a double
    or, with finite, is not finite."""
    if not isinstance(value, (float, int)) and np.iscomplexobj(value):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        if math.isfinite(value) or not finite:
            return float(value)
    except (TypeError, OverflowError):
        raise DomainError(f"{name} must be a real number that fits a double, got {value!r}") from None
    raise DomainError(f"{name} must be finite, got {value}")


@dataclass(frozen=True, init=False)
class Estimate:
    gamma_hat: float
    spec: EstimatorSpec
    n: int

    def __init__(self, gamma_hat: float, spec: EstimatorSpec, n: int):
        """The three fields stored straight into the instance dict, in field
        order (a frozen dataclass's generated __init__ makes one
        object.__setattr__ call per field); a gamma_hat that is not finite
        is a DegenerateSampleError."""
        if not math.isfinite(gamma_hat):
            raise DegenerateSampleError(f"non-finite estimate {gamma_hat}")
        fields = self.__dict__
        fields["gamma_hat"] = gamma_hat
        fields["spec"] = spec
        fields["n"] = n


#: The error of every estimator at a tail size whose top k values all equal
#: the threshold X_(k+1): each log-ratio is 0, so no estimate is defined.
TIE_MESSAGE = "all top ratios tie the threshold"


def _quotient(num: float, den: float) -> float:
    """num / den, with the IEEE result (inf or NaN) also for a den of 0,
    where Python raises ZeroDivisionError."""
    if den == 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.float64(num) / den)
    return num / den


# The closed forms, in the statistics g a kind reads and its tuning r (0.0
# on the r = 0 branch). They run on Python floats, as numpy's square can
# differ from Python's x**2 in the last bit, and raise the typed error where
# the estimate is undefined.

def _moment(g, r):
    g1_, g2_ = g
    ratio = g2_ / g1_**2
    if ratio == 1.0:
        raise DegenerateSampleError("moment estimator undefined: G(k,0,2)/G(k,0,1)^2 = 1")
    return g1_ + 0.5 * (1.0 - 1.0 / (ratio - 1.0))


def _g1(g, r):
    return g[0] if r == 0.0 else _quotient(g[0] - 1.0, r * g[0])


def _g2(g, r):
    (g_r1,) = g
    if g_r1 == 0.0:  # a top ratio above the threshold makes it positive
        raise DegenerateSampleError(f"G(k, r, 1) underflows to 0 at r = {r}")
    disc = 4.0 * r * g_r1 + 1.0
    if disc < 0.0:
        raise DomainError(f"g2 discriminant negative: 4*r*G(k,r,1)+1 = {disc}")
    return 2.0 * g_r1 / (2.0 * r * g_r1 + 1.0 + math.sqrt(disc))


def _g3(g, r):
    if r == 0.0:
        return g[1] / (2.0 * g[0])
    return _quotient(r * g[1] - g[0] + 1.0, r * r * g[1])


#: kind -> (the u of the statistics G(k, r, u) it reads at r = 0, the u it
#: reads at a tuning r, its closed form); None where the kind has no such
#: branch. A kind with both takes the r = 0 branch for |r| below SMALL_R,
#: where the cancellation in x^r - 1 destroys precision. hill and
#: moment_ratio are g1 and g3 at r = 0; hme is g1 at r = 1 - beta. Each
#: tuple of u is a run of consecutive u, so one slice of a record (see
#: SampleBlock.g_record) holds the statistics it names.
_KINDS = {
    "hill": ((1,), None, _g1),
    "moment": ((1, 2), None, _moment),
    "moment_ratio": ((1, 2), None, _g3),
    "g1": ((1,), (0,), _g1),
    "g2": (None, (1,), _g2),
    "g3": ((1, 2), (0, 1), _g3),
    "hme": ((1,), (0,), _g1),
}
KINDS = tuple(_KINDS)
#: The kind of the paper's estimator j.
KIND_OF_J = {1: "g1", 2: "g2", 3: "g3"}
#: The paper's estimator j whose closed form each kind shares (moment has
#: none): hill and hme are g1's, moment_ratio is g3's.
J_OF_KIND = {kind: j for kind, (_, _, form) in _KINDS.items()
             for j, g in KIND_OF_J.items() if _KINDS[g][2] is form}


def _branch(kind: str, param):
    """Whether kind takes its r = 0 branch at a parameter (r, or beta for
    hme), and its tuning r (array-safe)."""
    at_zero, tuned, _ = _KINDS[kind]
    r = 1.0 - param if kind == "hme" else param
    return tuned is None or (at_zero is not None and abs(r) < SMALL_R), r


@lru_cache(maxsize=4096, typed=True)
def _plan(kind: str, k: int, param, _sign) -> tuple:
    """kind at (k, param): (the canonical spec, the float r its statistics
    and closed form read, 0.0 on the r = 0 branch, the slice of the record
    at that r that holds the u it reads, its closed form). The spec, with
    param as given, is made here, so a k that is not an int or a tuning that
    is not a finite real number raises its DomainError before the sample is
    read. _sign, the sign of param, is only a part of the cache key: 0.0 and
    -0.0 are equal keys, but g2 and hme keep the sign in their spec."""
    hme = kind == "hme"
    zero, r = _branch(kind, _real("beta" if hme else "r", param))
    spec = EstimatorSpec(kind, k, r if hme else 0.0 if zero else param, param if hme else None)
    at_zero, tuned, form = _KINDS[kind]
    us = at_zero if zero else tuned
    return spec, 0.0 if zero else r, slice(us[0], us[-1] + 1), form


def _one(s: Sample, kind: str, k: int, param) -> Estimate:
    """kind at (k, param) on a sample: the one place an Estimate, or an
    estimator's error, is made."""
    # the sign of any other type is read from _real's float, so that a
    # complex param is its DomainError, with no ComplexWarning
    x = param if isinstance(param, (float, int)) else _real("beta" if kind == "hme" else "r", param)
    try:
        spec, r, us, form = _plan(kind, k, param, math.copysign(1.0, x))
    except (TypeError, OverflowError):  # an unhashable k or param, or a param beyond a double or not real
        spec, r, us, form = _plan.__wrapped__(kind, k, param, None)
    record, tie = s.g_record(k, r)
    if tie:
        raise DegenerateSampleError(TIE_MESSAGE)
    return Estimate(form(record[us], r), spec, s.n)


def _gamma(form, g: list, r: float) -> float:
    """A closed form's estimate, NaN where it raises."""
    try:
        return form(g, r)
    except (DegenerateSampleError, DomainError):
        return math.nan


def estimate_arrays(s: SampleBlock, kind: str, rows, ks, params) -> np.ndarray:
    """kind's gamma_hat at every (row, k, param) triple of a block (a Sample
    is the block whose one row is 0); rows, ks and params broadcast to one 1-D
    shape, and rows may repeat. param is the r of g1, g2 and g3 and the beta
    of hme; the classical kinds ignore its value. Each estimate is, bit for
    bit, the per-sample call's, NaN where that call raises or param is not
    finite; a row or k that is not integral, a k outside [2, n-1], a row
    outside the block or a param that is not a real number (complex, a str,
    None) in any triple raises its DomainError for the whole call, the
    per-sample call's for that param where it is not complex.
    """
    if kind not in _KINDS:
        raise DomainError(f"unknown estimator kind {kind!r}")
    params = np.asarray(params)
    if params.dtype.kind == "c" or params.dtype.kind == "O" and any(map(np.iscomplexobj, params.flat)):
        raise DomainError(f"params must be real numbers, got a complex {params.dtype} array")
    if params.dtype.kind not in "biuf":  # each param as the per-sample call reads it
        for param in params.ravel().tolist():
            _real("beta" if kind == "hme" else "r", param, finite=False)
    rows, ks, params = (np.atleast_1d(a) for a in np.broadcast_arrays(
        int_array(rows, "row"), int_array(ks, "k"), np.asarray(params, dtype=float)))
    zero, r = _branch(kind, params)
    zero = zero | np.zeros(r.size, dtype=bool)
    at_zero, tuned, form = _KINDS[kind]
    taken = np.count_nonzero(zero)
    if not r.size:
        stats = np.empty((len(at_zero or tuned), 0))
    elif taken == r.size:  # all triples in one branch, the common case: no copies of a mask
        stats = stat_g_rows(s, rows, ks, 0.0, at_zero)
    elif not taken:
        stats = stat_g_rows(s, rows, ks, r, tuned)
    else:
        stats = np.empty((len(at_zero), r.size))
        stats[:, zero] = stat_g_rows(s, rows[zero], ks[zero], 0.0, at_zero)
        stats[:, ~zero] = stat_g_rows(s, rows[~zero], ks[~zero], r[~zero], tuned)
    r = np.where(zero, 0.0, r)
    tie = s.desc[rows, 0] == s.desc[rows, ks]
    gamma = np.array([math.nan if t else _gamma(form, g, x)
                      for t, g, x in zip(tie.tolist(), stats.T.tolist(), r.tolist())])
    gamma[~np.isfinite(gamma)] = math.nan
    return gamma


def hill(s: Sample, k: int) -> Estimate:
    """Mean log-ratio of the top k observations to the threshold."""
    return _one(s, "hill", k, 0.0)


def moment(s: Sample, k: int) -> Estimate:
    """Dekkers-Einmahl-de Haan moment estimator (classical form, r = 0)."""
    return _one(s, "moment", k, 0.0)


def moment_ratio(s: Sample, k: int) -> Estimate:
    """Ratio of the second to twice the first log-moment."""
    return _one(s, "moment_ratio", k, 0.0)


def g1(s: Sample, k: int, r: float) -> Estimate:
    """Generalized Hill estimator with power tuning r (r = 0 is Hill)."""
    return _one(s, "g1", k, r)


def g2(s: Sample, k: int, r: float) -> Estimate:
    """Second generalization of the Hill estimator, built from G_n(k,r,1)."""
    return _one(s, "g2", k, r)


def g3(s: Sample, k: int, r: float) -> Estimate:
    """Generalized moment-ratio estimator (r = 0 is the moment ratio)."""
    return _one(s, "g3", k, r)


def hme(s: Sample, k: int, beta: float) -> Estimate:
    """Harmonic moment estimator: g1's closed form at r = 1 - beta."""
    return _one(s, "hme", k, beta)


#: Each kind's estimator as a call on a sample and a spec. Every entry looks
#: its function up when called, so that a wrapped module function is the one
#: evaluate runs.
_EVALUATE = {
    "hill": lambda s, spec: hill(s, spec.k),
    "moment": lambda s, spec: moment(s, spec.k),
    "moment_ratio": lambda s, spec: moment_ratio(s, spec.k),
    "g1": lambda s, spec: g1(s, spec.k, spec.r),
    "g2": lambda s, spec: g2(s, spec.k, spec.r),
    "g3": lambda s, spec: g3(s, spec.k, spec.r),
    "hme": lambda s, spec: hme(s, spec.k, spec.beta),
}


def evaluate(s: Sample, spec: EstimatorSpec) -> Estimate:
    """Dispatch a spec to the matching estimator."""
    return _EVALUATE[spec.kind](s, spec)
