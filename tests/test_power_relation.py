"""The power relation: a sample raised to a power c has c times its tail index.

Under X -> X^c each log-ratio log(X_(i) / X_(k+1)) is c times X's, so
G(k, r/c, u) of X^c is c^u G(k, r, u) of X, and for hill, moment_ratio, g1,
g2, g3 and hme, est(X^c, k, r/c) = c * est(X, k, r), with
beta' = 1 - (1 - beta)/c for hme (whose r is 1 - beta); where est(X, k, r)
raises, est(X^c, k, r/c) raises the same class. The second-order step
reads ratios of these statistics, so rho_hat and beta_hat are invariant;
so are the tail sizes, which do not depend on gamma, while the tuning
r = R*/gamma_c scales by 1/c and both estimates by c.

moment is excluded: it is M1 + 1 - (1 - M1^2/M2)^-1 / 2, and its second
term is invariant under X -> X^c, not scaled, so moment(X^c) is not
c * moment(X) (only its gamma > 0 limit M1 scales).

Every property runs under Hypothesis with a fixed seed and no example
database, on Burr, Kumaraswamy and Pareto samples; X^c is computed in
floating point, so the relation holds to a relative tolerance.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import event, given, note, seed, settings
from hypothesis import strategies as st

from gtail import estimators as est
from gtail import secondorder as so
from gtail.asymptotics import r_star, tail_size
from gtail.distributions import DistSpec, draw_block, sample
from gtail.errors import DegenerateSampleError, DomainError
from gtail.stats import SMALL_R, Sample, SampleBlock

#: Relative tolerance of the relation. The largest error measured in 4000
#: random cases (hill, moment_ratio and g2 at any tuning, g1, g3 and hme at
#: |gamma_hat r| >= 0.1) was 4e-14.
RTOL = 1e-12

SETTINGS = settings(max_examples=200, deadline=None, database=None)


@st.composite
def dists(draw):
    family = draw(st.sampled_from(("burr", "kumaraswamy", "pareto")))
    gamma = draw(st.floats(0.1, 2.0))
    rho = None if family == "pareto" else draw(st.floats(-3.0, -0.25))
    return DistSpec(family, gamma, rho)


def outcome(fn):
    """fn()'s gamma_hat, or the class of the typed error it raises."""
    try:
        return fn().gamma_hat
    except (DegenerateSampleError, DomainError) as exc:
        return type(exc)


def tolerance(kind: str, tuned: bool, R: float) -> float:
    """RTOL, widened on the tuned branch of g1, hme and g3 where it cancels.

    There the closed forms read G(k, r, 0) - 1, about R = gamma_hat * r,
    from terms exp(r L) rounded to 1e-16, so each side of the relation
    loses digits to it independently: in proportion to 1/|R| for g1 and hme
    (the closed form's numerator) and to 1/R^2 for g3, whose numerator
    r G(k, r, 1) - G(k, r, 0) + 1 cancels to second order. Below
    |R| = 0.1 the tolerance grows by that factor.
    """
    order = {"g1": 1, "hme": 1, "g3": 2}.get(kind, 0) if tuned else 0
    return RTOL * max(1.0, (0.1 / abs(R)) ** order) if order else RTOL


@seed(20240)
@SETTINGS
@given(d=dists(), n=st.integers(10, 2000), stream=st.integers(0, 2**32 - 1),
       c=st.floats(1 / 8, 8.0), k_at=st.floats(0.0, 1.0), r=st.floats(-4.0, 4.0))
def test_estimators_scale_by_c(d, n, stream, c, k_at, r):
    """est(X^c, k, r/c) = c * est(X, k, r) for hill, moment_ratio, g1, g2,
    g3 and hme, or both raise the same class. A tuning whose |r| and |r/c|
    lie on two sides of SMALL_R takes the r = 0 branch on one side only, by
    design, and is skipped (hme's r too)."""
    if (abs(r) < SMALL_R) != (abs(r / c) < SMALL_R):
        return
    s = sample(d, n, 1, stream_key=(stream,))
    powered = Sample.from_values(s.values**c)
    k = 2 + int(k_at * (n - 3))
    hill = outcome(lambda: est.hill(s, k))
    calls = {
        "hill": (lambda x: est.hill(x, k), None),
        "moment_ratio": (lambda x: est.moment_ratio(x, k), None),
        "g1": (lambda x, r: est.g1(x, k, r), r),
        "g2": (lambda x, r: est.g2(x, k, r), r),
        "g3": (lambda x, r: est.g3(x, k, r), r),
    }
    beta = 1.0 - r  # hme's r is 1 - beta
    for kind, (fn, tuning) in calls.items():
        if tuning is None:
            want, got = outcome(lambda: fn(s)), outcome(lambda: fn(powered))
        else:
            want, got = outcome(lambda: fn(s, tuning)), outcome(lambda: fn(powered, tuning / c))
        check(kind, want, got, c, tuning, hill)
    if (abs(1.0 - beta) < SMALL_R) == (abs((1.0 - beta) / c) < SMALL_R):
        want = outcome(lambda: est.hme(s, k, beta))
        check("hme", want, outcome(lambda: est.hme(powered, k, 1.0 - (1.0 - beta) / c)), c, 1.0 - beta, hill)


def check(kind, want, got, c, tuning, hill):
    """got = c * want within the kind's tolerance, or both the same error
    class; tuning is the r the kind reads, None for a classical kind."""
    note(f"{kind}: {want!r} -> {got!r}")
    if isinstance(want, type):
        assert got is want, kind
        return
    assert isinstance(got, float), kind
    tuned = tuning is not None and abs(tuning) >= SMALL_R and kind != "g2"
    rtol = tolerance(kind, tuned, tuning * hill if tuned else 0.0)
    assert math.isclose(got, c * want, rel_tol=rtol, abs_tol=0.0 if want else 1e-300), kind


#: The PipelineArrays fields that the power relation leaves unchanged, and
#: those it scales, with their factor as a function of c.
EXACT = ("tau", "k_c", "k_g", "failed_step")
SCALED = {"gamma_c": lambda c: c, "gamma_g": lambda c: c, "r": lambda c: 1 / c,
          "rho": lambda c: 1.0, "beta": lambda c: 1.0}


def near_half_integer(a: so.PipelineArrays, n: int) -> np.ndarray:
    """Per row, whether the real classical or tuned tail size lies within
    1e-9 of a half-integer, where X^c may round it the other way."""
    R = np.array([r_star(x, a.j) if x < 0 else math.nan for x in a.rho.tolist()])
    near = np.zeros(a.rho.size, dtype=bool)
    with np.errstate(invalid="ignore"):
        for k in (tail_size(0.0, a.rho, a.beta, a.j, n), tail_size(R, a.rho, a.beta, a.j, n)):
            near |= np.abs(k - np.floor(k) - 0.5) < 1e-9
    return near


def powered_pipelines(d, n, stream, c):
    """adaptive_arrays of a 6-row block of d and of the block to the power c."""
    values = draw_block(d, n, 1, [(stream, i) for i in range(6)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # rho clamps, of the same rows in both
        return (so.adaptive_arrays(SampleBlock.from_values(values)),
                so.adaptive_arrays(SampleBlock.from_values(values**c)))


PIPELINE = dict(d=dists(), n=st.integers(100, 1500), stream=st.integers(0, 2**32 - 1),
                c=st.floats(1 / 8, 8.0))


@seed(20240)
@SETTINGS
@given(**PIPELINE)
def test_pipeline_tail_sizes_and_classical_estimates(d, n, stream, c):
    """adaptive_arrays on X^c gives each row the same tau, tail sizes and
    failed step, and its classical estimate times c. Rows whose real tail
    size lies within 1e-9 of a half-integer are exempt and counted."""
    whole, powered = powered_pipelines(d, n, stream, c)
    for j in (1, 3):
        a, b = whole[j], powered[j]
        keep = ~near_half_integer(a, n)
        event(f"rows exempt at a half-integer tail size: {np.count_nonzero(~keep)}")
        for name in EXACT:
            assert np.array_equal(getattr(b, name)[keep], getattr(a, name)[keep], equal_nan=True), (j, name)
        ok = keep & np.isfinite(a.gamma_c)
        assert np.array_equal(np.isfinite(b.gamma_c[keep]), np.isfinite(a.gamma_c[keep])), j
        assert np.allclose(b.gamma_c[ok], c * a.gamma_c[ok], rtol=RTOL, atol=0.0), j


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the rho sweep sums raw logs, log X_(i), not log-ratios, so its moments "
    "cancel differently under X^c: on a Pareto (0.67) sample of 1997 at "
    "c = 0.877 its path moves by up to 1e-10 relative, where rho_hat from "
    "the log-ratio statistics moves by 6e-12; beta_hat moves by more near "
    "beta = 0, where it cancels"))
@pytest.mark.parametrize("d, n, stream, c", [
    (DistSpec("pareto", 1.0), 100, 845, 0.5),  # beta_hat 8.4e-4 moves by 2.7e-12
    (DistSpec("pareto", 0.67), 1500, 3, 0.877),  # rho_hat moves by 2.7e-12
])
def test_pipeline_second_order_step_is_invariant(d, n, stream, c):
    """rho_hat and beta_hat of X^c are X's, so r scales by 1/c and the
    tuned estimate by c, each within RTOL. It fails (see the xfail reason)
    on blocks that the strategy above draws: the first is the example
    Hypothesis found with it. These are fixed cases, not a Hypothesis test,
    so that the expected failure writes no patch file on every run; the
    strict mark makes a fix that lets one pass remove the mark."""
    whole, powered = powered_pipelines(d, n, stream, c)
    for j in (1, 3):
        a, b = whole[j], powered[j]
        keep = ~near_half_integer(a, n)
        for name, factor in SCALED.items():
            want, got = getattr(a, name)[keep] * factor(c), getattr(b, name)[keep]
            assert np.array_equal(np.isfinite(got), np.isfinite(want)), (j, name)
            ok = np.isfinite(want)
            assert np.allclose(got[ok], want[ok], rtol=RTOL, atol=0.0), (j, name)
