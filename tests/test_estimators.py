import copy
import dataclasses
import math
import pickle
from dataclasses import FrozenInstanceError
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtail import estimators as est
from gtail.distributions import DistSpec, sample
from gtail.errors import DegenerateSampleError, DomainError
from gtail.stats import SMALL_R, Sample, SampleBlock, stat_g

E = math.e


def sample_1_e_e2():
    return Sample.from_values([1.0, E, E * E])


def row_samples(block):
    """One Sample per row of a block."""
    return [Sample.from_values(v) for v in block.values]


def random_samples(count, seed=101):
    """Mixed corpus of positive-valued samples of varying size."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(10, 1001))
        kind = rng.integers(0, 3)
        if kind == 0:
            v = rng.pareto(rng.uniform(0.5, 2.0), size=n) + 1.0
        elif kind == 1:
            v = rng.lognormal(0.0, 1.0, size=n)
        else:
            v = rng.uniform(0.1, 50.0, size=n)
        out.append(Sample.from_values(v))
    return out


class TestHill:
    def test_frozen_example(self):
        assert est.hill(sample_1_e_e2(), 2).gamma_hat == pytest.approx(1.5, rel=1e-15)

    def test_geometric_sample(self):
        for c in (1.5, 2.0, 7.0):
            s = Sample.from_values([1.0, c, c * c])
            assert est.hill(s, 2).gamma_hat == pytest.approx(1.5 * math.log(c), rel=1e-12)


class TestMoment:
    def test_frozen_example(self):
        assert est.moment(sample_1_e_e2(), 2).gamma_hat == pytest.approx(-2.5, rel=1e-12)

    def test_all_equal_top_values(self):
        s = Sample.from_values([1.0, 3.0, 3.0, 3.0])
        with pytest.raises(DegenerateSampleError):
            est.moment(s, 2)


class TestMomentRatio:
    def test_frozen_example(self):
        assert est.moment_ratio(sample_1_e_e2(), 2).gamma_hat == pytest.approx(2.5 / 3.0, rel=1e-14)

    def test_equal_log_ratios(self):
        # log-ratios {a, a} give a/2
        a = 0.7
        s = Sample.from_values([1.0, math.exp(a), math.exp(a)])
        assert est.moment_ratio(s, 2).gamma_hat == pytest.approx(a / 2.0, rel=1e-12)

    def test_degenerate(self):
        s = Sample.from_values([2.0, 2.0, 2.0, 2.0])
        with pytest.raises(DegenerateSampleError):
            est.moment_ratio(s, 2)


class TestG1:
    def test_frozen_example(self):
        g = stat_g(sample_1_e_e2(), 2, 1.0, 0.0)
        expected = (g - 1.0) / g
        e = est.g1(sample_1_e_e2(), 2, 1.0)
        assert e.gamma_hat == pytest.approx(expected, rel=1e-14)
        assert e.gamma_hat == pytest.approx(0.802124, abs=1e-6)

    def test_r_zero_is_hill(self):
        s = sample_1_e_e2()
        assert est.g1(s, 2, 0.0).gamma_hat == est.hill(s, 2).gamma_hat


class TestG2:
    def test_closed_form_value(self):
        # pick a sample, read G(k,r,1) through stat_g, check the formula
        rng = np.random.default_rng(2)
        s = Sample.from_values(rng.pareto(1.0, size=100) + 1.0)
        r = 0.3
        e = est.g2(s, 30, r)
        g = stat_g(s, 30, r, 1.0)
        expected = 2 * g / (2 * r * g + 1 + math.sqrt(4 * r * g + 1))
        assert e.gamma_hat == pytest.approx(expected, rel=1e-14)

    def test_hand_value(self):
        # G(k,r,1)=2, r=1 gives 4/(4+1+3) = 0.5; engineer the statistic via a
        # direct formula evaluation instead of a sample
        g, r = 2.0, 1.0
        assert 2 * g / (2 * r * g + 1 + math.sqrt(4 * r * g + 1)) == 0.5

    def test_discriminant_error(self):
        # top values clustered at exp(-1/r) over the threshold maximize
        # x^r ln x, pushing 4*r*G(k,r,1) + 1 below zero for strongly negative r
        r = -50.0
        s = Sample.from_values([1.0] + [math.exp(-1.0 / r)] * 5)
        with pytest.raises(DomainError, match="g2 discriminant negative"):
            est.g2(s, 5, r)
        assert np.isnan(est.estimate_arrays(s, "g2", 0, 5, r)).tolist() == [True]


class TestG3:
    def test_r_zero_is_moment_ratio(self):
        s = sample_1_e_e2()
        assert est.g3(s, 2, 0.0).gamma_hat == est.moment_ratio(s, 2).gamma_hat

    def test_hand_value(self):
        # G(k,r,1)=2, G(k,r,0)=3, r=1 gives (2-3+1)/2 = 0
        g1_, g0 = 2.0, 3.0
        assert (1.0 * g1_ - g0 + 1.0) / (1.0**2 * g1_) == 0.0

    def test_formula_against_stat_g(self):
        rng = np.random.default_rng(6)
        s = Sample.from_values(rng.pareto(1.0, size=200) + 1.0)
        r = -0.4
        e = est.g3(s, 60, r)
        g_r0, g_r1 = stat_g(s, 60, r, 0.0), stat_g(s, 60, r, 1.0)
        expected = (r * g_r1 - g_r0 + 1.0) / (r * r * g_r1)
        assert e.gamma_hat == pytest.approx(expected, rel=1e-14)


def hme_oracle(s, k, beta):
    """Independent coding of the harmonic-moment definition."""
    inv_ratios = s.sorted_desc[k] / s.sorted_desc[:k]
    if beta == 1.0:
        return float(np.mean(np.log(1.0 / inv_ratios)))
    inner = np.mean(inv_ratios ** (beta - 1.0))
    return (1.0 / inner - 1.0) / (beta - 1.0)


class TestHme:
    def test_beta_one_is_hill(self):
        s = sample_1_e_e2()
        assert est.hme(s, 2, 1.0).gamma_hat == est.hill(s, 2).gamma_hat

    def test_spec_keeps_beta(self):
        s = sample_1_e_e2()
        e = est.hme(s, 2, 0.6)
        assert e.spec == est.EstimatorSpec("hme", 2, r=1.0 - 0.6, beta=0.6)
        g_r0 = stat_g(s, 2, e.spec.r, 0.0)
        assert e.gamma_hat == est.g1(s, 2, 1.0 - 0.6).gamma_hat == (g_r0 - 1.0) / (e.spec.r * g_r0)

    def test_identity_with_g1(self):
        for s in random_samples(30, seed=55):
            k = max(2, s.n // 3)
            for r in (-1.0, -0.3, 0.3, 0.5):
                a = est.hme(s, k, 1.0 - r).gamma_hat
                b = est.g1(s, k, r).gamma_hat
                # the 1 - (1 - r) round trip can perturb the last bit of r
                assert a == pytest.approx(b, rel=1e-12)

    def test_identity_against_independent_oracle(self):
        for s in random_samples(30, seed=56):
            k = max(2, s.n // 3)
            for beta in (2.0, 1.3, 0.7, 0.5):
                a = est.hme(s, k, beta).gamma_hat
                b = hme_oracle(s, k, beta)
                assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("kind, param, branch", [
    ("hill", 0.0, "zero"), ("moment", 0.0, "zero"), ("moment_ratio", 0.0, "zero"),
    ("g1", 0.0, "zero"), ("g1", -SMALL_R / 2, "zero"), ("g1", 0.3, "tuned"), ("g1", -0.7, "tuned"),
    ("g2", 0.0, "tuned"), ("g2", -0.0, "tuned"), ("g2", 0.3, "tuned"), ("g2", -0.4, "tuned"),
    ("g3", 0.0, "zero"), ("g3", SMALL_R / 3, "zero"), ("g3", -0.4, "tuned"), ("g3", 0.5, "tuned"),
    ("hme", 1.0, "zero"), ("hme", 1.0 + SMALL_R / 2, "zero"), ("hme", 0.6, "tuned"), ("hme", 1.7, "tuned"),
])
def test_each_branch_is_its_closed_form_of_stat_g(kind, param, branch):
    """Each kind, on each of its branches, gives bit for bit its closed form
    applied to stat_g's G(k, r, u) at the u that branch reads: at r = 0.0 on
    the r = 0 branch, and at the r of the estimate's spec (1 - beta for hme)
    on the tuned one."""
    s = Sample.from_values(np.random.default_rng(12).pareto(1.0, 500) + 1.0)
    at_zero, tuned, form = est._KINDS[kind]
    us = at_zero if branch == "zero" else tuned
    fn = getattr(est, kind)
    for k in (2, 40, 40, 300, 499):
        e = fn(s, k) if kind in ("hill", "moment", "moment_ratio") else fn(s, k, param)
        r = 0.0 if branch == "zero" else e.spec.r
        assert kind == "hme" or e.spec.r == r
        g = tuple(stat_g(s, k, r, float(u)) for u in us)
        assert np.float64(e.gamma_hat).tobytes() == np.float64(form(g, r)).tobytes()


class TestPlanCache:
    """What a call reads, its canonical spec included, is cached by the
    call's kind, k and tuning, their types and the sign of a zero tuning."""

    @staticmethod
    def _sample():
        return Sample.from_values(np.random.default_rng(8).pareto(1.0, 60) + 1.0)

    @staticmethod
    def _param(spec):
        if spec.kind in ("hill", "moment", "moment_ratio"):
            return []
        return [spec.beta if spec.kind == "hme" else spec.r]

    @pytest.mark.parametrize("given, want", [
        (est.EstimatorSpec("hill", 10, r=0.3), est.EstimatorSpec("hill", 10)),
        (est.EstimatorSpec("hill", 10, r=0), est.EstimatorSpec("hill", 10)),
        (est.EstimatorSpec("moment_ratio", 10, beta=0.5), est.EstimatorSpec("moment_ratio", 10)),
        (est.EstimatorSpec("g1", 10, r=0), est.EstimatorSpec("g1", 10, r=0.0)),
        (est.EstimatorSpec("g1", 10, r=np.float64(0.0)), est.EstimatorSpec("g1", 10, r=0.0)),
        (est.EstimatorSpec("g1", 10, r=-0.0), est.EstimatorSpec("g1", 10, r=0.0)),
        (est.EstimatorSpec("g1", 10, r=SMALL_R / 2), est.EstimatorSpec("g1", 10, r=0.0)),
        (est.EstimatorSpec("g3", 10, r=-0.0), est.EstimatorSpec("g3", 10, r=0.0)),
        (est.EstimatorSpec("g3", 10, r=-SMALL_R / 3), est.EstimatorSpec("g3", 10, r=0.0)),
        (est.EstimatorSpec("g3", 10, r=0.3, beta=0.7), est.EstimatorSpec("g3", 10, r=0.3)),
        (est.EstimatorSpec("hme", 10, beta=0.6), est.EstimatorSpec("hme", 10, r=1.0 - 0.6, beta=0.6)),
        (est.EstimatorSpec("hme", 10, r=0.3, beta=1.0 - SMALL_R / 2),
         est.EstimatorSpec("hme", 10, r=1.0 - (1.0 - SMALL_R / 2), beta=1.0 - SMALL_R / 2)),
    ])
    def test_a_spec_that_is_not_canonical_is_replaced(self, given, want):
        """hill carries r = 0.0 whatever r it is given, g1 and g3 with
        |r| < SMALL_R carry +0.0 (from 0, np.float64(0.0) and -0.0 too),
        hme carries r = 1 - beta, and only hme keeps a beta; the Estimate is
        that of the per-kind call, on every field."""
        s = self._sample()
        e = est.evaluate(s, given)
        assert e.spec == want and type(e.spec.r) is float
        assert math.copysign(1.0, e.spec.r) == math.copysign(1.0, want.r)
        alone = getattr(est, given.kind)(Sample.from_values(s.values), given.k, *self._param(given))
        assert e == alone and np.float64(e.gamma_hat).tobytes() == np.float64(alone.gamma_hat).tobytes()
        assert est.evaluate(s, given).spec is e.spec  # one plan per (kind, k, tuning)

    @pytest.mark.parametrize("spec", [
        est.EstimatorSpec("hill", 10), est.EstimatorSpec("moment", np.int64(10)),
        est.EstimatorSpec("moment_ratio", 10), est.EstimatorSpec("g1", 10, r=0.3),
        est.EstimatorSpec("g2", 10, r=0.0), est.EstimatorSpec("g2", 10, r=-0.0),
        est.EstimatorSpec("g2", 10, r=np.float64(0.5)), est.EstimatorSpec("g2", 10, r=1),
        est.EstimatorSpec("g3", 10, r=-0.4), est.EstimatorSpec("hme", 10, beta=1.0),
        est.EstimatorSpec("hme", 10, r=1.0, beta=0.0), est.EstimatorSpec("hme", 10, r=1.0, beta=-0.0),
    ])
    def test_a_canonical_spec_is_carried_on_every_field(self, spec):
        """Equal on every field, the types of k, r and beta and the sign of a
        zero r or beta included, whichever equal tuning came first."""
        s = self._sample()
        for first in (0.0, -0.0):  # fill the cache with the other zero first
            getattr(est, spec.kind)(s, spec.k, *[first for _ in self._param(spec)])
            got = est.evaluate(s, spec).spec
            assert got == spec
            for f in ("k", "r", "beta"):
                assert type(getattr(got, f)) is type(getattr(spec, f))
            assert math.copysign(1.0, got.r) == math.copysign(1.0, spec.r)
            if spec.beta is not None:
                assert math.copysign(1.0, got.beta) == math.copysign(1.0, spec.beta)

    def test_arguments_the_cache_cannot_key_raise_as_before(self):
        """An unhashable k or a tuning that is not a real number skips the
        cache, and its call raises its own error."""
        s = self._sample()
        with pytest.raises(DomainError, match=r"k must be an int, got \[10\]"):
            est.hill(s, [10])
        with pytest.raises(DomainError, match="beta must be a real number that fits a double, got None"):
            est.hme(s, 10, None)
        for _ in range(2):  # an error is not cached
            with pytest.raises(DomainError, match="r must be finite, got nan"):
                est.g1(s, 10, math.nan)

    def test_an_estimate_pickles_and_copies_to_an_equal_one(self):
        e = est.evaluate(self._sample(), est.EstimatorSpec("hme", 10, beta=0.6))
        assert pickle.loads(pickle.dumps(e)) == e and copy.deepcopy(e) == e
        assert list(vars(pickle.loads(pickle.dumps(e)))) == ["gamma_hat", "spec", "n"]

    def test_a_k_that_is_not_an_int_raises_before_the_sample_is_read(self):
        class Unread:
            def __getattr__(self, name):
                raise AssertionError(f"the sample's {name} was read")

        with pytest.raises(DomainError, match="k must be an int, got 10.0"):
            est.hill(Unread(), 10.0)

    def test_the_direct_constructor_and_its_finiteness_error_stay(self):
        """An Estimate that evaluate makes equals the one its constructor
        makes from the same fields, which still checks finiteness."""
        spec = est.EstimatorSpec("hill", 10)
        e = est.evaluate(self._sample(), spec)
        assert type(e) is est.Estimate and e == est.Estimate(e.gamma_hat, e.spec, e.n)
        assert repr(e) == repr(est.Estimate(e.gamma_hat, e.spec, e.n))
        assert e == est.Estimate(n=e.n, spec=e.spec, gamma_hat=e.gamma_hat)
        assert dataclasses.replace(e, n=61) == est.Estimate(e.gamma_hat, e.spec, 61)
        assert [f.name for f in dataclasses.fields(e)] == ["gamma_hat", "spec", "n"]
        with pytest.raises(TypeError):
            est.Estimate(1.5, spec, 60, {})
        for bad in (math.nan, math.inf):
            with pytest.raises(DegenerateSampleError, match=f"non-finite estimate {bad}"):
                est.Estimate(bad, spec, 60)
        with pytest.raises(FrozenInstanceError):
            est.evaluate(self._sample(), spec).gamma_hat = 0.0


def test_scale_invariance_all_estimators():
    rng = np.random.default_rng(77)
    s = Sample.from_values(rng.pareto(1.0, size=400) + 1.0)
    s2 = Sample.from_values(s.values * 2.0**13)  # exact rescaling
    s3 = Sample.from_values(s.values * 1.7)  # arbitrary rescaling
    k = 120
    cases = [
        (est.hill, (k,)), (est.moment, (k,)), (est.moment_ratio, (k,)),
        (est.g1, (k, 0.4)), (est.g2, (k, 0.4)), (est.g3, (k, -0.4)),
        (est.hme, (k, 0.6)),
    ]
    for fn, args in cases:
        base = fn(s, *args).gamma_hat
        assert fn(s2, *args).gamma_hat == base
        assert fn(s3, *args).gamma_hat == pytest.approx(base, rel=1e-11)


class TestGeneralizedRows:
    """The array form at g1/g3: each row's entry is the per-sample call's
    gamma_hat, and NaN exactly where that call raises."""

    @staticmethod
    def per_row(block, j, ks, r):
        fn = est.g1 if j == 1 else est.g3
        out = []
        for s, k, r_i in zip(row_samples(block), ks, r):
            try:
                out.append(fn(s, int(k), float(r_i)))
            except DegenerateSampleError as exc:
                out.append(exc)
        return out

    @classmethod
    def rows(cls, block, j, ks, r):
        """The per-sample outcomes, after checking that the array form gives
        their estimates, and NaN where a call raises."""
        gamma = est.estimate_arrays(block, "g1" if j == 1 else "g3", np.arange(block.rows), ks, r)
        want = cls.per_row(block, j, ks, np.broadcast_to(r, len(ks)))
        for g, w in zip(gamma.tolist(), want):
            if isinstance(w, est.Estimate):
                assert g == w.gamma_hat
            else:
                assert math.isnan(g)
        return want

    @pytest.mark.parametrize("j", [1, 3])
    def test_rows_are_the_per_sample_estimates(self, j):
        rng = np.random.default_rng(8)
        block = SampleBlock.from_values(rng.pareto(1.0, size=(8, 300)) + 1.0)
        ks = rng.integers(2, 300, 8)
        # zero, below SMALL_R (the r = 0 branch), and tuned rows in one call
        r = np.array([0.0, SMALL_R / 2, -SMALL_R / 3, 0.3, -0.7, 1e-3, 0.0, 2.0])
        got = self.rows(block, j, ks, r)
        assert [e.spec.r for e in got] == [0.0, 0.0, 0.0, 0.3, -0.7, 1e-3, 0.0, 2.0]
        self.rows(block, j, ks, 0.0)  # one r for all rows; rows checks each

    def test_classical_rows_are_hill_and_moment_ratio(self):
        rng = np.random.default_rng(9)
        block = SampleBlock.from_values(rng.lognormal(0.0, 1.0, size=(5, 200)))
        ks = [3, 50, 120, 199, 17]
        forms = {1: lambda g_r1, g_r2: g_r1, 3: lambda g_r1, g_r2: g_r2 / (2.0 * g_r1)}
        for j, classical in ((1, est.hill), (3, est.moment_ratio)):
            for e, s, k in zip(self.rows(block, j, ks, 0.0), row_samples(block), ks):
                assert e.gamma_hat == classical(s, k).gamma_hat
                assert e.spec.r == 0.0
                assert e.gamma_hat == forms[j](stat_g(s, k, 0.0, 1.0), stat_g(s, k, 0.0, 2.0))

    def test_tied_row_fails_alone(self):
        good = np.linspace(1.0, 9.0, 12)
        tied = np.concatenate([np.full(10, 4.0), [1.0, 2.0]])  # top 10 tie the threshold
        block = SampleBlock.from_values(np.stack([good, tied]))
        for r in (0.0, 0.5):
            got = self.rows(block, 3, [5, 5], r)
            assert got[0] == est.g3(row_samples(block)[0], 5, r)
            assert isinstance(got[1], DegenerateSampleError)
            with pytest.raises(DegenerateSampleError, match=est.TIE_MESSAGE):
                est.g3(row_samples(block)[1], 5, r)

    def test_domain(self):
        block = SampleBlock.from_values(np.arange(1.0, 21.0).reshape(2, 10))
        with pytest.raises(DomainError):
            est.estimate_arrays(block, "g4", [0, 1], [3, 3], 0.1)
        with pytest.raises(DomainError):
            est.estimate_arrays(block, "g1", [0, 1], [3, 10], 0.1)


def outcome(fn, *args):
    """The Estimate a call returns, or the class and message of its error."""
    try:
        return fn(*args)
    except (DegenerateSampleError, DomainError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(est.KINDS),
       values=st.sampled_from([
           [2.0] * 10 + [1.0],                     # ties the threshold up to k = 10
           [1.0] + [math.exp(1.0 / 50.0)] * 5,     # g2's discriminant < 0 at r = -50
           list(np.arange(1.0, 100.0)),             # every statistic underflows at r = -1e6
           list(np.random.default_rng(12).pareto(1.0, 40) + 1.0),
       ]),
       data=st.data())
def test_one_row_is_a_row_of_the_block(kind, values, data):
    """evaluate(s, spec) is triple i of the array form on a block that holds
    the sample in a row it reads at several triples: the array's estimate is
    the call's gamma_hat, and NaN exactly where the call raises."""
    s = Sample.from_values(values)
    other = np.linspace(1.0, 7.0, s.n)
    block = SampleBlock.from_values(np.stack([other, s.values]))
    tuning = st.one_of(st.sampled_from([0.0, SMALL_R / 2, -SMALL_R / 3, 1e-9, 0.3, -50.0, -1e6]),
                       st.floats(-3.0, 3.0))
    triples = data.draw(st.lists(st.tuples(st.integers(0, 1), st.integers(2, s.n - 1), tuning),
                                 min_size=1, max_size=6))
    rows, ks, rs = (list(x) for x in zip(*triples))
    # hme's parameter is beta = 1 - r
    params = [1.0 - r for r in rs] if kind == "hme" else rs
    gamma = est.estimate_arrays(block, kind, rows, ks, params)
    samples = row_samples(block)
    for i, (row, k, r, param) in enumerate(zip(rows, ks, rs, params)):
        spec = est.EstimatorSpec(kind, k, r=r, beta=param if kind == "hme" else None)
        want = outcome(est.evaluate, samples[row], spec)
        if isinstance(want, est.Estimate):
            assert gamma[i] == want.gamma_hat
        else:
            assert np.isnan(gamma[i])


@pytest.mark.parametrize("kind", est.KINDS)
@pytest.mark.parametrize("r", [0.0, 0.5])
def test_tied_tail_raises_for_every_kind(kind, r):
    """One contract: where sorted_desc[0] == sorted_desc[k] every kind
    raises the tie error, never a silent 0.0; one value above the threshold
    is enough for an estimate."""
    s = Sample.from_values([2.0] * 10 + [1.0])
    spec = est.EstimatorSpec(kind, 5, r=r, beta=1.0 - r)
    with pytest.raises(DegenerateSampleError, match=est.TIE_MESSAGE):
        est.evaluate(s, spec)
    one_above = Sample.from_values([3.0] + [2.0] * 9 + [1.0])
    assert math.isfinite(est.evaluate(one_above, spec).gamma_hat)
    block = SampleBlock.from_values(np.stack([s.values, np.arange(1.0, 12.0)]))
    gamma = est.estimate_arrays(block, kind, [0, 1], [5, 5], 1.0 - r if kind == "hme" else r)
    assert np.isnan(gamma).tolist() == [True, False]
    assert gamma[1] == est.evaluate(row_samples(block)[1], spec).gamma_hat


@pytest.mark.parametrize("fn, r", [(est.g1, -1e6), (est.g3, -1e6), (est.hme, 1e6 + 1.0)])
def test_underflowing_statistic_is_a_typed_error(fn, r):
    """At a tuning so negative that every term x^r underflows, the division
    by the statistic gives inf: a DegenerateSampleError, not Python's
    ZeroDivisionError, and NaN in the array form."""
    s = Sample.from_values(np.arange(1.0, 100.0))
    with pytest.raises(DegenerateSampleError, match="non-finite estimate"):
        fn(s, 10, r)
    assert np.isnan(est.estimate_arrays(s, fn.__name__, 0, 10, r)).tolist() == [True]


def test_underflowing_g2_statistic_is_a_typed_error():
    """g2 at a tuning where G(k, r, 1) underflows to 0 on an untied tail:
    the typed error, not a silent estimate of 0.0."""
    s = Sample.from_values(np.arange(1.0, 100.0))
    with pytest.raises(DegenerateSampleError, match="underflows"):
        est.g2(s, 10, -1e6)
    assert np.isnan(est.estimate_arrays(s, "g2", 0, 10, -1e6)).tolist() == [True]
    with pytest.raises(DegenerateSampleError, match="underflows"):
        est.evaluate(s, est.EstimatorSpec("g2", 10, r=-1e6))
    assert est.g2(s, 10, -1.0).gamma_hat > 0.0


def test_evaluate_dispatch():
    s = sample_1_e_e2()
    assert est.evaluate(s, est.EstimatorSpec("hill", 2)).gamma_hat == 1.5
    assert est.evaluate(s, est.EstimatorSpec("g1", 2, r=0.5)).gamma_hat == \
        est.g1(s, 2, 0.5).gamma_hat
    with pytest.raises(DomainError):
        est.EstimatorSpec("nope", 2)
    with pytest.raises(DomainError):
        est.EstimatorSpec("hme", 2)  # beta required


@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
@pytest.mark.parametrize("kind, k, kwargs, match", [
    ("hill", 10.0, {}, "k must be an int, got 10.0"),
    ("g1", np.float64(10), {"r": 0.5}, "k must be an int"),
    ("g1", 10, {"r": math.nan}, "r must be finite, got nan"),
    ("g1", 10, {"r": math.inf}, "r must be finite, got inf"),
    ("g3", 10, {"r": -math.inf}, "r must be finite"),
    ("hme", 10, {"beta": math.nan}, "beta must be finite, got nan"),
    ("hme", 10, {"beta": math.inf}, "beta must be finite"),
    *[(kind, 10, {name: bad}, f"{name} must be a real number that fits a double")
      for kind, name in (("g1", "r"), ("g2", "r"), ("g3", "r"), ("hme", "beta"))
      for bad in ("0.3", None, [0.3], 2**1100) if not (name == "beta" and bad is None)],
    *[(kind, 10, {name: bad}, f"^{name} must be a real number, got ")
      for kind, name in (("g1", "r"), ("g2", "r"), ("g3", "r"), ("hme", "beta"))
      for bad in (0.3 + 1j, np.complex128(0.3 + 1j), np.complex64(0.3), np.array(0.3 + 1j))],
])
def test_spec_that_cannot_be_estimated_is_a_domain_error(kind, k, kwargs, match):
    """A spec with a k that is not an int, or a tuning that is not a finite
    real number (a str, None, a list, an int beyond a double, a complex
    number of any type), is rejected when it is made, and so is the matching
    estimator call: not a TypeError, an OverflowError or a ComplexWarning,
    nor a DegenerateSampleError for a NaN estimate."""
    s = Sample.from_values(np.arange(1.0, 30.0))
    with pytest.raises(DomainError, match=match):
        est.EstimatorSpec(kind, k, **kwargs)
    param = kwargs.get("beta", kwargs.get("r", 0.0))
    with pytest.raises(DomainError, match=match):
        getattr(est, kind)(s, k, *([param] if kind not in ("hill", "moment", "moment_ratio") else []))
    assert est.evaluate(s, est.EstimatorSpec("hill", np.int64(10))) == est.hill(s, 10)


@pytest.mark.parametrize("rows", [1, 2])
def test_per_sample_estimators_take_one_sample(rows):
    """Each kind's estimator and evaluate take one Sample: a block, even of
    one row, is a DomainError, not row 0's estimate. estimate_arrays takes
    the block, and gives each row its own Sample's estimate."""
    block = SampleBlock.from_values(sample(DistSpec("burr", 1.0, -1.0), 100 * rows, 3).values.reshape(rows, 100))
    for kind in est.KINDS:
        param = 0.7 if kind == "hme" else 0.3
        spec = est.EstimatorSpec(kind, 20, r=param, beta=param if kind == "hme" else None)
        args = [] if kind in ("hill", "moment", "moment_ratio") else [param]
        for call in (lambda: est.evaluate(block, spec), lambda: getattr(est, kind)(block, 20, *args)):
            with pytest.raises(DomainError, match="^expected one Sample, got SampleBlock$"):
                call()
        got = est.estimate_arrays(block, kind, range(rows), 20, param)
        assert got.tolist() == [est.evaluate(s, spec).gamma_hat for s in row_samples(block)]


@pytest.mark.parametrize("kind, tunings", [
    ("g1", (0.3, -1, 0)), ("g2", (0.3, 1, 0)), ("g3", (-0.4, -1, 0)), ("hme", (0.7, 2, 1))])
@pytest.mark.parametrize("as_type", [int, bool, float, np.int64, np.float16, np.float32,
                                     np.float64, np.array, Fraction, Decimal],
                         ids=lambda t: t.__name__)
def test_a_tuning_of_any_real_type_is_read_as_a_float(kind, tunings, as_type):
    """A tuning of any type of real number (a 0-d array too) is read as a
    float: the per-sample gamma_hat is a Python float, bit for bit
    estimate_arrays' at the same (k, tuning), on the tuned branch and on the
    r = 0 one (hme's beta = 1)."""
    s = sample(DistSpec("burr", 1.0, -1.0), 1000, 1)
    for x in tunings:
        tuning = as_type(x)
        if tuning != x and as_type in (int, bool, np.int64):
            continue  # x is not a value of the type
        got = getattr(est, kind)(s, 100, tuning).gamma_hat
        assert type(got) is float
        assert np.float64(got).tobytes() == est.estimate_arrays(s, kind, 0, 100, tuning).tobytes()


@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
def test_estimate_arrays_reads_integral_k_and_keeps_nan_tunings():
    """A k that is not integral raises instead of being truncated; an
    integral float k is that int; a NaN tuning gives NaN, as the pipeline
    passes for a failed row; a complex tuning of any type, or an array that
    holds one, is a DomainError, and a Fraction or a Decimal is read as a
    float."""
    s = Sample.from_values(np.random.default_rng(3).pareto(1.0, 50) + 1.0)
    for ks in (10.7, [10, 10.5], math.nan, math.inf):
        with pytest.raises(DomainError, match="k must be integral"):
            est.estimate_arrays(s, "hill", 0, ks, 0.0)
    assert est.estimate_arrays(s, "hill", 0, [10.0, 20.0], 0.0).tolist() == [
        est.hill(s, 10).gamma_hat, est.hill(s, 20).gamma_hat]
    for kind in ("g1", "g2", "g3", "hme"):
        got = est.estimate_arrays(s, kind, 0, [10, 10], [math.nan, 0.3])
        assert math.isnan(got[0]) and got[1] == getattr(est, kind)(s, 10, 0.3).gamma_hat
        for bad in (0.3 + 1j, np.complex128(0.3 + 1j), np.complex64(0.3), np.array(0.3 + 1j),
                    [0.3, 0.3 + 1j], np.array([Fraction(3, 10), np.complex64(0.3)], dtype=object)):
            with pytest.raises(DomainError, match="^params must be real numbers, got a complex"):
                est.estimate_arrays(s, kind, 0, [10, 10], bad)
        assert est.estimate_arrays(s, kind, 0, [10, 10], [Fraction(3, 10), Decimal("0.3")]).tolist() == [
            getattr(est, kind)(s, 10, 0.3).gamma_hat] * 2


@pytest.mark.slow
def test_consistency_sweep_strict_pareto():
    """Each estimator with gamma*r < 1 concentrates on gamma at desk scale."""
    n, k, reps = 50_000, 5_000, 200
    for gamma in (0.5, 2.0):
        cases = [
            ("hill", lambda s: est.hill(s, k).gamma_hat),
            ("moment", lambda s: est.moment(s, k).gamma_hat),
            ("mr", lambda s: est.moment_ratio(s, k).gamma_hat),
            ("g1", lambda s: est.g1(s, k, 0.4 / gamma).gamma_hat),
            ("g2", lambda s: est.g2(s, k, 0.4 / gamma).gamma_hat),
            ("g3", lambda s: est.g3(s, k, -0.4 / gamma).gamma_hat),
            ("hme", lambda s: est.hme(s, k, 1.0 - 0.3 / gamma).gamma_hat),
        ]
        values = {name: np.empty(reps) for name, _ in cases}
        d = DistSpec("pareto", gamma)
        for rep in range(reps):
            s = sample(d, n, 900 + rep)
            for name, fn in cases:
                values[name][rep] = fn(s)
        for name, _ in cases:
            v = values[name]
            se = np.std(v) / math.sqrt(reps)
            assert abs(np.mean(v) - gamma) < 5 * se, \
                f"{name} at gamma={gamma}: mean {np.mean(v)} vs {gamma} (se {se})"


@pytest.mark.slow
def test_inconsistency_regime_g1():
    """For r > 1/gamma on strict Pareto, g1 locks onto 1/r instead of gamma."""
    gamma, r = 1.0, 2.0
    n, k, reps = 50_000, 5_000, 30
    d = DistSpec("pareto", gamma)
    vals = [est.g1(sample(d, n, 4200 + i), k, r).gamma_hat for i in range(reps)]
    assert abs(np.mean(vals) - 1.0 / r) < 0.02
    assert abs(np.mean(vals) - gamma) > 0.4
