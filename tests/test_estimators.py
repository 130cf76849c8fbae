import math

import numpy as np
import pytest

from gtail import estimators as est
from gtail.distributions import DistSpec, sample
from gtail.errors import DegenerateSampleError, DomainError
from gtail.stats import SMALL_R, Sample, SampleBlock, stat_g

E = math.e


def sample_1_e_e2():
    return Sample.from_values([1.0, E, E * E])


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
        # pick a sample, read G(k,r,1) from diagnostics, check the formula
        rng = np.random.default_rng(2)
        s = Sample.from_values(rng.pareto(1.0, size=100) + 1.0)
        r = 0.3
        e = est.g2(s, 30, r)
        g = e.diagnostics["g_r1"]
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
        with pytest.raises(DomainError):
            est.g2(s, 5, r)


class TestG3:
    def test_r_zero_is_moment_ratio(self):
        s = sample_1_e_e2()
        assert est.g3(s, 2, 0.0).gamma_hat == est.moment_ratio(s, 2).gamma_hat

    def test_hand_value(self):
        # G(k,r,1)=2, G(k,r,0)=3, r=1 gives (2-3+1)/2 = 0
        g1_, g0 = 2.0, 3.0
        assert (1.0 * g1_ - g0 + 1.0) / (1.0**2 * g1_) == 0.0

    def test_formula_against_diagnostics(self):
        rng = np.random.default_rng(6)
        s = Sample.from_values(rng.pareto(1.0, size=200) + 1.0)
        r = -0.4
        e = est.g3(s, 60, r)
        expected = (r * e.diagnostics["g_r1"] - e.diagnostics["g_r0"] + 1.0) / (
            r * r * e.diagnostics["g_r1"])
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


def test_scale_invariance_all_estimators():
    rng = np.random.default_rng(77)
    s = Sample.from_values(rng.pareto(1.0, size=400) + 1.0)
    s2 = s.scaled(2.0**13)       # exact rescaling
    s3 = s.scaled(1.7)           # arbitrary rescaling
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
    """The block form of g1/g3: each row's entry is the per-sample call's
    Estimate, equal in every field, or the error it raises."""

    @staticmethod
    def per_row(block, j, ks, r):
        fn = est.g1 if j == 1 else est.g3
        out = []
        for s, k, r_i in zip(block.samples(), ks, r):
            try:
                out.append(fn(s, int(k), float(r_i)))
            except DegenerateSampleError as exc:
                out.append(exc)
        return out

    @staticmethod
    def rows(block, j, ks, r):
        arrays = est.generalized_arrays(block, j, ks, r)
        return [arrays.row(i) for i in range(block.rows)]

    @pytest.mark.parametrize("j", [1, 3])
    def test_rows_are_the_per_sample_estimates(self, j):
        rng = np.random.default_rng(8)
        block = SampleBlock.from_values(rng.pareto(1.0, size=(8, 300)) + 1.0)
        ks = rng.integers(2, 300, 8)
        # zero, below SMALL_R (the r = 0 branch), and tuned rows in one call
        r = np.array([0.0, SMALL_R / 2, -SMALL_R / 3, 0.3, -0.7, 1e-3, 0.0, 2.0])
        got = self.rows(block, j, ks, r)
        assert got == self.per_row(block, j, ks, r)
        assert [e.spec.r for e in got] == [0.0, 0.0, 0.0, 0.3, -0.7, 1e-3, 0.0, 2.0]
        assert self.rows(block, j, ks, 0.0) == self.per_row(block, j, ks, [0.0] * 8)

    def test_classical_rows_are_hill_and_moment_ratio(self):
        rng = np.random.default_rng(9)
        block = SampleBlock.from_values(rng.lognormal(0.0, 1.0, size=(5, 200)))
        ks = [3, 50, 120, 199, 17]
        for j, classical in ((1, est.hill), (3, est.moment_ratio)):
            for e, s, k in zip(self.rows(block, j, ks, 0.0), block.samples(), ks):
                assert e.gamma_hat == classical(s, k).gamma_hat
                assert e.diagnostics == classical(s, k).diagnostics

    def test_tied_row_fails_alone(self):
        good = np.linspace(1.0, 9.0, 12)
        tied = np.concatenate([np.full(10, 4.0), [1.0, 2.0]])  # top 10 tie the threshold
        block = SampleBlock.from_values(np.stack([good, tied]))
        for r in (0.0, 0.5):
            got = self.rows(block, 3, [5, 5], r)
            assert got[0] == est.g3(block.samples()[0], 5, r)
            assert isinstance(got[1], DegenerateSampleError)
            with pytest.raises(DegenerateSampleError, match=str(got[1])):
                est.g3(block.samples()[1], 5, r)

    def test_domain(self):
        block = SampleBlock.from_values(np.arange(1.0, 21.0).reshape(2, 10))
        with pytest.raises(DomainError):
            est.generalized_arrays(block, 2, [3, 3], 0.1)
        with pytest.raises(DomainError):
            est.generalized_arrays(block, 1, [3, 10], 0.1)


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
    if kind in ("g1", "g3"):
        block = SampleBlock.from_values(np.stack([s.values, np.arange(1.0, 12.0)]))
        rows = est.generalized_arrays(block, 1 if kind == "g1" else 3, [5, 5], r)
        assert rows.tie.tolist() == [True, False]
        assert str(rows.row(0)) == est.TIE_MESSAGE


@pytest.mark.parametrize("fn, r", [(est.g1, -1e6), (est.g3, -1e6), (est.hme, 1e6 + 1.0)])
def test_underflowing_statistic_is_a_typed_error(fn, r):
    """At a tuning so negative that every term x^r underflows, the division
    by the statistic gives inf: a DegenerateSampleError, not Python's
    ZeroDivisionError, and the same in the row arrays."""
    s = Sample.from_values(np.arange(1.0, 100.0))
    with pytest.raises(DegenerateSampleError, match="non-finite estimate") as caught:
        fn(s, 10, r)
    if fn is not est.hme:
        arrays = est.generalized_arrays(SampleBlock.of(s), 1 if fn is est.g1 else 3, [10], r)
        assert str(arrays.row(0)) == str(caught.value)


def test_underflowing_g2_statistic_is_a_typed_error():
    """g2 at a tuning where G(k, r, 1) underflows to 0 on an untied tail:
    the typed error, not a silent estimate of 0.0."""
    s = Sample.from_values(np.arange(1.0, 100.0))
    with pytest.raises(DegenerateSampleError, match="underflows"):
        est.g2(s, 10, -1e6)
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
