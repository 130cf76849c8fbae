import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtail import distributions as dist
from gtail.errors import DomainError


def cdf_pareto(x, gamma):
    return 1.0 - x ** (-1.0 / gamma)


def cdf_burr(x, gamma, rho):
    """Independent coding of the Burr distribution function."""
    return 1.0 - (1.0 + x ** (-rho / gamma)) ** (1.0 / rho)


def cdf_kumaraswamy(x, gamma, rho):
    """Independent coding of the Kumaraswamy-type distribution function."""
    return 1.0 - (1.0 - np.exp(-(x ** (rho / gamma)))) ** (-1.0 / rho)


def substream(seed, *key):
    """numpy's generator of the stream keyed by (seed, *key), which
    draw_block's rows reproduce."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(seq))


class TestDistSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            dist.DistSpec("cauchy", 1.0)
        with pytest.raises(DomainError):
            dist.DistSpec("pareto", -1.0)
        with pytest.raises(DomainError):
            dist.DistSpec("burr", 1.0)  # rho required
        with pytest.raises(DomainError):
            dist.DistSpec("kumaraswamy", 1.0, 0.5)  # rho must be negative
        with pytest.raises(DomainError):
            dist.DistSpec("pareto", 1.0, scale=0.0)
        for bad in (math.nan, math.inf, -math.inf):  # NaN fails each check
            for family in dist.FAMILIES:
                with pytest.raises(DomainError, match="gamma must be finite"):
                    dist.DistSpec(family, bad, -1.0)
                with pytest.raises(DomainError, match="scale must be finite"):
                    dist.DistSpec(family, 1.0, -1.0, scale=bad)
            with pytest.raises(DomainError, match="requires a finite rho"):
                dist.DistSpec("burr", 1.0, bad)

    def test_pareto_ignores_rho(self):
        assert dist.DistSpec("pareto", 1.0).rho is None


class TestQuantile:
    def test_pareto_hand_values(self):
        d = dist.DistSpec("pareto", 2.0)
        assert dist.quantile(d, 0.75) == pytest.approx(16.0, rel=1e-14)
        assert dist.quantile(d, 0.5) == pytest.approx(4.0, rel=1e-14)

    def test_burr_hand_value(self):
        # gamma=1, rho=-1, p=1/2: ((1/2)^-1 - 1)^1 = 1
        d = dist.DistSpec("burr", 1.0, -1.0)
        assert dist.quantile(d, 0.5) == pytest.approx(1.0, rel=1e-14)

    def test_kumaraswamy_hand_value(self):
        # gamma=1, rho=-1, p=1/2: -ln(1 - (1/2)^1)... = ln 2 inverted -> 1/ln 2?
        # direct check against the independent CDF instead of a magic constant
        d = dist.DistSpec("kumaraswamy", 1.0, -1.0)
        x = dist.quantile(d, 0.5)
        assert cdf_kumaraswamy(x, 1.0, -1.0) == pytest.approx(0.5, rel=1e-13)
        assert x == pytest.approx(1.4426950408889634, rel=1e-12)

    def test_domain(self):
        d = dist.DistSpec("pareto", 1.0)
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                dist.quantile(d, p)

    @pytest.mark.parametrize("d", [dist.DistSpec("pareto", 1.0), dist.DistSpec("burr", 1.0, -1.0),
                                   dist.DistSpec("kumaraswamy", 1.0, -1.0)], ids=lambda d: d.family)
    def test_nan_p_is_a_domain_error(self, d):
        # a NaN p is no p in (0, 1), as a scalar and as an element of an array
        for p in (float("nan"), [0.5, float("nan")], np.array([float("nan"), 0.25])):
            with pytest.raises(DomainError, match=r"quantile requires 0 < p < 1"):
                dist.quantile(d, p)

    def test_strictly_increasing(self):
        p = np.linspace(1e-6, 1 - 1e-6, 5000)
        for d in (dist.DistSpec("pareto", 0.7),
                  dist.DistSpec("burr", 1.3, -0.4),
                  dist.DistSpec("kumaraswamy", 2.0, -2.0)):
            q = dist.quantile(d, p)
            assert np.all(np.diff(q) > 0)

    def test_round_trip_with_independent_cdfs(self):
        p = np.linspace(0.001, 0.999, 999)
        cases = [
            (dist.DistSpec("pareto", 0.5), lambda x: cdf_pareto(x, 0.5)),
            (dist.DistSpec("pareto", 3.0), lambda x: cdf_pareto(x, 3.0)),
            (dist.DistSpec("burr", 1.0, -1.0), lambda x: cdf_burr(x, 1.0, -1.0)),
            (dist.DistSpec("burr", 2.0, -0.5), lambda x: cdf_burr(x, 2.0, -0.5)),
            (dist.DistSpec("kumaraswamy", 1.0, -1.0),
             lambda x: cdf_kumaraswamy(x, 1.0, -1.0)),
            (dist.DistSpec("kumaraswamy", 0.8, -2.0),
             lambda x: cdf_kumaraswamy(x, 0.8, -2.0)),
        ]
        for d, cdf in cases:
            back = cdf(dist.quantile(d, p))
            assert np.max(np.abs(back - p)) < 1e-12, d

    def test_scale_multiplies(self):
        base = dist.DistSpec("burr", 1.0, -1.0)
        scaled = dist.DistSpec("burr", 1.0, -1.0, scale=3.0)
        p = np.array([0.1, 0.5, 0.9])
        assert dist.quantile(scaled, p) == pytest.approx(3.0 * dist.quantile(base, p))

    @settings(max_examples=300, deadline=None)
    @given(gamma=st.floats(0.0, 4.0, exclude_min=True),
           rho=st.floats(-25.0, -1e-3),
           p=st.floats(0.0, 1.0 - 2.0**-53, exclude_min=True))
    def test_finite_over_the_documented_domain(self, gamma, rho, p):
        for family in dist.FAMILIES:
            d = dist.DistSpec(family, gamma, rho if family != "pareto" else None)
            assert math.isfinite(dist.quantile(d, p)), (family, gamma, rho, p)

    def test_finite_at_the_top_of_the_unit_interval(self):
        # (1-p)^(-rho) drops below machine epsilon long before p = 1 - 2^-53
        p = np.array([1.0 - 1e-6, 1.0 - 2.0**-40, 1.0 - 2.0**-53])
        for rho in (-2.0, -4.95, -25.0):
            for family in ("burr", "kumaraswamy"):
                q = dist.quantile(dist.DistSpec(family, 4.0, rho), p)
                assert np.all(np.isfinite(q)) and np.all(np.diff(q) > 0), (family, rho, q)

    @staticmethod
    def both_forms(family, gamma, rho, p):
        """The quantile with both forms evaluated on every entry, picked per
        entry by np.where (the reference)."""
        with np.errstate(over="ignore", divide="ignore"):
            if family == "burr":
                a = rho * np.log1p(-p)
                return a, np.where(a > dist._FAR_TAIL, np.exp(a * (-gamma / rho)),
                                   np.expm1(a) ** (-gamma / rho))
            a = -rho * np.log1p(-p)
            y = np.where(a > -math.log(2.0), -np.log(-np.expm1(a)), -np.log1p(-np.exp(a)))
            return a, np.where(a < -dist._FAR_TAIL, np.exp(a * (gamma / rho)), y ** (gamma / rho))

    @pytest.mark.parametrize("family, gamma, rho", [
        ("burr", 1.25, -3.5), ("burr", 3.95, -25.0), ("burr", 0.05, -0.01),
        ("kumaraswamy", 0.5, -1.0), ("kumaraswamy", 0.05, -4.95), ("kumaraswamy", 2.0, -25.0)])
    def test_far_tail_only_where_taken(self, family, gamma, rho):
        """The far-tail form is computed only on the entries that take it;
        the values are the reference's, bit for bit, for arrays and scalars
        (a scalar's reference is on a one-element array)."""
        d = dist.DistSpec(family, gamma, rho, scale=1.7)
        rng = np.random.default_rng(5)
        p = np.concatenate([rng.random(2000), 1.0 - 2.0 ** -rng.uniform(1.0, 53.0, 500)])
        a, want = self.both_forms(family, gamma, rho, p)
        assert np.any(np.abs(a) > dist._FAR_TAIL) == (rho == -25.0)
        assert np.array_equal(dist.quantile(d, p), 1.7 * want)
        for x in p[::50].tolist():
            got = dist.quantile(d, x)
            assert type(got) is float
            assert got == float(1.7 * self.both_forms(family, gamma, rho, np.asarray([x]))[1][0])

    @pytest.mark.parametrize("family, gamma, rho", [
        ("burr", 2.0, -40.0), ("burr", 1.25, -3.5), ("pareto", 0.7, None),
        ("kumaraswamy", 1.0, -0.5)])
    def test_a_scalar_p_is_the_array_quantile_to_the_last_bits(self, family, gamma, rho):
        """A scalar p goes through the ufunc loops of an array, as a
        one-element array, so its quantile is the array's bit for bit."""
        d = dist.DistSpec(family, gamma, rho)
        p = np.arange(1, 20002) / 20002
        array = dist.quantile(d, p)
        scalar = np.array([dist.quantile(d, x) for x in p.tolist()])
        assert np.all(array > 0) and np.all(scalar > 0)
        assert array.tobytes() == scalar.tobytes()

    def test_tail_constant(self):
        # 1 - F(x) ~ C^(1/gamma) x^(-1/gamma): at x = 1e6 the Burr(rho=-1)
        # survival times x^(1/gamma) is within 5% of 1
        for gamma in (0.5, 1.0, 2.0):
            d = dist.DistSpec("burr", gamma, -1.0)
            x = 1e6
            surv = 1.0 - cdf_burr(x, gamma, -1.0)
            assert surv * x ** (1.0 / gamma) == pytest.approx(1.0, rel=0.05)


class TestSampling:
    def test_determinism(self):
        d = dist.DistSpec("burr", 1.0, -1.0)
        a = dist.sample(d, 1000, 42)
        b = dist.sample(d, 1000, 42)
        assert np.array_equal(a.values, b.values)

    def test_seed_and_stream_sensitivity(self):
        d = dist.DistSpec("burr", 1.0, -1.0)
        a = dist.sample(d, 100, 42)
        assert not np.array_equal(a.values, dist.sample(d, 100, 43).values)
        assert not np.array_equal(a.values, dist.sample(d, 100, 42, stream_key=(1,)).values)

    def test_pareto_support(self):
        d = dist.DistSpec("pareto", 1.0, scale=2.5)
        s = dist.sample(d, 10_000, 7)
        assert s.values.min() >= 2.5

    def test_substream_isolated_reproducibility(self):
        """One replication's stream, drawn alone or among others, is numpy's
        generator keyed by (seed, *key)."""
        d = dist.DistSpec("pareto", 1.0)
        u = substream(5, 3, 11).random(8)
        u[u == 0.0] = 2.0**-53
        want = dist.quantile(d, u)
        assert np.array_equal(dist.sample(d, 8, 5, stream_key=(3, 11)).values, want)
        assert np.array_equal(dist.draw_block(d, 8, 5, [(0,), (3, 11), (3, 12)])[1], want)

    @settings(max_examples=200, deadline=None)
    @given(family=st.sampled_from(dist.FAMILIES),
           seed=st.sampled_from([0, 20240, 2**32 + 5, 2**64 + 3]),
           keys=st.lists(st.lists(st.one_of(st.integers(0, 9), st.integers(2**32, 2**70)),
                                  max_size=3).map(tuple), min_size=1, max_size=5),
           n=st.integers(1, 64))
    def test_draw_block_rows_are_the_substreams(self, family, seed, keys, n):
        """Row i is, bit for bit, the quantile of the first n doubles of
        substream(seed, *keys[i]) with exact zeros nudged to 2^-53."""
        d = dist.DistSpec(family, 1.5, None if family == "pareto" else -0.5)
        got = dist.draw_block(d, n, seed, keys)
        assert got.shape == (len(keys), n)
        for row, key in zip(got, keys):
            u = substream(seed, *key).random(n)
            u[u == 0.0] = 2.0**-53
            assert np.array_equal(row, dist.quantile(d, u)), key

    @settings(max_examples=300, deadline=None)
    @given(seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**128 - 1),
                          st.integers(2**128, 2**200)),
           keys=st.lists(st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**100)),
                                  max_size=6).map(tuple), max_size=8))
    def test_philox_keys_are_numpys_seed_sequence(self, seed, keys):
        """Row by row, numpy's own hash: seeds past 2^128 (run entropy
        longer than the pool), empty keys, key words of several 32-bit words
        and keys of mixed lengths in one call."""
        got = dist._philox_keys(seed, keys)
        assert got.shape == (len(keys), 2) and got.dtype == np.uint64
        for row, key in zip(got, keys):
            want = np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(2, np.uint64)
            assert np.array_equal(row, want), key

    @pytest.mark.parametrize("seed, key", [(-1, ()), (5, (-1,)), (5, (3, -2**40)), (-2**70, (1,))])
    def test_negative_seed_or_key_is_a_domain_error(self, seed, key):
        d = dist.DistSpec("burr", 1.0, -1.0)
        with pytest.raises(DomainError, match="must be >= 0"):
            dist.draw_block(d, 10, seed, [(0,), key])
        with pytest.raises(DomainError, match="must be >= 0"):
            dist.sample(d, 10, seed, stream_key=key)

    @pytest.mark.slow
    def test_ks_distance_burr(self):
        """Manual one-sample Kolmogorov-Smirnov check on 1e5 draws."""
        d = dist.DistSpec("burr", 1.0, -1.0)
        n = 100_000
        x = np.sort(dist.sample(d, n, 123).values)
        f = cdf_burr(x, 1.0, -1.0)
        i = np.arange(1, n + 1)
        ks = max(np.max(i / n - f), np.max(f - (i - 1) / n))
        assert ks < 0.01


class TestHallModel:
    def test_burr(self):
        m = dist.hall_model(dist.DistSpec("burr", 2.0, -0.7))
        assert (m.gamma, m.rho, m.beta_hall) == (2.0, -0.7, 1.0)
        assert not m.bias_free

    def test_kumaraswamy(self):
        m = dist.hall_model(dist.DistSpec("kumaraswamy", 1.5, -2.0))
        assert (m.gamma, m.rho, m.beta_hall) == (1.5, -2.0, 0.5)

    def test_pareto_sentinel(self):
        m = dist.hall_model(dist.DistSpec("pareto", 1.0))
        assert m.beta_hall == 0.0
        assert m.rho == -math.inf
        assert m.bias_free
