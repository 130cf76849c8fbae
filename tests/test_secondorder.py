import math
import sys
import warnings

import numpy as np
import pytest

from gtail import estimators as est
from gtail import secondorder as so
from gtail.asymptotics import SecondOrderModel, k_star, r_star
from gtail.distributions import DistSpec, sample, sample_block
from gtail.errors import DegenerateSampleError, DomainError, PipelineError
from gtail.stats import SMALL_R, Sample, SampleBlock


def burr_sample(gamma, rho, n, seed):
    return sample(DistSpec("burr", gamma, rho), n, seed)


class TestRhoHat:
    def test_hand_value_tau_zero(self):
        # engineer a sample whose top-3 log ratios are known, compute T by hand
        s = Sample.from_values([1.0, math.e, math.e**2, math.e**4])
        # logs to the threshold: {4, 2, 1}; m1 = 7/3, m2 = 21/6, m3 = 73/18
        m1, m2, m3 = 7 / 3, 21 / 6, 73 / 18
        t = (math.log(m1) - 0.5 * math.log(m2)) / (
            0.5 * math.log(m2) - math.log(m3) / 3)
        expected = -abs(3 * (t - 1) / (t - 3))
        assert so.rho_hat(s, 3, 0) == pytest.approx(expected, rel=1e-12)

    def test_sign_is_nonpositive_both_tau(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            s = Sample.from_values(rng.pareto(1.0, size=300) + 1.0)
            for tau in (0, 1):
                assert so.rho_hat(s, 250, tau) <= 0.0

    def test_degenerate_contrast(self):
        # the top-k values all tie with the threshold, so every log-moment
        # statistic is exactly zero and the contrast is undefined
        s = Sample.from_values([2.0, 2.0, 2.0, 2.0, 1.0])
        with pytest.raises(DegenerateSampleError):
            so.rho_hat(s, 3, 1)

    def test_bad_tau(self):
        s = Sample.from_values([1.0, 2.0, 4.0, 8.0])
        with pytest.raises(DomainError):
            so.rho_hat(s, 3, -1)


class TestEstimateRho:
    @pytest.mark.slow
    def test_burr_recovery_rate(self):
        """rho_hat lands in (-2, -0.5) for Burr(rho=-1) in >= 90% of runs."""
        n, reps = 5000, 200
        hits = 0
        for i in range(reps):
            s = burr_sample(1.0, -1.0, n, 7000 + i)
            r = so.estimate_rho(s).rho_hat
            if -2.0 < r < -0.5:
                hits += 1
        assert hits >= 0.9 * reps, f"only {hits}/{reps} in (-2, -0.5)"

    def test_result_is_clamped_negative(self):
        s = burr_sample(0.5, -0.5, 2000, 99)
        r = so.estimate_rho(s)
        assert so.RHO_FLOOR <= r.rho_hat <= so.RHO_CEILING
        assert r.tau in (0, 1)
        assert r.k_used == int(2000**0.995)

    def test_path_is_a_k_rho_array(self):
        s = burr_sample(1.0, -1.0, 1000, 3)
        r = so.estimate_rho(s)
        ks = np.arange(int(1000**0.90), int(1000**0.995) + 1)
        assert r.path.shape == (ks.size, 2)
        assert np.array_equal(r.path[:, 0], ks)
        assert np.all(r.path[:, 1] <= 0.0)
        assert "path" not in repr(r)
        assert r == so.RhoEstimate(r.rho_hat, r.tau, r.k_used, r.path[:3])

    def test_block_rows_match_single_samples(self):
        samples = [burr_sample(1.0, -1.0, 500, seed) for seed in range(5)]
        block = SampleBlock.from_values(np.stack([s.values for s in samples]))
        for s, row in zip(samples, so.estimate_rho(block)):
            one = so.estimate_rho(s)
            assert (row.rho_hat, row.tau, row.k_used) == (one.rho_hat, one.tau, one.k_used)
            assert np.array_equal(row.path, one.path)
        for s, row in zip(samples, so.adaptive_all(block)):
            one = so.adaptive_all(s)
            for j in (1, 3):
                assert row[j].generalized.gamma_hat == one[j].generalized.gamma_hat
                assert row[j].beta.beta_hat == one[j].beta.beta_hat

    def test_block_row_failure_stays_in_its_row(self):
        good = burr_sample(1.0, -1.0, 200, 1).values
        # the top 196 values tie, so every log-moment in the k window is 0
        tied = np.concatenate([np.full(196, 2.0), [0.5, 0.6, 0.7, 0.8]])
        results = so.adaptive_all(SampleBlock.from_values(np.stack([good, tied])))
        assert isinstance(results[0][1], so.AdaptiveResult)
        assert isinstance(results[1][1], PipelineError)
        assert results[1][1].step == "rho"
        with pytest.raises(PipelineError):
            so.adaptive_all(Sample.from_values(tied))

    def test_path_stats_are_numpy_percentile_and_median(self):
        rng = np.random.default_rng(4)
        path = -np.abs(rng.normal(1.0, 0.5, size=(40, 57)))
        path[rng.random(path.shape) < 0.3] = np.nan
        path[0] = np.nan
        path[1, 1:] = np.nan
        path[2, 2:] = np.nan
        count, iqr, median = so._path_stats(path)
        assert count[0] == 0
        for row in range(1, 40):
            vals = path[row][~np.isnan(path[row])]
            q1, q3 = np.percentile(vals, [25.0, 75.0])
            assert count[row] == vals.size
            assert iqr[row] == q3 - q1
            assert median[row] == np.median(vals)

    def test_path_matches_pointwise(self):
        s = burr_sample(1.0, -1.0, 1000, 3)
        r = so.estimate_rho(s)
        for k, v in r.path[:5]:
            assert so.rho_hat(s, int(k), r.tau) == pytest.approx(v, rel=1e-12)


class TestBetaHat:
    def test_scale_invariance(self):
        s = burr_sample(1.0, -1.0, 2000, 11)
        b = so.beta_hat(s, 1500, -1.0)
        assert so.beta_hat(s.scaled(2.0**9), 1500, -1.0) == b
        assert so.beta_hat(s.scaled(3.7), 1500, -1.0) == pytest.approx(b, rel=1e-9)

    @pytest.mark.slow
    def test_burr_beta_targets_one(self):
        vals = []
        for i in range(60):
            s = burr_sample(1.0, -1.0, 5000, 500 + i)
            k = int(5000**0.995)
            vals.append(so.beta_hat(s, k, -1.0))
        assert abs(float(np.median(vals)) - 1.0) < 0.5

    @pytest.mark.slow
    def test_kumaraswamy_beta_targets_half(self):
        vals = []
        for i in range(60):
            s = sample(DistSpec("kumaraswamy", 1.0, -1.0), 5000, 600 + i)
            k = int(5000**0.995)
            vals.append(so.beta_hat(s, k, -1.0))
        assert abs(float(np.median(vals)) - 0.5) < 0.5

    def test_domain(self):
        s = burr_sample(1.0, -1.0, 200, 1)
        with pytest.raises(DomainError):
            so.beta_hat(s, 100, 0.5)
        with pytest.raises(DomainError):
            so.beta_hat(s, 1, -1.0)


class TestAdaptiveK:
    def test_hand_value_matches_generic_optimum(self):
        # classical Hill route at rho=-1, beta=1, n=1000: same 126 as the
        # generic AMSE optimum
        assert so.adaptive_k(1000, -1.0, 1.0, 1, generalized=False) == 126

    def test_printed_formulas_match_generic_k_star(self):
        for rho in (-0.3, -1.0, -2.5, -6.0):
            for beta in (0.5, 1.0, -1.5):
                for n in (500, 5000, 100_000):
                    for j in (1, 3):
                        for generalized in (False, True):
                            gamma = 1.0  # tail sizes at R*/gamma are gamma-free
                            r = (r_star(rho, j) / gamma) if generalized else 0.0
                            m = SecondOrderModel(gamma, rho, beta)
                            with warnings.catch_warnings():
                                warnings.simplefilter("ignore")
                                expected = k_star(m, r, j, n)
                            got = so.adaptive_k(n, rho, beta, j, generalized)
                            assert got == expected, (rho, beta, n, j, generalized, got, expected)

    @staticmethod
    def printed_formula(n, rho, beta, j, generalized):
        """The scalar plug-in tail size in Python floats, as adaptive_k computed
        it before it took arrays: the reference."""
        if j == 1:
            if generalized:
                R = r_star(rho, 1)
                base = (1.0 - rho - R) ** 2 / (-2.0 * rho * beta**2 * (1.0 - 2.0 * R))
            else:
                base = (1.0 - rho) ** 2 / (-2.0 * rho * beta**2)
        else:
            if generalized:
                R = r_star(rho, 3)
                base = (1.0 - rho - R) ** 4 / (-rho * beta**2 * (1.0 - 2.0 * R) ** 3)
            else:
                base = (1.0 - rho) ** 4 / (-rho * beta**2)
        ln_k = math.log(base) / (1.0 - 2.0 * rho) - 2.0 * rho / (1.0 - 2.0 * rho) * math.log(n)
        return min(max(int(round(math.exp(ln_k))), 2), n - 1)

    @staticmethod
    def printed_ln_k(n, rho, beta, j, generalized):
        """The log of the printed formula's real tail size, summed factor by
        factor in log space, where nothing overflows."""
        R = r_star(rho, j) if generalized else 0.0
        power, bias_factor, var_power = (2, -2.0 * rho, 1) if j == 1 else (4, -rho, 3)
        ln_base = (power * math.log(1.0 - rho - R) - math.log(bias_factor)
                   - 2.0 * math.log(abs(beta)) - var_power * math.log(1.0 - 2.0 * R))
        return ln_base / (1.0 - 2.0 * rho) - 2.0 * rho / (1.0 - 2.0 * rho) * math.log(n)

    def test_arrays_match_the_printed_formula(self):
        """Entry by entry, NaN (DomainError for a scalar) exactly where the
        optimum is not a finite float: beta^2 overflowing or underflowing
        (below the smallest normal float), or the tail size overflowing.
        Elsewhere the printed formula's value, and where only its product
        -rho beta^2 (1-2R)^p over- or underflows, the clamped log-space value
        of the same formula."""
        rng = np.random.default_rng(2)
        rho = -np.exp(rng.uniform(math.log(1e-6), math.log(25.0), 3000))
        beta = rng.choice([-1.0, 1.0], 3000) * 10.0 ** rng.uniform(-170.0, 170.0, 3000)
        ln_max = math.log(sys.float_info.max)
        for n in (100, 1000, 10**6):
            for j in (1, 3):
                for generalized in (False, True):
                    ks = so.adaptive_k(n, rho, beta, j, generalized)
                    for k, r, b in zip(ks.tolist(), rho.tolist(), beta.tolist()):
                        try:
                            beta2 = b**2
                        except OverflowError:
                            beta2 = math.inf
                        ln_k = self.printed_ln_k(n, r, b, j, generalized)
                        if not sys.float_info.min <= beta2 < math.inf or ln_k >= ln_max:
                            assert math.isnan(k)
                            with pytest.raises(DomainError):
                                so.adaptive_k(n, r, b, j, generalized)
                            continue
                        try:
                            want = self.printed_formula(n, r, b, j, generalized)
                        except (ArithmeticError, ValueError):
                            want = min(max(round(math.exp(ln_k)), 2), n - 1)
                        assert k == want
                    assert 0 < np.isnan(ks).sum() < ks.size
        got = so.adaptive_k(1000, -1.0, 1.0, 1, generalized=False)
        assert type(got) is int

    def test_monotone_in_n(self):
        ks = [so.adaptive_k(n, -1.0, 1.0, 3, True) for n in (200, 2000, 20000, 200000)]
        assert ks == sorted(ks)
        assert ks[0] < ks[-1]

    def test_domain(self):
        with pytest.raises(DomainError):
            so.adaptive_k(1000, 0.5, 1.0, 1, False)
        with pytest.raises(DomainError):
            so.adaptive_k(1000, -1.0, 0.0, 1, False)
        with pytest.raises(DomainError):
            so.adaptive_k(1000, -1.0, 1.0, 2, False)


class TestBlockTailSteps:
    """Steps 3-5 on a block: every row gets the estimators' own values at its
    tail sizes and tuning, bit for bit, whatever the other rows hold."""

    CELLS = [("burr", 1.0, -1.0, 1000), ("kumaraswamy", 0.5, -2.0, 500),
             # near-tied values: rows fail at rho and classical (tied tails)
             ("kumaraswamy", 1.5e-17, -0.5, 100)]

    @staticmethod
    def outcome(results):
        return {j: (res.step, str(res)) if isinstance(res, PipelineError) else res
                for j, res in results.items()}

    @pytest.mark.parametrize("family, gamma, rho, n", CELLS)
    def test_rows_are_the_estimators_at_their_k_and_r(self, family, gamma, rho, n):
        block = sample_block(DistSpec(family, gamma, rho), n, 7, [(0, i) for i in range(8)])
        checked = 0
        for s, row in zip(block.samples(), so.adaptive_all(block)):
            for j, classical, tuned in ((1, est.hill, est.g1), (3, est.moment_ratio, est.g3)):
                res = row[j]
                if isinstance(res, PipelineError) and res.step == "rho":
                    continue
                rho_hat = so.estimate_rho(s).rho_hat
                beta_hat = so.beta_hat(s, int(n**0.995), rho_hat)
                k_c = so.adaptive_k(n, rho_hat, beta_hat, j, generalized=False)
                checked += 1
                if isinstance(res, PipelineError):
                    assert res.step in ("classical", "r_star")
                    if res.step == "classical":
                        with pytest.raises(DegenerateSampleError, match=str(res.__cause__)):
                            classical(s, k_c)
                    else:
                        assert classical(s, k_c).gamma_hat <= 0.0
                    continue
                k_g = so.adaptive_k(n, rho_hat, beta_hat, j, generalized=True)
                assert res.classical.gamma_hat == classical(s, k_c).gamma_hat
                assert res.classical == tuned(s, k_c, 0.0)
                assert res.r_generalized == r_star(rho_hat, j) / res.classical.gamma_hat
                assert res.generalized == tuned(s, k_g, res.r_generalized)
        assert checked > 0

    @pytest.mark.parametrize("family, gamma, rho, n", CELLS)
    def test_block_size_does_not_change_a_row(self, family, gamma, rho, n):
        values = sample_block(DistSpec(family, gamma, rho), n, 7, [(1, i) for i in range(8)]).values
        eight = so.adaptive_all(SampleBlock.from_values(values))
        threes = [row for lo in range(0, 8, 3)
                  for row in so.adaptive_all(SampleBlock.from_values(values[lo:lo + 3]))]
        ones = [so.adaptive_all(SampleBlock.from_values(v[None]))[0] for v in values]
        for v, a, b, c in zip(values, eight, threes, ones):
            assert self.outcome(a) == self.outcome(b) == self.outcome(c)
            if not any(isinstance(res, PipelineError) for res in a.values()):
                assert so.adaptive_all(Sample.from_values(v)) == a

    def test_tuning_below_small_r_takes_the_r_zero_branch(self):
        # with rho_hat at RHO_CEILING, R*_3 ~ rho/2 = -5e-7, so a classical
        # estimate above 50 puts r = R*/gamma_c below SMALL_R, where g3 is
        # the moment ratio
        s = Sample.from_values(sample(DistSpec("pareto", 1.0), 400, 3).values ** 60)
        k = int(s.n**0.995)
        second = so._SecondOrder(np.arange(0), k, np.array([so.RHO_CEILING]), np.array([0]),
                                 np.empty((1, 0)), np.array([1.0]), np.array([-1]))
        res = so._result(so._tail_arrays(SampleBlock.of(s), 3, second), 0)
        assert 0.0 < abs(res.r_generalized) < SMALL_R
        assert res.generalized.spec.r == 0.0
        assert res.generalized == est.g3(s, res.generalized.spec.k, res.r_generalized)
        assert res.generalized.gamma_hat == est.moment_ratio(s, res.generalized.spec.k).gamma_hat


class TestPipelineArrays:
    """adaptive_arrays, the array core: each row's arrays are the values of
    the per-sample result objects, bit for bit, and a failing row records
    the step at which adaptive_estimate raises."""

    # TestBlockTailSteps' cells and a cell whose rho estimates are clamped
    CELLS = TestBlockTailSteps.CELLS + [("burr", 6e-16, -15.0, 1000)]
    FIELDS = ("rho", "tau", "path", "beta", "k_c", "gamma_c", "r", "k_g", "gamma_g",
              "failed_step")

    @pytest.mark.parametrize("family, gamma, rho, n", CELLS)
    def test_rows_are_the_per_sample_results(self, family, gamma, rho, n):
        # rows 33 and 38 of stream 2 are clamped at the rho floor in the last cell
        block = sample_block(DistSpec(family, gamma, rho), n, 7, [(2, i) for i in range(24, 40)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            arrays = so.adaptive_arrays(block)
            rows = so.adaptive_all(block)
        failed = 0
        for i, s in enumerate(block.samples()):
            for j, a in arrays.items():
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        res = so.adaptive_estimate(s, j)
                except PipelineError as err:
                    failed += 1
                    assert so.STEPS[a.failed_step[i]] == err.step
                    assert (rows[i][j].step, str(rows[i][j])) == (err.step, str(err))
                    assert str(rows[i][j].__cause__) == str(err.__cause__)
                    continue
                assert a.failed_step[i] == -1
                assert (a.rho[i], a.tau[i], a.beta[i]) == (
                    res.rho.rho_hat, res.rho.tau, res.beta.beta_hat)
                valid = ~np.isnan(a.path[i])
                assert np.array_equal(a.k_window[valid], res.rho.path[:, 0])
                assert np.array_equal(a.path[i][valid], res.rho.path[:, 1])
                assert (a.k_c[i], a.gamma_c[i]) == (res.classical.spec.k, res.classical.gamma_hat)
                assert a.r[i] == res.r_generalized
                assert (a.k_g[i], a.gamma_g[i]) == (
                    res.generalized.spec.k, res.generalized.gamma_hat)
                assert rows[i][j] == res
        clamped = sum(str(w.message).startswith("rho estimate") for w in caught)
        assert clamped == 2 * np.sum(arrays[1].rho == so.RHO_FLOOR)
        if gamma == 6e-16:
            assert clamped > 0
        if n == 100:
            assert 0 < failed < 32

    @pytest.mark.parametrize("family, gamma, rho, n", [
        ("burr", 1.0, -1.0, 300), ("kumaraswamy", 1.5e-17, -0.5, 100)])
    def test_blocks_of_1_16_and_200_rows_agree(self, family, gamma, rho, n):
        values = sample_block(DistSpec(family, gamma, rho), n, 7,
                              [(2, i) for i in range(200)]).values
        for size in (1, 16):
            parts = [so.adaptive_arrays(SampleBlock.from_values(values[lo:lo + size]))
                     for lo in range(0, 200, size)]
            whole = so.adaptive_arrays(SampleBlock.from_values(values))
            for j in (1, 3):
                for name in self.FIELDS:
                    got = np.concatenate([getattr(p[j], name) for p in parts])
                    assert np.array_equal(got, getattr(whole[j], name), equal_nan=True), name

    def test_below_the_minimum_and_one_pipeline(self):
        block = sample_block(DistSpec("burr", 1.0, -1.0), 99, 1, [(0,), (1,)])
        with pytest.raises(DomainError):
            so.adaptive_arrays(block)
        block = sample_block(DistSpec("burr", 1.0, -1.0), 400, 1, [(0,), (1,)])
        (only,) = so.adaptive_arrays(block, (3,)).values()
        assert only.j == 3
        assert np.array_equal(only.gamma_g, so.adaptive_arrays(block)[3].gamma_g)


class TestAdaptivePipeline:
    def test_minimum_sample_size(self):
        s = burr_sample(1.0, -1.0, 99, 5)
        with pytest.raises(DomainError):
            so.adaptive_estimate(s, 1)

    def test_j_restriction(self):
        s = burr_sample(1.0, -1.0, 500, 5)
        with pytest.raises(DomainError):
            so.adaptive_estimate(s, 2)

    def test_determinism(self):
        s = burr_sample(1.0, -1.0, 1000, 8)
        a = so.adaptive_estimate(s, 1)
        b = so.adaptive_estimate(s, 1)
        assert a.classical.gamma_hat == b.classical.gamma_hat
        assert a.generalized.gamma_hat == b.generalized.gamma_hat
        assert a.r_generalized == b.r_generalized

    def test_structure(self):
        s = burr_sample(1.0, -1.0, 2000, 9)
        res = so.adaptive_estimate(s, 3)
        assert res.classical.spec.r == 0.0
        assert res.generalized.spec.r == pytest.approx(
            r_star(res.rho.rho_hat, 3) / res.classical.gamma_hat)
        assert 2 <= res.classical.spec.k <= 1999
        assert 2 <= res.generalized.spec.k <= 1999

    def test_adaptive_all_shares_second_order(self):
        s = burr_sample(1.0, -1.0, 1500, 10)
        both = so.adaptive_all(s)
        assert both[1].rho.rho_hat == both[3].rho.rho_hat
        assert both[1].beta.beta_hat == both[3].beta.beta_hat

    @pytest.mark.slow
    def test_burr_gamma_recovery_rate(self):
        """Adaptive estimates land in (0.5, 1.5) for Burr(1, -1) >= 90%."""
        n, reps = 2000, 100
        hits = {1: 0, 3: 0}
        for i in range(reps):
            s = burr_sample(1.0, -1.0, n, 12_000 + i)
            both = so.adaptive_all(s)
            for j in (1, 3):
                if 0.5 < both[j].generalized.gamma_hat < 1.5:
                    hits[j] += 1
        assert hits[1] >= 0.9 * reps, hits
        assert hits[3] >= 0.9 * reps, hits
