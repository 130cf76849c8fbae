import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtail import estimators as est
from gtail import secondorder as so
from gtail.asymptotics import SecondOrderModel, k_star, r_star, tail_size
from gtail.distributions import DistSpec, draw_block, sample
from gtail.errors import DegenerateSampleError, DomainError, PipelineError
from gtail.stats import SMALL_R, Sample, SampleBlock, log_moment_profile


def burr_sample(gamma, rho, n, seed):
    return sample(DistSpec("burr", gamma, rho), n, seed)


def sample_block(d, n, seed, stream_keys):
    """One sample of n draws per stream key, stacked as rows: row i holds
    sample(d, n, seed, stream_key=stream_keys[i])."""
    return SampleBlock.from_values(draw_block(d, n, seed, stream_keys))


def row_samples(block):
    """One Sample per row of a block."""
    return [Sample.from_values(v) for v in block.values]


def both_pipelines(s):
    """{j: adaptive_estimate(s, j)} for j = 1 and 3."""
    return {j: so.adaptive_estimate(s, j) for j in (1, 3)}


def plug_in_k(n, rho, beta, j, generalized):
    """The rounded plug-in tail size of one (rho, beta): k_star at gamma = 1
    (tail sizes at R*/gamma are gamma-free) and R = R*_j(rho) on the tuned
    route, R = 0 on the classical one."""
    R = r_star(rho, j) if generalized else 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # clamps to [2, n-1] are expected
        return k_star(SecondOrderModel(1.0, rho, beta), R, j, n)


def block_results(block):
    """Per row of a block, {j: AdaptiveResult, or the PipelineError its row
    raises}, built from the array core."""
    arrays = so.adaptive_arrays(block)
    rows = []
    for i, s in enumerate(row_samples(block)):
        row = {}
        for j, a in arrays.items():
            try:
                row[j] = so._result(a, i, s)
            except PipelineError as err:
                row[j] = err
        rows.append(row)
    return rows


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

    def test_path_forms_agree(self):
        """_rho_path on floats (rho_hat's call), on arrays and in place into
        out and spare gives the same bits."""
        rng = np.random.default_rng(8)
        m = np.exp(rng.uniform(-30.0, 30.0, (3, 4, 50)))
        m[:, 0, :3] = m[0, 0, :3]  # T = 1 up to rounding
        for tau in (0, 1, 2):
            fresh = so._rho_path(*m, tau)
            out, spare = np.empty((3, 4, 60))[0, :, 5:55], np.empty((2, 4, 50))
            assert so._rho_path(*m, tau, out, spare) is out
            assert np.array_equal(out, fresh, equal_nan=True)
            floats = [so._rho_path(*m[:, i, j].tolist(), tau) for i in range(4) for j in range(50)]
            assert np.array_equal(np.array(floats).reshape(4, 50), fresh, equal_nan=True)

    def test_tile_masks_non_positive_moments(self):
        """A moment at or below 0, which the prefix sums can leave by
        cancellation, makes its k NaN in both paths even where rho_hat would
        be finite."""
        g = np.array([[[-1e-17, 0.5, 0.5]], [[1.0, 0.7, 0.7]], [[3.0, 1.1, 1.1]]])
        dst = np.empty((2, 1, 2))
        so._rho_tile(g.copy(), np.empty((3, 1, 3)), dst)
        assert np.isfinite(so._rho_path(*g[:, 0, 0] / [1.0, 2.0, 6.0], 1))
        assert np.isnan(dst[:, 0, 0]).all()
        for tau in (0, 1):
            want = so._rho_path(0.5, 0.7 / 2.0, 1.1 / 6.0, tau)
            assert np.isfinite(want) and dst[tau, 0, 1] == want

    def test_bad_tau(self):
        """A tau that is not 0 or a positive integer is a DomainError, where
        a tau of 0.5 used to give a rho_hat."""
        s = Sample.from_values([1.0, 2.0, 4.0, 8.0])
        for tau in (-1, 0.5, math.nan, math.inf):
            with pytest.raises(DomainError, match="tau must be 0 or a positive integer"):
                so.rho_hat(s, 3, tau)

    @pytest.mark.parametrize("m", [-900, -13, 13, 900])
    def test_scale_invariance(self, m):
        """rho_hat reads only ratios to the threshold, so an exact rescaling
        leaves it bit-identical at any scale (the log-moment profile, which
        sums raw logs, does not: see estimate_rho)."""
        s = burr_sample(1.0, -1.0, 2000, 11)
        scaled = Sample.from_values(s.values * 2.0**m)
        for k in (10, 500, 1999):
            for tau in (0, 1):
                assert so.rho_hat(scaled, k, tau) == so.rho_hat(s, k, tau)


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

    def test_block_rows_match_single_samples(self):
        samples = [burr_sample(1.0, -1.0, 500, seed) for seed in range(5)]
        block = SampleBlock.from_values(np.stack([s.values for s in samples]))
        for s, row in zip(samples, block_results(block)):
            one_rho = so.estimate_rho(s)
            for j in (1, 3):
                rho = row[j].rho
                assert (rho.rho_hat, rho.tau, rho.k_used) == (
                    one_rho.rho_hat, one_rho.tau, one_rho.k_used)
            one = both_pipelines(s)
            for j in (1, 3):
                assert row[j].generalized.gamma_hat == one[j].generalized.gamma_hat
                assert row[j].beta.beta_hat == one[j].beta.beta_hat

    def test_block_row_failure_stays_in_its_row(self):
        good = burr_sample(1.0, -1.0, 200, 1).values
        # the top 196 values tie, so every log-moment in the k window is 0
        tied = np.concatenate([np.full(196, 2.0), [0.5, 0.6, 0.7, 0.8]])
        results = block_results(SampleBlock.from_values(np.stack([good, tied])))
        assert isinstance(results[0][1], so.AdaptiveResult)
        assert isinstance(results[1][1], PipelineError)
        assert results[1][1].step == "rho"
        with pytest.raises(PipelineError):
            so.adaptive_estimate(Sample.from_values(tied), 1)

    def test_degenerate_over_the_whole_window(self):
        tied = Sample.from_values(np.concatenate([np.full(196, 2.0), [0.5, 0.6, 0.7, 0.8]]))
        with pytest.raises(DegenerateSampleError,
                           match="^rho estimation degenerate over the whole k window$"):
            so.estimate_rho(tied)

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
        """The sweep's path of each tau is rho_hat at each k of the window,
        and never positive."""
        s = burr_sample(1.0, -1.0, 1000, 3)
        lo, hi = int(1000**0.90), int(1000**0.995)
        out = np.empty((2, 1, hi - lo + 1))
        paths = log_moment_profile(s, lo, hi, out, so._rho_tile)
        assert np.all(paths <= 0.0)
        for tau in (0, 1):
            for k, v in zip(range(lo, hi + 1), paths[tau, 0].tolist()):
                assert so.rho_hat(s, k, tau) == pytest.approx(v, rel=1e-12)


class TestBetaHat:
    def test_scale_invariance(self):
        s = burr_sample(1.0, -1.0, 2000, 11)
        b = so.beta_hat(s, 1500, -1.0)
        assert so.beta_hat(Sample.from_values(s.values * 2.0**9), 1500, -1.0) == b
        arbitrary = Sample.from_values(s.values * 3.7)
        assert so.beta_hat(arbitrary, 1500, -1.0) == pytest.approx(b, rel=1e-9)

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
        with warnings.catch_warnings():  # no "invalid value" warning first
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="rho must be finite, got -inf"):
                so.beta_hat(s, 100, -math.inf)

    @pytest.mark.parametrize("k, rho", [(2, -200.0), (5, -133.963), (2, -1e300)])
    def test_rho_too_negative_for_a_finite_estimate(self, k, rho):
        # (k/n)^rho = 500^200 overflows; 200^133.963 = 1.79e308 is a float,
        # but beta_hat is not
        s = sample(DistSpec("burr", 1.0, -1.0), 1000, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=re.escape(f"at rho={rho}, k={k}, n=1000") + "$"):
                so.beta_hat(s, k, rho)

    def test_zero_denominator(self):
        # the top 10 values tie, so every log-spacing below k = 10 is 0
        s = Sample.from_values([2.0] * 10 + [1.0])
        with pytest.raises(DegenerateSampleError,
                           match=r"^beta estimation degenerate \(zero denominator\)$"):
            so.beta_hat(s, 5, -1.0)


class TestAdaptiveK:
    """The plug-in tail size: the block form _tail_sizes that the pipeline
    runs, and its one-model form k_star."""

    def test_hand_value_matches_generic_optimum(self):
        # classical Hill route at rho=-1, beta=1, n=1000: same 126 as the
        # generic AMSE optimum
        assert so._tail_sizes(1000, np.array([-1.0]), np.array([1.0]), 1, 0.0).tolist() == [126]

    def test_printed_formulas_match_generic_k_star(self):
        rho = np.repeat([-0.3, -1.0, -2.5, -6.0], 3)
        beta = np.tile([0.5, 1.0, -1.5], 4)
        for n in (500, 5000, 100_000):
            for j in (1, 3):
                for generalized in (False, True):
                    R = np.array([r_star(r, j) for r in rho.tolist()]) if generalized else 0.0
                    got = so._tail_sizes(n, rho, beta, j, R).tolist()
                    expected = [plug_in_k(n, r, b, j, generalized)
                                for r, b in zip(rho.tolist(), beta.tolist())]
                    assert got == expected, (n, j, generalized)

    @staticmethod
    def printed_formula(n, rho, beta, j, generalized):
        """The printed plug-in tail size in Python floats, computed directly:
        the reference."""
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

    @classmethod
    def printed_k(cls, n, rho, beta, j, generalized):
        """The printed formula's k, as test_arrays_match_the_printed_formula
        expects it, or None where the optimum is not a finite float."""
        try:
            beta2 = beta**2
        except OverflowError:
            beta2 = math.inf
        ln_k = cls.printed_ln_k(n, rho, beta, j, generalized)
        if not sys.float_info.min <= beta2 < math.inf or ln_k >= math.log(sys.float_info.max):
            return None
        try:
            return cls.printed_formula(n, rho, beta, j, generalized)
        except (ArithmeticError, ValueError):
            return min(max(round(math.exp(ln_k)), 2), n - 1)

    def test_arrays_match_the_printed_formula(self):
        """Entry by entry, DomainError exactly where the optimum is not a
        finite float: beta^2 overflowing or underflowing (below the smallest
        normal float), or the tail size overflowing. Elsewhere the printed
        formula's value, and where only its product -rho beta^2 (1-2R)^p
        over- or underflows, the clamped log-space value of the same
        formula."""
        rng = np.random.default_rng(2)
        rho = -np.exp(rng.uniform(math.log(1e-6), math.log(25.0), 3000))
        beta = rng.choice([-1.0, 1.0], 3000) * 10.0 ** rng.uniform(-170.0, 170.0, 3000)
        ln_max = math.log(sys.float_info.max)
        for n in (100, 1000, 10**6):
            for j in (1, 3):
                for generalized in (False, True):
                    raised = 0
                    for r, b in zip(rho.tolist(), beta.tolist()):
                        try:
                            beta2 = b**2
                        except OverflowError:
                            beta2 = math.inf
                        ln_k = self.printed_ln_k(n, r, b, j, generalized)
                        if not sys.float_info.min <= beta2 < math.inf or ln_k >= ln_max:
                            with pytest.raises(DomainError):
                                plug_in_k(n, r, b, j, generalized)
                            raised += 1
                            continue
                        try:
                            want = self.printed_formula(n, r, b, j, generalized)
                        except (ArithmeticError, ValueError):
                            want = min(max(round(math.exp(ln_k)), 2), n - 1)
                        assert plug_in_k(n, r, b, j, generalized) == want
                    assert 0 < raised < rho.size
        got = plug_in_k(1000, -1.0, 1.0, 1, generalized=False)
        assert type(got) is int

    @settings(max_examples=300, deadline=None)
    @given(n=st.sampled_from([100, 1000, 10**6]), j=st.sampled_from([1, 3]),
           generalized=st.booleans(),
           rows=st.lists(st.tuples(st.floats(-25.0, -1e-6), st.sampled_from([-1.0, 1.0]),
                                   st.floats(-170.0, 170.0)), min_size=1, max_size=16))
    # k* overflows in row 1, beta^2 overflows in row 2 and underflows in row 3
    @example(n=10**6, j=1, generalized=True,
             rows=[(-1.0, 1.0, 0.0), (-1e-6, -1.0, -153.0), (-2.0, 1.0, 160.0), (-0.5, -1.0, -160.0)])
    def test_block_plug_in_is_the_printed_formula(self, n, j, generalized, rows):
        """The array plug-in on a block of rows, one R*_j(rho) per row on
        the tuned route, against the printed formula row by row: NaN exactly
        where the reference has no finite optimum, its k elsewhere."""
        rho = np.array([r for r, _, _ in rows])
        beta = np.array([sign * 10.0**e for _, sign, e in rows])
        R = np.array([r_star(r, j) for r in rho.tolist()]) if generalized else 0.0
        got = so._tail_sizes(n, rho, beta, j, R)
        for k, r, b in zip(got.tolist(), rho.tolist(), beta.tolist()):
            want = self.printed_k(n, r, b, j, generalized)
            assert math.isnan(k) if want is None else k == want, (r, b)

    @pytest.mark.parametrize("n", [0, -5])
    def test_n_below_1_is_a_domain_error(self, n):
        """k_star needs a k in [2, n - 1], and the real tail size n >= 1."""
        with pytest.raises(DomainError, match="n must be >= 3"):
            plug_in_k(n, -1.0, 1.0, 1, False)
        with pytest.raises(DomainError, match="n must be >= 1"):
            tail_size(0.0, -1.0, 1.0, 1, n)

    def test_monotone_in_n(self):
        ks = [plug_in_k(n, -1.0, 1.0, 3, True) for n in (200, 2000, 20000, 200000)]
        assert ks == sorted(ks)
        assert ks[0] < ks[-1]


class TestBlockTailSteps:
    """Steps 3-5 on a block: every row gets the estimators' own values at its
    tail sizes and tuning, bit for bit, whatever the other rows hold."""

    CELLS = [("burr", 1.0, -1.0, 1000), ("kumaraswamy", 0.5, -2.0, 500),
             # near-tied values, as Kumaraswamy draws at this gamma are (see
             # cell_block): rows fail at rho and classical (tied tails)
             ("kumaraswamy", 1.5e-17, -0.5, 100)]

    @staticmethod
    def cell_block(family, gamma, rho, n, stream):
        """Eight rows of a cell, on stream keys (stream, i). The near-tied
        cell's rows are built from explicit doubles, 1 + m 2^-52 for m from a
        seeded integer RNG, capped per row so that more or fewer top values
        tie: the quantile's draws at this gamma differ between numpy's SIMD
        kernel sets in the last bit, and so does which of those rows fail.
        These rows give, on either kernel set, rows that fail at rho (the
        whole rho window ties), rows that fail at classical (the top k_c + 1
        values tie) and rows that pass, for stream 0 and 1."""
        if gamma > 1e-10:
            return sample_block(DistSpec(family, gamma, rho), n, 7, [(stream, i) for i in range(8)])
        caps = np.array([1, 5, 10, 20, 50, 99, 1, 99])[:, None]
        m = np.minimum(np.random.default_rng(stream).integers(0, 100, (8, n)), caps)
        return SampleBlock.from_values(1.0 + m * 2.0**-52)

    @staticmethod
    def outcome(results):
        return {j: (res.step, str(res)) if isinstance(res, PipelineError) else res
                for j, res in results.items()}

    @pytest.mark.parametrize("family, gamma, rho, n", CELLS)
    def test_rows_are_the_estimators_at_their_k_and_r(self, family, gamma, rho, n):
        block = self.cell_block(family, gamma, rho, n, 0)
        checked, steps = 0, set()
        for s, row in zip(row_samples(block), block_results(block)):
            for j, classical, tuned in ((1, est.hill, est.g1), (3, est.moment_ratio, est.g3)):
                res = row[j]
                steps.add(res.step if isinstance(res, PipelineError) else None)
                if isinstance(res, PipelineError) and res.step == "rho":
                    continue
                rho_hat = so.estimate_rho(s).rho_hat
                beta_hat = so.beta_hat(s, int(n**0.995), rho_hat)
                k_c = plug_in_k(n, rho_hat, beta_hat, j, generalized=False)
                checked += 1
                if isinstance(res, PipelineError):
                    assert res.step in ("classical", "r_star")
                    if res.step == "classical":
                        with pytest.raises(DegenerateSampleError, match=str(res.__cause__)):
                            classical(s, k_c)
                    else:
                        assert classical(s, k_c).gamma_hat <= 0.0
                    continue
                k_g = plug_in_k(n, rho_hat, beta_hat, j, generalized=True)
                assert res.classical.gamma_hat == classical(s, k_c).gamma_hat
                assert res.classical == tuned(s, k_c, 0.0)
                assert res.r_generalized == r_star(rho_hat, j) / res.classical.gamma_hat
                assert res.generalized == tuned(s, k_g, res.r_generalized)
        assert checked > 0
        if gamma < 1e-10:  # the near-tied cell: rows fail at rho, at classical, and pass
            assert {"rho", "classical", None} <= steps

    @pytest.mark.parametrize("family, gamma, rho, n", CELLS)
    def test_block_size_does_not_change_a_row(self, family, gamma, rho, n):
        values = self.cell_block(family, gamma, rho, n, 1).values
        eight = block_results(SampleBlock.from_values(values))
        threes = [row for lo in range(0, 8, 3)
                  for row in block_results(SampleBlock.from_values(values[lo:lo + 3]))]
        ones = [block_results(SampleBlock.from_values(v[None]))[0] for v in values]
        for v, a, b, c in zip(values, eight, threes, ones):
            assert self.outcome(a) == self.outcome(b) == self.outcome(c)
            if not any(isinstance(res, PipelineError) for res in a.values()):
                assert both_pipelines(Sample.from_values(v)) == a

    def test_tuning_below_small_r_takes_the_r_zero_branch(self):
        # with rho_hat at RHO_CEILING, R*_3 ~ rho/2 = -5e-7, so a classical
        # estimate above 50 puts r = R*/gamma_c below SMALL_R, where g3 is
        # the moment ratio
        s = Sample.from_values(sample(DistSpec("pareto", 1.0), 400, 3).values ** 60)
        k = int(s.n**0.995)
        a = so._tail_arrays(s, 3, k, np.array([so.RHO_CEILING]), np.array([0]), np.array([1.0]))
        res = so._result(a, 0, s)
        assert 0.0 < abs(res.r_generalized) < SMALL_R
        assert res.generalized.spec.r == 0.0
        assert res.generalized == est.g3(s, res.generalized.spec.k, res.r_generalized)
        assert res.generalized.gamma_hat == est.moment_ratio(s, res.generalized.spec.k).gamma_hat

    @pytest.mark.parametrize("beta, shown", [(1e200, "1e+200"), (1e-160, "1e-160")])
    def test_row_without_a_finite_tail_size_fails_at_k_classical(self, beta, shown):
        # beta^2 overflows or falls below the smallest normal float, so
        # _tail_sizes gives NaN for this row, where k_star raises
        s = burr_sample(1.0, -1.0, 1000, 5)
        a = so._tail_arrays(s, 1, int(s.n**0.995), np.array([-1.0]), np.array([0]), np.array([beta]))
        assert np.isnan(a.k_c[0])
        with pytest.raises(PipelineError) as info:
            so._result(a, 0, s)
        assert info.value.step == "k_classical"
        assert type(info.value.__cause__) is DomainError
        assert str(info.value.__cause__) == (
            f"no finite AMSE-optimal tail size at rho=-1.0, beta={shown}")

    @pytest.mark.parametrize("rho, tau, beta, step, message", [
        (math.nan, -1, math.nan, "rho", so._RHO_DEGENERATE),
        (-1.0, 0, 0.0, "beta", "beta estimate is exactly zero"),
        (-1.0, 0, math.nan, "beta", so._BETA_DEGENERATE),
    ])
    def test_failed_second_order_row_is_nan_from_its_step_on(self, rho, tau, beta, step, message):
        # NaN is the only stand-in: it flows through steps 3-5, and the
        # row's failed step is the first failing test in order
        s = burr_sample(1.0, -1.0, 1000, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = so._tail_arrays(s, 1, int(s.n**0.995), np.array([rho]), np.array([tau]), np.array([beta]))
        assert so.STEPS[a.failed_step[0]] == step
        assert np.isnan(a.k_c[0]) and np.isnan(a.k_g[0])
        with pytest.raises(PipelineError) as info:
            so._result(a, 0, s)
        assert (info.value.step, str(info.value)) == (step, f"step '{step}': {message}")

    def test_beta_of_a_nan_rho_row_is_nan(self):
        block = sample_block(DistSpec("burr", 1.0, -1.0), 1000, 5, [(0, i) for i in range(4)])
        k, rho = int(block.n**0.995), np.array([-1.0, -0.5, -2.0, -0.25])
        with_nan = rho.copy()
        with_nan[1] = math.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            beta, _ = so._beta_arrays(block, k, with_nan)
        assert np.isnan(beta[1])
        keep = [0, 2, 3]
        assert np.array_equal(beta[keep], so._beta_arrays(block, k, rho)[0][keep])
        assert np.isfinite(beta[keep]).all()

    def test_beta_of_an_overflowing_row_is_nan(self):
        # (k/n)^rho = 500^200 is not a float at k = 2, n = 1000
        block = sample_block(DistSpec("burr", 1.0, -1.0), 1000, 5, [(0, i) for i in range(4)])
        rho = np.array([-1.0, -0.5, -2.0, -0.25])
        with_huge = rho.copy()
        with_huge[2] = -200.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            beta, zero_den = so._beta_arrays(block, 2, with_huge)
        assert np.isnan(beta[2]) and not zero_den.any()
        keep = [0, 1, 3]
        assert np.array_equal(beta[keep], so._beta_arrays(block, 2, rho)[0][keep])
        assert np.isfinite(beta[keep]).all()


class TestPipelineArrays:
    """adaptive_arrays, the array core: each row's arrays are the values of
    the per-sample result objects, bit for bit, and a failing row records
    the step at which adaptive_estimate raises."""

    # TestBlockTailSteps' cells and a cell whose rho estimates are clamped
    CELLS = TestBlockTailSteps.CELLS + [("burr", 6e-16, -15.0, 1000)]
    FIELDS = ("rho", "tau", "beta", "k_c", "gamma_c", "r", "k_g", "gamma_g", "failed_step")

    @pytest.mark.parametrize("family, gamma, rho, n", CELLS)
    def test_rows_are_the_per_sample_results(self, family, gamma, rho, n):
        # rows 33 and 38 of stream 2 are clamped at the rho floor in the last cell
        block = sample_block(DistSpec(family, gamma, rho), n, 7, [(2, i) for i in range(24, 40)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            arrays = so.adaptive_arrays(block)
            rows = block_results(block)
        failed = 0
        for i, s in enumerate(row_samples(block)):
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

    @pytest.mark.parametrize("family, gamma, rho, n", [
        ("burr", 1.25, -3.5, 1000), ("kumaraswamy", 0.5, -2.0, 500), TestBlockTailSteps.CELLS[-1]])
    def test_permuting_rows_permutes_every_field(self, family, gamma, rho, n):
        """A block's rows in another order give each field of both pipelines
        in that order, bit for bit: no row's value depends on where it sits,
        also for the near-tied rows that fail at rho or at classical."""
        if gamma > 1e-10:
            block = sample_block(DistSpec(family, gamma, rho), n, 7, [(3, i) for i in range(32)])
        else:
            block = TestBlockTailSteps.cell_block(family, gamma, rho, n, 0)
        order = np.random.default_rng(11).permutation(block.rows)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # rho clamps, of the same rows in both
            whole = so.adaptive_arrays(block)
            permuted = so.adaptive_arrays(SampleBlock.from_values(block.values[order]))
        for j in (1, 3):
            assert permuted[j].k_used == whole[j].k_used
            for name in self.FIELDS:
                assert getattr(permuted[j], name).tobytes() == getattr(whole[j], name)[order].tobytes(), (j, name)
        if gamma < 1e-10:
            failed = {so.STEPS[i] for a in whole.values() for i in a.failed_step.tolist() if i >= 0}
            assert {"rho", "classical"} <= failed

    def test_below_the_minimum_and_one_pipeline(self):
        block = sample_block(DistSpec("burr", 1.0, -1.0), 99, 1, [(0,), (1,)])
        with pytest.raises(DomainError):
            so.adaptive_arrays(block)
        block = sample_block(DistSpec("burr", 1.0, -1.0), 400, 1, [(0,), (1,)])
        (only,) = so.adaptive_arrays(block, (3,)).values()
        assert only.j == 3
        assert np.array_equal(only.gamma_g, so.adaptive_arrays(block)[3].gamma_g)

    @pytest.mark.parametrize("js", [(2,), (0,), (1, 5)])
    def test_pipelines_other_than_1_and_3_rejected(self, js):
        block = sample_block(DistSpec("burr", 1.0, -1.0), 400, 1, [(0,), (1,)])
        with pytest.raises(DomainError, match=f"^adaptive pipeline defined for j in .1, 3., got {js[-1]}$"):
            so.adaptive_arrays(block, js)


class TestAdaptivePipeline:
    def test_result_functions_take_one_sample(self):
        """rho_hat and the functions that return result objects take one
        Sample: a block of 3, 2 or 1 rows is a DomainError. adaptive_arrays
        takes the block, and gives each row its own Sample's arrays."""
        values = sample_block(DistSpec("burr", 1.0, -1.0), 200, 1, [(0,), (1,), (2,)]).values
        for rows in (3, 2, 1):
            block = SampleBlock.from_values(values[:rows])
            for call in (so.estimate_rho, lambda b: so.rho_hat(b, 150, 0), lambda b: so.beta_hat(b, 150, -1.0),
                         lambda b: so.adaptive_estimate(b, 1), lambda b: so.adaptive_estimate(b, 3)):
                with pytest.raises(DomainError, match="^expected one Sample, got SampleBlock$"):
                    call(block)
            arrays = so.adaptive_arrays(block)
            for i, s in enumerate(row_samples(block)):
                for j, a in so.adaptive_arrays(s).items():
                    for name in TestPipelineArrays.FIELDS:
                        assert getattr(arrays[j], name)[i:i + 1].tobytes() == getattr(a, name).tobytes()

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
        both = so.adaptive_arrays(s)
        assert both[1].failed_step.tolist() == both[3].failed_step.tolist() == [-1]
        for name in ("rho", "tau", "beta"):
            assert getattr(both[1], name).tobytes() == getattr(both[3], name).tobytes(), name
        assert both[1].k_used == both[3].k_used

    @pytest.mark.slow
    def test_burr_gamma_recovery_rate(self):
        """Adaptive estimates land in (0.5, 1.5) for Burr(1, -1) >= 90%."""
        n, reps = 2000, 100
        hits = {1: 0, 3: 0}
        for i in range(reps):
            s = burr_sample(1.0, -1.0, n, 12_000 + i)
            both = both_pipelines(s)
            for j in (1, 3):
                if 0.5 < both[j].generalized.gamma_hat < 1.5:
                    hits[j] += 1
        assert hits[1] >= 0.9 * reps, hits
        assert hits[3] >= 0.9 * reps, hits
