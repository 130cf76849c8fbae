import hashlib
import json
import math
import multiprocessing
import warnings

import numpy as np
import pytest

import gtail
from gtail import montecarlo as mc
from gtail.asymptotics import psi_MR
from gtail.errors import DegenerateSampleError, DomainError


def small_cfg(**over):
    base = dict(family="burr", n=400, replications=8, seed=11,
                gamma=1.0, rho=-1.0)
    base.update(over)
    return mc.ExperimentConfig(**base)


def per_sample_estimates(cfg, gamma, rho, cell_key):
    """cell_estimates replayed one replication at a time through gtail.sample
    and adaptive_estimate, the reference; also the replications whose draws
    are not a valid sample."""
    spec = gtail.DistSpec(cfg.family, gamma, rho)
    want = {label: np.full(cfg.replications, np.nan) for label in mc.LABELS}
    unsampleable = []
    for rep in range(cfg.replications):
        try:
            s = gtail.sample(spec, cfg.n, cfg.seed, stream_key=(cell_key, rep))
        except DomainError:
            unsampleable.append(rep)
            continue
        for j, classical, generalized in ((1, "hill", "gh"), (3, "mr", "gmr")):
            try:
                res = gtail.adaptive_estimate(s, j)
            except gtail.PipelineError:
                continue
            want[classical][rep] = res.classical.gamma_hat
            want[generalized][rep] = res.generalized.gamma_hat
    return want, unsampleable


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            small_cfg(replications=0)
        with pytest.raises(DomainError):
            small_cfg(estimators=("hill", "nope"))
        with pytest.raises(DomainError):
            small_cfg(grid=(((-1.0, -1.0)),))
        with pytest.raises(DomainError, match="seed must be >= 0"):
            small_cfg(seed=-1)

    def test_digest_stability(self):
        assert small_cfg().digest() == small_cfg().digest()
        assert small_cfg().digest() != small_cfg(seed=12).digest()


class TestRunCell:
    def test_determinism_same_seed(self):
        cfg = small_cfg()
        a = mc.run_cell(cfg, 1.0, -1.0)
        b = mc.run_cell(cfg, 1.0, -1.0)
        assert a == b

    @pytest.mark.parametrize("family, n, gamma, rho, reps", [
        # one full block and one partial block of 4 rows
        ("burr", 1000, 1.0, -1.0, mc._BLOCK_BYTES // (8 * 1000) + 4),
        ("kumaraswamy", 100, 1.5e-17, -0.5, 90),       # near-tied values: rows fail at
                                                       # rho and classical (tied tails)
        ("burr", 1000, 6e-16, -15.0, 100),             # rho-floor clamps
    ])
    def test_blocks_match_the_per_sample_pipeline(self, family, n, gamma, rho, reps):
        cfg = small_cfg(family=family, n=n, replications=reps, seed=7, gamma=gamma, rho=rho)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = mc.cell_estimates(cfg, gamma, rho, cell_key=5)
        block_clamps = sum(str(w.message).startswith("rho estimate") for w in caught)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            want, _ = per_sample_estimates(cfg, gamma, rho, cell_key=5)
        # adaptive_estimate runs the rho step once per pipeline
        sample_clamps = sum(str(w.message).startswith("rho estimate") for w in caught) // 2

        for label in mc.LABELS:
            assert np.array_equal(got[label], want[label], equal_nan=True), label
        assert block_clamps == sample_clamps
        if rho == -15.0:
            assert block_clamps > 0
        if n == 100:
            assert 0 < sum(np.isnan(v).sum() for v in got.values()) < 4 * reps

    def test_workers_do_not_change_bytes(self):
        cfg = small_cfg(replications=12)
        rep1 = mc.simulate(cfg, workers=1)
        rep4 = mc.simulate(cfg, workers=4)
        assert mc.report_to_csv(rep1) == mc.report_to_csv(rep4)

    def test_mse_decomposition(self):
        cell = mc.run_cell(small_cfg(replications=20), 1.0, -1.0)
        for st in cell.stats.values():
            if st.count == 0:
                continue
            assert abs(st.mse - (st.variance + st.bias**2)) <= 1e-10 * max(st.mse, 1.0)

    def test_failure_accounting(self):
        cell = mc.run_cell(small_cfg(replications=10), 1.0, -1.0)
        for st in cell.stats.values():
            assert st.count + st.failures == 10

    def test_below_the_pipeline_minimum(self):
        with pytest.raises(DomainError):
            mc.run_cell(small_cfg(n=99), 1.0, -1.0)

    def test_pareto_cell_is_degenerate(self):
        cfg = small_cfg(family="pareto", rho=None)
        cell = mc.run_cell(cfg, 1.0, -1.0)
        assert cell.degenerate
        for st in cell.stats.values():
            assert st.failures == cfg.replications
            assert math.isnan(st.mse)


class TestSimulate:
    def test_kumaraswamy_far_tail_cell_runs(self):
        # the quantile used to overflow to inf for p > 1 - 6e-4 at rho = -4.95,
        # so sampling raised DomainError and aborted the whole grid
        cfg = small_cfg(family="kumaraswamy", n=1000, replications=4, seed=20240,
                        gamma=0.05, rho=-4.95)
        rep = mc.simulate(cfg)
        assert all(st.count + st.failures == 4 for st in rep.cells[0].stats.values())

    @pytest.mark.parametrize("gamma, rho", [(1.0, -0.01), (1.0, -0.02), (3.95, -0.01)])
    def test_unsampleable_replications_fail_alone(self, gamma, rho):
        # the Burr quantile underflows to 0.0 in the lower tail here, so some
        # replications draw no valid sample; simulate used to raise DomainError
        cfg = mc.ExperimentConfig("burr", 100, 200, 20240, gamma=gamma, rho=rho)
        got = mc.cell_estimates(cfg, gamma, rho)
        want, unsampleable = per_sample_estimates(cfg, gamma, rho, cell_key=0)
        assert unsampleable
        for label in mc.LABELS:
            assert np.array_equal(got[label], want[label], equal_nan=True), label
        cell = mc.simulate(cfg).cells[0]
        for st in cell.stats.values():
            assert st.count + st.failures == 200
            assert st.failures >= len(unsampleable)

    def test_unsampleable_cells_leave_the_others_alone(self):
        good = ((1.0, -1.0), (0.5, -2.0))
        cfg = small_cfg(n=100, replications=20, seed=20240, gamma=None, rho=None,
                        grid=good + ((3.95, -0.01), (1.0, -0.01)))
        rep = mc.simulate(cfg)
        alone = mc.report_to_csv(mc.simulate(small_cfg(n=100, replications=20, seed=20240,
                                                       gamma=None, rho=None, grid=good)))
        assert mc.report_to_csv(rep).startswith(alone)
        for cell in rep.cells[2:]:
            assert cell.degenerate
            assert all(st.failures == 20 for st in cell.stats.values())

    def test_grid_and_manifest(self):
        grid = ((0.5, -1.0), (1.0, -0.5))
        cfg = small_cfg(gamma=None, rho=None, grid=grid, replications=4)
        rep = mc.simulate(cfg)
        assert [(c.gamma, c.rho) for c in rep.cells] == list(grid)
        assert rep.manifest["seed"] == 11
        assert rep.manifest["generator"] == mc.GENERATOR_NAME
        assert rep.manifest["config_digest"] == cfg.digest()
        json.dumps(rep.manifest)  # serializable

    def test_cell_processes_match_serial(self):
        grid = ((0.5, -1.0), (1.0, -0.5), (2.0, -2.0))
        cfg = small_cfg(gamma=None, rho=None, grid=grid, replications=6)
        serial = mc.simulate(cfg)
        sharded = mc.simulate(cfg, workers=3)
        assert mc.report_to_csv(serial) == mc.report_to_csv(sharded)
        assert multiprocessing.active_children() == []  # the pool was shut down
        assert [(c.gamma, c.rho) for c in sharded.cells] == list(grid)

    def test_needs_cell_or_grid(self):
        with pytest.raises(DomainError):
            mc.simulate(small_cfg(gamma=None, rho=None))

    def test_dominance_rows(self):
        grid = ((0.5, -1.0), (1.0, -0.5))
        rep = mc.simulate(small_cfg(gamma=None, rho=None, grid=grid, replications=4))
        rows = mc.dominance_map(rep)
        assert len(rows) == 2
        for g, r, wm, wb in rows:
            assert wm in mc.LABELS or wm == "degenerate"
            assert wb in mc.LABELS or wb == "degenerate"


def test_ratio_curve_smoke():
    cfg = small_cfg(n=500, replications=10)
    rows = mc.ratio_curve(cfg, 1.0, [-1.0, -2.0])
    assert len(rows) == 2
    for rho, ratio, theory in rows:
        assert theory == pytest.approx(float(psi_MR(rho)), rel=1e-12)
        assert math.isnan(ratio) or ratio > 0


class TestContamination:
    def test_monotone_and_bounded_for_positive_r(self):
        xs = [1e2, 1e4, 1e6, 1e8]
        rows = mc.contamination_experiment(1.0, 0.5, 1, 2000, 200, 9, xs)
        deltas = [d for _, d in rows]
        assert deltas == sorted(deltas)
        assert all(np.isfinite(deltas))

    def test_consistency_guard(self):
        with pytest.raises(DomainError):
            mc.contamination_experiment(2.0, 0.6, 1, 1000, 100, 9, [10.0])

    @pytest.mark.parametrize("j", [1, 3])
    def test_failed_row_raises_the_per_sample_error(self, j):
        # at r = -1e6 every term x^r underflows and the estimate is inf
        with pytest.raises(DegenerateSampleError, match=r"^non-finite estimate inf$"):
            mc.contamination_experiment(1.0, -1e6, j, 200, 10, 9, [10.0])


class TestSerialization:
    def test_report_csv_shape(self):
        rep = mc.simulate(small_cfg(replications=4))
        csv = mc.report_to_csv(rep)
        lines = csv.strip().split("\n")
        assert lines[0].startswith("gamma,rho,estimator")
        assert len(lines) == 1 + len(mc.LABELS)

    def test_dominance_csv(self):
        rep = mc.simulate(small_cfg(replications=4))
        csv = mc.dominance_to_csv(mc.dominance_map(rep))
        assert csv.splitlines()[0] == "gamma,rho,winner_mse,winner_bias"

    def test_manifest_json_round_trip(self):
        rep = mc.simulate(small_cfg(replications=4))
        assert json.loads(mc.manifest_json(rep))["version"] == gtail.__version__


def test_golden_report_digest():
    """Pinned bytes of a small Burr grid: a change to the sampler, the
    second-order step, the estimators or the reduction that moves any digit
    of report.csv or dominance.csv changes this digest."""
    cfg = mc.ExperimentConfig(family="burr", n=1000, replications=50, seed=20240,
                              grid=((0.25, -4.7), (1.0, -1.0)))
    rep = mc.simulate(cfg)
    text = mc.report_to_csv(rep) + mc.dominance_to_csv(mc.dominance_map(rep))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "a9482d76954bf34fef745459d77a18705b7d2ece8d9db3460456d09ff2d1aabc"
