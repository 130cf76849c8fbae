"""Reproducible Monte-Carlo harness for estimator comparison.

Runs the four adaptive pipelines (classical and tuned variants of the Hill
and moment-ratio estimators) over seeded replications, accumulates bias and
MSE per (gamma, rho) cell, and emits plot-ready CSV plus a JSON manifest.

Reproducibility contract: every replication draws from a stream derived from
(seed, cell_key, replication_index), per-replication results are stored by
index and reduced in a fixed order, so the report bytes are identical across
runs, across worker counts and across block sizes.

Replications run in blocks of :data:`_BLOCK_BYTES` (256 KiB) of sample data,
one replication per row, so that the adaptive pipelines cost one set of
array operations per block (``secondorder.adaptive_arrays``, whose gamma
arrays are read directly); a block's draws come from one Philox re-keyed
per row (``distributions.draw_block``). Workers shard whole cells across
processes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field
from itertools import repeat

import numpy as np

from . import __version__
from . import estimators as est
from .asymptotics import psi_MR
from .distributions import GENERATOR_NAME, DistSpec, draw_block, hall_model, sample
from .errors import DomainError
from .secondorder import adaptive_arrays
from .stats import Sample, SampleBlock

#: label -> (j, tuned) of the four adaptive estimates: the classical (r = 0)
#: or optimally tuned estimate of the adaptive pipeline j
PIPELINES = {"hill": (1, False), "gh": (1, True), "mr": (3, False), "gmr": (3, True)}
LABELS = tuple(PIPELINES)

#: Bytes of sample data per block of replications (256 KiB): 32 rows at
#: n = 1000, one row for n > 16384, where per-call overhead no longer
#: matters. Each block pays a fixed cost in steps 1-5, so fewer, larger
#: blocks run faster; 512 KiB ran faster still but raised the peak memory of
#: a cell at n = 1000 by 6-7 %. A cell's peak holds about 7 copies of a
#: block (tracemalloc on one run_cell at n = 1000: 7.2 / 6.8 / 6.6 at 128 /
#: 256 / 512 KiB), now set by the draws and their quantile temporaries; the
#: rho sweep, which works in tiles of one scratch buffer, holds about 4.
_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class ExperimentConfig:
    family: str
    n: int
    replications: int
    seed: int
    gamma: float | None = None
    rho: float | None = None
    estimators: tuple = LABELS
    grid: tuple | None = None  # ((gamma_center, rho_center), ...)
    scale: float = 1.0

    def __post_init__(self):
        if self.replications < 1:
            raise DomainError("replications must be >= 1")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        for label in self.estimators:
            if label not in LABELS:
                raise DomainError(f"unknown estimator label {label!r}")
        if self.grid:
            for g, r in self.grid:
                if g <= 0 or not r < 0:
                    raise DomainError(f"grid cell ({g}, {r}) must satisfy gamma > 0, rho < 0")

    def canonical(self) -> dict:
        d = asdict(self)
        d["estimators"] = list(self.estimators)
        d["grid"] = [list(c) for c in self.grid] if self.grid else None
        return d

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.canonical(), sort_keys=True).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class EstimatorCellStats:
    mean: float
    bias: float
    variance: float
    mse: float
    count: int
    failures: int


@dataclass(frozen=True)
class CellReport:
    gamma: float
    rho: float
    stats: dict  # label -> EstimatorCellStats
    replications: int
    degenerate: bool


@dataclass(frozen=True)
class SimReport:
    cells: list
    manifest: dict = field(default_factory=dict)


def _dist(cfg: ExperimentConfig, gamma: float, rho: float) -> DistSpec:
    return DistSpec(cfg.family, gamma, rho if cfg.family != "pareto" else None, scale=cfg.scale)


def cell_estimates(cfg: ExperimentConfig, gamma: float, rho: float,
                   cell_key: int = 0) -> dict[str, np.ndarray]:
    """Per-replication estimates of the four adaptive pipelines at one
    (gamma, rho), by label; NaN marks a failed replication, including one
    whose draws are not a valid sample."""
    dist = _dist(cfg, gamma, rho)
    reps = cfg.replications
    values = {label: np.full(reps, np.nan) for label in LABELS}
    rows = max(1, _BLOCK_BYTES // (8 * cfg.n))
    for start in range(0, reps, rows):
        block_reps = range(start, min(start + rows, reps))
        draws = draw_block(dist, cfg.n, cfg.seed, [(cell_key, rep) for rep in block_reps])
        # a replication whose draws leave the sample domain (a quantile that
        # underflows to 0.0) fails on its own: rows do not affect each other
        ok = np.all((draws > 0.0) & (draws < np.inf), axis=1)
        if not ok.any():
            continue
        block = SampleBlock.from_values(draws if ok.all() else draws[ok])
        good_reps = start + np.flatnonzero(ok)
        pipelines = adaptive_arrays(block)
        for label, (j, tuned) in PIPELINES.items():
            done = pipelines[j].failed_step < 0
            gamma = pipelines[j].gamma_g if tuned else pipelines[j].gamma_c
            values[label][good_reps[done]] = gamma[done]
    return values


def run_cell(cfg: ExperimentConfig, gamma: float, rho: float, cell_key: int = 0) -> CellReport:
    """Monte-Carlo stats of the four adaptive pipelines at one (gamma, rho)."""
    reps = cfg.replications
    if hall_model(_dist(cfg, gamma, rho)).bias_free:
        # exact power law: no second-order structure for the adaptive pipelines
        # to estimate; every replication is recorded as a pipeline failure
        stats = {label: EstimatorCellStats(math.nan, math.nan, math.nan, math.nan, 0, reps)
                 for label in cfg.estimators}
        return CellReport(gamma, rho, stats, reps, degenerate=True)
    values = cell_estimates(cfg, gamma, rho, cell_key)
    stats = {}
    for label in cfg.estimators:
        v = values[label]
        ok = np.isfinite(v)
        count = int(np.sum(ok))
        failures = reps - count
        if count == 0:
            stats[label] = EstimatorCellStats(math.nan, math.nan, math.nan, math.nan, 0, failures)
            continue
        good = v[ok]
        mean = float(np.mean(good))
        bias = mean - gamma
        variance = float(np.mean((good - mean) ** 2))
        mse = float(np.mean((good - gamma) ** 2))
        stats[label] = EstimatorCellStats(mean, bias, variance, mse, count, failures)
    worst = max(st.failures for st in stats.values()) if stats else reps
    return CellReport(gamma, rho, stats, reps, degenerate=worst > reps // 2)


def _run_cells(cfg: ExperimentConfig, cells: list, workers: int) -> list[CellReport]:
    """run_cell on every (gamma, rho) of cells, with its index as cell key.

    Cells are sharded across up to min(workers, cells, cpus) spawned
    processes; the reports come back in cell order either way.
    """
    args = (repeat(cfg), [g for g, _ in cells], [r for _, r in cells], range(len(cells)))
    processes = min(workers, len(cells), os.cpu_count() or 1)
    if processes <= 1:
        return list(map(run_cell, *args))
    # imported here so that importing gtail does not pay for multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(processes, mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(run_cell, *args))


def simulate(cfg: ExperimentConfig, workers: int = 1) -> SimReport:
    """Run every configured cell and attach the reproducibility manifest.

    workers > 1 runs cells in that many processes (at most one per cell and
    per CPU); the report is the same bytes for every worker count.
    """
    if cfg.grid:
        cells = list(cfg.grid)
    else:
        if cfg.gamma is None or cfg.rho is None:
            raise DomainError("config needs either a grid or a (gamma, rho) pair")
        cells = [(cfg.gamma, cfg.rho)]
    reports = _run_cells(cfg, cells, workers)
    manifest = {
        "seed": cfg.seed,
        "generator": GENERATOR_NAME,
        "config": cfg.canonical(),
        "config_digest": cfg.digest(),
        "version": __version__,
    }
    return SimReport(reports, manifest)


def dominance_map(report: SimReport) -> list[tuple]:
    """Per cell, the argmin-MSE and argmin-|bias| estimator labels."""
    rows = []
    for cell in report.cells:
        usable = {lab: st for lab, st in cell.stats.items() if st.count > 0}
        if cell.degenerate or not usable:
            rows.append((cell.gamma, cell.rho, "degenerate", "degenerate"))
            continue
        winner_mse = min(usable, key=lambda lab: usable[lab].mse)
        winner_bias = min(usable, key=lambda lab: abs(usable[lab].bias))
        rows.append((cell.gamma, cell.rho, winner_mse, winner_bias))
    return rows


def ratio_curve(cfg: ExperimentConfig, gamma: float, rho_values, workers: int = 1) -> list[tuple]:
    """Empirical MSE ratio of mr to gmr across rho, with psi_MR(rho)
    alongside (NaN for degenerate points)."""
    rows = []
    for cell in _run_cells(cfg, [(gamma, rho) for rho in rho_values], workers):
        num, den = cell.stats.get("mr"), cell.stats.get("gmr")
        valid = not cell.degenerate and num is not None and den is not None \
            and num.count > 0 and den.count > 0 and den.mse != 0.0
        rows.append((cell.rho, num.mse / den.mse if valid else math.nan, psi_MR(cell.rho)))
    return rows


def contamination_experiment(gamma: float, r: float, j: int, n: int, k: int,
                             seed: int, x_values) -> list[tuple]:
    """Effect of replacing the largest-observation slot with a contaminant x.

    The estimator on (X_1..X_{n-1}, x) at tail size k is compared with the
    estimator on the clean (n-1)-sample at k-1; for growing x the difference
    approaches the theoretical contamination limit.
    """
    if gamma * r >= 1:
        raise DomainError(f"need gamma*r < 1, got {gamma * r}")
    kind = est.KIND_OF_J[j]
    clean = sample(DistSpec("pareto", gamma), n - 1, seed)
    baseline = est.evaluate(clean, est.EstimatorSpec(kind, k - 1, r)).gamma_hat
    return [(x, est.evaluate(Sample.from_values(np.append(clean.values, x)),
                             est.EstimatorSpec(kind, k, r)).gamma_hat - baseline)
            for x in sorted(float(x) for x in x_values)]


# --- serialization ------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def report_to_csv(report: SimReport) -> str:
    """One row per cell x estimator; 17 significant digits."""
    lines = ["gamma,rho,estimator,mean,bias,variance,mse,count,failures,degenerate"]
    for cell in report.cells:
        for label in LABELS:
            st = cell.stats.get(label)
            if st is None:
                continue
            lines.append(",".join([
                _fmt(cell.gamma), _fmt(cell.rho), label,
                _fmt(st.mean), _fmt(st.bias), _fmt(st.variance), _fmt(st.mse),
                str(st.count), str(st.failures), str(int(cell.degenerate)),
            ]))
    return "\n".join(lines) + "\n"


def dominance_to_csv(rows) -> str:
    lines = ["gamma,rho,winner_mse,winner_bias"]
    for g, r, wm, wb in rows:
        lines.append(f"{_fmt(g)},{_fmt(r)},{wm},{wb}")
    return "\n".join(lines) + "\n"


def manifest_json(report: SimReport) -> str:
    return json.dumps(report.manifest, sort_keys=True, indent=2) + "\n"
