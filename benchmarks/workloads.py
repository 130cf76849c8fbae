"""The benchmark's workloads: inputs, timed rounds, and correctness checks.

A workload generates its inputs from the seed before timing starts and then
runs rounds through gtail's public entry points (``gtail.cli.main`` and
``gtail.evaluate``), cycling over a few variants; every variant runs at least
once in a run.  Rounds are short (at most about a second) so that every
variant runs several times in a run and each round sees the machine at about
one speed, which the benchmark's reference computation measures.  Entry points are looked up on their
module at call time, so the tracer's wrappers are seen when it is installed.

After the timed phase every output is checked.  A variant that ran more than
once must give identical output each time.  Checks that hold for any seed
always run.  For :data:`REFERENCE_SEED` the outputs are also compared, number
by number within :data:`RTOL`, with the files under ``benchmarks/reference``;
whether the bytes are identical is reported separately, because a change that
reorders floating-point sums may move the last digits and still be correct.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import io
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import gtail
import gtail.cli

#: Seed whose outputs are committed under benchmarks/reference (quick.cfg's seed).
REFERENCE_SEED = 20240
#: Tolerance of every numeric comparison: |a - b| <= RTOL * max(|a|, |b|, 1).
RTOL = 1e-9

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"


def close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= RTOL * max(abs(a), abs(b), 1.0)


def close_json(a, b) -> bool:
    """Equal JSON values, with floats compared by :func:`close`."""
    if isinstance(b, list):
        return isinstance(a, list) and len(a) == len(b) and all(map(close_json, a, b))
    if isinstance(b, dict):
        return isinstance(a, dict) and a.keys() == b.keys() and all(
            close_json(a[key], b[key]) for key in b)
    if isinstance(b, float) and isinstance(a, (int, float)):
        return close(a, b)
    return a == b


def draw(family: str, gamma: float, rho: float | None, n: int, seed: int,
         key: int) -> np.ndarray:
    """n values of a Hall-class law by inverse transform, written out here so
    that a change to gtail.distributions does not change the inputs."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(key,))
    p = np.random.Generator(np.random.Philox(ss)).random(n)
    p[p == 0.0] = 2.0**-53
    if family == "pareto":
        return (1.0 - p) ** (-gamma)
    if family == "burr":
        return np.expm1(rho * np.log1p(-p)) ** (-gamma / rho)
    return (-np.log1p(-np.exp(-rho * np.log1p(-p)))) ** (gamma / rho)  # kumaraswamy


@dataclass
class Round:
    wall_s: float
    ops: int  # operations behind ops_per_s
    attempted: int
    failures: Counter = field(default_factory=Counter)  # class -> count
    variant: object = None


class Workload:
    """Runs variant ``i % len(variants)`` in round ``i`` and keeps its output."""

    name: str
    array_bytes: int
    variants: list

    def __init__(self, seed: int):
        self.seed = seed
        self.outputs: dict = {}  # variant -> output of its first round
        self.unstable: set = set()  # variants whose output changed between rounds

    def round(self, i: int) -> Round:
        variant = self.variants[i % len(self.variants)]
        start = perf_counter()
        output = self.run(variant)
        wall = perf_counter() - start
        if self.outputs.setdefault(variant, output) != output:
            self.unstable.add(variant)
        done = self.account(variant, output, wall)
        done.variant = variant
        return done

    def check(self) -> tuple[list, dict]:
        """Problems found in the outputs, and per reference file whether its
        bytes are identical (reference seed only)."""
        problems = [f"{v}: output changed between rounds" for v in sorted(self.unstable)]
        problems += self.check_outputs()
        identical = {}
        if self.seed == REFERENCE_SEED:
            for name, text in self.reference().items():
                ref = (REFERENCE_DIR / name).read_text()
                identical[name] = text == ref
                problems += self.compare_reference(name, text, ref)
        return problems, identical


class GridQuick(Workload):
    """Every other cell of the diagonal of quick.cfg's 8 x 8 grid (Burr,
    n = 1000, 200 replications per cell; (gamma, rho) = (0.25, -4.7),
    (1.25, -3.5), (2.25, -2.3), (3.25, -1.1)), one serial
    ``gtail simulate --dominance --seed <seed>`` call per cell.

    A call of 0.15 s is timed 30 to 50 times in a 35-second run, so each
    cell's median is steady; a call on the whole 10-second grid would run
    three times.  Each call still goes through simulate,
    run_cell, the per-replication pipeline and the CSV writers (about 3 ms
    of CLI and file overhead per call).  Every call has cell key 0.
    """

    name = "grid-quick"
    config = HERE / "grid_quick.cfg"

    def __init__(self, work: Path, seed: int):
        super().__init__(seed)
        self.work = work
        cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        cfg.read(self.config)
        exp, grid = cfg["experiment"], cfg["grid"]
        self.n = exp.getint("n")
        self.reps = exp.getint("replications")
        self.labels = [x.strip() for x in exp["estimators"].split(",")]
        self.array_bytes = 8 * self.n
        self.cells = list(zip(self._centers(grid, "gamma"), self._centers(grid, "rho")))[::2]
        self.variants = list(range(len(self.cells)))
        cfg.remove_section("grid")
        for cell, (g, r) in enumerate(self.cells):
            cfg["cell"] = {"gamma": repr(g), "rho": repr(r)}
            with open(work / f"cell{cell}.cfg", "w") as fh:
                cfg.write(fh)

    @staticmethod
    def _centers(grid, axis):
        start, stop, step = (grid.getfloat(f"{axis}_{x}") for x in ("start", "stop", "step"))
        return [start + step * (i + 0.5) for i in range(int(round((stop - start) / step)))]

    def run(self, cell: int):
        outdir = self.work / f"cell{cell}"
        code = gtail.cli.main(["simulate", str(self.work / f"cell{cell}.cfg"), "--dominance",
                               "--seed", str(self.seed), "--output-dir", str(outdir)])
        if code not in (0, 4):
            return code, "", ""
        return code, (outdir / "report.csv").read_text(), (outdir / "dominance.csv").read_text()

    def account(self, cell: int, output, wall: float) -> Round:
        code, report, _dominance = output
        failures = Counter()
        if code not in (0, 4):
            failures[f"exit {code}"] = self.reps * len(self.labels)
        for rec in csv.DictReader(io.StringIO(report)):
            if int(rec["failures"]):
                failures[f"nan {rec['estimator']}"] += int(rec["failures"])
        return Round(wall, self.reps, self.reps * len(self.labels), failures)

    def check_outputs(self) -> list:
        problems = []
        for cell, (code, report, dominance) in sorted(self.outputs.items()):
            if code not in (0, 4):
                problems.append(f"cell {cell}: simulate exited with {code}")
                continue
            stats = self._check_report(cell, report, problems)
            if stats is None:
                continue
            problems += self._check_dominance(cell, dominance, stats)
            if cell in (0, 2):
                problems += self._replay_cell(cell, stats)
        return problems

    def _check_report(self, cell: int, report: str, problems: list):
        rows = list(csv.DictReader(io.StringIO(report)))
        if [rec["estimator"] for rec in rows] != self.labels:
            problems.append(f"cell {cell}: report rows {len(rows)} do not match the labels")
            return None
        stats = {}
        for rec in rows:
            g, r = float(rec["gamma"]), float(rec["rho"])
            st = {k: float(rec[k]) for k in ("mean", "bias", "variance", "mse")}
            st |= {"count": int(rec["count"]), "failures": int(rec["failures"])}
            stats[rec["estimator"]] = st
            where = f"cell {cell} {rec['estimator']}"
            if (g, r) != self.cells[cell]:
                problems.append(f"{where}: report is for ({g}, {r})")
            if st["count"] + st["failures"] != self.reps:
                problems.append(f"{where}: count + failures != replications")
            if st["count"] and not (close(st["bias"], st["mean"] - g) and close(
                    st["mse"], st["variance"] + st["bias"] ** 2)):
                problems.append(f"{where}: bias, variance and mse are inconsistent")
        return stats

    def _check_dominance(self, cell: int, dominance: str, stats: dict) -> list:
        rows = list(csv.DictReader(io.StringIO(dominance)))
        if len(rows) != 1:
            return [f"cell {cell}: dominance has {len(rows)} rows"]
        usable = {lab: st for lab, st in stats.items() if st["count"] > 0}
        degenerate = max(st["failures"] for st in stats.values()) > self.reps // 2
        if degenerate or not usable:
            want = ("degenerate", "degenerate")
        else:
            want = (min(usable, key=lambda lab: usable[lab]["mse"]),
                    min(usable, key=lambda lab: abs(usable[lab]["bias"])))
        if (rows[0]["winner_mse"], rows[0]["winner_bias"]) != want:
            return [f"cell {cell} dominance: {rows[0]} is not the argmin {want}"]
        return []

    def _replay_cell(self, cell: int, stats: dict) -> list:
        """Recompute one cell through the per-sample public path."""
        g, r = self.cells[cell]
        spec = gtail.DistSpec("burr", g, r)
        values = {lab: np.full(self.reps, np.nan) for lab in ("hill", "gh", "mr", "gmr")}
        for rep in range(self.reps):
            s = gtail.sample(spec, self.n, self.seed, stream_key=(0, rep))
            for j, classical, generalized in ((1, "hill", "gh"), (3, "mr", "gmr")):
                try:
                    res = gtail.adaptive_estimate(s, j)
                except gtail.PipelineError:
                    continue
                values[classical][rep] = res.classical.gamma_hat
                values[generalized][rep] = res.generalized.gamma_hat
        problems = []
        for lab in self.labels:
            v = values[lab][np.isfinite(values[lab])]
            want = {"count": v.size, "failures": self.reps - v.size}
            if v.size:
                mean = float(np.mean(v))
                want |= {"mean": mean, "bias": mean - g,
                         "variance": float(np.mean((v - mean) ** 2)),
                         "mse": float(np.mean((v - g) ** 2))}
            if any(not close(stats[lab][key], want[key]) for key in want):
                problems.append(f"cell {cell} {lab}: report {stats[lab]}"
                                f" != per-sample replay {want}")
        return problems

    def reference(self) -> dict:
        """Reports and dominance rows of all cells, each file under one header."""
        out = {}
        for index, name in ((1, "report.csv"), (2, "dominance.csv")):
            texts = [self.outputs[cell][index].splitlines() for cell in self.variants]
            lines = texts[0][:1] + [line for text in texts for line in text[1:]]
            out[f"grid-quick-{name}"] = "\n".join(lines) + "\n"
        return out

    @staticmethod
    def compare_reference(name: str, text: str, ref: str) -> list:
        got, want = (list(csv.reader(io.StringIO(t))) for t in (text, ref))
        if len(got) != len(want) or got[:1] != want[:1]:
            return [f"{name}: shape or header differs from the reference"]
        problems = []
        for i, (a, b) in enumerate(zip(got[1:], want[1:]), start=1):
            for col, x, y in zip(want[0], a, b):
                try:
                    same = close(float(x), float(y))
                except ValueError:
                    same = x == y
                if not same:
                    problems.append(f"{name} line {i} {col}: {x} != reference {y}")
        return problems


class Adaptive1e6(Workload):
    """``gtail estimate <file> --kind K --adaptive``, one call per round:
    hill on a Burr file and gmr on a Kumaraswamy file of 1e6 values each
    (moderate rho).  Two variants, so that each is timed ten or more times
    in a 35-second run; each call runs both the classical and the tuned
    route of its pipeline, so gh and mr would repeat the same work."""

    name = "adaptive-1e6"
    n = 1_000_000
    laws = (("burr", 1.0, -1.0), ("kumaraswamy", 0.5, -1.0))
    kinds = {"hill": (1, "classical"), "gmr": (3, "generalized")}
    array_bytes = 8 * n

    def __init__(self, work: Path, seed: int):
        super().__init__(seed)
        self.work = work
        for key, (family, gamma, rho) in enumerate(self.laws):
            values = draw(family, gamma, rho, self.n, seed, key)
            with open(work / f"{family}.txt", "w") as fh:
                for chunk in np.array_split(values, 10):
                    fh.write("\n".join(map(repr, chunk.tolist())) + "\n")
        self.variants = [(0, "hill"), (1, "gmr")]

    def _path(self, key: int) -> Path:
        return self.work / f"{self.laws[key][0]}.txt"

    def run(self, variant):
        key, kind = variant
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = gtail.cli.main(["estimate", str(self._path(key)), "--kind", kind,
                                   "--adaptive"])
        return code, buf.getvalue()

    def account(self, variant, output, wall: float) -> Round:
        code, _text = output
        return Round(wall, 1, 1, Counter({f"exit {code}": 1} if code else {}))

    def check_outputs(self) -> list:
        problems = []
        for key, (family, gamma, rho) in enumerate(self.laws):
            s = gtail.Sample.from_values(draw(family, gamma, rho, self.n, self.seed, key))
            for kind in [kind for k, kind in self.variants if k == key]:
                j, route = self.kinds[kind]
                res = gtail.adaptive_estimate(s, j)
                code, text = self.outputs[(key, kind)]
                if code:
                    problems.append(f"{family} {kind}: exit code {code}")
                    continue
                cli = json.loads(text)
                e = getattr(res, route)
                want = {"input": str(self._path(key)), "n": self.n, "gamma_hat": e.gamma_hat,
                        "k": e.spec.k, "r": e.spec.r, "rho_hat": res.rho.rho_hat,
                        "tau": res.rho.tau, "beta_hat": res.beta.beta_hat}
                for name, value in want.items():
                    if cli[name] != value:
                        problems.append(f"{family} {kind} {name}: CLI {cli[name]}"
                                        f" != library {value}")
                lo, hi = cli["ci95"]
                if not lo < cli["gamma_hat"] < hi:
                    problems.append(f"{family} {kind}: ci95 {cli['ci95']} misses the estimate")
                if abs(cli["gamma_hat"] - gamma) > 0.1 * gamma:
                    problems.append(f"{family} {kind}: gamma_hat {cli['gamma_hat']}"
                                    f" is not within 10% of {gamma}")
        return problems

    def reference(self) -> dict:
        """The outputs, with the work directory taken out of the input paths."""
        prefix = f"{self.work}/"
        got = {f"{self.laws[key][0]}:{kind}": json.loads(text.replace(prefix, ""))
               for (key, kind), (_code, text) in sorted(self.outputs.items())}
        return {"adaptive-1e6.json": json.dumps(got, indent=1) + "\n"}

    @staticmethod
    def compare_reference(name: str, text: str, ref: str) -> list:
        got, want = json.loads(text), json.loads(ref)
        return [f"{name} {key}: {got.get(key)} != reference {value}"
                for key, value in want.items() if not close_json(got.get(key), value)]


class KGrid1e4(Workload):
    """``gtail.evaluate`` for all seven kinds over 20 tail sizes (k = 20 ..
    2000) and three tunings, on eight samples of n = 1e4; one round builds
    the eight samples and makes all 2400 estimates."""

    name = "kgrid-1e4"
    n = 10_000
    laws = (("burr", 0.5, -0.5), ("burr", 1.0, -1.0), ("burr", 2.0, -2.0),
            ("kumaraswamy", 0.5, -1.0), ("kumaraswamy", 1.0, -0.5),
            ("kumaraswamy", 2.0, -1.0), ("pareto", 1.0, None), ("pareto", 0.25, None))
    #: scaled tunings R = gamma * r; hme takes beta = 1 - r
    scaled_r = (-0.25, 0.2, 0.4)
    ks = tuple(int(k) for k in np.unique(np.round(np.geomspace(20, 2000, 20))))
    array_bytes = 8 * n
    variants = ["all"]

    def __init__(self, work: Path, seed: int):
        super().__init__(seed)
        self.arrays = [draw(f, g, r, self.n, seed, key)
                       for key, (f, g, r) in enumerate(self.laws)]
        self.specs = []
        for _family, gamma, _rho in self.laws:
            specs = []
            for k in self.ks:
                specs += [gtail.EstimatorSpec(kind, k)
                          for kind in ("hill", "moment", "moment_ratio")]
                for R in self.scaled_r:
                    r = R / gamma
                    specs += [gtail.EstimatorSpec(kind, k, r=r) for kind in ("g1", "g2", "g3")]
                    specs.append(gtail.EstimatorSpec("hme", k, beta=1.0 - r))
            self.specs.append(specs)

    def run(self, _variant):
        evaluate, Sample, GtailError = gtail.evaluate, gtail.Sample, gtail.GtailError
        out = []
        for arr, specs in zip(self.arrays, self.specs):
            s = Sample.from_values(arr)
            values = []
            for spec in specs:
                try:
                    values.append(evaluate(s, spec).gamma_hat)
                except GtailError as exc:
                    values.append(type(exc).__name__)
            out.append(values)
        return out

    def account(self, _variant, output, wall: float) -> Round:
        failures = Counter(f"{spec.kind} {value}" for specs, values in zip(self.specs, output)
                           for spec, value in zip(specs, values) if isinstance(value, str))
        ops = sum(map(len, self.specs))
        return Round(wall, ops, ops, failures)

    def check_outputs(self) -> list:
        problems = []
        for (family, gamma, rho), arr, specs, values in zip(
                self.laws, self.arrays, self.specs, self.outputs["all"]):
            desc = np.sort(arr)[::-1]
            for spec, value in zip(specs, values):
                want = _direct_estimate(desc, spec)
                if isinstance(value, str) or isinstance(want, str):
                    same = value == want
                else:
                    same = close(value, want)
                if not same:
                    problems.append(f"{family}({gamma}, {rho}) {spec}: {value} != direct {want}")
        return problems

    def reference(self) -> dict:
        return {"kgrid-1e4.json": json.dumps(self.outputs["all"]) + "\n"}

    @staticmethod
    def compare_reference(name: str, text: str, ref: str) -> list:
        ok = close_json(json.loads(text), json.loads(ref))
        return [] if ok else [f"{name}: values differ from the reference"]


def _direct_estimate(desc: np.ndarray, spec):
    """The estimator written out from its formula on the sorted sample."""
    logs = np.log(desc[: spec.k] / desc[spec.k])

    def G(r, u):
        return float(np.mean(np.exp(r * logs) * logs**u))

    r = 1.0 - spec.beta if spec.kind == "hme" else spec.r
    if spec.kind == "hill" or (spec.kind in ("g1", "hme") and r == 0.0):
        return G(0.0, 1)
    if spec.kind in ("g1", "hme"):
        return (G(r, 0) - 1.0) / (r * G(r, 0))
    if spec.kind == "moment":
        ratio = G(0.0, 2) / G(0.0, 1) ** 2
        return G(0.0, 1) + 0.5 * (1.0 - 1.0 / (ratio - 1.0))
    if spec.kind == "moment_ratio" or (spec.kind == "g3" and r == 0.0):
        return G(0.0, 2) / (2.0 * G(0.0, 1))
    if spec.kind == "g2":
        disc = 4.0 * r * G(r, 1) + 1.0
        if disc < 0.0:
            return "DomainError"
        return 2.0 * G(r, 1) / (2.0 * r * G(r, 1) + 1.0 + math.sqrt(disc))
    return (r * G(r, 1) - G(r, 0) + 1.0) / (r * r * G(r, 1))  # g3


WORKLOADS = {w.name: w for w in (GridQuick, Adaptive1e6, KGrid1e4)}
