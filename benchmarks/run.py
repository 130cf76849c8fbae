"""gtail benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload grid-quick --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; gtail is imported from ``src``.
Inputs are generated from ``--seed`` before timing.  Rounds of the workload
run until ``--seconds`` have passed and each variant ran once.  Afterwards
every output kept is checked (see workloads.py).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the variants for ``--seconds`` and reports
the per-layer metrics of tracing.py per traced round, the rho-floor clamps,
and the tracing overhead (traced minus untraced best pass, see best_pass).

Human-readable lines come first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 when every
check passed, 1 when one failed and 2 when the checkout has no gtail sources.
``--write-reference`` runs each variant once at the reference seed and
rewrites the files under benchmarks/reference instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 11
END_TO_END_UNITS = {"setup_s": "s", "wall_ref": "x", "peak_rss_mb": "MB"}


def unit(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric == "trace.overhead_s":  # per pass over the variants
        return "s"
    if metric.endswith(".us_per_call"):
        return "us"
    return "s/round" if metric.endswith("_s") else "count/round"


class SetupProbe:
    """Times fresh interpreters that import gtail and gtail.cli and exit.

    Samples are spread over the timed phase, between rounds, so that the
    reference computation (SpeedProbe) is timed next to each of them."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        self._spawn("import gtail, gtail.cli")  # untimed: writes the bytecode caches
        self.bare_s = [self._spawn("pass") for _ in range(3)]
        self.samples: list = []  # durations
        self.mids: list = []  # perf_counter() at the middle of each sample

    def _spawn(self, code: str) -> float:
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=self.env, cwd=ROOT, check=True)
        return perf_counter() - start

    def sample(self) -> None:
        start = perf_counter()
        self.samples.append(self._spawn("import gtail, gtail.cli"))
        self.mids.append(start + self.samples[-1] / 2)

    def at_fastest(self, speed: SpeedProbe) -> float:
        """Median set-up time with each sample scaled to the machine's
        fastest speed in the run: times the fastest reference time, divided
        by the reference time around the sample.  The machine switches
        between speeds about 1.35x apart for a minute or more, so the plain
        median of a few samples jumps between the two."""
        fastest = min(speed.samples)
        return statistics.median(d * fastest / speed.around(m)
                                 for m, d in zip(self.mids, self.samples))


class SpeedProbe:
    """A fixed reference computation, timed between rounds, that says how
    fast the machine ran at each moment of the run.

    It mixes the kinds of work the workloads do: interpreted Python, numpy
    calls on 8 KB arrays and sorts of a 2 MB array.  Its inputs are fixed,
    not drawn from the seed, and it calls nothing in gtail, so a change to
    gtail does not move it.  It takes SHARE of the timed phase."""

    SHARE = 0.05
    NEAREST = 3

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.small = rng.random(1000)
        self.big = rng.random(1 << 18)
        self.samples: list = []  # durations
        self.mids: list = []  # perf_counter() at the middle of each sample

    def _work(self) -> None:
        import numpy as np

        table: dict = {}
        for i in range(20000):
            table[i % 97] = table.get(i % 97, 0.0) + 0.5 * i
        for _ in range(150):
            np.cumsum(np.log(np.sort(self.small)))
        for _ in range(4):
            np.sort(self.big)

    def sample(self) -> None:
        start = perf_counter()
        self._work()
        end = perf_counter()
        self.samples.append(end - start)
        self.mids.append((start + end) / 2)

    def keep_up(self, elapsed: float) -> None:
        """Sample until the probe has had its share of ``elapsed``."""
        while sum(self.samples) < self.SHARE * elapsed:
            self.sample()

    def around(self, t: float) -> float:
        """Median duration of the NEAREST samples taken closest to ``t``."""
        near = sorted(zip(self.mids, self.samples), key=lambda m: abs(m[0] - t))
        return statistics.median(d for _, d in near[: self.NEAREST])


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine_record() -> dict:
    import numpy as np

    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        if kind != "Instruction":
            caches[f"L{level}"] = _read(index / "size").strip()
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": model, "caches": caches, "python": platform.python_version(),
            "numpy": np.__version__}


def best_pass(rounds: list) -> tuple[float, int]:
    """Time and operations of one pass over the variants, each variant at
    its fastest round: the time the work takes when the machine's other
    tenants do not slow it."""
    best = {}
    for r in rounds:
        if r.variant not in best or r.wall_s < best[r.variant].wall_s:
            best[r.variant] = r
    return sum(r.wall_s for r in best.values()), sum(r.ops for r in best.values())


def round_latency(rounds: list) -> dict:
    """Per variant: the number of rounds, the median round time, and the
    highest of the 90th and 75th percentiles that has at least ten rounds
    beyond it."""
    times: dict = {}
    for r in rounds:
        times.setdefault(str(r.variant), []).append(r.wall_s)
    out = {}
    for variant, ts in times.items():
        out[variant] = {"n": len(ts), "p50": statistics.median(ts)}
        for p in (90, 75):
            if len(ts) * (100 - p) >= 1000:
                out[variant][f"p{p}"] = statistics.quantiles(ts, n=100)[p - 1]
                break
    return out


def relative_pass(rounds: list, mids: list, speed: SpeedProbe) -> float:
    """One pass over the variants in multiples of the reference computation:
    per variant, the median over its rounds of the round's time divided by
    the reference time around the round's middle ``mids``, summed over the
    variants.  Dividing each round by the machine's speed at that moment
    takes out spells when other tenants slow the machine, which a median or
    a minimum of raw times over one run cannot."""
    ratios: dict = {}
    for r, mid in zip(rounds, mids):
        ratios.setdefault(r.variant, []).append(r.wall_s / speed.around(mid))
    return sum(statistics.median(v) for v in ratios.values())


def run_rounds(wl, seconds: float, setup, speed) -> tuple[list, list]:
    """Rounds until ``seconds`` have passed and every variant ran once, and
    the middle of each round; ``setup`` and ``speed`` samples are taken
    between rounds, evenly over the period."""
    rounds, mids = [], []
    start = perf_counter()
    while len(rounds) < len(wl.variants) or perf_counter() - start < seconds:
        t = perf_counter()
        rounds.append(wl.round(len(rounds)))
        mids.append(t + rounds[-1].wall_s / 2)
        speed.keep_up(perf_counter() - start)
        if len(setup.samples) < SETUP_RUNS * min(
                1.0, (perf_counter() - start) / seconds):
            setup.sample()
    while len(setup.samples) < SETUP_RUNS:
        setup.sample()
    return rounds, mids


def run_traced(wl, seconds: float, tracer) -> tuple[list, list]:
    """Untraced and traced passes over the variants, in turn, until
    ``seconds`` have passed; the tracer is installed only around the traced
    passes, so that both sets of rounds see the same machine."""
    plain, traced = [], []
    i = 0
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        for rounds in (plain, traced):
            if rounds is traced:
                tracer.install()
            for _ in wl.variants:
                tracer.op_id = i
                rounds.append(wl.round(i))
                i += 1
                tracer.fold()
            tracer.uninstall()
    return plain, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "gtail" / "__init__.py").is_file():
        print(f"no gtail sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.write_reference:
            wl = workloads.WORKLOADS[args.workload](work, workloads.REFERENCE_SEED)
            for i in range(len(wl.variants)):
                wl.round(i)
            for name, text in wl.reference().items():
                (workloads.REFERENCE_DIR / name).parent.mkdir(parents=True, exist_ok=True)
                (workloads.REFERENCE_DIR / name).write_text(text)
                print(f"wrote {workloads.REFERENCE_DIR / name}")
            return 0
        return run(args, work, workloads, tracing)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()


def run(args, work: Path, workloads, tracing) -> int:
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace} | machine_record()
    setup = None if args.trace else SetupProbe()
    wl = workloads.WORKLOADS[args.workload](work, args.seed)
    record["array_bytes"] = wl.array_bytes
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if args.trace:
            tracer = tracing.Tracer()
            plain, traced = run_traced(wl, args.seconds, tracer)
            rounds = plain + traced
            metrics = tracer.summary(len(traced), sum(r.wall_s for r in traced))
            metrics["secondorder.rho_clamps"] = sum(
                str(w.message).startswith("rho estimate") for w in caught) / len(rounds)
            (traced_s, _), (plain_s, _) = best_pass(traced), best_pass(plain)
            metrics["trace.overhead_s"] = traced_s - plain_s
            record |= {"traced_rounds": len(traced), "untraced_rounds": len(plain),
                       "untraced_wall_s": plain_s, "traced_wall_s": traced_s}
            if traced_s < plain_s:
                print(f"WARNING: tracing overhead {traced_s - plain_s:.6g} s is negative: the"
                      " traced best pass beat the untraced one, so the overhead is below the"
                      " noise of the best pass", file=sys.stderr)
        else:
            speed = SpeedProbe()
            rounds, mids = run_rounds(wl, args.seconds, setup, speed)
            wall_s, ops = best_pass(rounds)
            metrics = {
                "setup_s": setup.at_fastest(speed),
                "wall_ref": relative_pass(rounds, mids, speed),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            # ops_per_s is reps_per_s (grid-quick), estimate calls per second
            # (adaptive-1e6) or estimates_per_s (kgrid-1e4): ops_per_pass /
            # wall_s, so it moves only with wall_s and is not a metric of its own
            record |= {"wall_s": wall_s, "probe_samples": len(speed.samples),
                       "probe_s_quartiles": statistics.quantiles(speed.samples, n=4),
                       "ops_per_pass": ops, "ops_per_s": ops / wall_s,
                       "setup_samples_s": setup.samples,
                       "setup_median_s": statistics.median(setup.samples),
                       "bare_interpreter_s": statistics.median(setup.bare_s),
                       "round_s": round_latency(rounds)}
    warned = Counter(re.sub(r"-?[0-9][0-9.e+-]*", "#", f"{w.category.__name__}: {w.message}")
                     for w in caught)
    problems, identical = wl.check()
    attempted = sum(r.attempted for r in rounds)
    failures = sum((r.failures for r in rounds), Counter())
    failed = sum(failures.values())
    record |= {"rounds": len(rounds), "attempted": attempted, "failed": failed,
               "failed_frac": failed / attempted, "failures_by_class": dict(failures),
               "warnings": dict(warned),
               "reference_bytes_identical": identical or "not the reference seed",
               "problems": problems[:20]}
    print("record " + json.dumps(record))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, value in metrics.items():
        print(f"{name:52s} {value:14.6g} {unit(name)}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()}}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
