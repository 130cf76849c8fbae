"""Run every workload over several seeds, interleaved, and summarise.

    python3 benchmarks/sweep.py --out benchmarks/baseline.json

Reads the command, workloads, run length and bounds from BENCHMARK.json and
runs every workload for seeds 1 to RUNS.  Runs are interleaved: seed by seed,
with the workload order rotated on each seed, so that slow drift of a shared
machine is spread over every workload instead of showing up as a difference
between them.  After the untraced runs it makes one traced run per workload
(seed 1).  For each end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``) and the quartile spread as a share of the
median, next to the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run_once(command, workload, seed, seconds, trace) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    record = next((json.loads(line[len("record "):]) for line in lines
                   if line.startswith("record ")), {})
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {"workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode,
            "started": start, "elapsed_s": time.time() - start, "result": result,
            "record": record, "stderr": proc.stderr[-2000:]}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="write every run and the summary here as JSON")
    args = ap.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    runs = []
    for i in range(RUNS):
        seed = 1 + i
        for workload in names[i % len(names):] + names[: i % len(names)]:
            run = run_once(spec["command"], workload, seed, spec["run_seconds"], 0)
            runs.append(run)
            print(f"{workload} seed {seed}: exit {run['exit']} in {run['elapsed_s']:.1f} s",
                  file=sys.stderr)
    for workload in names:
        runs.append(run_once(spec["command"], workload, 1, spec["run_seconds"], 1))
    ok = all(r["exit"] == 0 and r["result"] and r["result"]["correct"] for r in runs)
    summary = {}
    for workload in names:
        results = [r["result"] for r in runs
                   if r["workload"] == workload and not r["trace"] and r["result"]]
        for metric in spec["end_to_end"]:
            values = [res["metrics"][metric["name"]]["value"] for res in results]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            row = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                   "bound": metric["bound"], "unit": metric["unit"], "values": values}
            summary.setdefault(workload, {})[metric["name"]] = row
            print(f"{workload:14s} {metric['name']:12s} median {median:12.6g} {metric['unit']:4s}"
                  f" spread {row['spread']:7.2%} (bound {metric['bound']:.0%})")
    for r in runs:
        if r["exit"] != 0 or not r["result"] or not r["result"]["correct"]:
            print(f"FAILED: {r['workload']} seed {r['seed']} trace {r['trace']}: exit {r['exit']}"
                  f" {r['stderr'][-500:]}", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps({
            "machine": {k: runs[0]["record"].get(k) for k in
                        ("nproc", "affinity", "cpu", "caches", "python", "numpy")},
            "run_seconds": spec["run_seconds"], "summary": summary, "runs": runs},
            indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
