"""Command-line front door.

Subcommands: ``estimate`` (point estimates on data files), ``optimal``
(closed-form tuning/tail-size optima), ``amse`` (AMSE-ratio curves as CSV),
``simulate`` (Monte-Carlo experiments from a config file), ``robustness``
(contamination experiment). Data goes to stdout or ``--output``; diagnostics
go to stderr. Exit codes: 2 parse error, 3 precondition violation, 4
pipeline degeneracy.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import asymptotics, estimators, montecarlo, secondorder
from .errors import DegenerateSampleError, DomainError, ParseError, PipelineError
from .stats import Sample

Z_95 = 1.959963984540054

EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_DEGENERATE = 4

_KIND_TO_J = {"hill": 1, "g1": 1, "hme": 1, "gh": 1, "g2": 2,
              "moment_ratio": 3, "mr": 3, "g3": 3, "gmr": 3}


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _confidence_interval(gamma_hat: float, r: float, j: int, k: int):
    sigma2 = asymptotics.estimator_limit_constants(
        asymptotics.SecondOrderModel(gamma_hat, -1.0, 1.0), r, j)[1]
    half = Z_95 * math.sqrt(sigma2 / k)
    return [gamma_hat - half, gamma_hat + half]


def cmd_estimate(args) -> int:
    s = Sample.from_file(args.data)
    report: dict = {"input": args.data, "n": s.n, "kind": args.kind}
    if args.adaptive:
        if args.kind not in ("hill", "gh", "mr", "gmr"):
            raise DomainError(f"--adaptive supports hill/gh/mr/gmr, not {args.kind!r}")
        j = _KIND_TO_J[args.kind]
        res = secondorder.adaptive_estimate(s, j)
        e = res.generalized if args.kind in ("gh", "gmr") else res.classical
        report.update({
            "gamma_hat": e.gamma_hat, "k": e.spec.k, "r": e.spec.r,
            "rho_hat": res.rho.rho_hat, "tau": res.rho.tau,
            "beta_hat": res.beta.beta_hat,
        })
        model = asymptotics.SecondOrderModel(e.gamma_hat, res.rho.rho_hat,
                                             res.beta.beta_hat)
        nu, _ = asymptotics.estimator_limit_constants(model, e.spec.r, j)
        report["asymptotic_bias"] = nu * asymptotics.rate_A(model, s.n / e.spec.k)
        report["ci95"] = _confidence_interval(e.gamma_hat, e.spec.r, j, e.spec.k)
    else:
        if args.k is None:
            raise DomainError("--k is required unless --adaptive is given")
        spec = estimators.EstimatorSpec(args.kind, args.k, r=args.r,
                                        beta=args.beta)
        e = estimators.evaluate(s, spec)
        report.update({"gamma_hat": e.gamma_hat, "k": args.k, "r": e.spec.r})
        j = _KIND_TO_J.get(args.kind)
        if j is not None:
            report["ci95"] = _confidence_interval(e.gamma_hat, e.spec.r, j, args.k)
    _emit(json.dumps(report, indent=2) + "\n", args.output)
    return 0


def cmd_optimal(args) -> int:
    if not args.rho < 0:
        raise DomainError(f"rho must be < 0, got {args.rho}")
    R = asymptotics.r_star(args.rho, args.j)
    report = {"j": args.j, "rho": args.rho, "R_star": R}
    if args.j == 2:
        coeffs = asymptotics.r2_polynomial_coeffs(args.rho)
        report["polynomial_residual"] = float(np.polyval(coeffs, R) / coeffs[0])
    if args.gamma is not None:
        report["r_star"] = R / args.gamma
        if args.n is not None and args.beta is not None:
            model = asymptotics.SecondOrderModel(args.gamma, args.rho, args.beta)
            k = asymptotics.k_star(model, R / args.gamma, args.j, args.n)
            report["k_star"] = k
            report["amse_at_k_star"] = asymptotics.amse(model, R / args.gamma,
                                                        args.j, k, args.n)
    _emit(json.dumps(report, indent=2) + "\n", args.output)
    return 0


_CURVES = {"psiH": asymptotics.psi_H, "psiMR": asymptotics.psi_MR,
           "phi2": asymptotics.phi2, "phi3": asymptotics.phi3}


def cmd_amse(args) -> int:
    if not (args.rho_min < args.rho_max < 0):
        raise DomainError("need rho_min < rho_max < 0")
    if not args.step > 0:
        raise DomainError(f"need step > 0, got {args.step}")
    fn = _CURVES[args.curve]
    lines = ["rho,value"]
    rho = args.rho_min
    while rho <= args.rho_max + 1e-12:
        lines.append(f"{rho:.17g},{float(fn(min(rho, args.rho_max))):.17g}")
        rho += args.step
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _load_config(path: str, seed_override: int | None) -> montecarlo.ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ParseError(f"cannot read config file {path}")
    try:
        dist = parser["distribution"]
        exp = parser["experiment"]
        family = dist.get("family")
        scale = dist.getfloat("scale", fallback=1.0)
        n = exp.getint("n")
        reps = exp.getint("replications")
        seed = seed_override if seed_override is not None else exp.getint("seed", fallback=None)
        if seed is None:
            raise DomainError("a seed is required: set [experiment] seed or pass --seed")
        labels = tuple(x.strip() for x in
                       exp.get("estimators", fallback="hill,gh,mr,gmr").split(","))
        grid = None
        gamma = rho = None
        if parser.has_section("grid"):
            g = parser["grid"]
            grid = tuple(
                (float(gc), float(rc))
                for gc in _centers(g.getfloat("gamma_start"), g.getfloat("gamma_stop"),
                                   g.getfloat("gamma_step"))
                for rc in _centers(g.getfloat("rho_start"), g.getfloat("rho_stop"),
                                   g.getfloat("rho_step"))
            )
        else:
            cell = parser["cell"]
            gamma = cell.getfloat("gamma")
            rho = cell.getfloat("rho")
        return montecarlo.ExperimentConfig(
            family=family, n=n, replications=reps, seed=seed, gamma=gamma, rho=rho,
            estimators=labels, grid=grid, scale=scale)
    except (configparser.Error, KeyError, TypeError) as exc:
        raise ParseError(f"bad config file {path}: {exc}") from exc


def _centers(start: float, stop: float, step: float) -> list[float]:
    """Midpoints of the cells of width step from start to stop; an empty axis
    is an error of the config file."""
    cells = (stop - start) / step if step > 0 else math.nan
    if not 0.5 < cells < math.inf:
        raise configparser.Error(f"empty grid axis: start={start}, stop={stop}, step={step}")
    return [start + step * (i + 0.5) for i in range(round(cells))]


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config, args.seed)
    report = montecarlo.simulate(cfg, workers=args.threads)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.csv").write_text(montecarlo.report_to_csv(report))
    (outdir / "manifest.json").write_text(montecarlo.manifest_json(report))
    if args.dominance:
        rows = montecarlo.dominance_map(report)
        (outdir / "dominance.csv").write_text(montecarlo.dominance_to_csv(rows))
    failed = [(c.gamma, c.rho) for c in report.cells if c.degenerate]
    if failed:
        print(f"degenerate cells: {failed}", file=sys.stderr)
        return EXIT_DEGENERATE
    return 0


def cmd_robustness(args) -> int:
    xs = [float(x) for x in args.x_list.split(",")]
    rows = montecarlo.contamination_experiment(
        args.gamma, args.r, args.j, args.n, args.k, args.seed, xs)
    lines = ["x,delta"] + [f"{x:.17g},{d:.17g}" for x, d in rows]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gtail",
                                description="Tail index estimation toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("estimate", help="estimate the tail index from a data file")
    pe.add_argument("data")
    pe.add_argument("--kind", required=True,
                    choices=sorted(set(estimators.KINDS) | {"gh", "mr", "gmr"}))
    pe.add_argument("--k", type=int)
    pe.add_argument("--r", type=float, default=0.0)
    pe.add_argument("--beta", type=float)
    pe.add_argument("--adaptive", action="store_true")
    pe.add_argument("--output")
    pe.set_defaults(func=cmd_estimate)

    po = sub.add_parser("optimal", help="optimal tuning and tail size")
    po.add_argument("--j", type=int, required=True, choices=(1, 2, 3))
    po.add_argument("--rho", type=float, required=True)
    po.add_argument("--gamma", type=float)
    po.add_argument("--beta", type=float)
    po.add_argument("--n", type=int)
    po.add_argument("--output")
    po.set_defaults(func=cmd_optimal)

    pa = sub.add_parser("amse", help="AMSE-ratio curve as CSV")
    pa.add_argument("--curve", required=True, choices=sorted(_CURVES))
    pa.add_argument("--rho-min", type=float, required=True)
    pa.add_argument("--rho-max", type=float, required=True)
    pa.add_argument("--step", type=float, default=0.01)
    pa.add_argument("--output")
    pa.set_defaults(func=cmd_amse)

    ps = sub.add_parser("simulate", help="run a Monte-Carlo experiment from a config file")
    ps.add_argument("config")
    ps.add_argument("--seed", type=int)
    ps.add_argument("--output-dir", default="gtail-report")
    ps.add_argument("--threads", type=int, default=1,
                    help="run cells in up to this many processes (at most one per cell"
                         " and per CPU); the report bytes do not depend on it")
    ps.add_argument("--dominance", action="store_true",
                    help="also write the per-cell winner raster")
    ps.set_defaults(func=cmd_simulate)

    pr = sub.add_parser("robustness", help="contamination experiment CSV")
    pr.add_argument("--gamma", type=float, required=True)
    pr.add_argument("--r", type=float, required=True)
    pr.add_argument("--j", type=int, default=1, choices=(1, 2, 3))
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--k", type=int, required=True)
    pr.add_argument("--seed", type=int, required=True)
    pr.add_argument("--x-list", required=True,
                    help="comma-separated contamination magnitudes")
    pr.add_argument("--output")
    pr.set_defaults(func=cmd_robustness)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DomainError, FileNotFoundError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (PipelineError, DegenerateSampleError) as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
