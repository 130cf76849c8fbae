import json
import math
import sys

import numpy as np
import pytest

from gtail import asymptotics as asy
from gtail import cli
from gtail import estimators as est
from gtail import montecarlo
from gtail.cli import main
from gtail.distributions import DistSpec, sample
from gtail.stats import Sample

GAMMA, RHO = 1.0, -1.0


@pytest.fixture
def data_file(tmp_path):
    s = sample(DistSpec("burr", GAMMA, RHO), 1000, 77)
    p = tmp_path / "data.txt"
    p.write_text("\n".join(f"{v:.17g}" for v in s.values) + "\n")
    return p


def run(args, capsys):
    code = main([str(a) for a in args])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEstimate:
    def test_matches_library_hill(self, data_file, capsys):
        code, out, _ = run(["estimate", data_file, "--kind", "hill", "--k", "100"],
                           capsys)
        assert code == 0
        report = json.loads(out)
        s = Sample.from_file(data_file)
        assert report["gamma_hat"] == pytest.approx(
            est.hill(s, 100).gamma_hat, rel=1e-12)
        lo, hi = report["ci95"]
        assert lo < report["gamma_hat"] < hi

    def test_tuned_kind(self, data_file, capsys):
        code, out, _ = run(["estimate", data_file, "--kind", "g1",
                            "--k", "100", "--r", "0.3"], capsys)
        assert code == 0
        s = Sample.from_file(data_file)
        assert json.loads(out)["gamma_hat"] == est.g1(s, 100, 0.3).gamma_hat

    def test_adaptive(self, data_file, capsys):
        code, out, _ = run(["estimate", data_file, "--kind", "gmr", "--adaptive"],
                           capsys)
        assert code == 0
        report = json.loads(out)
        for key in ("gamma_hat", "rho_hat", "beta_hat", "asymptotic_bias", "ci95"):
            assert key in report
        assert report["rho_hat"] < 0
        assert 0.3 < report["gamma_hat"] < 3.0

    @pytest.mark.parametrize("kind", ["hill", "gmr"])
    def test_adaptive_bias_and_interval_are_the_printed_formulas(self, data_file, kind, capsys):
        # bias = nu gamma beta (n/k)^rho and half-width = z sqrt(sigma2 / k),
        # from the report's own estimates at R = gamma r
        code, out, _ = run(["estimate", data_file, "--kind", kind, "--adaptive"], capsys)
        assert code == 0
        report = json.loads(out)
        n, k, gamma, rho, beta = (report[key] for key in ("n", "k", "gamma_hat", "rho_hat", "beta_hat"))
        R = gamma * report["r"]
        assert n == 1000
        if kind == "hill":
            nu, sigma2 = 1.0 / (1.0 - rho), gamma**2
        else:
            nu = (1.0 - R) ** 2 / (1.0 - R - rho) ** 2
            sigma2 = 2.0 * gamma**2 * (1.0 - R) ** 4 / (1.0 - 2.0 * R) ** 3
        assert report["asymptotic_bias"] == pytest.approx(
            nu * gamma * beta * (n / k) ** rho, rel=1e-12)
        half = 1.959963984540054 * math.sqrt(sigma2 / k)
        assert report["ci95"] == pytest.approx([gamma - half, gamma + half], rel=1e-12)

    @pytest.mark.parametrize("kind, j, extra", [
        ("hill", 1, []), ("g1", 1, ["--r", "0.3"]), ("hme", 1, ["--beta", "0.7"]),
        ("g2", 2, ["--r", "0.3"]), ("moment_ratio", 3, []), ("g3", 3, ["--r", "0.3"]),
        ("moment", None, [])])
    def test_interval_is_that_of_the_kinds_j(self, data_file, kind, j, extra, capsys):
        # ci95 = gamma_hat -+ z sqrt(sigma2 / k) with the variance of the
        # estimator j whose closed form the kind shares; moment shares none
        code, out, _ = run(["estimate", data_file, "--kind", kind, "--k", "100", *extra], capsys)
        assert code == 0
        report = json.loads(out)
        if j is None:
            assert "ci95" not in report
            return
        gamma = report["gamma_hat"]
        model = asy.SecondOrderModel(gamma, -1.0, 1.0)
        half = 1.959963984540054 * math.sqrt(asy.estimator_limit_constants(model, report["r"], j)[1] / 100)
        assert report["ci95"] == [gamma - half, gamma + half]

    @pytest.mark.parametrize("r, defined", [(0.6, False), (0.45, True)])
    def test_estimate_stands_where_its_interval_is_undefined(self, tmp_path, r, defined, capsys):
        """g1's interval needs gamma_hat * r < 1/2: where that fails (r = 0.6
        on Pareto(1) data) the estimate is printed with "ci95": null and the
        reason, and the exit code is 0; at r = 0.45 the interval is there."""
        p = tmp_path / "pareto.txt"
        p.write_text("".join(f"{v:.17g}\n" for v in sample(DistSpec("pareto", 1.0), 2000, 1).values))
        code, out, _ = run(["estimate", p, "--kind", "g1", "--k", "200", "--r", r], capsys)
        assert code == 0
        report = json.loads(out)
        gamma = est.g1(Sample.from_file(p), 200, r).gamma_hat
        assert report["gamma_hat"] == gamma and (gamma * r < 0.5) == defined
        if defined:
            assert len(report["ci95"]) == 2 and "ci95_undefined" not in report
        else:
            assert report["ci95"] is None
            assert report["ci95_undefined"] == f"need gamma*r < 1/2, got {gamma * r}"

    def test_missing_k_is_precondition_error(self, data_file, capsys):
        code, _, err = run(["estimate", data_file, "--kind", "hill"], capsys)
        assert code == 3
        assert "k" in err

    @pytest.mark.parametrize("kind", ["gh", "mr", "gmr"])
    def test_adaptive_kind_without_adaptive_names_it(self, data_file, kind, capsys):
        code, out, err = run(["estimate", data_file, "--kind", kind, "--k", "50"], capsys)
        assert (code, out) == (3, "")
        assert f"--kind {kind} needs --adaptive" in err

    def test_k_with_adaptive_rejected(self, data_file, capsys):
        code, out, err = run(["estimate", data_file, "--kind", "gmr", "--adaptive",
                              "--k", "50"], capsys)
        assert (code, out) == (3, "")
        assert "--k" in err and "--adaptive" in err

    @pytest.mark.parametrize("args, option", [
        (["--kind", "hill", "--k", "200", "--r", "0.3"], "--r"),
        (["--kind", "hill", "--k", "200", "--beta", "0.5"], "--beta"),
        (["--kind", "moment", "--k", "200", "--r", "0.3"], "--r"),
        (["--kind", "hme", "--k", "200", "--beta", "0.5", "--r", "0.3"], "--r"),
        (["--kind", "g1", "--k", "200", "--beta", "0.5"], "--beta"),
        (["--kind", "gmr", "--adaptive", "--r", "0.3"], "--r"),
        (["--kind", "hill", "--adaptive", "--beta", "0.5"], "--beta"),
    ])
    def test_option_its_kind_does_not_read_rejected(self, data_file, args, option, capsys):
        code, out, err = run(["estimate", data_file] + args, capsys)
        assert (code, out) == (3, "")
        assert f"does not take {option}" in err

    # g1's --r is test_tuned_kind
    @pytest.mark.parametrize("kind, option, value", [
        ("g2", "--r", "0.3"), ("g3", "--r", "-0.5"), ("hme", "--beta", "0.7")])
    def test_option_its_kind_reads_accepted(self, data_file, kind, option, value, capsys):
        code, out, _ = run(["estimate", data_file, "--kind", kind, "--k", "200", option, value],
                           capsys)
        assert code == 0
        s = Sample.from_file(data_file)
        spec = est.EstimatorSpec(kind, 200, r=float(value) if option == "--r" else 0.0,
                                 beta=float(value) if option == "--beta" else None)
        assert json.loads(out)["gamma_hat"] == est.evaluate(s, spec).gamma_hat

    @pytest.mark.parametrize("kind, option, value", [
        ("g1", "--r", "nan"), ("g2", "--r", "inf"), ("hme", "--beta", "nan")])
    def test_tuning_that_is_not_finite_is_precondition_error(self, data_file, kind, option, value,
                                                              capsys):
        code, out, err = run(["estimate", data_file, "--kind", kind, "--k", "5", option, value],
                             capsys)
        assert (code, out) == (3, "")
        assert f"{option[2:]} must be finite, got {value}" in err

    def test_malformed_line_reports_line_number(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("1.0\n2.0\nthree\n4.0\n")
        code, _, err = run(["estimate", p, "--kind", "hill", "--k", "2"], capsys)
        assert code == 2
        assert "3" in err

    def test_missing_file(self, tmp_path, capsys):
        # a directory cannot be read as a data file either
        for path in ("/no/such/file", tmp_path):
            code, _, err = run(["estimate", path, "--kind", "hill", "--k", "5"], capsys)
            assert code == 3
            assert err.startswith("invalid input:")

    @pytest.mark.parametrize("text", [b"1.0\n\xff2.0\n3.0\n", b"\xff\n1.0\n2.0\n3.0\n"])
    def test_undecodable_data_is_parse_error(self, tmp_path, text, capsys):
        p = tmp_path / "bytes.txt"
        p.write_bytes(text)
        code, _, err = run(["estimate", p, "--kind", "hill", "--k", "2"], capsys)
        assert code == 2
        assert "not UTF-8" in err

    def test_output_directory_is_precondition_error(self, data_file, tmp_path, capsys):
        code, out, err = run(["estimate", data_file, "--kind", "hill", "--k", "50",
                              "--output", tmp_path], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("invalid input:")


class TestOptimal:
    def test_j1_values(self, capsys):
        code, out, _ = run(["optimal", "--j", "1", "--rho", "-1", "--gamma", "1",
                            "--beta", "1", "--n", "1000"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["R_star"] == pytest.approx(asy.r_star(-1.0, 1), rel=1e-14)
        assert report["r_star"] == pytest.approx(report["R_star"])
        assert report["k_star"] != 126  # tuned k differs from the classical 126
        assert report["amse_at_k_star"] > 0

    def test_j2_reports_small_residual(self, capsys):
        code, out, _ = run(["optimal", "--j", "2", "--rho", "-1"], capsys)
        assert code == 0
        report = json.loads(out)
        assert abs(report["polynomial_residual"]) < 1e-8

    def test_positive_rho_rejected(self, capsys):
        code, _, _ = run(["optimal", "--j", "1", "--rho", "0.5"], capsys)
        assert code == 3

    @pytest.mark.parametrize("n", ["-5", "0", "2"])
    def test_n_below_3_rejected(self, n, capsys):
        # k* is clamped to [2, n - 1], which needs n >= 3
        code, _, err = run(["optimal", "--j", "1", "--rho", "-1", "--gamma", "1",
                            "--beta", "1", "--n", n], capsys)
        assert code == 3
        assert f"n must be >= 3, got {n}" in err

    def test_no_finite_k_star_rejected(self, capsys):
        # beta^2 underflows to 0: the optimal tail size is not a float
        code, _, err = run(["optimal", "--j", "1", "--rho", "-1", "--gamma", "1",
                            "--beta", "1e-200", "--n", "1000"], capsys)
        assert code == 3
        assert "invalid input" in err


    @pytest.mark.parametrize("j, rho, more", [
        (1, "-1e300", []), (2, "-1e300", []),
        (3, "-1e200", ["--gamma", "1", "--beta", "1", "--n", "1000"])])
    def test_rho_too_negative_for_a_float_rejected(self, j, rho, more, capsys):
        # (2 - rho)^2 or rho^2 overflows
        code, out, err = run(["optimal", "--j", j, f"--rho={rho}", *more], capsys)
        assert (code, out) == (3, "")
        assert f"is not a finite float at rho={float(rho)}" in err


class TestAmse:
    def _curve(self, capsys, name, lo, hi, step=0.01):
        code, out, _ = run(["amse", "--curve", name, "--rho-min", lo,
                            "--rho-max", hi, "--step", step], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        return np.array([[float(a), float(b)] for a, b in rows])

    def test_psi_mr_limit(self, capsys):
        curve = self._curve(capsys, "psiMR", -500, -400, 10)
        assert np.all(np.abs(curve[:, 1] - asy.PSI_MR_LIMIT) < 1e-2)

    def test_phi3_sign_change(self, capsys):
        curve = self._curve(capsys, "phi3", -5.0, -4.0, 0.05)
        signs = np.sign(curve[:, 1] - 1.0)
        assert signs[0] != signs[-1]
        crossing = curve[np.where(np.diff(signs))[0][0], 0]
        assert abs(crossing - asy.PHI3_CROSSING) < 0.1

    def test_psi_h_bounded(self, capsys):
        curve = self._curve(capsys, "psiH", -20, -0.05, 0.05)
        assert np.all(curve[:, 1] >= 1.0 - 1e-12)
        assert np.all(curve[:, 1] <= 1.06)

    def test_bad_range(self, capsys):
        # a step <= 0, or one too small to move rho, would never reach rho_max
        for lo, hi, step in ((-1, -2, 0.01), (-2, -1, 0), (-2, -1, -0.1), (-2, -1, 1e-300)):
            code, _, _ = run(["amse", "--curve", "psiH", "--rho-min", lo,
                              "--rho-max", hi, "--step", step], capsys)
            assert code == 3
        # a step that advances rho but gives more rows than the cap
        code, out, err = run(["amse", "--curve", "psiH", "--rho-min", -1, "--rho-max", -0.5,
                              "--step", 1e-15], capsys)
        assert (code, out) == (3, "")
        assert "5e+14 rows" in err

    @pytest.mark.parametrize("curve", ["phi2", "psiMR", "psiH", "phi3"])
    def test_rho_too_negative_for_a_float_rejected(self, curve, capsys):
        code, out, err = run(["amse", "--curve", curve, "--rho-min=-1e300", "--rho-max=-1e299",
                              "--step", "1e299"], capsys)
        assert (code, out) == (3, "")
        assert "is not a finite float at rho=-1e+300" in err


CONFIG = """\
[distribution]
family = burr

[experiment]
n = 400
replications = 6
seed = 31

[cell]
gamma = 1.0
rho = -1.0
"""

GRID_CONFIG = """\
[distribution]
family = burr

[experiment]
n = 300
replications = 4
seed = 5

[grid]
gamma_start = 0.0
gamma_stop = 1.0
gamma_step = 0.5
rho_start = -2.0
rho_stop = -1.0
rho_step = 0.5
"""


class TestSimulate:
    def test_single_cell_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CONFIG)
        out = tmp_path / "out"
        code, _, _ = run(["simulate", cfg, "--output-dir", out], capsys)
        assert code == 0
        report = (out / "report.csv").read_text()
        manifest = json.loads((out / "manifest.json").read_text())
        assert report.startswith("gamma,rho,estimator")
        assert manifest["seed"] == 31

        # byte-identical rerun, also with more threads
        out2 = tmp_path / "out2"
        code, _, _ = run(["simulate", cfg, "--output-dir", out2,
                          "--threads", "4"], capsys)
        assert code == 0
        assert (out2 / "report.csv").read_text() == report
        assert (out2 / "manifest.json").read_text() == \
            (out / "manifest.json").read_text()

    def test_grid_with_dominance(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(GRID_CONFIG)
        out = tmp_path / "out"
        code, _, _ = run(["simulate", cfg, "--output-dir", out, "--dominance"],
                         capsys)
        assert code in (0, 4)
        dom = (out / "dominance.csv").read_text().strip().split("\n")
        # 2 gamma centers x 2 rho centers
        assert len(dom) == 1 + 4

    def test_seed_override_changes_digest(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CONFIG)
        out = tmp_path / "a"
        run(["simulate", cfg, "--output-dir", out], capsys)
        out2 = tmp_path / "b"
        run(["simulate", cfg, "--output-dir", out2, "--seed", "99"], capsys)
        a = json.loads((out / "manifest.json").read_text())
        b = json.loads((out2 / "manifest.json").read_text())
        assert a["config_digest"] != b["config_digest"]
        assert b["seed"] == 99

    def test_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        for text in ("[distribution]\nfamily = burr\n", "family = burr\n",
                     GRID_CONFIG.replace("gamma_step = 0.5", "gamma_step = 0"),
                     GRID_CONFIG.replace("rho_step = 0.5", "rho_step = -0.5"),
                     GRID_CONFIG.replace("n = 300", "n = abc"),
                     GRID_CONFIG.replace("gamma_step = 0.5", "gamma_step = x"),
                     GRID_CONFIG.replace("burr", "burr\xff")):  # a byte that is not UTF-8
            cfg.write_bytes(text.encode("latin-1"))
            code, _, err = run(["simulate", cfg], capsys)
            assert code == 2
            assert "bad config file" in err
        # a value that parses but is out of range is still a precondition error
        cfg.write_text(GRID_CONFIG.replace("replications = 4", "replications = 0"))
        code, _, err = run(["simulate", cfg], capsys)
        assert code == 3
        assert "replications must be >= 1" in err

    def test_output_dir_that_is_a_file_fails_before_the_grid(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CONFIG)
        (tmp_path / "taken").write_text("")

        def no_grid(*args, **kwargs):
            raise AssertionError("the grid ran before the output directory was made")

        monkeypatch.setattr(montecarlo, "simulate", no_grid)
        for out in ("taken", "taken/sub"):
            code, _, err = run(["simulate", cfg, "--output-dir", tmp_path / out], capsys)
            assert code == 3
            assert err.startswith("invalid input:")

    @pytest.mark.parametrize("where", ["config", "option"])
    def test_negative_seed_rejected(self, tmp_path, where, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CONFIG.replace("seed = 31", "seed = -1") if where == "config" else CONFIG)
        code, _, err = run(["simulate", cfg, "--output-dir", tmp_path / "out"]
                           + (["--seed", "-1"] if where == "option" else []), capsys)
        assert code == 3
        assert "seed must be >= 0, got -1" in err
        assert not (tmp_path / "out").exists()


class TestRobustness:
    def test_bounded_shift_positive_r(self, capsys):
        code, out, _ = run(["robustness", "--gamma", "1", "--r", "0.5",
                            "--n", "2000", "--k", "200", "--seed", "3",
                            "--x-list", "1e4,1e8,1e12"], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        deltas = [float(d) for _, d in rows]
        limit = asy.robustness_limit(GAMMA, 0.5)
        assert deltas == sorted(deltas)
        assert deltas[-1] < limit * 1.5

    def test_unbounded_r_zero(self, capsys):
        code, out, _ = run(["robustness", "--gamma", "1", "--r", "0",
                            "--n", "2000", "--k", "200", "--seed", "3",
                            "--x-list", "1e4,1e150,1e300"], capsys)
        assert code == 0
        rows = out.strip().split("\n")[1:]
        deltas = [float(r.split(",")[1]) for r in rows]
        # the shift grows like ln(x)/k without bound
        assert deltas == sorted(deltas)
        assert deltas[-1] - deltas[0] > 0.5 * (np.log(1e300) - np.log(1e4)) / 200

    def test_inconsistent_tuning_rejected(self, capsys):
        code, _, _ = run(["robustness", "--gamma", "2", "--r", "0.6",
                          "--n", "1000", "--k", "100", "--seed", "3",
                          "--x-list", "10"], capsys)
        assert code == 3

    def test_negative_seed_rejected(self, capsys):
        code, _, err = run(["robustness", "--gamma", "1", "--r", "0.5",
                            "--n", "200", "--k", "20", "--seed", "-3",
                            "--x-list", "10"], capsys)
        assert code == 3
        assert "seeds and stream keys must be >= 0, got -3" in err

    def test_unparseable_x_list_names_the_entry(self, capsys):
        code, _, err = run(["robustness", "--gamma", "1", "--r", "0.5",
                            "--n", "200", "--k", "20", "--seed", "3",
                            "--x-list", "1e2,abc"], capsys)
        assert code == 2
        assert "--x-list" in err and "'abc'" in err


@pytest.mark.parametrize("args", [
    ["optimal", "--j", "1", "--rho", "-1e3"],
    ["optimal", "--j", "3", "--rho", "-1E0", "--gamma", "-2.5e-1"],
    ["optimal", "--j", "1", "--rho", "-1", "--gamma", "1", "--beta", "-1e0", "--n", "1000"],
    ["amse", "--curve", "psiH", "--rho-min", "-1e1", "--rho-max", "-1e-1", "--step", "5e-2"],
    ["amse", "--curve", "psiH", "--rho-min", "-2", "--rho-max", "-1", "--step", "-5e-2"],
    ["estimate", "DATA", "--kind", "g1", "--k", "100", "--r", "-3e-1"],
    ["robustness", "--gamma", "1", "--r", "-5e-1", "--n", "200", "--k", "20", "--seed", "3",
     "--x-list", "10,100"],
])
def test_negative_float_in_exponent_form_is_a_value(args, data_file, capsys):
    """A float option followed by a negative number in exponent form, which
    argparse alone reads as an unknown option, is parsed as --option=value."""
    args = [str(data_file) if a == "DATA" else a for a in args]
    joined = []
    for a in args:
        if a.startswith("-") and not a.startswith("--"):
            joined[-1] += f"={a}"
        else:
            joined.append(a)
    assert len(joined) < len(args)
    spaced = run(args, capsys)
    assert spaced == run(joined, capsys)
    assert "expected one argument" not in spaced[2]


def test_negative_bounds_in_exponent_form_through_sys_argv(monkeypatch, capsys):
    argv = ["amse", "--curve", "psiH", "--rho-min", "-1e1", "--rho-max", "-1e-1", "--step", "5e-2"]
    monkeypatch.setattr(sys, "argv", ["gtail", *argv])
    assert main() == 0
    out = capsys.readouterr().out
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 199
    assert float(rows[0][0]) == -10.0 and float(rows[-1][0]) == pytest.approx(-0.1, abs=1e-12)
    code, joined, _ = run(["amse", "--curve", "psiH", "--rho-min=-1e1", "--rho-max=-1e-1",
                           "--step", "5e-2"], capsys)
    assert (code, joined) == (0, out)


def test_the_parser_built_once_parses_as_a_fresh_one(data_file, tmp_path, monkeypatch, capsys):
    """main builds its parser once per process; in a run of commands with a
    bad option among them, each call gives the exit code, stdout and stderr
    of a parser built for that call alone."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG)
    calls = [["estimate", data_file, "--kind", "g1", "--k", "100", "--r", "0.3"],
             ["optimal", "--j", "1", "--rho", "-1", "--gamma", "1", "--beta", "1", "--n", "1000"],
             ["simulate", cfg, "--output-dir", tmp_path / "out"],
             ["estimate", data_file, "--kind", "hill", "--k", "100", "--bogus", "1"],
             ["optimal", "--j", "2", "--rho", "-1"]]

    def outcomes():
        got = []
        for args in calls:
            try:
                code = main([str(a) for a in args])
            except SystemExit as exc:  # argparse's exit on a bad option
                code = exc.code
            out = capsys.readouterr()
            got.append((code, out.out, out.err))
        return got

    assert cli.build_parser() is cli.build_parser()
    once = outcomes()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert outcomes() == once
    assert [code for code, _, _ in once] == [0, 0, 0, 2, 0]
    assert "unrecognized arguments: --bogus 1" in once[3][2]
