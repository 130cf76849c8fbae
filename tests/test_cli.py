import json

import numpy as np
import pytest

from gtail import asymptotics as asy
from gtail import estimators as est
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

    def test_missing_k_is_precondition_error(self, data_file, capsys):
        code, _, err = run(["estimate", data_file, "--kind", "hill"], capsys)
        assert code == 3
        assert "k" in err

    def test_malformed_line_reports_line_number(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("1.0\n2.0\nthree\n4.0\n")
        code, _, err = run(["estimate", p, "--kind", "hill", "--k", "2"], capsys)
        assert code == 2
        assert "3" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(["estimate", "/no/such/file", "--kind", "hill", "--k", "5"],
                         capsys)
        assert code == 3


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

    def test_no_finite_k_star_rejected(self, capsys):
        # beta^2 underflows to 0: the optimal tail size is not a float
        code, _, err = run(["optimal", "--j", "1", "--rho", "-1", "--gamma", "1",
                            "--beta", "1e-200", "--n", "1000"], capsys)
        assert code == 3
        assert "invalid input" in err


class TestAmse:
    def _curve(self, capsys, name, lo, hi, step=0.01):
        code, out, _ = run(["amse", "--curve", name, "--rho-min", lo,
                            "--rho-max", hi, "--step", step], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        return np.array([[float(a), float(b)] for a, b in rows])

    def test_psi_mr_limit(self, capsys):
        curve = self._curve(capsys, "psiMR", -500, -400, 10)
        assert np.all(np.abs(curve[:, 1] - 27.0 / 16.0) < 1e-2)

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
        # a step <= 0 would never reach rho_max
        for lo, hi, step in ((-1, -2, 0.01), (-2, -1, 0), (-2, -1, -0.1)):
            code, _, _ = run(["amse", "--curve", "psiH", "--rho-min", lo,
                              "--rho-max", hi, "--step", step], capsys)
            assert code == 3


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
        for text in ("[distribution]\nfamily = burr\n",
                     GRID_CONFIG.replace("gamma_step = 0.5", "gamma_step = 0"),
                     GRID_CONFIG.replace("rho_step = 0.5", "rho_step = -0.5")):
            cfg.write_text(text)
            code, _, err = run(["simulate", cfg], capsys)
            assert code == 2
            assert "bad config file" in err


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
