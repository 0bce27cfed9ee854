"""Command-line integration tests: exit codes, determinism, round trips."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as st

import heavytail
from heavytail import Gaussian, LambertWDist, rlambertw
from heavytail.cli import _summary_block, _t_and_p, main, parse_tau, read_series, write_series
from util import child_env

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# What a generated console-script wrapper does with a "module:attr" target,
# passed here as the first argument.
SCRIPT_WRAPPER = """\
import sys
from importlib import import_module
module, _, attr = sys.argv.pop(1).partition(":")
obj = import_module(module)
for name in attr.split("."):
    obj = getattr(obj, name)
sys.argv[0] = "heavytail"
sys.exit(obj())
"""


# Checked in a fresh interpreter; the first argument is a temporary file
# path.  Importing the package, transforming, Gaussianizing and the
# Gaussian-input fits load no scipy module at all; simulate and fit load
# scipy.special, and no step loads the slow scipy.optimize or scipy.stats.
IMPORT_GRAPH = """\
import sys
import numpy as np
import heavytail
import heavytail.cli
from heavytail.cli import main, read_series

def loaded(names=None):
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"
                  and (names is None or m in names))

assert loaded() == [], ("import", loaded())
path = sys.argv[1]
z = np.random.default_rng(3).standard_normal(200)
np.savetxt(path, z * np.exp(0.1 * z * z), fmt="%.17g")
assert main(["transform", path, "--tau", "0,1,0.2", "--direction", "inverse",
             "--out", path + ".x"]) == 0
assert loaded() == [], ("transform", loaded())
for how in (["--tau", "0,1,0.2"], ["--fit", "--method", "igmm"],
            ["--fit", "--method", "mle"]):
    assert main(["gaussianize", path, *how, "--out", path + ".g"]) == 0
    assert loaded() == [], ("gaussianize", how, loaded())
y = read_series(path)
heavytail.igmm(y)
heavytail.Gaussianizer("igmm", "hh").fit(y)
heavytail.mle_joint(y)
heavytail.mle_joint(y, tail="hh")
heavytail.mle_delta_only(y)
assert loaded() == [], ("Gaussian-input fits", loaded())

slow = ("scipy.optimize", "scipy.stats")
assert main(["simulate", "--tau", "0,1,0.2", "--n", "200", "--seed", "3",
             "--out", path]) == 0
assert "scipy.special" in loaded(), ("simulate", loaded())
assert loaded(slow) == [], ("simulate", loaded(slow))
assert main(["fit", path]) == 0
assert loaded(slow) == [], ("fit", loaded(slow))
assert main(["fit", path, "--tail", "hh"]) == 0
heavytail.mle_joint(y, family="student-t")
assert loaded(slow) == [], ("likelihood fits", loaded(slow))
"""


def run_cli(*args):
    return main(list(args))


def run_cli_capture(capsys, *args):
    code = main(list(args))
    return code, capsys.readouterr()


class TestSeriesIO:
    def test_round_trip_precision(self, tmp_path):
        path = tmp_path / "v.txt"
        values = np.array([1.23456789012345e-7, -42.5, 3.141592653589793])
        write_series(values, path)
        back = read_series(path, min_n=1)
        np.testing.assert_array_equal(back, values)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("# header\n1.0\n\n2.0\n# trailing\n3.0\n" + "4\n" * 7)
        assert len(read_series(path)) == 10

    def test_csv_column(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("\n".join(str(i) for i in range(12)))
        assert len(read_series(path)) == 12

    def test_non_numeric_token_reports_line(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("1.0\n2.0\noops\n")
        with pytest.raises(Exception, match=":3"):
            read_series(path, min_n=1)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("1.0\ninf\n")
        with pytest.raises(Exception, match="non-finite"):
            read_series(path, min_n=1)

    def test_parse_tau(self):
        tau = parse_tau("0.5,2,0.1")
        assert (tau.mu_x, tau.sigma_x, tau.delta) == (0.5, 2.0, 0.1)
        tau = parse_tau("0,1,0.1,0.3")
        assert tau.delta == (0.1, 0.3)
        with pytest.raises(Exception):
            parse_tau("1,2")
        with pytest.raises(Exception):
            parse_tau("a,b,c")


class TestSimulate:
    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert run_cli(
                "simulate", "--tau", "0,1,0", "--n", "1000", "--seed", "7",
                "--out", str(out),
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_heavy_tail_kurtosis(self, tmp_path):
        out = tmp_path / "h.txt"
        assert run_cli(
            "simulate", "--tau", "0,1,0.333", "--n", "5000", "--seed", "3",
            "--out", str(out),
        ) == 0
        y = np.loadtxt(out)
        c = y - y.mean()
        assert (c**4).mean() / (c**2).mean() ** 2 > 3.0

    def test_n_zero_rejected(self):
        assert run_cli("simulate", "--tau", "0,1,0", "--n", "0") == 2

    def test_forward_scale_inflation(self, tmp_path):
        out = tmp_path / "g.txt"
        run_cli("simulate", "--tau", "0,1,0", "--n", "20000", "--seed", "5",
                "--out", str(out))
        fwd = tmp_path / "f.txt"
        assert run_cli(
            "transform", str(out), "--tau", "0,1,0.1", "--direction", "forward",
            "--out", str(fwd),
        ) == 0
        assert abs(np.loadtxt(fwd).std() - 1.182) <= 0.03

    def test_nongaussian_family_needs_beta(self, tmp_path):
        assert run_cli("simulate", "--family", "gamma", "--tau", "0,1,0.1",
                       "--n", "100") == 2
        out = tmp_path / "gam.txt"
        assert run_cli(
            "simulate", "--family", "gamma", "--beta", "3,1", "--tau", "0,1,0.1",
            "--n", "100", "--seed", "1", "--out", str(out),
        ) == 0
        assert np.loadtxt(out).min() >= 0.0

    @pytest.mark.parametrize("beta", ["3,x", "3,,1"])
    def test_malformed_beta_exits_2(self, capsys, beta):
        assert run_cli("simulate", "--family", "gamma", "--beta", beta,
                       "--tau", "0,1,0.1", "--n", "100") == 2
        assert capsys.readouterr().err.startswith("error:")


class TestTransform:
    def test_forward_inverse_round_trip(self, tmp_path):
        src = tmp_path / "src.txt"
        run_cli("simulate", "--tau", "0.3,1.5,0.25", "--n", "500", "--seed", "2",
                "--out", str(src))
        fwd = tmp_path / "fwd.txt"
        back = tmp_path / "back.txt"
        assert run_cli("transform", str(src), "--tau", "0.3,1.5,0.2",
                       "--direction", "forward", "--out", str(fwd)) == 0
        assert run_cli("transform", str(fwd), "--tau", "0.3,1.5,0.2",
                       "--direction", "inverse", "--out", str(back)) == 0
        a, b = np.loadtxt(src), np.loadtxt(back)
        assert np.max(np.abs(a - b) / np.maximum(1, np.abs(a))) <= 1e-9

    def test_empty_file(self, tmp_path):
        empty = tmp_path / "e.txt"
        empty.write_text("")
        assert run_cli("transform", str(empty), "--tau", "0,1,0") == 2


@pytest.fixture(scope="module")
def sample_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fit") / "y.txt"
    run_cli("simulate", "--tau", "0,1,0.2", "--n", "800", "--seed", "9",
            "--out", str(path))
    return path


class TestFit:
    def test_mle_json_report(self, sample_file, capsys):
        code, captured = run_cli_capture(
            capsys, "fit", str(sample_file), "--json"
        )
        assert code == 0
        report = json.loads(captured.out)
        est = report["parameters"]["delta"]["estimate"]
        assert abs(est - 0.2) <= 0.1
        assert report["loglik"]["penalty"] <= 0
        assert {"observed", "gaussianized"} <= set(report["summary"])
        assert report["normality"]["observed"]["p"] <= 1

    def test_igmm_method(self, sample_file, capsys):
        code, captured = run_cli_capture(
            capsys, "fit", str(sample_file), "--method", "igmm", "--json"
        )
        assert code == 0
        report = json.loads(captured.out)
        assert abs(report["summary"]["gaussianized"]["kurtosis"] - 3.0) <= 0.01

    @pytest.mark.parametrize("tail, names", [("h", ["delta"]),
                                             ("hh", ["delta_left", "delta_right"])])
    def test_text_report(self, sample_file, capsys, tail, names):
        code, captured = run_cli_capture(capsys, "fit", str(sample_file), "--tail", tail)
        assert code == 0
        lines = captured.out.splitlines()
        assert lines[0] == f"model: gaussian input, tail={tail}, method=mle"
        assert lines[4].split() == ["parameter", "estimate", "std.err", "t", "p"]
        assert [line.split()[0] for line in lines[5:7 + len(names)]] == [
            "mu_x", "sigma_x", *names]
        lr = [line for line in lines if line.startswith("LR test (hh vs h): statistic=")]
        assert len(lr) == (tail == "hh")
        assert lines[-1].startswith("Anderson-Darling: observed A2=")

    def test_hh_reports_lr(self, sample_file, capsys):
        code, captured = run_cli_capture(
            capsys, "fit", str(sample_file), "--tail", "hh", "--json"
        )
        assert code == 0
        report = json.loads(captured.out)
        lr = report["lr_test"]
        assert lr["df"] == 1 and 0 <= lr["p"] <= 1
        assert lr["statistic"] >= -1e-6

    def test_student_t_family(self, sample_file, capsys):
        code, captured = run_cli_capture(
            capsys, "fit", str(sample_file), "--family", "student-t", "--json"
        )
        assert code == 0
        report = json.loads(captured.out)
        assert report["parameters"]["nu"]["estimate"] > 2.0

    def test_student_t_report_gaussianizes(self, tmp_path, capsys):
        # w_tau(y) of a Student-t fit is t-distributed; the report must
        # summarise and test its normal scores Phi^-1(F_X(w_tau(y))).
        dist = heavytail.LambertWDist(heavytail.StudentT(5.0), 0.2)
        path = tmp_path / "t5.txt"
        write_series(heavytail.rlambertw(1000, dist, seed=3), path)
        code, captured = run_cli_capture(
            capsys, "fit", str(path), "--family", "student-t", "--json"
        )
        assert code == 0
        report = json.loads(captured.out)
        fit = heavytail.mle_joint(read_series(path), family="student-t")
        x = heavytail.w_tau(read_series(path), fit.tau)
        scores = fit.tau.mu_x + fit.tau.sigma_x * st.norm.ppf(fit.input.cdf(x))
        gaussianized = report["summary"]["gaussianized"]
        assert gaussianized["kurtosis"] == pytest.approx(st.kurtosis(scores, fisher=False))
        assert abs(gaussianized["kurtosis"] - 3.0) < 0.5
        assert report["normality"]["gaussianized"]["p"] > 0.01

    def test_gaussian_report_uses_w_tau(self, sample_file, capsys):
        code, captured = run_cli_capture(capsys, "fit", str(sample_file), "--json")
        assert code == 0
        y = read_series(sample_file)
        x = heavytail.w_tau(y, heavytail.mle_joint(y).tau)
        gaussianized = json.loads(captured.out)["summary"]["gaussianized"]
        assert gaussianized["min"] == float(x.min())
        assert gaussianized["max"] == float(x.max())

    def test_igmm_hh(self, sample_file, capsys):
        code, captured = run_cli_capture(
            capsys, "fit", str(sample_file), "--method", "igmm", "--tail", "hh",
            "--json",
        )
        assert code == 0
        report = json.loads(captured.out)
        assert "delta_left" in report["parameters"]
        assert 0.0 <= report["lr_test"]["p"] <= 1.0

    def test_igmm_needs_gaussian_family(self, sample_file, capsys):
        code, captured = run_cli_capture(
            capsys, "fit", str(sample_file), "--family", "student-t",
            "--method", "igmm",
        )
        assert code == 2
        assert "igmm supports the gaussian input family only" in captured.err

    def test_p_values_match_scipy_stats(self, sample_file, capsys):
        # Wald p-values are 2 * norm.sf(|t|) and the LR p-value is
        # chi2.sf(LR, 1), bit for bit.
        code, captured = run_cli_capture(
            capsys, "fit", str(sample_file), "--tail", "hh", "--json"
        )
        assert code == 0
        report = json.loads(captured.out)
        for row in report["parameters"].values():
            assert row["p"] == 2.0 * st.norm.sf(abs(row["t"]))
        lr = report["lr_test"]
        assert lr["p"] == float(st.chi2.sf(max(lr["statistic"], 0.0), 1))

    def test_t_and_p_bitwise(self):
        rng = np.random.default_rng(4)
        t_values = np.concatenate(
            [rng.normal(0.0, 3.0, 500), [0.0, -0.0, 5e-324, 8.0, 38.0, 40.0, 1e300]]
        )
        for t in t_values:
            _, p = _t_and_p(float(t), 1.0)
            ref = 2.0 * st.norm.sf(abs(t))
            assert p.hex() == ref.hex(), t

    def test_insufficient_data(self, tmp_path):
        short = tmp_path / "s.txt"
        short.write_text("1\n2\n3\n4\n5\n")
        assert run_cli("fit", str(short)) == 2

    @pytest.mark.parametrize("family", ["gaussian", "student-t"])
    def test_search_leaving_parameter_space_exits_3(self, sample_file, capsys, monkeypatch,
                                                    family):
        # No finite series leaves every start without a valid model since
        # the letter-value start, so the objective is made to reject every
        # point.
        monkeypatch.setattr(heavytail.estimation, "_objective",
                            lambda p, y, model: (math.inf, None, None, None))
        assert run_cli("fit", str(sample_file), "--family", family) == 3
        assert "left the parameter space" in capsys.readouterr().err


    @pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
    def test_far_point_report(self, tmp_path, capsys, as_json):
        # One point at 1e200 fits, but the sample sd of the observed series
        # overflows, and its Anderson-Darling test raised DataError: exit 2
        # and no report.  That one test is now reported as unavailable.
        y = rlambertw(200, LambertWDist(Gaussian(0.0, 1.0), 0.2), seed=1)
        y[0] = 1e200
        path = tmp_path / "far.txt"
        write_series(y, path)
        flags = ["--json"] if as_json else []
        code, captured = run_cli_capture(capsys, "fit", str(path), *flags)
        assert code == 0
        if as_json:
            report = json.loads(captured.out)
            assert report["normality"]["observed"] == {
                "statistic": None, "p": None, "reason": "sample scale not finite"}
            assert report["normality"]["gaussianized"]["p"] >= 0.0
            assert report["summary"]["observed"]["sd"] == "inf"
        else:
            lines = captured.out.splitlines()
            assert lines[-1].startswith(
                "Anderson-Darling: observed n/a (sample scale not finite), gaussianized A2=")
            # every summary row keeps its three columns
            assert all(len(line.split()) == 3 for line in lines[-9:-2]), lines[-9:-2]

    def test_far_point_summary(self):
        # The sample sd overflows with no RuntimeWarning (an error under the
        # test suite's filter).
        y = np.append(np.arange(20.0), 1e200)
        summary = _summary_block(y)
        assert summary["sd"] == math.inf and summary["max"] == 1e200
        assert math.isnan(summary["kurtosis"])

    def test_linalg_failure_exits_3(self, sample_file, capsys, monkeypatch):
        # LinAlgError is a ValueError, which exits 2 when caught first.
        def fail(*args):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(heavytail.cli, "fit_model", fail)
        assert run_cli("fit", str(sample_file)) == 3
        assert "numerical failure: SVD did not converge" in capsys.readouterr().err


class TestGaussianize:
    def test_identity_tau(self, tmp_path, capsys):
        src = tmp_path / "src.txt"
        run_cli("simulate", "--tau", "0,1,0", "--n", "100", "--seed", "1",
                "--out", str(src))
        capsys.readouterr()
        out = tmp_path / "out.txt"
        assert run_cli("gaussianize", str(src), "--tau", "0,1,0",
                       "--out", str(out)) == 0
        np.testing.assert_array_equal(np.loadtxt(src), np.loadtxt(out))

    def test_fit_flag_gaussianizes(self, tmp_path):
        src = tmp_path / "src.txt"
        run_cli("simulate", "--tau", "0,1,0.4", "--n", "1500", "--seed", "21",
                "--out", str(src))
        out = tmp_path / "out.txt"
        assert run_cli("gaussianize", str(src), "--fit", "--method", "igmm",
                       "--out", str(out)) == 0
        x = np.loadtxt(out)
        c = x - x.mean()
        # output kurtosis within 10x the moment-matching tolerance 1.22e-4
        assert abs((c**4).mean() / (c**2).mean() ** 2 - 3.0) <= 1.22e-3

    def test_requires_tau_or_fit(self, tmp_path):
        src = tmp_path / "src.txt"
        run_cli("simulate", "--tau", "0,1,0", "--n", "50", "--seed", "1",
                "--out", str(src))
        assert run_cli("gaussianize", str(src)) == 2

    def test_invalid_sigma(self, tmp_path):
        src = tmp_path / "src.txt"
        run_cli("simulate", "--tau", "0,1,0", "--n", "50", "--seed", "1",
                "--out", str(src))
        assert run_cli("gaussianize", str(src), "--tau", "0,-1,0") == 2

    def test_non_finite_kurtosis_fits(self, tmp_path, capsys):
        # The fourth moment of this series overflows (max |y| = 5.1e123).
        # IGMM refused it with exit status 2; it fits the standardized data.
        src = tmp_path / "src.txt"
        out = tmp_path / "out.txt"
        dist = heavytail.LambertWDist(heavytail.StudentT(5.0), 1.0)
        write_series(heavytail.rlambertw(1000, dist, seed=143), src)
        assert run_cli("gaussianize", str(src), "--fit", "--method", "igmm",
                       "--out", str(out)) == 0
        assert np.isfinite(np.loadtxt(out)).all()
        assert capsys.readouterr().err == ""

    def test_data_beyond_floating_point_exits_2(self, tmp_path, capsys):
        # A spread of 1e-10 beside a point at 1e308: the standardized data
        # overflow.  mle_joint raised ConvergenceError (exit status 3).
        src = tmp_path / "src.txt"
        y = 1e-10 * np.random.default_rng(0).standard_normal(20)
        write_series(np.append(y, 1e308), src)
        assert run_cli("fit", str(src)) == 2
        assert "standardized values are not finite" in capsys.readouterr().err


class TestReplicate:
    def test_plan_roundtrip_and_determinism(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "sample_sizes": [100],
            "delta_values": [0.1],
            "replications": 8,
            "estimators": ["median", "igmm"],
            "seed": 13,
        }))
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli("replicate", "--plan", str(plan), "--out", str(d1)) == 0
        assert run_cli("replicate", "--plan", str(plan), "--out", str(d2)) == 0
        assert (d1 / "replication_table.csv").read_bytes() == (
            d2 / "replication_table.csv"
        ).read_bytes()
        rows = json.loads((d1 / "replication_table.json").read_text())
        assert rows and rows[0]["N"] == 100

    def test_seed_flag_overrides_plan_seed(self, tmp_path):
        tables = []
        for seed, flag in ((13, []), (0, ["--seed", "13"])):
            plan = tmp_path / f"plan{seed}.json"
            plan.write_text(json.dumps({
                "sample_sizes": [50], "delta_values": [0.1], "replications": 2,
                "estimators": ["median", "igmm"], "seed": seed,
            }))
            out = tmp_path / f"r{seed}"
            assert run_cli("replicate", "--plan", str(plan), "--out", str(out), *flag) == 0
            tables.append((out / "replication_table.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_unknown_estimator(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "sample_sizes": [100], "delta_values": [0.1],
            "replications": 2, "estimators": ["nope"],
        }))
        assert run_cli("replicate", "--plan", str(plan), "--out",
                       str(tmp_path / "r")) == 2

    @pytest.mark.parametrize(
        "plan, message",
        [
            ([1, 2], "must be a JSON object, got list"),
            ({"sample_sizes": 100, "delta_values": [0.1]}, "'sample_sizes' must be a list"),
            ({"sample_sizes": [100], "delta_values": [0.1], "estimators": "igmm"},
             "'estimators' must be a list, got str"),
            ({"sample_sizes": [None], "delta_values": [0.1]}, "malformed value"),
            ({"sample_sizes": [20], "delta_values": [math.nan, math.inf], "replications": 1,
              "estimators": ["median"]}, "delta values must be finite"),
            ({"sample_sizes": [20.9], "delta_values": [0.1]}, "20.9 is not a whole number"),
            ({"sample_sizes": [20], "delta_values": [0.1], "replications": 1.9},
             "1.9 is not a whole number"),
        ],
        ids=["top-level-list", "number-field", "string-field", "null-item",
             "non-finite-delta", "fractional-size", "fractional-replications"],
    )
    def test_malformed_plan_exits_2(self, tmp_path, capsys, plan, message):
        # A malformed plan is a data error with a message, not a traceback.
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        assert run_cli("replicate", "--plan", str(path), "--out", str(tmp_path / "r")) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r").exists()


class TestImportGraph:
    def test_scipy_stats_and_optimize_never_load(self, tmp_path):
        # No scipy module is imported by the package, the transforms or the
        # Gaussian-input fits; scipy.stats and scipy.optimize by no command
        # or fit, since every search is in the package.
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_GRAPH, str(tmp_path / "y.txt")],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "x.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "heavytail.cli", "simulate", "--tau", "0,1,0",
             "--n", "20", "--seed", "1", "--out", str(out)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert out.exists()

    def test_console_script(self, tmp_path):
        # The command declared under [project.scripts], run the way a
        # generated console-script wrapper runs it, so that the wiring is
        # tested without an installed script.
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["heavytail"]
        commands = [([sys.executable, "-c", SCRIPT_WRAPPER, target], child_env())]
        # An installed environment also runs the real script.
        installed = shutil.which("heavytail")
        if installed is not None:
            commands.append(([installed], None))
        for command, command_env in commands:
            proc = subprocess.run(
                command + ["simulate", "--tau", "0,1,0", "--n", "5"],
                capture_output=True,
                text=True,
                env=command_env,
            )
            # 5 values stream to stdout
            assert proc.returncode == 0, proc.stderr
            assert len(proc.stdout.strip().splitlines()) == 5, proc.stderr
            # the script exits with main()'s return code on a data error
            proc = subprocess.run(
                command + ["simulate", "--tau", "1,2", "--n", "5"],
                capture_output=True,
                text=True,
                env=command_env,
            )
            assert proc.returncode == 2, proc.stderr
