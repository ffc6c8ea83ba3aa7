import importlib
import inspect
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from plrica import Dataset, cli
from plrica.harness import METHOD_NAMES, estimate
from plrica.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]


def write_spec(tmp_path, text, name="spec.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SCALAR_SPEC = """
p = 2
m = 1
theta = [3.0]
noise_x = laplace
noise_t = laplace
noise_y = laplace
"""


class TestSimulate:
    def test_writes_csv(self, tmp_path, capsys):
        spec = write_spec(tmp_path, SCALAR_SPEC)
        out = tmp_path / "data.csv"
        code = main(["simulate", "--spec", spec, "--n", "200", "--seed", "1",
                     "--out", str(out)])
        assert code == EXIT_OK
        ds = Dataset.from_csv(out)
        assert ds.n == 200 and ds.p == 2 and ds.m == 1
        assert "wrote 200 rows" in capsys.readouterr().out

    def test_seed_repeatable(self, tmp_path):
        spec = write_spec(tmp_path, SCALAR_SPEC)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--spec", spec, "--n", "50", "--seed", "9", "--out", str(a)])
        main(["simulate", "--spec", spec, "--n", "50", "--seed", "9", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_missing_spec_file(self, tmp_path):
        assert main(["simulate", "--spec", str(tmp_path / "nope.cfg"), "--n", "10",
                     "--out", str(tmp_path / "x.csv")]) == EXIT_IO

    def test_bad_spec_key(self, tmp_path):
        spec = write_spec(tmp_path, "p = 2\nwhatever = 3\n")
        assert main(["simulate", "--spec", spec, "--n", "10",
                     "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG


class TestEstimate:
    @pytest.fixture()
    def data_csv(self, tmp_path):
        spec = write_spec(tmp_path, SCALAR_SPEC)
        out = tmp_path / "data.csv"
        main(["simulate", "--spec", spec, "--n", "4000", "--seed", "3",
              "--out", str(out)])
        return str(out)

    @pytest.mark.parametrize("method", ["ica", "oml", "homl", "ols"])
    def test_methods_recover(self, data_csv, capsys, method):
        code = main(["estimate", "--data", data_csv, "--method", method])
        assert code == EXIT_OK
        lines = dict(
            line.split("=", 1) for line in capsys.readouterr().out.splitlines() if "=" in line
        )
        assert lines["method"] in (method, "ica")
        theta = float(lines["theta_hat"].split(";")[0])
        assert theta == pytest.approx(3.0, abs=0.3)
        assert lines["converged"] in ("true", "false")

    def test_missing_data(self, tmp_path):
        assert main(["estimate", "--data", str(tmp_path / "gone.csv"),
                     "--method", "ica"]) == EXIT_IO

    def test_invalid_method_is_usage_error(self, data_csv):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--data", data_csv, "--method", "ridge"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_non_finite_cell_is_config_error(self, data_csv, capsys, method, cell):
        # loading refuses the cell for every method; ols on an inf cell used to spin
        lines = Path(data_csv).read_text().splitlines()
        lines[5] = cell + "," + lines[5].split(",", 1)[1]
        Path(data_csv).write_text("\n".join(lines) + "\n")
        assert main(["estimate", "--data", data_csv, "--method", method]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: data contain non-finite values\n"

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("flag", ["--tol", "--lambda-scale"])
    def test_non_finite_flag_is_usage_error(self, data_csv, capsys, flag, value):
        # refused as the same value in config text is; tol = inf used to "converge"
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--data", data_csv, "--method", "oml", flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: expected a finite number, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_file_without_covariates(self, data_csv, capsys, method):
        # the first two columns dropped, as `cut -d, -f3-` does: header t_0,y
        lines = Path(data_csv).read_text().splitlines()
        Path(data_csv).write_text("\n".join(line.split(",", 2)[2] for line in lines) + "\n")
        assert main(["estimate", "--data", data_csv, "--method", method]) == EXIT_OK
        assert "converged=true" in capsys.readouterr().out.splitlines()

    def test_mode_flag_removed(self, data_csv):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--data", data_csv, "--method", "ica", "--mode", "deflation"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_prints_harness_dispatch_bits(self, data_csv, capsys, method):
        # every flag is passed on: each differs from its default here
        code = main(["estimate", "--data", data_csv, "--method", method, "--contrast", "exp",
                     "--seed", "7", "--lambda-scale", "0.5", "--folds", "3", "--tol", "1e-5",
                     "--max-iter", "500"])
        assert code == EXIT_OK
        lines = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        want = estimate(method, Dataset.from_csv(data_csv), contrast="exp", seed=7,
                        lambda_scale=0.5, folds=3, tol=1e-5, max_iter=500)
        got = np.array([float(v) for v in lines["theta_hat"].split(";")])
        assert np.array_equal(got, want.theta_hat)

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_prints_iterations_and_restarts(self, data_csv, capsys, method):
        assert main(["estimate", "--data", data_csv, "--method", method]) == EXIT_OK
        lines = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        want = estimate(method, Dataset.from_csv(data_csv)).diagnostics
        assert (lines["iterations"], lines["restarts"]) == (str(want.iterations), str(want.restarts))
        # the baselines run no contrast iteration; ica runs at least one sweep
        assert (int(lines["iterations"]) > 0) == (method == "ica")


class TestExperiment:
    def test_list_builtins(self, capsys):
        assert main(["experiment", "--list"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "default_test" in out and "fig2_right_variance" in out

    def test_runs_config(self, tmp_path, capsys):
        cfg = write_spec(tmp_path, "scenario = default_test\nseeds = 1\n", "run.cfg")
        out = tmp_path / "results.csv"
        code = main(["experiment", "--config", cfg, "--out", str(out), "--workers", "1"])
        assert code == EXIT_OK
        text = out.read_text().splitlines()
        assert text[0].startswith("scenario,n,dim_x")
        assert len(text) > 1
        assert "digest=" in capsys.readouterr().out

    def test_digest_same_at_one_and_two_workers(self, tmp_path, capsys):
        cfg = write_spec(tmp_path, "scenario = default_test\nseeds = 1\n", "run.cfg")
        digests = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.csv"
            assert main(["experiment", "--config", cfg, "--out", str(out),
                         "--workers", workers]) == EXIT_OK
            digests.append(capsys.readouterr().out.split("digest=")[1].strip())
        assert digests[0] == digests[1]

    def test_unknown_config_key(self, tmp_path):
        cfg = write_spec(tmp_path, "scenario = default_test\nnope = 1\n", "bad.cfg")
        assert main(["experiment", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG

    def test_beta_past_moment_range_is_config_error(self, tmp_path, capsys):
        cfg = write_spec(tmp_path, "scenario = custom\nbeta_values = [0.004, 1.0]\n", "beta.cfg")
        out = tmp_path / "x.csv"
        assert main(["experiment", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "beta_values = 0.004" in err and "bad value for 'shape_beta'" in err
        assert not out.exists()

    def test_missing_config_without_list(self):
        assert main(["experiment"]) == EXIT_CONFIG


class TestVariance:
    def test_prints_report(self, tmp_path, capsys):
        spec = write_spec(tmp_path, SCALAR_SPEC)
        assert main(["variance", "--spec", spec]) == EXIT_OK
        out = capsys.readouterr().out
        assert "var_homl=" in out
        assert "var_ica_hyvarinen=" in out
        assert "regime=ica_better" in out

    def test_prints_the_report_fields_in_order(self, tmp_path, capsys):
        spec = write_spec(tmp_path, SCALAR_SPEC)
        assert main(["variance", "--spec", spec]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            "var_homl=7",
            "var_ica_auddy=35.8323979433",
            "var_ica_hyvarinen=6",
            "numerator_gap=9",
            "regime=ica_better",
        ]

    def test_csv_flag_removed(self, tmp_path):
        spec = write_spec(tmp_path, SCALAR_SPEC)
        with pytest.raises(SystemExit) as exc:
            main(["variance", "--spec", spec, "--csv", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert not (tmp_path / "x.csv").exists()

    def test_gaussian_treatment_noise_is_config_error(self, tmp_path):
        text = SCALAR_SPEC.replace("noise_t = laplace", "noise_t = normal")
        spec = write_spec(tmp_path, text)
        assert main(["variance", "--spec", spec]) == EXIT_CONFIG


class TestUsage:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["explode"])
        assert exc.value.code == 2


IMPORT_PROBE = textwrap.dedent("""
    import sys
    import numpy as np
    import plrica.cli
    from plrica import apply_nonlinearity, estimate_ica, scenario_from_config, simulate
    from plrica.harness import spec_for_cell
    config = scenario_from_config("scenario = default_test")
    cell = config.cells()[0]
    estimate = estimate_ica(simulate(spec_for_cell(config, cell), cell["n"], seed=0))
    assert np.isfinite(estimate.theta_hat).all()
    apply_nonlinearity("sigmoid", np.linspace(-3.0, 3.0, 7))
    print(" ".join(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
""")


def run_python(*args):
    """A fresh interpreter with this checkout's src first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_runtime_loads_no_scipy():
    """The CLI, a scenario, one ICA fit and the sigmoid need numpy only."""
    proc = run_python("-c", IMPORT_PROBE)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == ""


def test_import_leaves_the_process_pool_unloaded():
    """concurrent.futures' process pool is imported only by a run with workers > 1."""
    proc = run_python("-c", "import sys, plrica.cli; "
                            "print('concurrent.futures.process' in sys.modules)")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"


def test_module_entry_point_lists_builtins():
    proc = run_python("-m", "plrica", "experiment", "--list")
    assert proc.returncode == EXIT_OK, proc.stderr[-2000:]
    assert "default_test" in proc.stdout.split()


def test_console_script_target_is_cli_main():
    # read by pattern: requires-python allows 3.10, which has no tomllib
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    target = re.search(r'^\[project\.scripts\]\nplrica = "([\w.]+):(\w+)"$', text, re.M)
    assert target is not None
    module, attr = target.groups()
    assert getattr(importlib.import_module(module), attr) is cli.main


LIBRARY_MODULES = ("asymptotics", "baselines", "dgp", "distributions", "harness", "ica", "kernels")


def test_public_names_resolve_once():
    """Each public name is listed once, in the __all__ of the module that
    defines it, and plrica re-exports exactly those lists."""
    plrica = importlib.import_module("plrica")
    modules = [importlib.import_module(f"plrica.{name}") for name in LIBRARY_MODULES]
    for module in modules:
        assert [name for name in module.__all__ if not hasattr(module, name)] == []
        defined_elsewhere = [name for name in module.__all__
                             if (inspect.isclass(getattr(module, name))
                                 or inspect.isfunction(getattr(module, name)))
                             and getattr(module, name).__module__ != module.__name__]
        assert defined_elsewhere == []
    assert plrica.__all__ == [name for module in modules for name in module.__all__]
    assert sorted(name for name in set(plrica.__all__) if plrica.__all__.count(name) > 1) == []
    for module in modules:
        assert [name for name in module.__all__
                if getattr(plrica, name) is not getattr(module, name)] == []
    exported = {name for name, value in vars(plrica).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == set(plrica.__all__)


def test_benchmark_probe_names_stay_in_their_modules():
    """Only bench/run.py's probes call these names: they stay module
    attributes, and plrica does not export them."""
    plrica = importlib.import_module("plrica")
    assert len(plrica.__all__) == 72
    for module_name, names in (("ica", ("assemble_unmixing", "canonicalize")),
                               ("kernels", ("LassoFit", "hungarian", "lasso_fit"))):
        module = importlib.import_module(f"plrica.{module_name}")
        for name in names:
            assert hasattr(module, name)
            assert name not in module.__all__
            assert not hasattr(plrica, name)
