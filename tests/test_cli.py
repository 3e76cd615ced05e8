import ast
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from warped_disk import bvp, cli, geometry
from warped_disk.errors import DomainError

POWER = ["--profile", "power-curvature", "--eps", "1", "--mmax", "2"]


def test_modes_on_a_curved_builtin_solves_no_curvature_ivp(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(geometry, "profile_from_curvature", lambda *a, **k: calls.append(a))
    code = cli.main(["modes", *POWER, "--horizon", "5", "--rmax", "10",
                     "--grid", "geometric,1e-3,128", "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    assert calls == []
    rows = capsys.readouterr().out.splitlines()
    assert rows[1].split() == ["m", "max_scaled_residual_eq4", "max_scaled_residual_eq6",
                               "max_scaled_residual_profile", "file"]
    for m, row in enumerate(rows[2:]):
        fields = row.split()
        assert fields[0] == str(m) and fields[4].endswith(f"mode_{m}.csv")
        assert all(math.isfinite(float(v)) for v in fields[1:4])


def _trace_file(tmp_path):
    """A 64-sample trace on the circle of radius 3; returns its path."""
    theta = 2.0 * math.pi * np.arange(64) / 64
    trace = bvp.BoundaryTrace(3.0, np.cos(theta) + 0.5 * np.sin(2.0 * theta),
                              0.25 - np.cos(theta))
    bvp.write_trace_csv(tmp_path / "trace.csv", trace)
    return str(tmp_path / "trace.csv")


@pytest.mark.parametrize("argv", [
    pytest.param(["classify", "--profile", "power-curvature", "--eps", "1"], id="classify_power"),
    pytest.param(["classify", "--profile", "quadratic-curvature", "--eta", "1"],
                 id="classify_quadratic"),
    pytest.param(["classify", "--profile", "log-threshold", "--eps", "0.5"],
                 id="classify_log_threshold"),
    pytest.param(["bvp", *POWER, "--radius", "3"], id="bvp_power"),
])
def test_classify_and_bvp_on_curved_builtins_solve_no_curvature_ivp(tmp_path, monkeypatch,
                                                                    argv):
    # both read the profile from their own mode pass, never an evaluator
    calls = []
    monkeypatch.setattr(geometry, "profile_from_curvature", lambda *a, **k: calls.append(a))
    if argv[0] == "bvp":
        argv = [*argv, _trace_file(tmp_path)]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert calls == []


_LOADED_SCIPY = """
import sys
from pathlib import Path
import warped_disk.cli as cli
out = Path(sys.argv[1])
loaded = {"import": sorted(name for name in NAMES if name in sys.modules)}
runs = {f"classify_{name}": ["classify", "--profile", name, *params]
        for name, params in (("euclidean", []), ("hyperbolic", []),
                             ("power-curvature", ["--eps", "1"]),
                             ("quadratic-curvature", ["--eta", "1"]),
                             ("log-threshold", ["--eps", "0.5"]))}
runs["modes"] = ["modes", "--profile", "power-curvature", "--eps", "1", "--horizon", "5",
                 "--mmax", "2", "--grid", "geometric,1e-3,64"]
runs["bvp"] = ["bvp", "--profile", "power-curvature", "--eps", "1", "--radius", "3",
               str(out / "trace.csv")]
runs["verify"] = ["verify"]
for label, argv in runs.items():
    assert cli.main([*argv, "--out", str(out / label)]) == 0, label
    loaded[label] = sorted(name for name in NAMES if name in sys.modules)
print(loaded, file=sys.stderr)
"""


def test_no_command_loads_scipy_integrate_special_or_optimize(tmp_path):
    # every ODE, verify's included, runs LSODA from the compiled extension
    # alone; the scipy subpackages that scipy.integrate would pull in stay
    # unloaded
    _trace_file(tmp_path)
    names = ("scipy.integrate", "scipy.special", "scipy.optimize")
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", f"NAMES = {names!r}\n{_LOADED_SCIPY}",
                           str(tmp_path)], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = ast.literal_eval(proc.stderr.strip().splitlines()[-1])
    assert len(loaded) == 9
    assert loaded == {label: [] for label in loaded}


def test_verify_infeasible_tolerance_has_its_own_exit_code(tmp_path):
    assert cli.EXIT_INFEASIBLE != cli.EXIT_UNDETERMINED
    code = cli.main(["verify", "--tol", "1e-20,1e-20", "--out", str(tmp_path)])
    assert code == cli.EXIT_INFEASIBLE
    assert "tolerance-infeasible" in (tmp_path / "verify_report.txt").read_text()


@pytest.mark.parametrize("argv", [
    pytest.param(["classify", "--profile", "euclidean"], id="classify"),
    pytest.param(["modes", "--profile", "euclidean", "--horizon", "5"], id="modes"),
    pytest.param(["bvp", "--radius", "3"], id="bvp"),
])
def test_infeasible_tolerance_is_refused_before_any_output(tmp_path, capsys, argv):
    if argv[0] == "bvp":
        argv = [*argv, _trace_file(tmp_path)]
    out = tmp_path / "out"
    assert cli.main([*argv, "--tol", "1e-20,1e-20", "--out", str(out)]) == cli.EXIT_INFEASIBLE
    assert f"{argv[0]}: tolerance-infeasible" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, smallest", [
    pytest.param(["classify", "--tol", "1e-14,1e-15"], "1e-11", id="classify"),
    pytest.param(["classify", "--tol", "1e-16,1e-15"], "1e-11", id="classify_deeper"),
    pytest.param(["modes", "--tol", "3e-10,1e-12", "--horizon", "5"], "3.2e-10", id="modes"),
    pytest.param(["bvp", "--tol", "9e-12,1e-13", "--radius", "3"], "1e-11", id="bvp"),
])
def test_rtol_a_mode_pass_would_clamp_is_refused(tmp_path, capsys, argv, smallest):
    # the passes floor rtol at modes.RTOL_FLOOR, so such a request would run another one
    if argv[0] == "bvp":
        argv = [*argv, _trace_file(tmp_path)]
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert f"{argv[0]}: tolerance-infeasible" in err and f"below {smallest}," in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["classify", "--tol", "1e-11,1e-13"], id="classify_smallest_rtol"),
    pytest.param(["modes", "--tol", "3.2e-10,1e-12", "--horizon", "5"], id="modes_smallest_rtol"),
    pytest.param(["modes"], id="modes_defaults"),
])
def test_smallest_accepted_rtol_runs(tmp_path, argv):
    assert cli.main([*argv, "--out", str(tmp_path)]) == cli.EXIT_OK


def test_tol_help_names_each_commands_smallest_rtol(capsys):
    for command, smallest in (("classify", "1e-11"), ("bvp", "1e-11"), ("modes", "3.2e-10")):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"rtol below {smallest} or an atol below 1e-15 exits 3" in help_text


def test_help_lists_every_exit_code_and_its_meaning(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    table = lines[lines.index("exit codes:") + 1:]
    assert [line.split(None, 1) for line in table] == [
        [str(cli.EXIT_OK), "done"],
        [str(cli.EXIT_FAIL), "a check failed"],
        [str(cli.EXIT_UNDETERMINED), "a label undetermined (classify)"],
        [str(cli.EXIT_INFEASIBLE), "tolerance infeasible"],
        [str(cli.EXIT_USAGE), "usage or configuration error"],
        [str(cli.EXIT_NUMERIC), "numeric failure"],
    ]


def test_classify_ignores_mmax(tmp_path):
    # classify reads Lambda_1 and z_0 alone, whatever --mmax says
    argv = ["classify", *POWER[:-2], "--horizon", "100", "--rmax", "120"]
    assert cli.main([*argv, "--out", str(tmp_path / "plain")]) == cli.EXIT_OK
    assert cli.main([*argv, "--mmax", "8", "--out", str(tmp_path / "mmax")]) == cli.EXIT_OK
    for run in ("plain", "mmax"):
        assert [p.name for p in (tmp_path / run).iterdir()] == ["classification.txt"]
    assert ((tmp_path / "plain" / "classification.txt").read_bytes()
            == (tmp_path / "mmax" / "classification.txt").read_bytes())


@pytest.mark.parametrize("argv, names", [
    pytest.param(["classify", *POWER, "--horizon", "100", "--rmax", "120"],
                 ("classification.txt",), id="classify"),
    pytest.param(["modes", *POWER, "--horizon", "5", "--rmax", "10",
                  "--grid", "geometric,1e-3,128"],
                 ("mode_0.csv", "mode_1.csv", "mode_2.csv"), id="modes"),
    pytest.param(["bvp", *POWER, "--radius", "3"],
                 ("coefficients.csv", "bvp_report.txt"), id="bvp"),
])
def test_outputs_are_byte_identical_across_runs(tmp_path, argv, names):
    if argv[0] == "bvp":
        argv = [*argv, _trace_file(tmp_path)]
    for run in ("a", "b"):
        assert cli.main(argv + ["--out", str(tmp_path / run)]) == cli.EXIT_OK
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _config(tmp_path, asymptotics_m_max, bvp_m_max):
    path = tmp_path / "run.cfg"
    path.write_text(f"[asymptotics]\nm_max = {asymptotics_m_max}\n\n"
                    f"[bvp]\nm_max = {bvp_m_max}\n")
    return path


def test_config_keys_setting_one_field_to_two_values_are_refused(tmp_path):
    path = _config(tmp_path, 8, 2)
    with pytest.raises(DomainError, match="m_max"):
        cli.load_config_file(path)
    code = cli.main(["classify", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_USAGE


def test_config_keys_setting_one_field_to_one_value_are_accepted(tmp_path):
    assert cli.load_config_file(_config(tmp_path, 3, 3)) == {"m_max": 3}


@pytest.mark.parametrize("text", [
    pytest.param("[bvp]\nm_max = 2\nm_max = 3\n", id="repeated_key"),
    pytest.param("m_max = 2\n", id="no_section_header"),
])
def test_malformed_config_file_is_a_configuration_error(tmp_path, capsys, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    with pytest.raises(DomainError):
        cli.load_config_file(path)
    code = cli.main(["classify", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_USAGE
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    pytest.param("[profile]\nname = euclidean\nname = hyperbolic\n", id="repeated_key"),
    pytest.param("[profile]\nname = power-curvature\neps = abc\n", id="value_not_a_number"),
])
def test_malformed_profile_file_is_a_configuration_error(tmp_path, capsys, text):
    path = tmp_path / "surface.profile"
    path.write_text(text)
    code = cli.main(["classify", "--profile", str(path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_USAGE
    assert "configuration error" in capsys.readouterr().err


def _power_profile_file(tmp_path):
    path = tmp_path / "p1.profile"
    path.write_text("[profile]\nname = power-curvature\neps = 1\nr_max = 10\n")
    return path


@pytest.mark.parametrize("extra, key", [
    pytest.param(["--eps", "2"], "eps", id="eps_flag"),
    pytest.param(["--eta", "1"], "eta", id="eta_flag"),
    pytest.param(["--r0", "2"], "r0", id="r0_flag"),
    pytest.param("[profile]\neps = 2\n", "eps", id="eps_config_key"),
    pytest.param(["--rmax", "50"], "rmax", id="rmax_flag"),
    pytest.param("[profile]\nr_max = 50\n", "rmax", id="rmax_config_key"),
])
def test_profile_parameters_beside_a_profile_file_are_refused(tmp_path, capsys, extra, key):
    if isinstance(extra, str):
        (tmp_path / "run.cfg").write_text(extra)
        extra = ["--config", str(tmp_path / "run.cfg")]
    out = tmp_path / "out"
    argv = ["modes", "--profile", str(_power_profile_file(tmp_path)), *extra,
            "--horizon", "5", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert f"--{key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["modes", "classify"])
def test_horizon_beyond_a_profile_file_is_refused(tmp_path, capsys, command):
    # the file's r_max is 10: the run must not end its grid there silently
    out = tmp_path / "out"
    argv = [command, "--profile", str(_power_profile_file(tmp_path)), "--horizon", "20",
            "--mmax", "1", "--grid", "geometric,1e-3,32", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "outside the profile domain" in capsys.readouterr().err
    assert not out.exists()


def test_unset_rmax_checks_the_horizon_against_the_builtin_radius():
    assert cli.RunConfig().r_max is None
    cli.RunConfig(horizon=1200.0).validate()
    with pytest.raises(DomainError, match="horizon"):
        cli.RunConfig(horizon=1300.0).validate()
    cli.RunConfig(horizon=1300.0, r_max=1500.0).validate()


def test_bvp_does_not_hold_the_unread_horizon_to_rmax(tmp_path):
    # the default horizon (1000) lies beyond --rmax 5, but bvp never reads it
    with pytest.raises(DomainError, match="horizon"):
        cli.RunConfig(r_max=5.0).validate()
    cli.RunConfig(r_max=5.0).validate(reads_horizon=False)
    theta = 2.0 * math.pi * np.arange(16) / 16
    bvp.write_trace_csv(tmp_path / "trace.csv",
                        bvp.BoundaryTrace(1.0, np.cos(theta), np.zeros_like(theta)))
    out = tmp_path / "out"
    argv = ["bvp", "--rmax", "5", "--radius", "1", str(tmp_path / "trace.csv"), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert (out / "coefficients.csv").exists()


def test_profile_file_radius_bounds_the_horizon(tmp_path):
    # the file's surface (euclidean: valid to 1e6), not the built-in default
    # of 1200, decides how far the horizon may reach
    path = tmp_path / "flat.profile"
    path.write_text("[profile]\nname = euclidean\n")
    out = tmp_path / "out"
    argv = ["modes", "--profile", str(path), "--horizon", "1500", "--mmax", "0",
            "--grid", "geometric,1e-3,16", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert (out / "mode_0.csv").read_text().splitlines()[-1].startswith("1500")


def test_tolerances_beside_a_profile_file_are_accepted(tmp_path):
    argv = ["modes", "--profile", str(_power_profile_file(tmp_path)), "--tol", "1e-8,1e-10",
            "--horizon", "5", "--mmax", "1", "--grid", "geometric,1e-3,32",
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_OK


def test_bvp_refuses_a_non_finite_trace_before_writing(tmp_path, capsys):
    theta = (2.0 * math.pi * np.arange(16) / 16).tolist()
    rows = [f"{t!r},{math.cos(t)!r},0.0" for t in theta]
    rows[5] = f"{theta[5]!r},nan,0.0"
    trace = tmp_path / "trace.csv"
    trace.write_text("theta,u,lap_u\n" + "\n".join(rows) + "\n")
    out = tmp_path / "out"
    assert cli.main(["bvp", str(trace), "--radius", "1", "--out", str(out)]) == cli.EXIT_USAGE
    assert "trace.csv, line 7: non-finite sample" in capsys.readouterr().err
    assert not out.exists()


def test_comparison_suite_finds_no_conclusion_failure(tmp_path):
    ok, lines = cli._suite_comparison(cli.RunConfig(), tmp_path)
    assert ok
    assert lines == ["comparison: 200 randomized pairs, 0 conclusion failures (ok)"]


def test_stencil_suite_passes(tmp_path):
    ok, lines = cli._suite_stencil(cli.RunConfig(), tmp_path)
    assert ok
    assert not any("FAIL" in line for line in lines)


def test_stencil_suite_catches_the_injected_fault(tmp_path):
    ok, lines = cli._suite_stencil(cli.RunConfig(inject_fault="stencil"), tmp_path)
    assert not ok
    failed = [line for line in lines if line.endswith("(FAIL)")]
    assert failed and all("euclidean(faulted)" in line for line in failed)


def test_bvp_on_a_profile_whose_phi_overflows_warns_nothing(tmp_path):
    # on power-curvature with eps = 2, phi overflows doubles well inside R = 20
    theta = 2.0 * math.pi * np.arange(16) / 16
    bvp.write_trace_csv(tmp_path / "trace.csv",
                        bvp.BoundaryTrace(20.0, np.cos(theta), np.zeros_like(theta)))
    argv = ["bvp", "--profile", "power-curvature", "--eps", "2", "--radius", "20",
            str(tmp_path / "trace.csv"), "--out", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == cli.EXIT_OK
