import math
import warnings

import numpy as np
import pytest

from warped_disk import bvp, cli, geometry
from warped_disk.errors import DomainError

POWER = ["--profile", "power-curvature", "--eps", "1", "--mmax", "2"]


def test_modes_on_a_curved_builtin_solves_no_curvature_ivp(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(geometry, "solve_ivp", lambda *a, **k: calls.append(a))
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


def test_verify_infeasible_tolerance_has_its_own_exit_code(tmp_path):
    assert cli.EXIT_INFEASIBLE != cli.EXIT_UNDETERMINED
    code = cli.main(["verify", "--tol", "1e-20,1e-20", "--out", str(tmp_path)])
    assert code == cli.EXIT_INFEASIBLE
    assert "tolerance-infeasible" in (tmp_path / "verify_report.txt").read_text()


@pytest.mark.parametrize("argv, names", [
    pytest.param(["classify", *POWER, "--horizon", "100", "--rmax", "120"],
                 ("classification.txt", "evidence.csv"), id="classify"),
    pytest.param(["modes", *POWER, "--horizon", "5", "--rmax", "10",
                  "--grid", "geometric,1e-3,128"],
                 ("mode_0.csv", "mode_1.csv", "mode_2.csv"), id="modes"),
    pytest.param(["bvp", *POWER, "--radius", "3"],
                 ("coefficients.csv", "bvp_report.txt"), id="bvp"),
])
def test_outputs_are_byte_identical_across_runs(tmp_path, argv, names):
    if argv[0] == "bvp":
        theta = 2.0 * math.pi * np.arange(64) / 64
        trace = bvp.BoundaryTrace(3.0, np.cos(theta) + 0.5 * np.sin(2.0 * theta),
                                  0.25 - np.cos(theta))
        bvp.write_trace_csv(tmp_path / "trace.csv", trace)
        argv = [*argv, str(tmp_path / "trace.csv")]
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
