"""The benchmark's workloads: seeded inputs, operations and oracles.

Each workload is a fixed list of operations run back to back by one
client (a closed loop). ``Op.run`` is the timed part; ``Op.check`` is the
oracle, run after the clock stops. The seed draws the curvature
parameters and the boundary-trace coefficients; the program sees only
the generated CLI arguments and trace files.

classify  ``cli.main(["classify", ...])`` on the five built-ins at the
          CLI defaults. Long mode passes (to r = 1000) sampled at a few
          dozen radii, so per-step profile lookups dominate; no ``bvp``.
modes     ``cli.main(["modes", ...])`` on euclidean (analytic, so it
          bypasses the curvature-integrated lookups) and on two seeded
          power-curvature surfaces. Paired loose/tight passes sampled on
          512 nodes, residual stencils, and the largest CSV output.
disk      the ``cli bvp`` sequence at library level on euclidean and
          power-curvature traces, then ``bvp.evaluate_solution`` on a
          fixed polar grid: short passes, the disk coefficient table
          build, and per-point evaluation.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

from warped_disk import asymptotics, bvp, cli, geometry

WORKLOADS = ("classify", "modes", "disk")

# disk problem: band-limited real traces, |m| <= DISK_M, N samples, radius R
DISK_M = 8
DISK_N = 64
DISK_R = 3.0
DISK_BOUNDARY_TOL = 1e-8      # cmd_bvp's default boundary_tol
EVAL_REL_TOL = 1e-9           # point values against a closed form, relative to max |u|
# 40 radii (r = 0 and r = R included) x 25 angles = 1000 points per surface,
# so p99 of the per-point latency has ten samples beyond it in every run
EVAL_RADII = np.linspace(0.0, DISK_R, 40)
EVAL_ANGLES = 2.0 * math.pi * np.arange(25) / 25

CLI_R_MAX = 1200.0
CLI_STEP_CONTROL = (1e-10, 1e-12)   # what cli._surface uses at default tolerances
CLI_RTOL, CLI_ATOL = 1e-9, 1e-11

# horizon, r_max and m_max per workload; "quick" is the test-sized config
CONFIGS = {
    "full": {
        "classify": {"horizon": 1000.0, "r_max": CLI_R_MAX, "m_max": 8},
        "modes_flat": {"horizon": 1000.0, "m_max": 8},
        "modes_curved": {"horizon": 100.0, "m_max": 2},
    },
    "quick": {
        "classify": {"horizon": 100.0, "r_max": 120.0, "m_max": 2},
        "modes_flat": {"horizon": 100.0, "m_max": 2},
        "modes_curved": {"horizon": 20.0, "m_max": 2},
    },
}

_EXPECTED_LABELS = {
    "euclidean": (asymptotics.PARABOLIC, asymptotics.RIGID),
    "hyperbolic": (asymptotics.HYPERBOLIC, asymptotics.LIOUVILLE_TO_HARMONIC),
    "power-curvature": (asymptotics.HYPERBOLIC, asymptotics.ADMITS_NONHARMONIC_BOUNDED),
    "quadratic-curvature": (asymptotics.HYPERBOLIC, asymptotics.LIOUVILLE_TO_HARMONIC),
    "log-threshold": (asymptotics.HYPERBOLIC, asymptotics.LIOUVILLE_TO_HARMONIC),
}


class OracleError(Exception):
    """An operation returned, but its output is wrong."""


@dataclass
class Op:
    label: str
    run: Callable[[Path], Any]          # timed; writes into the given directory
    check: Callable[[Path, Any], None]  # untimed; raises OracleError


def _num(x: float) -> str:
    return repr(float(x))


def _run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise OracleError(f"warped-disk {argv[0]} exited with {code}")


# ----------------------------------------------------------------------
# classify
# ----------------------------------------------------------------------

def _read_keyvalues(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out.setdefault(key, value)
    return out


def _classify_op(profile: str, params: list[str], cfg: dict) -> Op:
    argv = ["classify", "--profile", profile, *params,
            "--horizon", _num(cfg["horizon"]), "--rmax", _num(cfg["r_max"]),
            "--mmax", str(cfg["m_max"])]

    def run(out: Path):
        _run_cli(argv + ["--out", str(out)])

    def check(out: Path, _):
        report = _read_keyvalues(out / "classification.txt")
        got = (report.get("harmonic_regime"), report.get("biharmonic_regime"))
        if got != _EXPECTED_LABELS[profile]:
            raise OracleError(f"{profile} {params}: labels {got}, expected {_EXPECTED_LABELS[profile]}")

    return Op(f"classify:{profile}", run, check)


def classify_ops(seed: int, config: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    eps_power = rng.uniform(0.5, 2.0)
    eta = rng.uniform(0.5, 2.0)
    eps_log = rng.uniform(0.25, 1.0)
    cfg = CONFIGS[config]["classify"]
    return [
        _classify_op("euclidean", [], cfg),
        _classify_op("hyperbolic", [], cfg),
        _classify_op("power-curvature", ["--eps", _num(eps_power)], cfg),
        _classify_op("quadratic-curvature", ["--eta", _num(eta)], cfg),
        _classify_op("log-threshold", ["--eps", _num(eps_log)], cfg),
    ]


# ----------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------

def _mode_tables(out: Path, m_max: int) -> list[np.ndarray]:
    """Columns r, lambda_m, z, log_psi_m, err_bound of every mode CSV."""
    tables = []
    for m in range(m_max + 1):
        path = out / f"mode_{m}.csv"
        if path.read_text().splitlines()[0] != "r,lambda_m,z,log_psi_m,err_bound":
            raise OracleError(f"{path.name}: unexpected header")
        tables.append(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2))
    return tables


def _modes_op(label: str, profile: str, params: list[str], cfg: dict, check_tables) -> Op:
    argv = ["modes", "--profile", profile, *params,
            "--horizon", _num(cfg["horizon"]), "--rmax", _num(CLI_R_MAX),
            "--mmax", str(cfg["m_max"])]

    def run(out: Path):
        _run_cli(argv + ["--out", str(out)])

    def check(out: Path, _):
        tables = _mode_tables(out, cfg["m_max"])
        if any(t.shape != (cli.RunConfig.grid_n, 5) for t in tables):
            raise OracleError(f"{profile}: mode tables are not {cli.RunConfig.grid_n} x 5")
        check_tables(tables)

    return Op(f"modes:{label}", run, check)


def _check_flat_modes(tables):
    """Euclidean: log psi_m = m log r + log(r^2 / (4 (1 + m))) within err_bound."""
    for m, t in enumerate(tables):
        r, log_psi, err = t[:, 0], t[:, 3], t[:, 4]
        exact = m * np.log(r) + np.log(r * r / (4.0 * (1.0 + m)))
        worst = float(np.max(np.abs(log_psi - exact) / err))
        if not worst <= 1.0:
            raise OracleError(f"euclidean m={m}: error is {worst:.3g} x err_bound")


def _check_curved_modes(tables):
    """Lambda_m = |m| integral_1^r ds/phi, so Lambda_m = m Lambda_1 within the bounds."""
    if np.any(tables[0][:, 1] != 0.0):
        raise OracleError("Lambda_0 is not identically zero")
    lam1, err1 = tables[1][:, 1], tables[1][:, 4]
    for m, t in enumerate(tables[2:], start=2):
        worst = float(np.max(np.abs(t[:, 1] - m * lam1) / (t[:, 4] + m * err1)))
        if not worst <= 1.0:
            raise OracleError(f"curved m={m}: Lambda_m - m Lambda_1 is {worst:.3g} x the bounds")


def modes_ops(seed: int, config: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    cfgs = CONFIGS[config]
    ops = [_modes_op("euclidean", "euclidean", [], cfgs["modes_flat"], _check_flat_modes)]
    # the solver's work moves by about 10 % with eps, irregularly; two
    # independent draws cut what that adds to the spread between seeds by sqrt(2)
    for k in (1, 2):
        eps = rng.uniform(0.5, 2.0)
        ops.append(_modes_op(f"power-curvature-{k}", "power-curvature", ["--eps", _num(eps)],
                             cfgs["modes_curved"], _check_curved_modes))
    return ops


# ----------------------------------------------------------------------
# disk
# ----------------------------------------------------------------------

def _band_limited(theta: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Real function sum_{|m| <= DISK_M} a_m e^{i m theta}, from a_0 .. a_DISK_M."""
    waves = np.exp(1j * np.outer(theta, np.arange(1, DISK_M + 1)))
    return coeffs[0].real + 2.0 * (waves @ coeffs[1:]).real


@dataclass(frozen=True)
class DiskInput:
    profile: str
    params: dict
    alpha: np.ndarray     # boundary Fourier coefficients of u, m = 0 .. DISK_M
    beta: np.ndarray      # and of Delta u

    def closed_form(self, r: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Euclidean solution sum (c_m + d_m r^2/(4(1+|m|))) r^|m| e^{i m theta}.

        phi_m = r^|m| and z = r^2/(4(1+|m|)) under the package's
        convention Delta(r^2/4) = 1, so d_m = beta_m / R^|m| and
        c_m = (alpha_m - beta_m R^2/(4(1+|m|))) / R^|m|.
        """
        m = np.arange(DISK_M + 1)
        z_r = DISK_R**2 / (4.0 * (1.0 + m))
        d = self.beta / DISK_R**m
        c = (self.alpha - self.beta * z_r) / DISK_R**m
        radial = (c + d * (r[:, None] ** 2) / (4.0 * (1.0 + m))) * r[:, None] ** m
        weight = np.where(m == 0, 1.0, 2.0)
        return (weight * radial * np.exp(1j * np.outer(theta, m))).sum(axis=1).real

    def write_trace(self, path: Path) -> None:
        theta = 2.0 * math.pi * np.arange(DISK_N) / DISK_N
        u = _band_limited(theta, self.alpha)
        lap = _band_limited(theta, self.beta)
        lines = ["theta,u,lap_u"] + [f"{t!r},{a!r},{b!r}" for t, a, b in
                                     zip(theta.tolist(), u.tolist(), lap.tolist())]
        path.write_text("\n".join(lines) + "\n")


def _draw_coefficients(rng) -> np.ndarray:
    c = rng.normal(size=DISK_M + 1) + 1j * rng.normal(size=DISK_M + 1)
    c[0] = c[0].real
    return c


def disk_inputs(seed: int) -> list[DiskInput]:
    rng = np.random.default_rng(seed)
    eps = rng.uniform(0.5, 2.0)
    return [
        DiskInput("euclidean", {}, _draw_coefficients(rng), _draw_coefficients(rng)),
        DiskInput("power-curvature", {"eps": eps}, _draw_coefficients(rng), _draw_coefficients(rng)),
    ]


def _disk_op(inp: DiskInput, trace_path: Path) -> Op:
    r_pts = np.repeat(EVAL_RADII, EVAL_ANGLES.size)
    t_pts = np.tile(EVAL_ANGLES, EVAL_RADII.size)

    def run(out: Path):
        # the cmd_bvp sequence, then point evaluation
        surface = geometry.builtin_profile(inp.profile, r_max=CLI_R_MAX,
                                           step_control=CLI_STEP_CONTROL, **inp.params)
        trace = bvp.read_trace_csv(trace_path, radius=DISK_R)
        spectrum = bvp.analyze_trace(trace, m_max=min(DISK_M, trace.n_samples // 2 - 1))
        coeffs = bvp.solve_disk_biharmonic(surface.metric, DISK_R, spectrum,
                                           rtol=CLI_RTOL, atol=CLI_ATOL)
        bvp.write_coefficients_csv(out / "coefficients.csv", coeffs)
        resynth = bvp.synthesize_trace(spectrum, DISK_R, trace.n_samples)
        boundary_err = float(np.max(np.abs(resynth.u_values - trace.u_values)))
        grid = geometry.RadialGrid.geometric(max(DISK_R * 1e-3, 1e-4), DISK_R, 257)
        report = bvp.verify_disk_solution(surface.metric, coeffs, grid)
        values = np.empty(r_pts.size)
        starts = np.empty(r_pts.size)
        latency_s = np.empty(r_pts.size)
        for i, (r, theta) in enumerate(zip(r_pts.tolist(), t_pts.tolist())):
            t0 = perf_counter()
            values[i] = bvp.evaluate_solution(surface.metric, coeffs, r, theta)
            latency_s[i] = perf_counter() - t0
            starts[i] = t0
        return {
            "reproduction": max(boundary_err, report.boundary_u_error),
            "values": values,
            "starts": starts,
            "latency_s": latency_s,
        }

    def check(out: Path, res):
        if not res["reproduction"] <= DISK_BOUNDARY_TOL:
            raise OracleError(f"{inp.profile}: boundary reproduction {res['reproduction']:.3g}")
        values = res["values"]
        rim = r_pts == DISK_R
        expected = {"boundary": (rim, _band_limited(t_pts[rim], inp.alpha))}
        if inp.profile == "euclidean":
            expected["closed form"] = (slice(None), inp.closed_form(r_pts, t_pts))
        for what, (sel, exact) in expected.items():
            rel = float(np.max(np.abs(values[sel] - exact)) / np.max(np.abs(exact)))
            if not rel <= EVAL_REL_TOL:
                raise OracleError(f"{inp.profile}: {what} mismatch {rel:.3g} relative")

    return Op(f"disk:{inp.profile}", run, check)


def disk_ops(seed: int, inputs_dir: Path, profiles=("euclidean", "power-curvature")) -> list[Op]:
    ops = []
    for inp in disk_inputs(seed):
        if inp.profile in profiles:
            path = inputs_dir / f"trace_{inp.profile}.csv"
            inp.write_trace(path)
            ops.append(_disk_op(inp, path))
    return ops


def build(workload: str, seed: int, config: str, inputs_dir: Path) -> list[Op]:
    if workload == "classify":
        return classify_ops(seed, config)
    if workload == "modes":
        return modes_ops(seed, config)
    if workload == "disk":
        return disk_ops(seed, inputs_dir)
    raise ValueError(f"unknown workload {workload!r}")
