"""Command-line front end.

Subcommands:

  classify   regime labels with declared-tail and numeric evidence
  modes      per-m mode tables as CSV plus a residual summary
  bvp        solve the disk problem from a boundary trace CSV
  verify     run the built-in verification suites at fixed tolerances
  profiles   list the built-in surfaces

Each command takes only the flags it reads (``_OPTIONS``). classify,
modes and bvp read the surface (--profile --eps --eta --r0 --rmax),
--mmax (classify accepts and ignores it) and --tol; classify and modes
--horizon; modes --grid; bvp --radius. verify reads only the hidden
--inject-fault stencil. All four read --config and --out. Any other
flag, or an --eps, --eta or --r0 the built-in does not take, is a usage
error (exit 64). A config file (flat key-value text, one section per
module) serves every command, so it may set fields a command does not
read; flags override its values. All output files are
deterministic: identical configs produce byte-identical CSV and report
files.

Importing this module loads only the layers every command runs
(``geometry``, ``modes`` with ``operators`` and ``_lsoda``, ``_util``
and ``errors``). ``asymptotics``, ``bvp`` and ``exact`` are imported in
the bodies of the commands and suites that run them, so ``modes`` loads
none of them, ``classify`` never loads ``bvp``, and ``profiles``,
``--help`` and refused runs load none.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import _lsoda, geometry, modes
from ._util import fmt17, read_key_values, write_csv
from .errors import DomainError, WarpedDiskError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNDETERMINED = 2
EXIT_INFEASIBLE = 3
EXIT_USAGE = 64
EXIT_NUMERIC = 70
_EXIT_MEANINGS = (
    (EXIT_OK, "done"),
    (EXIT_FAIL, "a check failed"),
    (EXIT_UNDETERMINED, "a label undetermined (classify)"),
    (EXIT_INFEASIBLE, "tolerance infeasible"),
    (EXIT_USAGE, "usage or configuration error"),
    (EXIT_NUMERIC, "numeric failure"),
)

_DOUBLE_MIN_RTOL = 100.0 * float(np.finfo(float).eps) * 1e-3   # below double precision
# The smallest rtol each command that reads --tol accepts: below it, a mode
# pass it runs would clamp its rtol to modes.RTOL_FLOOR. classify and bvp
# run mode_pass; the reference pass of modes runs 32 times tighter still.
_MIN_RTOL = {
    "classify": modes.MODE_PASS_MIN_RTOL,
    "bvp": modes.MODE_PASS_MIN_RTOL,
    "modes": modes.BIHARMONIC_MODE_MIN_RTOL,
}


@dataclass
class RunConfig:
    profile: str = "euclidean"
    eps: float | None = None
    eta: float | None = None
    r0: float | None = None
    r_max: float | None = None   # None: geometry.DEFAULT_R_MAX (a profile file sets its own)
    horizon: float = 1000.0
    m_max: int = 8
    grid_kind: str = "geometric"
    grid_min: float = 1e-3
    grid_n: int = 512
    rtol: float = modes.DEFAULT_RTOL
    atol: float = modes.DEFAULT_ATOL
    boundary_tol: float = 1e-8
    radius: float = 3.0
    out_dir: str = "."
    inject_fault: str = ""

    def validate(self, reads_horizon: bool = True) -> None:
        """Refuse inconsistent settings.

        ``reads_horizon`` is false for bvp and verify: neither reads the
        horizon on the configured surface, so it is not held to r_max.
        """
        if self.rtol <= 0.0 or self.atol <= 0.0 or self.boundary_tol <= 0.0:
            raise DomainError("tolerances must be positive")
        if self.m_max < 0:
            raise DomainError("m-range must be symmetric around 0: m_max >= 0")
        # a profile file's own r_max is checked on the surface it builds
        r_max = geometry.DEFAULT_R_MAX if self.r_max is None else self.r_max
        if reads_horizon and self.horizon > r_max and not _is_profile_file(self.profile):
            raise DomainError("horizon must not exceed r_max")
        if self.grid_kind not in ("uniform", "geometric"):
            raise DomainError(f"unknown grid kind {self.grid_kind!r}")
        if self.grid_min <= 0.0 or self.grid_n < 8:
            raise DomainError("grid needs a positive start and at least 8 nodes")
        if self.radius <= 0.0:
            raise DomainError("disk radius must be positive")


# [section] key -> (RunConfig field, type); two keys may set one field
_CONFIG_KEYS = {
    ("profile", "name"): ("profile", str),
    ("profile", "eps"): ("eps", float),
    ("profile", "eta"): ("eta", float),
    ("profile", "r0"): ("r0", float),
    ("profile", "r_max"): ("r_max", float),
    ("grid", "kind"): ("grid_kind", str),
    ("grid", "r_min"): ("grid_min", float),
    ("grid", "n"): ("grid_n", int),
    ("asymptotics", "horizon"): ("horizon", float),
    ("asymptotics", "m_max"): ("m_max", int),
    ("bvp", "radius"): ("radius", float),
    ("bvp", "m_max"): ("m_max", int),
    ("bvp", "boundary_tol"): ("boundary_tol", float),
    ("tolerances", "rtol"): ("rtol", float),
    ("tolerances", "atol"): ("atol", float),
    ("output", "directory"): ("out_dir", str),
}


def load_config_file(path) -> dict:
    types = {key: typ for key, (_, typ) in _CONFIG_KEYS.items()}
    updates = {}
    for section, key, value in read_key_values(path, types, "config"):
        fieldname = _CONFIG_KEYS[section, key][0]
        if updates.setdefault(fieldname, value) != value:
            raise DomainError(f"{path}: [{section}] {key} = {value!r} conflicts with "
                              f"{fieldname} = {updates[fieldname]!r} set earlier")
    return updates


def build_config(args) -> RunConfig:
    """The run's settings: defaults, then ``--config``, then the command's flags."""
    reads = {dest for _, dest, _, _, commands in _OPTIONS if args.command in commands}
    given = {dest: getattr(args, dest) for dest in reads if getattr(args, dest) is not None}
    cfg = RunConfig()
    if "config" in given:
        cfg = replace(cfg, **load_config_file(given.pop("config")))
    for dest, (usage, parts) in _COMPOSITE.items():
        if dest in given:
            values = given.pop(dest).split(",")
            if len(values) != len(parts):
                raise DomainError(f"--{dest} expects {usage}")
            given.update((fieldname, parse(value)) for (fieldname, parse), value
                         in zip(parts, values))
    cfg = replace(cfg, **given)
    # the horizon is held to r_max only where it is read on the configured surface
    cfg.validate(reads_horizon={"horizon", "r_max"} <= reads)
    return cfg


def _is_profile_file(name: str) -> bool:
    return name.endswith((".cfg", ".ini", ".profile"))


def _surface(cfg: RunConfig) -> geometry.Surface:
    if _is_profile_file(cfg.profile):
        # the file defines the surface; a parameter given beside it would be dropped
        for key in ("eps", "eta", "r0", "r_max"):
            if getattr(cfg, key) is not None:
                raise DomainError(f"--{key.replace('_', '')} (or [profile] {key}) cannot be "
                                  f"combined with the profile file {cfg.profile}; "
                                  f"set {key} in that file")
        return geometry.read_profile_file(cfg.profile)
    return geometry.builtin_profile(
        cfg.profile,
        eps=cfg.eps,
        eta=cfg.eta,
        r0=cfg.r0,
        r_max=geometry.DEFAULT_R_MAX if cfg.r_max is None else cfg.r_max,
    )


def _tolerance_refusal(cfg: RunConfig, command: str) -> str | None:
    """Why ``command`` cannot meet the requested tolerances, or None when it can.

    Refused are an rtol or atol beyond double precision, and an rtol
    below the command's ``_MIN_RTOL``, which its passes would clamp.
    """
    if cfg.rtol < _DOUBLE_MIN_RTOL or cfg.atol < 1e-15:
        return "requested tolerances are below what double precision supports"
    min_rtol = _MIN_RTOL[command]
    # isclose: the floor times the tightening factor rounds one ulp above 1e-11
    if cfg.rtol < min_rtol and not math.isclose(cfg.rtol, min_rtol):
        return (f"rtol {cfg.rtol:g} is below {min_rtol:g}, the smallest {command} accepts; "
                f"a mode pass it runs would be clamped to rtol {modes.RTOL_FLOOR:g}")
    return None


def _outdir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ----------------------------------------------------------------------
# classify
# ----------------------------------------------------------------------

def cmd_classify(cfg: RunConfig) -> int:
    from . import asymptotics

    surface = _surface(cfg)
    report = asymptotics.classify_surface(surface, horizon=cfg.horizon,
                                          rtol=cfg.rtol, atol=cfg.atol)
    out = _outdir(cfg)
    asymptotics.export_report(report, out / "classification.txt")
    print(f"profile = {surface.name}")
    for line in (out / "classification.txt").read_text().splitlines():
        print(line)
    determinate = (
        report.harmonic_regime != asymptotics.UNDETERMINED
        or report.biharmonic_regime != asymptotics.UNDETERMINED
    )
    return EXIT_OK if determinate else EXIT_UNDETERMINED


# ----------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------

def _run_grid(cfg: RunConfig, r_max: float) -> geometry.RadialGrid:
    if cfg.grid_kind == "uniform":
        return geometry.RadialGrid.uniform(cfg.grid_min, r_max, cfg.grid_n)
    return geometry.RadialGrid.geometric(cfg.grid_min, r_max, cfg.grid_n)


def cmd_modes(cfg: RunConfig) -> int:
    surface = _surface(cfg)
    grid = _run_grid(cfg, surface.metric.require_radius(cfg.horizon))
    # solved before anything is written, so a grid the modes refuse leaves no output
    bmodes = modes.biharmonic_mode(surface.metric, range(cfg.m_max + 1), grid,
                                   rtol=cfg.rtol, atol=cfg.atol)
    out = _outdir(cfg)
    print(f"profile = {surface.name}")
    print("m  max_scaled_residual_eq4  max_scaled_residual_eq6  max_scaled_residual_profile  file")
    for m, bmode in enumerate(bmodes):
        rep = modes.verify_mode_residuals(surface.metric, bmode)
        path = out / f"mode_{m}.csv"
        modes.export_mode_csv(path, bmode)
        print(f"{m}  {rep.harmonic:.6e}  {rep.biharmonic:.6e}  {rep.profile:.6e}  {path}")
    return EXIT_OK


# ----------------------------------------------------------------------
# bvp
# ----------------------------------------------------------------------

def cmd_bvp(cfg: RunConfig, trace_path: str) -> int:
    from . import bvp

    surface = _surface(cfg)
    trace = bvp.read_trace_csv(trace_path, radius=cfg.radius)
    spectrum = bvp.analyze_trace(trace, m_max=min(cfg.m_max, trace.n_samples // 2 - 1))
    coeffs = bvp.solve_disk_biharmonic(
        surface.metric, cfg.radius, spectrum, rtol=cfg.rtol, atol=cfg.atol
    )
    out = _outdir(cfg)
    bvp.write_coefficients_csv(out / "coefficients.csv", coeffs)

    resynth = bvp.synthesize_trace(spectrum, cfg.radius, trace.n_samples)
    boundary_err = float(np.max(np.abs(resynth.u_values - trace.u_values)))
    grid = geometry.RadialGrid.geometric(max(cfg.radius * 1e-3, 1e-4), cfg.radius, 257)
    report = bvp.verify_disk_solution(surface.metric, coeffs, grid)
    lines = [
        f"profile = {surface.name}",
        f"radius = {fmt17(cfg.radius)}",
        f"m_max = {spectrum.m_max}",
        f"truncation_energy_u = {fmt17(spectrum.truncation_energy[0])}",
        f"truncation_energy_lap = {fmt17(spectrum.truncation_energy[1])}",
        f"boundary_reproduction = {fmt17(max(boundary_err, report.boundary_u_error))}",
        f"boundary_lap_reproduction = {fmt17(report.boundary_lap_error)}",
        f"interior_residual_max = {fmt17(report.interior_max)}",
        f"interior_residual_rms = {fmt17(report.interior_rms)}",
        f"profile_residual_max = {fmt17(report.profile)}",
        f"underflow_flagged = {int(np.sum(coeffs.underflow))}",
    ]
    (out / "bvp_report.txt").write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    ok = max(boundary_err, report.boundary_u_error) <= cfg.boundary_tol
    return EXIT_OK if ok else EXIT_FAIL


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _suite_stencil(cfg: RunConfig, out: Path) -> tuple[bool, list[str]]:
    """Residual second-order convergence plus the profile rows against K.

    The profile line checks the rows of the finest m = 1 pass against K
    through v' + v^2 + K = 0 (``ResidualReport.profile``). The stencil
    fault checks them against a K the pass did not integrate.
    """
    lines = []
    ok = True
    rows = []
    for surface in (geometry.builtin_profile("euclidean"), geometry.builtin_profile("hyperbolic")):
        metric = surface.metric
        if cfg.inject_fault == "stencil" and surface.name == "euclidean":
            metric = replace(metric, name="euclidean(faulted)", k=lambda r: -0.3 / r)
        conv_lines = []
        for m in (1, 3):
            reps = []
            for n in (65, 129, 257):
                grid = geometry.RadialGrid.uniform(1.0, 2.0, n)
                bmode = modes.biharmonic_mode(surface.metric, m, grid)
                reps.append(modes.verify_mode_residuals(metric, bmode))
            if m == 1:
                profile = reps[-1].profile
            maxima = [rep.biharmonic for rep in reps]
            ratios = [maxima[i] / maxima[i + 1] for i in range(len(maxima) - 1)]
            conv_ok = maxima[-1] <= 1e-8 or all(3.3 <= q <= 4.7 for q in ratios)
            ok &= conv_ok
            rows.append((surface.name, m, *(float(v) for v in maxima), float(ratios[0]), float(ratios[1])))
            conv_lines.append(
                f"stencil: {metric.name} m={m} residual maxima "
                + ", ".join(f"{v:.3e}" for v in maxima)
                + f" ratios {ratios[0]:.2f}, {ratios[1]:.2f} ({'ok' if conv_ok else 'FAIL'})"
            )
        profile_ok = profile <= 1e-4
        ok &= profile_ok
        lines.append(f"stencil: {metric.name} profile rows max|v' + v^2 + K| = "
                     f"{profile:.3e} ({'ok' if profile_ok else 'FAIL'})")
        lines.extend(conv_lines)
    write_csv(out / "residual_convergence.csv",
              ["profile", "m", "res_n65", "res_n129", "res_n257", "ratio_1", "ratio_2"],
              list(zip(*rows)))
    return ok, lines


def _suite_comparison(cfg: RunConfig, out: Path) -> tuple[bool, list[str]]:
    """Randomized comparison-lemma pairs; the conclusion must hold.

    The package's one check of the Sturm comparison lemma, in Riccati
    form: v' = q - v^2 with q_f <= q_h and v_f(1) <= v_h(1) must give
    v_f <= v_h on [1, 4].
    """
    rng = np.random.default_rng(20240801)
    n_pairs = 200
    # per pair: c0, c1, w1, p1, gap_c, w2, p2, v0, dv0, drawn in that order
    lows = (0.05, 0.0, 0.5, 0.0, 0.0, 0.5, 0.0, 0.05, 0.01)
    highs = (1.0, 0.8, 2.0, 2.0 * math.pi, 1.0, 2.0, 2.0 * math.pi, 1.0, 0.5)
    draws = np.array([[rng.uniform(lo, hi) for lo, hi in zip(lows, highs)]
                      for _ in range(n_pairs)]).T
    c0, c1, w1, p1, gap_c, w2, p2, v0, dv0 = draws

    def rhs(r, y):
        # y holds every v_f, then every v_h
        q_f = c0 + c1 * (1.0 + np.sin(w1 * r + p1)) / 2.0
        q_h = q_f + gap_c * (1.0 + np.sin(w2 * r + p2)) / 2.0
        return np.concatenate((q_f, q_h)) - y * y

    def jac(r, y):
        return np.diag(-2.0 * y)

    # LSODA's error norm is an RMS over all 2 n_pairs states, so dividing
    # the tolerances by sqrt(2 n_pairs) keeps every pair within what a
    # solve of that pair alone at rtol 1e-11, atol 1e-13 allows
    shrink = math.sqrt(2 * n_pairs)
    xs = np.linspace(1.0, 4.0, 41)
    y0 = np.concatenate((v0, v0 + dv0))
    sol = _lsoda.at_radii(rhs, jac, y0, xs, rtol=1e-11 / shrink, atol=1e-13 / shrink, tcrit=4.0)
    ys = np.column_stack((y0, sol.y))   # the states at every x in xs
    vf, vh = ys[:n_pairs], ys[n_pairs:]
    failures = int(np.sum(np.any(vf > vh + 1e-9 * np.maximum(1.0, np.abs(vh)), axis=1)))
    ok = failures == 0
    lines = [f"comparison: {n_pairs} randomized pairs, {failures} conclusion failures "
             f"({'ok' if ok else 'FAIL'})"]
    return ok, lines


def _suite_closed_form(cfg: RunConfig, out: Path) -> tuple[bool, list[str]]:
    """The pass rows of euclidean and hyperbolic against their closed forms.

    One mode pass of m = 0 and 1 per surface, at fixed radii, against
    ``exact.space_form``: log phi and Lambda_1 are logarithms, so their
    absolute error is the relative error of phi and phi_1; phi'/phi, w_0
    and z_0 are compared relatively. Each must stay within 1e-8.
    """
    from . import exact

    radii = np.geomspace(0.01, 10.0, 24)
    lines = []
    ok = True
    for name, k in (("euclidean", 0.0), ("hyperbolic", -1.0)):
        surface = geometry.builtin_profile(name)
        form = exact.space_form(k)
        mp = modes.mode_pass(surface.metric, (0, 1), radii[-1], radii=radii)
        lam, z = mp.lam_z(radii)
        log_phi, dlog_phi = mp.profile_rows(radii)
        errors = {
            "log phi": np.abs(log_phi - form.log_phi(radii)),
            "Lambda_1": np.abs(lam[1] - form.lam1(radii)),
            "phi'/phi": np.abs(dlog_phi / form.dlog_phi(radii) - 1.0),
            "w_0": np.abs(mp.inner_ratio(radii, 0) / form.w0(radii) - 1.0),
            "z_0": np.abs(z[0] / form.z0(radii) - 1.0),
        }
        worst = {what: float(np.max(err)) for what, err in errors.items()}
        good = max(worst.values()) <= 1e-8
        ok &= good
        lines.append(f"closed-form: {surface.name} max error "
                     + ", ".join(f"{what} {err:.3e}" for what, err in worst.items())
                     + f" ({'ok' if good else 'FAIL'})")
    return ok, lines


def _suite_roundtrip(cfg: RunConfig, out: Path) -> tuple[bool, list[str]]:
    """A disk-solve round trip: known coefficients through their boundary data and back."""
    from . import bvp, exact

    surface = geometry.builtin_profile("euclidean")
    rng = np.random.default_rng(7)
    m_max = 4
    c = rng.normal(size=2 * m_max + 1) + 1j * rng.normal(size=2 * m_max + 1)
    d = rng.normal(size=2 * m_max + 1) + 1j * rng.normal(size=2 * m_max + 1)
    radius = 2.0
    plane, ms = exact.space_form(0.0), np.arange(m_max + 1)
    lam_r, z_r = plane.lam(ms, radius), plane.z_m(ms, radius)
    alpha = np.empty(2 * m_max + 1, dtype=complex)
    beta = np.empty(2 * m_max + 1, dtype=complex)
    for i, m in enumerate(range(-m_max, m_max + 1)):
        phi_m = math.exp(lam_r[abs(m)])
        alpha[i] = c[i] * phi_m + d[i] * z_r[abs(m)] * phi_m
        beta[i] = d[i] * phi_m
    spectrum = bvp.FourierSpectrum(
        m_max=m_max, alpha=alpha, beta=beta, truncation_energy=(0.0, 0.0), real_valued=False
    )
    coeffs = bvp.solve_disk_biharmonic(surface.metric, radius, spectrum)
    rel = max(
        float(np.max(np.abs(coeffs.c - c) / np.abs(c))),
        float(np.max(np.abs(coeffs.d - d) / np.abs(d))),
    )
    good = rel <= 1e-6
    return good, [f"roundtrip: disk coefficients rel err = {rel:.3e} ({'ok' if good else 'FAIL'})"]


def _suite_regimes(cfg: RunConfig, out: Path) -> tuple[bool, list[str]]:
    """Built-in surfaces must land in their regimes."""
    from . import asymptotics

    horizon = 400.0
    expected = [
        ("euclidean", {}, asymptotics.PARABOLIC, asymptotics.RIGID),
        ("hyperbolic", {}, asymptotics.HYPERBOLIC, asymptotics.LIOUVILLE_TO_HARMONIC),
        ("power-curvature", {"eps": 1.0}, asymptotics.HYPERBOLIC,
         asymptotics.ADMITS_NONHARMONIC_BOUNDED),
    ]
    lines = []
    rows = []
    ok = True
    for name, params, want_h, want_b in expected:
        surface = geometry.builtin_profile(name, r_max=horizon * 1.1, **params)
        report = asymptotics.classify_surface(surface, horizon=horizon)
        good = report.harmonic_regime == want_h and report.biharmonic_regime == want_b
        ok &= good
        rows.append((surface.name, report.harmonic_regime, report.biharmonic_regime,
                     report.route))
        lines.append(
            f"regimes: {surface.name} -> ({report.harmonic_regime}, {report.biharmonic_regime}) "
            f"via {report.route} ({'ok' if good else 'FAIL'})"
        )
    write_csv(out / "regime_evidence.csv",
              ["profile", "harmonic", "biharmonic", "route"], list(zip(*rows)))
    return ok, lines


def cmd_verify(cfg: RunConfig) -> int:
    out = _outdir(cfg)
    suites = (
        ("stencil", _suite_stencil),
        ("comparison", _suite_comparison),
        ("closed-form", _suite_closed_form),
        ("roundtrip", _suite_roundtrip),
        ("regimes", _suite_regimes),
    )
    all_lines = []
    all_ok = True
    for name, fn in suites:
        ok, lines = fn(cfg, out)
        all_ok &= ok
        all_lines.extend(lines)
        all_lines.append(f"suite {name}: {'PASS' if ok else 'FAIL'}")
    all_lines.append(f"verify: {'PASS' if all_ok else 'FAIL'}")
    (out / "verify_report.txt").write_text("\n".join(all_lines) + "\n")
    for line in all_lines:
        print(line)
    return EXIT_OK if all_ok else EXIT_FAIL


def cmd_profiles() -> int:
    print("built-in profiles:")
    print("  euclidean                      phi(r) = r, K = 0")
    print("  hyperbolic                     phi(r) = sinh r, K = -1")
    print("  log-threshold  --eps E --r0 R  K -> -(1+E)/(r^2 log r), R >= 2")
    print("  power-curvature --eps E --r0 R K -> -r^(2+E)")
    print("  quadratic-curvature --eta H --r0 R  K -> -H r^2")
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _tol_help(command: str) -> str:
    return (f"quadrature tolerances as RTOL,ATOL; an rtol below {_MIN_RTOL[command]:.2g} or "
            f"an atol below 1e-15 exits {EXIT_INFEASIBLE}")


_ALL = ("classify", "modes", "bvp", "verify")
_SURFACE = ("classify", "modes", "bvp")   # the commands that build the configured surface
# Every flag: (flag, RunConfig field and argparse dest, type, help, the
# commands that read it); a command's parser holds its own rows alone. A
# tuple type lists the accepted values; a callable help takes the command.
# --config names a file of fields; --grid and --tol set several (_COMPOSITE).
_OPTIONS = (
    ("--config", "config", str, "config file (key = value, sections per module)", _ALL),
    ("--profile", "profile", str, "built-in name or profile definition file", _SURFACE),
    ("--eps", "eps", float, "tail exponent parameter", _SURFACE),
    ("--eta", "eta", float, "quadratic tail coefficient", _SURFACE),
    ("--r0", "r0", float, "radius where the declared tail starts", _SURFACE),
    ("--rmax", "r_max", float, "radius of validity for integration", _SURFACE),
    ("--horizon", "horizon", float, "largest radius used for evidence", ("classify", "modes")),
    ("--mmax", "m_max", int, "largest |m| used (classify ignores it)", _SURFACE),
    ("--grid", "grid", str, "grid as KIND,R_MIN,N (kind: uniform|geometric)", ("modes",)),
    ("--tol", "tol", str, _tol_help, tuple(_MIN_RTOL)),
    ("--radius", "radius", float, "disk radius the trace lives on", ("bvp",)),
    ("--out", "out_dir", str, "output directory", _ALL),
    ("--inject-fault", "inject_fault", ("stencil",), argparse.SUPPRESS, ("verify",)),
)
# dest -> (usage, (RunConfig field, parser) per comma-separated part)
_COMPOSITE = {
    "grid": ("KIND,R_MIN,N", (("grid_kind", str.strip), ("grid_min", float), ("grid_n", int))),
    "tol": ("RTOL,ATOL", (("rtol", float), ("atol", float))),
}


class _Parser(argparse.ArgumentParser):
    # usage problems exit with 64, matching the config-error contract
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="warped-disk",
        description="Harmonic/biharmonic mode analysis on rotationally symmetric surfaces",
        epilog="exit codes:\n" + "\n".join(f"  {code:>2}  {meaning}"
                                           for code, meaning in _EXIT_MEANINGS),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, text in (("classify", "label the harmonic and biharmonic regimes"),
                          ("modes", "write per-m mode CSV files"),
                          ("bvp", "solve the disk problem from a trace CSV"),
                          ("verify", "run the verification suites")):
        p = sub.add_parser(command, help=text)
        if command == "bvp":
            p.add_argument("trace", help="CSV file with columns theta,u,lap_u")
        for flag, dest, kind, flag_help, commands in _OPTIONS:
            if command in commands:
                p.add_argument(
                    flag, dest=dest, help=flag_help(command) if callable(flag_help) else flag_help,
                    **({"choices": kind} if isinstance(kind, tuple) else {"type": kind}))
    sub.add_parser("profiles", help="list built-in profiles")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``make_parser()``'s tree, built at the first call and kept for the process.

    argparse keeps no state of a parse on the parser (each parse fills a
    fresh namespace, and ``_Parser.error`` only prints and raises), so
    every ``main`` call in one process parses as a fresh process would.
    """
    return make_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "profiles":
        return cmd_profiles()
    try:
        cfg = build_config(args)
    except (DomainError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    refusal = _tolerance_refusal(cfg, args.command) if args.command in _MIN_RTOL else None
    if refusal is not None:
        print(f"{args.command}: tolerance-infeasible ({refusal})", file=sys.stderr)
        return EXIT_INFEASIBLE
    try:
        if args.command == "classify":
            return cmd_classify(cfg)
        if args.command == "modes":
            return cmd_modes(cfg)
        if args.command == "bvp":
            return cmd_bvp(cfg, args.trace)
        if args.command == "verify":
            return cmd_verify(cfg)
    except DomainError as exc:
        # bad names/parameters/files are usage problems, not numeric ones
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WarpedDiskError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
