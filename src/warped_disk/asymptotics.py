"""Curvature regimes for harmonic and biharmonic Liouville behavior.

Two routes feed a classification:

* declared route -- the curvature carries a tail declaration (an
  inequality beyond some radius), and the inequality is verified on
  samples up to the horizon, never assumed;
* numeric route -- boundedness verdicts at a finite horizon for two
  quantities. Lambda_1 = integral_1^r ds/phi is Milnor's integral: it
  is bounded exactly when the surface is hyperbolic, and Lambda_m is
  |m| Lambda_1. z_0 = integral_0^r (integral_0^s phi)/phi(s) ds is the
  radial solution of Delta u = 1; when it is bounded, u = z_0 is itself
  a bounded non-harmonic biharmonic function.

The regime labels:

  harmonic:   parabolic | hyperbolic | undetermined
  biharmonic: rigid | liouville_to_harmonic | admits_nonharmonic_bounded
              | undetermined

A label is only emitted when its triggering inequality was sample-
verified (declared route) or the numeric verdicts are determinate. The
z_0 verdict stands for every m: phi_2m = exp(2 Lambda_m) is
nondecreasing, so z_m <= z_0 on every surface, and on a hyperbolic
surface z_m(inf) < inf exactly when z_0(inf) < inf. Regions the theory
does not cover come out undetermined on purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._util import fmt17
from ._util import write_csv  # noqa: F401 -- patched by benchmarks/tracing.py
from .errors import DomainError
from .geometry import (
    CurvatureProfile,
    MetricProfile,
    Surface,
    TailDescriptor,
)
from .modes import DEFAULT_ATOL, DEFAULT_RTOL, mode_pass

__all__ = [
    "PARABOLIC",
    "HYPERBOLIC",
    "RIGID",
    "LIOUVILLE_TO_HARMONIC",
    "ADMITS_NONHARMONIC_BOUNDED",
    "UNDETERMINED",
    "TailFit",
    "EvidenceBundle",
    "ClassificationReport",
    "fit_tail_exponent",
    "numeric_evidence",
    "classify_surface",
    "export_report",
]

PARABOLIC = "parabolic"
HYPERBOLIC = "hyperbolic"
RIGID = "rigid"
LIOUVILLE_TO_HARMONIC = "liouville_to_harmonic"
ADMITS_NONHARMONIC_BOUNDED = "admits_nonharmonic_bounded"
UNDETERMINED = "undetermined"

BOUNDED = "bounded"
UNBOUNDED = "unbounded"

DEFAULT_HORIZON = 1000.0

# Verdict rule constants. An increasing quantity sampled at doubling
# radii is declared bounded when its increments either plateau (fall
# below PLATEAU_FRAC of the value) or shrink geometrically (median
# increment ratio below RATIO_BOUNDED); it is unbounded when increments
# grow or their ratio stays near or above one.
PLATEAU_FRAC = 1e-6
RATIO_BOUNDED = 0.92
RATIO_UNBOUNDED = 0.97
FIT_RESIDUAL_MAX = 0.05


# ----------------------------------------------------------------------
# tail fitting
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TailFit:
    """Best-matching curvature tail template over a sampling window.

    kind is "power" (-K ~ C r^p), "log_threshold" (-K ~ kappa/(r^2 log r)),
    "nonnegative" (K >= 0 somewhere, not classifiable by tail), or
    "undetermined" (no template fits within the residual threshold).
    """

    kind: str
    exponent: float | None      # p for power fits
    kappa: float | None         # 1 + eps for log-threshold fits
    residual: float
    window: tuple[float, float]


def fit_tail_exponent(
    curvature, window: tuple[float, float], n: int = 32
) -> TailFit:
    """Least-squares fit of log(-K) against the regime templates."""
    k_fn = curvature.k if isinstance(curvature, CurvatureProfile) else curvature
    lo, hi = float(window[0]), float(window[1])
    if not (1.0 < lo < hi):
        raise DomainError("fit window must satisfy 1 < lo < hi")
    if n < 16:
        raise DomainError("need at least 16 samples for a tail fit")
    radii = np.geomspace(lo, hi, n)
    k = np.asarray(k_fn(radii), dtype=float)
    if np.any(k >= 0.0):
        return TailFit("nonnegative", None, None, math.inf, (lo, hi))

    log_r = np.log(radii)
    log_mk = np.log(-k)
    # power template: log(-K) = p log r + c
    p, c = np.polyfit(log_r, log_mk, 1)
    res_power = float(np.sqrt(np.mean((log_mk - (p * log_r + c)) ** 2)))
    # log-threshold template: log(-K) = log kappa - 2 log r - log log r
    shifted = log_mk + 2.0 * log_r + np.log(log_r)
    log_kappa = float(np.mean(shifted))
    res_log = float(np.sqrt(np.mean((shifted - log_kappa) ** 2)))

    if res_log <= res_power and res_log <= FIT_RESIDUAL_MAX:
        return TailFit("log_threshold", None, math.exp(log_kappa), res_log, (lo, hi))
    if res_power <= FIT_RESIDUAL_MAX:
        return TailFit("power", float(p), None, res_power, (lo, hi))
    return TailFit("undetermined", None, None, min(res_power, res_log), (lo, hi))


# ----------------------------------------------------------------------
# boundedness verdicts at a finite horizon
# ----------------------------------------------------------------------

def _ladder(horizon: float, r_base: float = 2.0) -> np.ndarray:
    k = int(math.floor(math.log2(horizon / r_base)))
    k = max(k, 3)
    return horizon / 2.0 ** np.arange(k, -1.0, -1.0)


def _increment_verdict(values: np.ndarray) -> tuple[str, float]:
    """(verdict, median increment ratio) for a nondecreasing quantity at doubling radii."""
    values = np.asarray(values, dtype=float)
    scale = max(abs(values[-1]), 1e-30)
    inc = np.diff(values)
    if np.all(np.abs(inc) <= 1e-12 * scale):
        return BOUNDED, 0.0
    if inc[-1] <= PLATEAU_FRAC * scale and inc[-2] <= PLATEAU_FRAC * scale:
        return BOUNDED, 0.0
    tail = inc[-4:]
    if np.any(tail <= 0.0):
        return BOUNDED, 0.0  # increments already at rounding level
    ratios = tail[1:] / tail[:-1]
    rho = float(np.median(ratios))
    if np.all(ratios >= 1.0 - 1e-9) or rho >= RATIO_UNBOUNDED:
        return UNBOUNDED, rho
    if rho <= RATIO_BOUNDED:
        return BOUNDED, rho
    return UNDETERMINED, rho


@dataclass(frozen=True)
class EvidenceBundle:
    """Everything the numeric route knows about a profile at its horizon.

    ``phi_verdict`` is the ladder verdict on Lambda_1, Milnor's integral
    (bounded: hyperbolic). Lambda_m = |m| Lambda_1 and the verdict rule
    does not depend on scale, so it holds for every m != 0.
    ``z_verdict`` is the ladder verdict on z_0, which stands for every
    z_m (see the module docstring).
    """

    horizon: float
    phi_verdict: str
    z_verdict: str
    phi_grows: bool
    phi_nondecreasing: bool


def numeric_evidence(
    profile: MetricProfile,
    horizon: float = DEFAULT_HORIZON,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> EvidenceBundle:
    """Doubling-ladder boundedness verdicts for Lambda_1 and z_0.

    One mode pass with m = 0 and 1 carries both and keeps only the
    ladder radii and the profile probes, whose rows it integrates
    itself: phi'/phi at 48 radii over the last two decades below the
    horizon (``phi_nondecreasing``) and log phi at horizon/4 and at the
    horizon (``phi_grows``).
    """
    horizon = profile.require_radius(horizon)
    ladder = _ladder(horizon)
    tail_r = np.geomspace(max(horizon / 100.0, 1.0), horizon, 48)
    probe_r = np.array([horizon / 4.0, horizon])
    mp = mode_pass(profile, (0, 1), horizon, rtol=rtol, atol=atol,
                   radii=np.concatenate((ladder, tail_r, probe_r)))
    lam, z = mp.lam_z(ladder)     # row k holds m = k

    _, v_tail = mp.profile_rows(tail_r)
    log_phi, _ = mp.profile_rows(probe_r)
    phi_grows = bool(log_phi[1] > log_phi[0] + 1e-9) and bool(log_phi[1] > math.log(10.0))
    return EvidenceBundle(
        horizon=horizon,
        phi_verdict=_increment_verdict(lam[1])[0],
        z_verdict=_increment_verdict(z[0])[0],
        phi_grows=phi_grows,
        phi_nondecreasing=bool(np.all(v_tail >= -1e-12)),
    )


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ClassificationReport:
    harmonic_regime: str
    biharmonic_regime: str
    route: str                  # "declared_tail" | "numeric" | "both" | "none"
    horizon: float
    evidence: EvidenceBundle
    tail_fit: TailFit | None
    declared: TailDescriptor | None
    declared_verified: bool
    notes: tuple[str, ...] = field(default_factory=tuple)


def _declared_labels(curv: CurvatureProfile, horizon, evidence) -> tuple[str, str, bool, list[str]]:
    """(harmonic, biharmonic, verified, notes) from a declared tail."""
    notes: list[str] = []
    tail = curv.tail
    if tail is None or tail.kind == "custom":
        return UNDETERMINED, UNDETERMINED, False, ["no machine-checkable tail declaration"]
    check = curv.verify_tail(horizon)
    if check.n_checked == 0:
        notes.append(f"declared tail starts at r0 = {tail.r0:.4g}, at or beyond the horizon; "
                     "not checked")
        return UNDETERMINED, UNDETERMINED, False, notes
    if not check.ok:
        where = "" if check.first_violation is None else f" near r = {check.first_violation:.4g}"
        notes.append(f"declared tail failed sample verification{where}")
        return UNDETERMINED, UNDETERMINED, False, notes

    if tail.kind == "ge_milnor":
        if evidence.phi_grows:
            return PARABOLIC, RIGID, True, notes
        notes.append("K >= -1/(r^2 log r) verified but phi growth not observed")
        return UNDETERMINED, UNDETERMINED, True, notes
    if tail.kind == "le_log_threshold":
        # one-sided: harmonic regime settled, biharmonic branch needs the
        # lower quadratic bound too
        notes.append("upper tail bound only; biharmonic branch needs -eta r^2 <= K as well")
        return HYPERBOLIC, UNDETERMINED, True, notes
    if tail.kind == "between":
        if evidence.phi_nondecreasing:
            return HYPERBOLIC, LIOUVILLE_TO_HARMONIC, True, notes
        notes.append("two-sided bound verified but phi is not eventually nondecreasing")
        return HYPERBOLIC, UNDETERMINED, True, notes
    if tail.kind == "le_power":
        if evidence.phi_nondecreasing:
            return HYPERBOLIC, ADMITS_NONHARMONIC_BOUNDED, True, notes
        notes.append("power tail verified but phi is not eventually nondecreasing")
        return HYPERBOLIC, UNDETERMINED, True, notes
    return UNDETERMINED, UNDETERMINED, False, notes


def _numeric_labels(evidence: EvidenceBundle) -> tuple[str, str, list[str]]:
    """(harmonic, biharmonic, notes) from finite-horizon verdicts alone."""
    notes: list[str] = []
    if evidence.phi_verdict == UNDETERMINED:
        notes.append("phi_m ladder is undetermined")
        harmonic = UNDETERMINED
    else:
        harmonic = HYPERBOLIC if evidence.phi_verdict == BOUNDED else PARABOLIC
    if evidence.z_verdict == UNDETERMINED:
        notes.append("z_0 ladder is undetermined")
        return harmonic, UNDETERMINED, notes
    z_bounded = evidence.z_verdict == BOUNDED
    if harmonic == UNDETERMINED:
        return harmonic, UNDETERMINED, notes
    if harmonic == HYPERBOLIC and z_bounded:
        return HYPERBOLIC, ADMITS_NONHARMONIC_BOUNDED, notes
    if harmonic == HYPERBOLIC and not z_bounded:
        return HYPERBOLIC, LIOUVILLE_TO_HARMONIC, notes
    if harmonic == PARABOLIC and not z_bounded:
        return PARABOLIC, RIGID, notes
    notes.append("phi_m unbounded with z_0 bounded matches no covered regime")
    return PARABOLIC, UNDETERMINED, notes


def _fit_descriptor(fit: TailFit, curv_fn) -> TailDescriptor | None:
    """Turn a clean template fit into an inequality to verify on samples."""
    lo = fit.window[0]
    if fit.kind == "log_threshold":
        if fit.kappa >= 1.05:
            return TailDescriptor("le_log_threshold", r0=lo, eps=fit.kappa - 1.0)
        if fit.kappa <= 0.95:
            return TailDescriptor("ge_milnor", r0=lo)
        return None  # the gap at kappa ~ 1 stays undetermined
    if fit.kind == "power":
        if fit.exponent >= 2.05:
            return TailDescriptor("le_power", r0=lo, eps=fit.exponent - 2.0)
        # flat-to-quadratic growth: try the two-sided band with eta from samples
        radii = np.geomspace(lo, fit.window[1], 32)
        k = np.asarray(curv_fn(radii), dtype=float)
        eta = float(np.max(-k / radii**2)) * 1.05
        if eta <= 0.0:
            return None
        return TailDescriptor("between", r0=lo, eps=1.0, eta=eta)
    return None


def classify_surface(
    surface: Surface,
    horizon: float = DEFAULT_HORIZON,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> ClassificationReport:
    """Full two-route classification of a surface.

    Labels are only combined when the routes agree; a disagreement
    downgrades to undetermined and is recorded in the notes.
    """
    if not isinstance(surface, Surface):
        raise DomainError(f"cannot classify a {type(surface).__name__}")
    metric, curv = surface.metric, surface.curvature
    horizon = metric.require_radius(horizon)
    evidence = numeric_evidence(metric, horizon=horizon, rtol=rtol, atol=atol)
    notes: list[str] = []

    declared = curv.tail
    declared_verified = False
    if declared is not None and declared.kind != "custom":
        h_dec, b_dec, declared_verified, dn = _declared_labels(curv, horizon, evidence)
        notes.extend(dn)
    else:
        h_dec = b_dec = UNDETERMINED

    tail_fit = None
    if not declared_verified:
        # no declaration to lean on: fit a template and verify the implied
        # inequality on samples before using it
        k_fn = curv.k
        window = (max(horizon / 30.0, 2.0), horizon)
        try:
            tail_fit = fit_tail_exponent(k_fn, window)
        except DomainError:
            tail_fit = None
        if tail_fit is not None and tail_fit.kind in ("power", "log_threshold"):
            inferred = _fit_descriptor(tail_fit, k_fn)
            if inferred is not None:
                probe = CurvatureProfile(k=k_fn, tail=inferred, name="fit")
                h_fit, b_fit, ok, fn = _declared_labels(probe, horizon, evidence)
                if ok:
                    h_dec, b_dec = h_fit, b_fit
                    notes.append(
                        f"tail inferred by fit ({tail_fit.kind}, residual {tail_fit.residual:.3g}) "
                        "and verified on samples"
                    )
                notes.extend(fn)

    h_num, b_num, nn = _numeric_labels(evidence)
    notes.extend(nn)

    def combine(dec: str, num: str, what: str) -> tuple[str, str]:
        if dec != UNDETERMINED and num != UNDETERMINED:
            if dec == num:
                return dec, "both"
            notes.append(f"{what}: declared route says {dec}, numeric route says {num}")
            return UNDETERMINED, "conflict"
        if dec != UNDETERMINED:
            return dec, "declared_tail"
        if num != UNDETERMINED:
            return num, "numeric"
        return UNDETERMINED, "none"

    harmonic, route_h = combine(h_dec, h_num, "harmonic")
    biharmonic, route_b = combine(b_dec, b_num, "biharmonic")
    if "conflict" in (route_h, route_b):
        route = "conflict"
    else:
        declared_used = any(r in ("both", "declared_tail") for r in (route_h, route_b))
        numeric_used = any(r in ("both", "numeric") for r in (route_h, route_b))
        if declared_used and numeric_used:
            route = "both"
        elif declared_used:
            route = "declared_tail"
        elif numeric_used:
            route = "numeric"
        else:
            route = "none"

    return ClassificationReport(
        harmonic_regime=harmonic,
        biharmonic_regime=biharmonic,
        route=route,
        horizon=horizon,
        evidence=evidence,
        tail_fit=tail_fit,
        declared=declared,
        declared_verified=declared_verified,
        notes=tuple(notes),
    )


# ----------------------------------------------------------------------
# report export
# ----------------------------------------------------------------------

def export_report(report: ClassificationReport, txt_path) -> None:
    """Write the key-value report.

    ``classification.txt`` holds ``key = value`` lines: the two labels and
    the ``route`` that set them; the ``horizon``; ``phi_ladder``, the
    Lambda_1 verdict behind the numeric harmonic label (bounded:
    hyperbolic), and ``z0_ladder``, the z_0 verdict behind the numeric
    biharmonic label; ``phi_grows``, which gates the ``ge_milnor`` tail's
    labels, and ``phi_nondecreasing``, the ``between`` and ``le_power``
    tails' biharmonic label; ``declared_tail`` and ``declared_verified``,
    whether the declared route may label; ``tail_fit_*``, the fit whose
    inferred inequality labels instead when no declaration verified; and
    each ``note``, why a label was withheld.
    """
    lines = [
        f"harmonic_regime = {report.harmonic_regime}",
        f"biharmonic_regime = {report.biharmonic_regime}",
        f"route = {report.route}",
        f"horizon = {fmt17(report.horizon)}",
        f"phi_ladder = {report.evidence.phi_verdict}",
        f"z0_ladder = {report.evidence.z_verdict}",
        f"phi_grows = {report.evidence.phi_grows}",
        f"phi_nondecreasing = {report.evidence.phi_nondecreasing}",
        f"declared_tail = {report.declared.kind if report.declared else 'none'}",
        f"declared_verified = {report.declared_verified}",
    ]
    if report.tail_fit is not None:
        lines.append(f"tail_fit_kind = {report.tail_fit.kind}")
        if report.tail_fit.exponent is not None:
            lines.append(f"tail_fit_exponent = {fmt17(report.tail_fit.exponent)}")
        if report.tail_fit.kappa is not None:
            lines.append(f"tail_fit_kappa = {fmt17(report.tail_fit.kappa)}")
        lines.append(f"tail_fit_residual = {fmt17(report.tail_fit.residual)}")
    for note in report.notes:
        lines.append(f"note = {note}")
    with open(txt_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
