"""Discrete radial operators.

The Laplacian of a separated function f(r) e^{i m theta} reduces to

    L_m f = f'' + (phi'/phi) f' - (m^2/phi^2) f.

This module applies L_m to sampled radial functions with three-point
finite differences (exact on quadratics, second order on uniform grids),
in linear form or, for g = log f of a positive f that may overflow, as
L_m f / f = g'' + g'^2 + (phi'/phi) g' - m^2/phi^2. It also provides a sample-based checker for the Sturm comparison lemma:
if f''/f <= h''/h on r > a and f'/f <= h'/h at a, then f'/f <= h'/h on
r > a.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import write_csv
from .errors import DomainError
from .geometry import MetricProfile, RadialGrid

__all__ = [
    "RadialFunctionSamples",
    "SturmReport",
    "separated_laplacian",
    "radial_laplacian_apply",
    "sturm_compare",
    "sample_derivatives",
    "export_residual_csv",
]


@dataclass(frozen=True)
class RadialFunctionSamples:
    """Values of a radial function on a grid.

    ``representation`` is "linear" (values are f) or "logarithmic"
    (values are log f, for positive f that may overflow doubles).
    """

    grid: RadialGrid
    values: np.ndarray
    representation: str = "linear"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.nodes.shape:
            raise DomainError("values and grid must have the same length")
        if self.representation not in ("linear", "logarithmic"):
            raise DomainError(f"unknown representation {self.representation!r}")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def log_values(self) -> np.ndarray:
        """log f, validating positivity for linear-represented samples."""
        if self.representation == "logarithmic":
            return self.values
        if np.any(self.values <= 0.0):
            raise DomainError("log representation requires positive samples")
        return np.log(self.values)

    def linear_values(self) -> np.ndarray:
        if self.representation == "linear":
            return self.values
        return np.exp(self.values)


def sample_derivatives(x: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives of samples on a (possibly nonuniform) grid.

    Interior nodes use the three-point formulas that are exact on
    quadratics; each endpoint uses a cubic fit through its four nearest
    nodes, which keeps the boundary values second-order accurate.
    """
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    n = x.size
    if n < 5:
        raise DomainError("need at least five nodes for the stencils")
    if not np.all(np.isfinite(f)):
        raise DomainError("samples must be finite")
    d1 = np.empty(n)
    d2 = np.empty(n)
    hm = x[1:-1] - x[:-2]
    hp = x[2:] - x[1:-1]
    # divided-difference form: exactly zero on constants, which the
    # expanded three-point weights are not on strongly graded grids
    sm = (f[1:-1] - f[:-2]) / hm
    sp = (f[2:] - f[1:-1]) / hp
    d1[1:-1] = (hp * sm + hm * sp) / (hm + hp)
    d2[1:-1] = 2.0 * (sp - sm) / (hm + hp)
    for idx, sl in ((0, slice(0, 4)), (-1, slice(-4, None))):
        x0 = x[idx]
        coeffs = np.polyfit(x[sl] - x0, f[sl], 3)
        d1[idx] = coeffs[2]
        d2[idx] = 2.0 * coeffs[1]
    return d1, d2


def separated_laplacian(
    m: int, x: np.ndarray, f: np.ndarray, dlog_phi: np.ndarray,
    phi: np.ndarray | None = None, log_phi: np.ndarray | None = None,
) -> np.ndarray:
    """L_m applied to samples on the nodes x, the one place L_m is coded.

    ``dlog_phi`` holds phi'/phi on the nodes. Given ``phi``, f holds
    linear samples and the result is L_m f. Given ``log_phi`` instead, f
    holds g = log f and the result is L_m f / f = g'' + g'^2 +
    (phi'/phi) g' - m^2/phi^2, which stays representable where f
    overflows.
    """
    d1, d2 = sample_derivatives(x, f)
    if log_phi is not None:
        return d2 + d1 * d1 + dlog_phi * d1 - (m * m) * np.exp(-2.0 * np.minimum(log_phi, 350.0))
    with np.errstate(over="ignore"):  # phi^2 = inf gives m^2/phi^2 = 0, its limit
        return d2 + dlog_phi * d1 - (m * m) / (phi * phi) * f


def radial_laplacian_apply(
    profile: MetricProfile, m: int, f: RadialFunctionSamples
) -> RadialFunctionSamples:
    """Apply the separated Laplacian L_m to sampled f.

    Returns linear-represented samples of L_m f on the same grid.
    For m != 0 the grid must stay away from r = 0 where m^2/phi^2 blows
    up.
    """
    grid = f.grid
    x = grid.nodes
    if len(grid) < 5:
        raise DomainError("radial_laplacian_apply needs at least five nodes")
    if m != 0 and x[0] <= 0.0:
        raise DomainError("grids for m != 0 must exclude r = 0")
    if x[0] <= 0.0:
        raise DomainError("the radial operator is evaluated on r > 0")
    if x[-1] > profile.r_max * (1.0 + 1e-12):
        raise DomainError("grid extends beyond the profile's radius of validity")

    vals = f.linear_values()
    if not np.all(np.isfinite(vals)):
        raise DomainError("samples must be finite")
    v = np.asarray(profile.dlog_phi(x), dtype=float)
    phi = np.asarray(profile.phi(x), dtype=float)
    out = separated_laplacian(m, x, vals, v, phi=phi)
    return RadialFunctionSamples(grid=grid, values=out, representation="linear")


# ----------------------------------------------------------------------
# Sturm comparison checker
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SturmReport:
    """Sample-based evaluation of the comparison lemma on a shared grid.

    Hypotheses: f''/f <= h''/h for r > a, and f'/f <= h'/h at r = a.
    Conclusion: f'/f <= h'/h for r > a. ``consistent`` is False only if
    the hypotheses hold on every node but the conclusion fails somewhere,
    which would contradict the lemma beyond discretization error.
    """

    radii: np.ndarray
    curvature_ordering: np.ndarray      # per node, r > a
    conclusion_ordering: np.ndarray     # per node, r > a
    slope_ordering_at_start: bool
    hypotheses_hold: bool
    conclusion_holds: bool
    first_violation: float | None
    tolerance: np.ndarray

    @property
    def consistent(self) -> bool:
        return (not self.hypotheses_hold) or self.conclusion_holds


def _fd_tolerance(x: np.ndarray, d1: np.ndarray, floor: float) -> np.ndarray:
    """Per-node acceptance for FD comparisons: max(floor, C h^2).

    The centered first-derivative error is h^2 g'''/6; |g'''| is
    estimated from second differences of the computed derivative, with
    a generous safety factor.
    """
    n = x.size
    if n < 9:
        return np.full(n, max(floor, 1e-6))
    dd = np.zeros(n)
    dd[1:-1] = np.abs(d1[2:] - 2.0 * d1[1:-1] + d1[:-2])
    dd[0] = dd[1]
    dd[-1] = dd[-2]
    h = np.gradient(x)
    c_est = dd / np.maximum(h, 1e-300) ** 2  # ~ |g'''|
    return np.maximum(floor, 4.0 * c_est * h**2)


def sturm_compare(
    f: RadialFunctionSamples,
    h: RadialFunctionSamples,
    a: float | None = None,
    floor: float = 1e-6,
) -> SturmReport:
    """Check the comparison lemma's hypotheses and conclusion on samples.

    Both inputs must be positive functions sampled on the same grid
    starting at ``a`` (default: the first node). Derivative ratios are
    formed from log samples: f'/f = (log f)', f''/f = (log f)'' + ((log f)')^2,
    so the check stays finite for rapidly growing functions. Tolerances
    scale with the local h^2 discretization error.
    """
    if f.grid.nodes.shape != h.grid.nodes.shape or not np.allclose(
        f.grid.nodes, h.grid.nodes, rtol=0.0, atol=0.0
    ):
        raise DomainError("sturm_compare needs both samples on the same grid")
    x = f.grid.nodes
    if a is None:
        a = float(x[0])
    if not np.isclose(x[0], a):
        raise DomainError("the grid must start at the comparison radius a")

    gf = f.log_values()
    gh = h.log_values()
    d1f, d2f = sample_derivatives(x, gf)
    d1h, d2h = sample_derivatives(x, gh)
    ratio2_f = d2f + d1f * d1f     # f''/f
    ratio2_h = d2h + d1h * d1h
    tol = np.maximum(_fd_tolerance(x, d1f, floor), _fd_tolerance(x, d1h, floor))
    # second-derivative ratios difference twice, so allow a larger error
    tol2 = 8.0 * tol

    interior = slice(1, None)  # the lemma speaks about r > a
    curv_ok = ratio2_f[interior] <= ratio2_h[interior] + tol2[interior]
    slope_ok = bool(d1f[0] <= d1h[0] + tol[0])
    concl_ok = d1f[interior] <= d1h[interior] + tol[interior]

    hypotheses = slope_ok and bool(np.all(curv_ok))
    conclusion = bool(np.all(concl_ok))
    first_violation = None
    if not conclusion:
        first_violation = float(x[interior][~concl_ok][0])
    return SturmReport(
        radii=x,
        curvature_ordering=curv_ok,
        conclusion_ordering=concl_ok,
        slope_ordering_at_start=slope_ok,
        hypotheses_hold=hypotheses,
        conclusion_holds=conclusion,
        first_violation=first_violation,
        tolerance=tol,
    )


def export_residual_csv(path, radii: np.ndarray, residuals: np.ndarray) -> None:
    write_csv(path, ["r", "residual"], zip(map(float, radii), map(float, residuals)))
