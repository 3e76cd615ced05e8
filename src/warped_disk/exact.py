"""Exact surfaces: closed forms of surfaces given by their warp function phi.

A surface dr^2 + phi(r)^2 dtheta^2 given by phi has K = -phi''/phi, and
its modes follow from phi by quadrature:

    Lambda_1 = integral_1^r ds/phi,   w_0 = (1/phi) integral_0^r phi,
    z_0 = integral_0^r w_0,

with Lambda_m = |m| Lambda_1; z_0 is the radial solution of Delta u = 1
with u(0) = 0. Each ``ExactSurface`` holds K as a function of one float,
as the package takes it (``MetricProfile.k``), beside closed forms of
log phi, phi'/phi, Lambda_1, w_0 and z_0, and, where a test classifies
it, the regime labels the theory gives the surface. The closed forms take arrays of radii, and
stay finite where phi overflows doubles. This table is the package's one
copy of them: the tests and ``verify``'s closed-form suite check the
mode passes against it.

Loading this module loads no scipy module. Only ``ein`` and the
``exp_square`` forms built on E_1 import ``scipy.special``, inside the
function, so ``verify``, which reads the space forms alone, loads none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["ExactSurface", "space_form", "exp_square", "milnor_threshold", "ein"]


def _radii(r) -> np.ndarray:
    return np.asarray(r, dtype=float)


@dataclass(frozen=True)
class ExactSurface:
    """One surface given by phi: its K, its closed forms and its labels.

    ``k`` is K of one float. ``log_phi``, ``dlog_phi`` (= phi'/phi),
    ``lam1``, ``w0`` and ``z0`` take arrays of radii in (0, r_max);
    ``lam1``, ``w0`` and ``z0`` are None where no closed form is known,
    and a test then takes them by quadrature of phi. ``w_m`` and ``z_m``
    give w and z of every m as functions of (m, r) where a closed form
    is known for every m, and are None elsewhere. ``truth`` is the
    (harmonic, biharmonic) label pair the theory gives the surface, held
    where a test classifies the entry.
    """

    name: str
    k: Callable[[float], float]
    log_phi: Callable
    dlog_phi: Callable
    lam1: Callable | None
    w0: Callable | None
    z0: Callable | None
    r_max: float = math.inf
    w_m: Callable | None = None
    z_m: Callable | None = None
    truth: tuple[str, str] | None = None

    def lam(self, m, r) -> np.ndarray:
        """Lambda_m = |m| Lambda_1 at the radii r; m may be an array broadcast against r."""
        return np.abs(m) * self.lam1(r)


# ----------------------------------------------------------------------
# constant curvature
# ----------------------------------------------------------------------

def _log_cosh(x: np.ndarray) -> np.ndarray:
    """log cosh x for x >= 0, without overflow and without cancellation at small x."""
    small = np.minimum(x, 1.0)
    return np.where(x < 1.0, np.log1p(2.0 * np.sinh(small / 2.0) ** 2),
                    x + np.log1p(np.exp(-2.0 * x)) - math.log(2.0))


def space_form(k: float) -> ExactSurface:
    """The surface of constant curvature k: phi = sinh(s r)/s, r or sin(s r)/s, s = sqrt|k|.

    For k < 0, Lambda_1 = log tanh(s r/2) - log tanh(s/2),
    w_0 = tanh(s r/2)/s and z_0 = (2/s^2) log cosh(s r/2); for k > 0 the
    tan and cos forms below the zero of phi at pi/s (``r_max``), where the
    surface closes up; Lambda_1, anchored at r = 1, needs pi/s > 1 there.
    The plane has w_m = r/(2 + 2|m|) and z_m = r^2/(4 + 4|m|) for every m.
    """
    k = float(k)
    s = math.sqrt(abs(k))
    name = f"space-form(k={k:g})"

    def const(r):
        return k

    if k == 0.0:
        return ExactSurface(
            name=name, k=const,
            log_phi=lambda r: np.log(_radii(r)),
            dlog_phi=lambda r: 1.0 / _radii(r),
            lam1=lambda r: np.log(_radii(r)),
            w0=lambda r: _radii(r) / 2.0,
            z0=lambda r: _radii(r) ** 2 / 4.0,
            w_m=lambda m, r: _radii(r) / (2.0 + 2.0 * np.abs(m)),
            z_m=lambda m, r: _radii(r) ** 2 / (4.0 + 4.0 * np.abs(m)),
        )
    if k < 0.0:
        def log_phi(r):   # log(sinh(s r)/s) without overflow
            x = s * _radii(r)
            return x + np.log(-np.expm1(-2.0 * x)) - math.log(2.0 * s)

        return ExactSurface(
            name=name, k=const, log_phi=log_phi,
            dlog_phi=lambda r: s / np.tanh(s * _radii(r)),
            lam1=lambda r: np.log(np.tanh(s * _radii(r) / 2.0)) - math.log(math.tanh(s / 2.0)),
            w0=lambda r: np.tanh(s * _radii(r) / 2.0) / s,
            z0=lambda r: 2.0 / (s * s) * _log_cosh(s * _radii(r) / 2.0),
        )
    # log cos x = log1p(-2 sin^2(x/2)) keeps z_0 exact to rounding at small r
    return ExactSurface(
        name=name, k=const,
        log_phi=lambda r: np.log(np.sin(s * _radii(r)) / s),
        dlog_phi=lambda r: s / np.tan(s * _radii(r)),
        lam1=lambda r: np.log(np.tan(s * _radii(r) / 2.0)) - math.log(math.tan(s / 2.0)),
        w0=lambda r: np.tan(s * _radii(r) / 2.0) / s,
        z0=lambda r: -2.0 / (s * s) * np.log1p(-2.0 * np.sin(s * _radii(r) / 4.0) ** 2),
        r_max=math.pi / s,
    )


# ----------------------------------------------------------------------
# phi = r e^{r^2}
# ----------------------------------------------------------------------

def ein(x) -> np.ndarray:
    """Ein(x) = integral_0^x (1 - e^-t)/t dt = E_1(x) + log x + gamma.

    Below x = 1 the series sum_k (-1)^(k+1) x^k / (k k!) is summed, since
    E_1(x) + log x cancels there.
    """
    from scipy.special import exp1

    x = _radii(x)
    big, small = np.maximum(x, 1.0), np.minimum(x, 1.0)
    direct = exp1(big) + np.log(big) + np.euler_gamma
    term = small.copy()          # (-1)^(k+1) x^k / k! at k = 1
    series = small.copy()
    for k in range(2, 24):       # x^23 / (23 * 23!) < 1e-24 for x < 1
        term = -term * small / k
        series = series + term / k
    return np.where(x < 1.0, series, direct)


def _exp_square_lam1(r):
    from scipy.special import exp1

    r = _radii(r)
    return (exp1(1.0) - exp1(r * r)) / 2.0


# phi = r e^{r^2}, K = -6 - 4 r^2: hyperbolic, since Lambda_1(inf) = E_1(1)/2
# is finite, with z_0 unbounded, growing like (log r)/2
exp_square = ExactSurface(
    name="exp-square",
    k=lambda r: -6.0 - 4.0 * r * r,
    log_phi=lambda r: np.log(_radii(r)) + _radii(r) ** 2,
    dlog_phi=lambda r: 1.0 / _radii(r) + 2.0 * _radii(r),
    lam1=_exp_square_lam1,
    w0=lambda r: -np.expm1(-_radii(r) ** 2) / (2.0 * _radii(r)),
    z0=lambda r: ein(_radii(r) ** 2) / 4.0,
)


# ----------------------------------------------------------------------
# Milnor's threshold, exactly
# ----------------------------------------------------------------------

def milnor_threshold(kappa: float) -> ExactSurface:
    """phi = r u^kappa with u = 1 + log(1 + r^2)/2, on Milnor's threshold at kappa = 1.

    With U = 2 + log(1 + r^2),

        K = -2 kappa [(3 + r^2) U + 2 (kappa - 1) r^2] / ((1 + r^2)^2 U^2),

    smooth, with K(0) = -3 kappa and K r^2 log r -> -kappa. Lambda_1 grows
    like (log r)^(1 - kappa), and like log log r at kappa = 1, so kappa <= 1
    is parabolic and kappa > 1 hyperbolic; w_0 grows like r/2, so z_0 is
    unbounded for every kappa. Lambda_1, w_0 and z_0 have no closed form.
    """
    kappa = float(kappa)

    def k(r):
        q = 1.0 + r * r
        big_u = 2.0 + math.log1p(r * r)
        return (-2.0 * kappa * ((3.0 + r * r) * big_u + 2.0 * (kappa - 1.0) * r * r)
                / (q * q * big_u * big_u))

    def log_phi(r):
        r = _radii(r)
        return np.log(r) + kappa * np.log1p(0.5 * np.log1p(r * r))

    def dlog_phi(r):
        r = _radii(r)
        return 1.0 / r + kappa * r / ((1.0 + r * r) * (1.0 + 0.5 * np.log1p(r * r)))

    return ExactSurface(
        name=f"milnor-threshold(kappa={kappa:g})", k=k, log_phi=log_phi, dlog_phi=dlog_phi,
        lam1=None, w0=None, z0=None,
        # the label strings of asymptotics, written out so the table loads no classifier
        truth=(("parabolic", "rigid") if kappa <= 1.0
               else ("hyperbolic", "liouville_to_harmonic")),
    )
