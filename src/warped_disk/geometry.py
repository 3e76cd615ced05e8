"""Rotationally symmetric metric profiles.

A metric ``dr^2 + phi(r)^2 dtheta^2`` on the plane is determined by its
warp function ``phi``. This module constructs profiles either from
closed-form warp functions (flat plane, hyperbolic plane) or by
integrating the curvature relation ``phi'' = -K phi`` from the origin
conditions ``phi(0) = 0, phi'(0) = 1`` as a dense mode pass of m = 0
(``modes``), whose log-space state ``(log(phi/r), phi'/phi - 1/r)``
stays finite where phi itself overflows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._util import read_key_values
from ._util import write_csv  # noqa: F401 -- patched by benchmarks/tracing.py
from .errors import DomainError

__all__ = [
    "RadialGrid",
    "MetricProfile",
    "CurvatureProfile",
    "TailDescriptor",
    "Surface",
    "profile_from_curvature",
    "builtin_profile",
    "read_profile_file",
]

# Default controls for the curvature IVP.
DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12
ORIGIN_STEP = 1e-6          # integration starts here, seeded by a series
ANALYTIC_R_MAX = 1.0e6


# ----------------------------------------------------------------------
# grids
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing radii r_0 < r_1 < ... < r_N with N >= 2."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 3:
            raise DomainError("a radial grid needs at least three nodes")
        if not np.all(np.diff(nodes) > 0.0):
            raise DomainError("grid nodes must be strictly increasing")
        if nodes[0] < 0.0:
            raise DomainError("grid nodes must be nonnegative")
        nodes = nodes.copy()
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def uniform(cls, a: float, b: float, n: int) -> "RadialGrid":
        return cls(np.linspace(a, b, n))

    @classmethod
    def geometric(cls, a: float, b: float, n: int) -> "RadialGrid":
        if a <= 0.0:
            raise DomainError("geometric grids must start at a positive radius")
        return cls(np.geomspace(a, b, n))

    def __len__(self) -> int:
        return self.nodes.size

    @property
    def r_min(self) -> float:
        return float(self.nodes[0])

    @property
    def r_max(self) -> float:
        return float(self.nodes[-1])


# ----------------------------------------------------------------------
# curvature descriptions
# ----------------------------------------------------------------------

TAIL_KINDS = ("ge_milnor", "le_log_threshold", "between", "le_power", "custom")

# Relative slack for tail inequalities: built-in tails sit exactly on
# their bound, so strict comparison would fail on rounding.
_TAIL_SLACK = 1e-9


def _milnor_bound(r: np.ndarray) -> np.ndarray:
    """-1/(r^2 log r); only meaningful for r > 1."""
    return -1.0 / (r * r * np.log(r))


@dataclass(frozen=True)
class TailDescriptor:
    """Declared asymptotic class of a curvature function beyond radius r0.

    kind:
      ge_milnor        K >= -1/(r^2 log r)
      le_log_threshold K <= -(1+eps)/(r^2 log r)
      between          -eta r^2 <= K <= -(1+eps)/(r^2 log r)
      le_power         K <= -r^(2+eps)
      custom           no machine-checkable inequality
    """

    kind: str
    r0: float
    eps: float | None = None
    eta: float | None = None

    def __post_init__(self):
        if self.kind not in TAIL_KINDS:
            raise DomainError(f"unknown tail kind {self.kind!r}")
        if self.kind in ("le_log_threshold", "between", "le_power") and (
            self.eps is None or self.eps <= 0.0
        ):
            raise DomainError(f"tail kind {self.kind!r} needs eps > 0")
        if self.kind == "between" and (self.eta is None or self.eta <= 0.0):
            raise DomainError("tail kind 'between' needs eta > 0")
        if self.kind != "custom" and self.r0 <= 1.0:
            raise DomainError("tail declarations only make sense for r0 > 1")

    def holds_at(self, r: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Pointwise check of the declared inequality at radii r > r0."""
        r = np.asarray(r, dtype=float)
        k = np.asarray(k, dtype=float)
        slack = _TAIL_SLACK * np.maximum(1.0, np.abs(k))
        if self.kind == "ge_milnor":
            return k >= _milnor_bound(r) - slack
        if self.kind == "le_log_threshold":
            return k <= (1.0 + self.eps) * _milnor_bound(r) + slack
        if self.kind == "between":
            lower = -self.eta * r * r
            upper = (1.0 + self.eps) * _milnor_bound(r)
            return (k >= lower - slack) & (k <= upper + slack)
        if self.kind == "le_power":
            return k <= -(r ** (2.0 + self.eps)) + slack
        return np.ones_like(k, dtype=bool)  # custom: nothing to check


@dataclass(frozen=True)
class TailCheck:
    ok: bool
    n_checked: int
    first_violation: float | None = None


@dataclass(frozen=True)
class CurvatureProfile:
    """A Gaussian curvature function K(r) with an optional declared tail."""

    k: Callable
    tail: TailDescriptor | None = None
    name: str = ""

    def __call__(self, r):
        return self.k(r)

    def verify_tail(self, r_upper: float, n: int = 200) -> TailCheck:
        """Sample the declared inequality on (r0, r_upper]; never assume it."""
        if self.tail is None or self.tail.kind == "custom":
            return TailCheck(ok=False, n_checked=0)
        lo = self.tail.r0 * (1.0 + 1e-9)
        if r_upper <= lo:
            return TailCheck(ok=False, n_checked=0)
        radii = np.geomspace(lo, r_upper, n)
        vals = np.asarray(self.k(radii), dtype=float)
        if not np.all(np.isfinite(vals)):
            return TailCheck(ok=False, n_checked=n, first_violation=float(radii[~np.isfinite(vals)][0]))
        good = self.tail.holds_at(radii, vals)
        if np.all(good):
            return TailCheck(ok=True, n_checked=n)
        return TailCheck(ok=False, n_checked=n, first_violation=float(radii[~good][0]))


# ----------------------------------------------------------------------
# metric profiles
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MetricProfile:
    """The warp function of a rotationally symmetric metric.

    ``phi`` and ``phi_prime`` evaluate the warp function and its
    derivative on (0, r_max]; ``log_phi`` and ``dlog_phi``
    (= phi'/phi) stay finite where phi itself overflows. All evaluators
    accept scalars or arrays and are pure, so profiles are safe to share
    across threads. ``name`` labels the surface in reports.

    ``k`` is the Gaussian curvature K(r) = -phi''/phi of one float r, as
    a float (no numpy, so a right-hand side can call it every step). The
    mode passes integrate phi from it together with the modes and read
    none of the four evaluators; the evidence probes and both residual
    checks read the passes' own profile rows. So ``classify``, ``modes``
    and ``bvp`` read no evaluator. They remain for the ``verify`` suites
    (the stencil suite's phi'' consistency check and the round trip)
    and for explicit reads by library callers. A profile without ``k``
    serves only those reads; mode passes refuse it.

    The evaluators of a curvature-integrated built-in run its profile's
    dense mode pass when one of them is first read and reuse it after (see
    ``builtin_profile``); a profile that is never read costs no solve.
    Threads that read such a profile for the first time at once may each
    run the same solve; every run gives the same profile, so the race
    is harmless.
    """

    phi: Callable
    phi_prime: Callable
    log_phi: Callable
    dlog_phi: Callable
    r_max: float
    name: str = ""
    k: Callable | None = None

    def require_radius(self, r: float) -> float:
        r = float(r)
        if not (0.0 < r <= self.r_max * (1.0 + 1e-12)):
            raise DomainError(
                f"radius {r!r} outside the profile domain (0, {self.r_max:g}]"
            )
        return min(r, self.r_max)


@dataclass(frozen=True)
class Surface:
    """A named pairing of a metric profile with its curvature function."""

    name: str
    metric: MetricProfile
    curvature: CurvatureProfile


# ----------------------------------------------------------------------
# curvature -> profile integration (a dense mode pass)
# ----------------------------------------------------------------------

def _as_curvature_callable(curvature) -> Callable:
    if isinstance(curvature, CurvatureProfile):
        return curvature.k
    if callable(curvature):
        return curvature
    raise DomainError("curvature must be a CurvatureProfile or a callable K(r)")


def _check_curvature_ivp(k_fn: Callable, r_max: float,
                         step_control: tuple[float, float]) -> tuple[float, float]:
    """Refuse a curvature IVP that cannot start; returns (rtol, atol).

    Checks the tolerances, that r_max lies beyond the origin step, and
    that K is finite at 64 radii spread geometrically over
    [ORIGIN_STEP, r_max]. K is probed at Python floats with numpy's
    floating-point warnings off: an overflowing K (a float OverflowError,
    or inf/nan from numpy) is a DomainError, never a RuntimeWarning.
    """
    rtol, atol = float(step_control[0]), float(step_control[1])
    if rtol <= 0.0 or atol <= 0.0:
        raise DomainError("step_control tolerances must be positive")
    if not ORIGIN_STEP < r_max:
        raise DomainError(f"r_max must exceed the origin step {ORIGIN_STEP:g}")
    try:
        with np.errstate(all="ignore"):
            kp = np.asarray([k_fn(r) for r in np.geomspace(ORIGIN_STEP, r_max, 64).tolist()],
                            dtype=float)
    except OverflowError:
        kp = np.array([math.inf])
    if not np.all(np.isfinite(kp)):
        raise DomainError("curvature is not finite on (0, r_max]")
    return rtol, atol


solve_ivp = None  # patched by benchmarks/tracing.py; every ODE runs through _lsoda


def profile_from_curvature(
    curvature,
    r_max: float,
    step_control: tuple[float, float] = (DEFAULT_RTOL, DEFAULT_ATOL),
    name: str = "",
) -> MetricProfile:
    """Integrate phi'' = -K phi with phi(0) = 0, phi'(0) = 1.

    One dense mode pass of m = 0 (``modes._ModePass``) at ``step_control``
    carries (a, b) = (log(phi/r), phi'/phi - 1/r) from h0 = ORIGIN_STEP,
    seeded by the series phi ~ h0 - K(0) h0^3/6; K = 0 keeps both exactly
    0. The evaluators give phi = r e^a, phi' = e^a (1 + r b),
    log phi = a + log r and phi'/phi = b + 1/r, the series below h0, and
    radii beyond r_max read at r_max.

    Raises ConjugatePointError when phi collapses to zero at some
    positive radius, and a QuadratureError (an IntegrationError) when the
    solver gives up.
    """
    from . import modes   # modes imports this module

    k_fn = _as_curvature_callable(curvature)
    rtol, atol = _check_curvature_ivp(k_fn, r_max, step_control)
    h0, r_hi = ORIGIN_STEP, float(r_max)
    k0 = float(k_fn(0.0))

    def rows(r):
        """(r clipped to r_max, a, b); a and b from the series below h0."""
        r = np.minimum(np.asarray(r, dtype=float), r_hi)
        s = np.minimum(r, h0)
        c = 1.0 - k0 * s * s / 6.0
        a, b = solution.deviation_rows(np.maximum(r, h0))
        return r, np.where(r < h0, np.log(c), a), np.where(r < h0, -k0 * s / (3.0 * c), b)

    def phi(r):
        r, a, _ = rows(r)
        return r * np.exp(a)

    def phi_prime(r):
        r, a, b = rows(r)
        return np.exp(a) * (1.0 + r * b)

    def log_phi(r):
        r, a, _ = rows(r)
        return a + np.log(r)

    def dlog_phi(r):
        r, _, b = rows(r)
        return b + 1.0 / r

    profile = MetricProfile(
        phi=phi,
        phi_prime=phi_prime,
        log_phi=log_phi,
        dlog_phi=dlog_phi,
        r_max=r_hi,
        name=name or getattr(curvature, "name", "") or "curvature-integrated",
        k=lambda r: float(k_fn(r)),
    )
    # the evaluators above read this pass, solved from the profile's own k
    solution = modes._ModePass(profile, 0, r_hi, rtol, atol, t0=h0)
    return profile


# ----------------------------------------------------------------------
# built-in surfaces
# ----------------------------------------------------------------------

def _euclidean_profile() -> MetricProfile:
    return MetricProfile(
        phi=lambda r: np.asarray(r, dtype=float) + 0.0,
        phi_prime=lambda r: np.ones_like(np.asarray(r, dtype=float)),
        log_phi=lambda r: np.log(r),
        dlog_phi=lambda r: 1.0 / np.asarray(r, dtype=float),
        r_max=ANALYTIC_R_MAX,
        name="euclidean",
        k=lambda r: 0.0,
    )


def _log_sinh(r):
    # log sinh r without overflow: r + log((1 - e^{-2r})/2)
    r = np.asarray(r, dtype=float)
    return r + np.log1p(-np.exp(-2.0 * r)) - math.log(2.0)


def _coth(r):
    r = np.asarray(r, dtype=float)
    out = np.ones_like(r)
    mod = r < 20.0
    out[mod] = 1.0 / np.tanh(r[mod])
    return out


def _sinh_safe(r):
    r = np.asarray(r, dtype=float)
    with np.errstate(over="ignore"):
        return np.sinh(r)


def _cosh_safe(r):
    r = np.asarray(r, dtype=float)
    with np.errstate(over="ignore"):
        return np.cosh(r)


def _hyperbolic_profile() -> MetricProfile:
    return MetricProfile(
        phi=_sinh_safe,
        phi_prime=_cosh_safe,
        log_phi=_log_sinh,
        dlog_phi=_coth,
        r_max=ANALYTIC_R_MAX,
        name="hyperbolic",
        k=lambda r: -1.0,
    )


def _blended_curvature(tail: Callable, r0: float) -> Callable:
    """Scalar K: constant cap on [0, r0], C^2 quintic blend on [r0, r0+1], tail beyond.

    The cap equals the tail value at r0+1, so the curvature is constant
    on the inner region and exactly the declared formula outside.
    ``tail`` takes and returns a float.
    """
    cap = tail(r0 + 1.0)

    def k(r):
        if r <= r0:
            return cap
        if r >= r0 + 1.0:
            return tail(r)
        x = r - r0
        s = x**3 * (10.0 - 15.0 * x + 6.0 * x * x)
        return (1.0 - s) * cap + s * tail(r)

    return k


def builtin_profile(
    name: str,
    eps: float | None = None,
    eta: float | None = None,
    r0: float | None = None,
    r_max: float = 1200.0,
    step_control: tuple[float, float] = (DEFAULT_RTOL, DEFAULT_ATOL),
) -> Surface:
    """Construct one of the named surfaces.

    euclidean / hyperbolic come with closed-form warp functions. The
    three curvature families are built from a capped-and-blended tail
    and integrated:

      log-threshold(eps, r0)       K -> -(1+eps)/(r^2 log r),  r0 >= 2
      power-curvature(eps, r0)     K -> -r^(2+eps)
      quadratic-curvature(eta, r0) K -> -eta r^2

    For those three, construction checks the step control, r_max and
    the finiteness of K as ``profile_from_curvature`` does, and sets the
    scalar ``k`` the mode passes integrate from, but solves no profile:
    the four evaluators run ``profile_from_curvature`` (a dense mode pass)
    with the same arguments when one of them is first read, and every
    later read reuses that pass (concurrent first reads may solve twice,
    to the same result). Commands that read only ``k`` never pay for the
    solve. Built-in K is negative on [0, inf), so phi'' = -K phi > 0 and
    phi has no conjugate point; the only error the deferred solve can
    raise at the first read is a QuadratureError (an IntegrationError).
    """
    key = name.strip().lower().replace("_", "-")
    if key == "euclidean":
        metric = _euclidean_profile()
        curv = CurvatureProfile(
            k=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
            tail=TailDescriptor("ge_milnor", r0=2.0),
            name="euclidean",
        )
        return Surface("euclidean", metric, curv)

    if key == "hyperbolic":
        metric = _hyperbolic_profile()
        curv = CurvatureProfile(
            k=lambda r: np.full_like(np.asarray(r, dtype=float), -1.0),
            tail=TailDescriptor("between", r0=2.0, eps=1.0, eta=1.0),
            name="hyperbolic",
        )
        return Surface("hyperbolic", metric, curv)

    if key == "log-threshold":
        if eps is None or eps <= 0.0:
            raise DomainError("log-threshold needs eps > 0")
        r0 = 2.0 if r0 is None else float(r0)
        if r0 < 2.0:
            raise DomainError("log-threshold needs r0 >= 2 (the tail is singular at log r = 0)")
        e = float(eps)

        def tail(r):
            return -(1.0 + e) / (r * r * math.log(r))

        # the tail also sits above every -eta r^2 bound, so the
        # two-sided declaration is the informative one
        declared = TailDescriptor("between", r0=r0 + 1.0, eps=e, eta=1.0)
        label = f"log-threshold(eps={e:g}, r0={r0:g})"
    elif key == "power-curvature":
        if eps is None or eps <= 0.0:
            raise DomainError("power-curvature needs eps > 0")
        r0 = 1.0 if r0 is None else float(r0)
        if r0 <= 0.0:
            raise DomainError("power-curvature needs r0 > 0")
        e = float(eps)

        def tail(r):
            return -(r ** (2.0 + e))

        declared = TailDescriptor("le_power", r0=max(r0, 1.0 + 1e-6), eps=e)
        label = f"power-curvature(eps={e:g}, r0={r0:g})"
    elif key == "quadratic-curvature":
        if eta is None or eta <= 0.0:
            raise DomainError("quadratic-curvature needs eta > 0")
        r0 = 1.0 if r0 is None else float(r0)
        if r0 <= 0.0:
            raise DomainError("quadratic-curvature needs r0 > 0")
        et = float(eta)

        def tail(r):
            return -et * r * r

        # -eta r^2 falls below the log-threshold bound only once
        # eta r^4 log r > 1 + eps; declare the band from there on
        r_decl = max(r0 + 1.0, 2.0)
        while et * r_decl**4 * math.log(r_decl) < 2.02 and r_decl < 1e3:
            r_decl *= 1.05
        declared = TailDescriptor("between", r0=r_decl, eps=1.0, eta=et)
        label = f"quadratic-curvature(eta={et:g}, r0={r0:g})"
    else:
        raise DomainError(f"unknown built-in profile {name!r}")

    # one scalar K drives the profile IVP (and, through MetricProfile.k,
    # the mode passes); the curvature's array form maps it over its input
    k = _blended_curvature(tail, r0)
    curv = CurvatureProfile(k=np.vectorize(k, otypes=[float]), tail=declared, name=label)
    _check_curvature_ivp(k, r_max, step_control)

    @functools.cache
    def solved() -> MetricProfile:
        return profile_from_curvature(k, r_max=r_max, step_control=step_control, name=label)

    def evaluator(field: str) -> Callable:
        return lambda r: getattr(solved(), field)(r)

    metric = MetricProfile(
        phi=evaluator("phi"),
        phi_prime=evaluator("phi_prime"),
        log_phi=evaluator("log_phi"),
        dlog_phi=evaluator("dlog_phi"),
        r_max=float(r_max),
        name=label,
        k=k,
    )
    return Surface(label, metric, curv)


# ----------------------------------------------------------------------
# file formats
# ----------------------------------------------------------------------

_PROFILE_KEYS = {("profile", "name"): str,
                 **{("profile", key): float for key in ("eps", "eta", "r0", "r_max", "rtol", "atol")}}


def read_profile_file(path) -> Surface:
    """Build a surface from a key-value profile definition file."""
    values = {key: value for _, key, value in read_key_values(path, _PROFILE_KEYS, "profile")}
    if "name" not in values:
        raise DomainError(f"{path}: a profile definition file needs a [profile] name")
    return builtin_profile(
        values["name"],
        eps=values.get("eps"),
        eta=values.get("eta"),
        r0=values.get("r0"),
        r_max=values.get("r_max", 1200.0),
        step_control=(values.get("rtol", DEFAULT_RTOL), values.get("atol", DEFAULT_ATOL)),
    )
