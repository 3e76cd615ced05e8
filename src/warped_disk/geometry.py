"""Rotationally symmetric metric profiles.

A metric ``dr^2 + phi(r)^2 dtheta^2`` on the plane is determined by its
Gaussian curvature K(r) alone, through ``phi'' = -K phi`` from the origin
conditions ``phi(0) = 0, phi'(0) = 1``. Every profile here, the built-in
surfaces included, is that relation integrated as a dense mode pass of
m = 0 (``modes``), whose log-space state ``(log(phi/r), phi'/phi - 1/r)``
stays finite where phi itself overflows. K is a function of one float;
``sample_curvature`` maps it over an array of radii.
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
DEFAULT_R_MAX = 1200.0      # radius of validity of a built-in when r_max is not given


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

TAIL_KINDS = ("ge_milnor", "le_log_threshold", "between", "le_power")

# Relative slack for tail inequalities: built-in tails sit exactly on
# their bound, so strict comparison would fail on rounding.
_TAIL_SLACK = 1e-9


def _milnor_bound(r: np.ndarray) -> np.ndarray:
    """-1/(r^2 log r); only meaningful for r > 1."""
    return -1.0 / (r * r * np.log(r))


@dataclass(frozen=True)
class TailDescriptor:
    """An inequality on the curvature K beyond radius r0 > 1, of one of four kinds:

      ge_milnor        K >= -1/(r^2 log r)
      le_log_threshold K <= -(1+eps)/(r^2 log r)
      between          -eta r^2 <= K <= -(1+eps)/(r^2 log r)
      le_power         K <= -r^(2+eps)

    A built-in declares its tail; ``asymptotics`` checks Milnor's two
    (ge_milnor, le_log_threshold) when none verifies. Each labels only
    once ``verify`` has checked it on samples.
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
        if self.r0 <= 1.0:
            raise DomainError("tail declarations only make sense for r0 > 1")

    def holds_at(self, r: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Pointwise check of the declared inequality at radii r > r0, up to
        _TAIL_SLACK of the larger side of each comparison, at any scale of K."""
        r = np.asarray(r, dtype=float)
        k = np.asarray(k, dtype=float)

        def le(a, b):
            return a <= b + _TAIL_SLACK * np.maximum(np.abs(a), np.abs(b))

        if self.kind == "ge_milnor":
            return le(_milnor_bound(r), k)
        if self.kind == "le_power":
            return le(k, -(r ** (2.0 + self.eps)))
        upper = le(k, (1.0 + self.eps) * _milnor_bound(r))
        return upper & le(-self.eta * r * r, k) if self.kind == "between" else upper

    def verify(self, k: Callable, r_upper: float, n: int = 200) -> TailCheck:
        """Sample the inequality on K at n radii of (r0, r_upper]; none when r_upper <= r0."""
        if r_upper <= self.r0:
            return TailCheck(ok=False, n_checked=0)
        radii = np.geomspace(self.r0 * (1.0 + 1e-9), r_upper, n)
        vals = sample_curvature(k, radii)
        if not np.all(np.isfinite(vals)):
            return TailCheck(ok=False, n_checked=n, first_violation=float(radii[~np.isfinite(vals)][0]))
        good = self.holds_at(radii, vals)
        if np.all(good):
            return TailCheck(ok=True, n_checked=n)
        return TailCheck(ok=False, n_checked=n, first_violation=float(radii[~good][0]))


@dataclass(frozen=True)
class TailCheck:
    ok: bool
    n_checked: int
    first_violation: float | None = None


def sample_curvature(k: Callable, radii) -> np.ndarray:
    """K of one float mapped over ``radii``, as a float array.

    K is called at Python floats with numpy's floating-point warnings
    off, and a float OverflowError reads as inf: an overflowing K gives
    a non-finite sample, never a RuntimeWarning; a non-callable K is a DomainError.
    """
    if not callable(k):
        raise DomainError("curvature must be a callable K(r) of one float")

    def at(r):
        try:
            return k(r)
        except OverflowError:
            return math.inf

    with np.errstate(all="ignore"):
        return np.array([at(r) for r in np.asarray(radii, dtype=float).tolist()], dtype=float)


@dataclass(frozen=True)
class CurvatureProfile:
    """A record of K and its declared tail, if any.

    ``k`` is K of one float, as ``MetricProfile.k`` is (a built-in's is
    the same function); array callers map it with ``sample_curvature``.
    ``tail.verify(k, r)`` checks the tail on samples.
    """

    k: Callable
    tail: TailDescriptor | None = None


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
    a float (no numpy, so a right-hand side can call it every step);
    array callers map it with ``sample_curvature``. The mode passes
    integrate phi from it together with the modes and read none of the
    four evaluators; the evidence probes and both residual checks read
    the passes' own profile rows, and ``verify`` checks those rows
    against ``exact``'s closed forms. So no source line reads an
    evaluator. They remain for explicit reads by library callers, the
    tests and the benchmark's tracer. A profile without ``k`` serves
    only such reads; mode passes refuse it. A built-in solves its
    profile at the first read of an evaluator (see ``builtin_profile``).
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

def _check_curvature_ivp(k_fn: Callable, r_max: float,
                         step_control: tuple[float, float]) -> tuple[float, float]:
    """Refuse a curvature IVP that cannot start; returns (rtol, atol).

    Checks the tolerances, that r_max lies beyond the origin step, and
    that K is finite at 64 radii spread geometrically over
    [ORIGIN_STEP, r_max] (``sample_curvature``): an overflowing K (a
    float OverflowError, or inf/nan from numpy) is a DomainError, never
    a RuntimeWarning.
    """
    rtol, atol = float(step_control[0]), float(step_control[1])
    if rtol <= 0.0 or atol <= 0.0:
        raise DomainError("step_control tolerances must be positive")
    if not ORIGIN_STEP < r_max:
        raise DomainError(f"r_max must exceed the origin step {ORIGIN_STEP:g}")
    if not np.all(np.isfinite(sample_curvature(k_fn, np.geomspace(ORIGIN_STEP, r_max, 64)))):
        raise DomainError("curvature is not finite on (0, r_max]")
    return rtol, atol


solve_ivp = None  # patched by benchmarks/tracing.py; every ODE runs through _lsoda


def _pass_profile(k: Callable, r_max: float, rtol: float, atol: float,
                  name: str) -> tuple[MetricProfile, Callable]:
    """A profile whose evaluators read one dense mode pass of m = 0, and its solve.

    ``solution()`` runs the pass at its first call, which the first read
    of an evaluator makes, and returns the same pass after. The pass
    carries (a, b) = (log(phi/r), phi'/phi - 1/r) from h0 = ORIGIN_STEP,
    seeded by the series phi ~ h0 - K(0) h0^3/6; K = 0 keeps both 0.
    The evaluators give phi = r e^a, phi' = e^a (1 + r b),
    log phi = a + log r and phi'/phi = b + 1/r, the series below h0, and
    read radii beyond r_max at r_max. Where phi and phi' overflow doubles
    they read inf, without a RuntimeWarning.
    """
    from . import modes   # modes imports this module

    h0, r_hi = ORIGIN_STEP, float(r_max)
    k0 = k(0.0)

    @functools.cache
    def solution():
        return modes._ModePass(profile, 0, r_hi, rtol, atol, t0=h0)

    def rows(r):
        """(r clipped to r_max, a, b); a and b from the series below h0."""
        r = np.minimum(np.asarray(r, dtype=float), r_hi)
        s = np.minimum(r, h0)
        c = 1.0 - k0 * s * s / 6.0
        a, b = solution().deviation_rows(np.maximum(r, h0))
        return r, np.where(r < h0, np.log(c), a), np.where(r < h0, -k0 * s / (3.0 * c), b)

    def phi(r):
        r, a, _ = rows(r)
        with np.errstate(over="ignore"):
            return r * np.exp(a)

    def phi_prime(r):
        r, a, b = rows(r)
        with np.errstate(over="ignore"):
            return np.exp(a) * (1.0 + r * b)

    def log_phi(r):
        r, a, _ = rows(r)
        return a + np.log(r)

    def dlog_phi(r):
        r, _, b = rows(r)
        return b + 1.0 / r

    profile = MetricProfile(phi=phi, phi_prime=phi_prime, log_phi=log_phi, dlog_phi=dlog_phi,
                            r_max=r_hi, name=name, k=k)
    return profile, solution


def profile_from_curvature(
    k: Callable,
    r_max: float,
    step_control: tuple[float, float] = (DEFAULT_RTOL, DEFAULT_ATOL),
    name: str = "",
) -> MetricProfile:
    """Integrate phi'' = -K phi with phi(0) = 0, phi'(0) = 1; K takes one float.

    One dense mode pass of m = 0 at ``step_control``, solved here and
    read by the evaluators (``_pass_profile``). Raises ConjugatePointError
    when phi collapses to zero at some positive radius, and a
    QuadratureError (an IntegrationError) when the solver gives up.
    """
    rtol, atol = _check_curvature_ivp(k, r_max, step_control)
    profile, solution = _pass_profile(lambda r: float(k(r)), r_max, rtol, atol,
                                      name or "curvature-integrated")
    solution()
    return profile


# ----------------------------------------------------------------------
# built-in surfaces
# ----------------------------------------------------------------------

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


def k_only_surface(name: str, k: Callable, r_max: float) -> Surface:
    """A surface of K alone, valid to r_max, with no declared tail and no evaluators."""
    metric = MetricProfile(phi=None, phi_prime=None, log_phi=None, dlog_phi=None, r_max=r_max, k=k)
    return Surface(name, metric, CurvatureProfile(k=k))


# K of three families, blended at r0 as the built-ins are: -kappa/(r^2 log r)
# is parabolic up to kappa = 1, -r^2 (log r)^p has z_0 bounded exactly when
# p > 2, and -a(a-1)/r^2 (phi ~ r^a) is hyperbolic for every a > 1
_FAMILY_TAILS = {"kappa": (2.0, lambda c: lambda r: -c / (r * r * math.log(r))),
                 "p": (3.0, lambda p: lambda r: -r * r * math.log(r) ** p),
                 "a": (2.0, lambda a: lambda r: -a * (a - 1.0) / (r * r))}


def family_surface(family: str, value: float, r_max: float = DEFAULT_R_MAX) -> Surface:
    """The K-only surface of one family of _FAMILY_TAILS ("kappa", "p" or "a") at one value."""
    r0, tail = _FAMILY_TAILS[family]
    return k_only_surface(f"{family}={value:g}", _blended_curvature(tail(value), r0), r_max)


# the parameters each built-in family takes; any other is refused
_BUILTIN_PARAMS = {"euclidean": (), "hyperbolic": (), "log-threshold": ("eps", "r0"),
                   "power-curvature": ("eps", "r0"), "quadratic-curvature": ("eta", "r0")}


def builtin_profile(
    name: str,
    eps: float | None = None,
    eta: float | None = None,
    r0: float | None = None,
    r_max: float = DEFAULT_R_MAX,
    step_control: tuple[float, float] = (DEFAULT_RTOL, DEFAULT_ATOL),
) -> Surface:
    """Construct one of the named surfaces from its curvature.

      euclidean                    K = 0
      hyperbolic                   K = -1
      log-threshold(eps, r0)       K -> -(1+eps)/(r^2 log r),  r0 >= 2
      power-curvature(eps, r0)     K -> -r^(2+eps)
      quadratic-curvature(eta, r0) K -> -eta r^2

    The last three are capped and blended onto their tail. A parameter
    the family does not take (eps, eta or r0 outside its parentheses
    above) is a DomainError, as is an unknown name.

    Each family gives only its scalar K, its declared tail and its
    label; the surface's ``metric.k`` and ``curvature.k`` are that one
    K. Construction checks the step control, r_max and the finiteness
    of K as ``profile_from_curvature`` does, but solves no profile: the
    first read of an evaluator runs the pass ``profile_from_curvature``
    would, valid on (0, r_max], and later reads reuse it (concurrent
    first reads may solve twice, to the same result). Commands read only
    ``k``. Built-in K is at most 0, so phi has no conjugate point; the
    deferred solve can only raise a QuadratureError (an IntegrationError).
    """
    key = name.strip().lower().replace("_", "-")
    if key not in _BUILTIN_PARAMS:
        raise DomainError(f"unknown built-in profile {name!r}")
    extra = [p for p, v in (("eps", eps), ("eta", eta), ("r0", r0))
             if v is not None and p not in _BUILTIN_PARAMS[key]]
    if extra:
        takes = ", ".join(_BUILTIN_PARAMS[key]) or "no parameter"
        raise DomainError(f"{key} does not take {' or '.join(extra)} (it takes {takes})")
    for param, value in (("eps", eps), ("eta", eta)):
        if param in _BUILTIN_PARAMS[key] and (value is None or value <= 0.0):
            raise DomainError(f"{key} needs {param} > 0")

    label = key
    if key == "euclidean":
        k, declared = (lambda r: 0.0), TailDescriptor("ge_milnor", r0=2.0)
    elif key == "hyperbolic":
        k, declared = (lambda r: -1.0), TailDescriptor("between", r0=2.0, eps=1.0, eta=1.0)
    else:
        r0 = (2.0 if key == "log-threshold" else 1.0) if r0 is None else float(r0)
        if r0 <= 0.0:
            raise DomainError(f"{key} needs r0 > 0")
        if key == "log-threshold":
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
            e = float(eps)

            def tail(r):
                return -(r ** (2.0 + e))

            declared = TailDescriptor("le_power", r0=max(r0, 1.0 + 1e-6), eps=e)
            label = f"power-curvature(eps={e:g}, r0={r0:g})"
        else:   # quadratic-curvature
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
        k = _blended_curvature(tail, r0)
    rtol, atol = _check_curvature_ivp(k, r_max, step_control)
    metric, _ = _pass_profile(k, r_max, rtol, atol, label)
    return Surface(label, metric, CurvatureProfile(k=k, tail=declared))


# ----------------------------------------------------------------------
# file formats
# ----------------------------------------------------------------------

_PROFILE_KEYS = {("profile", "name"): str,
                 **{("profile", key): float for key in ("eps", "eta", "r0", "r_max")}}


def read_profile_file(path) -> Surface:
    """A built-in surface from a key-value file: one ``[profile]`` section of
    ``name`` (required), ``eps``, ``eta``, ``r0`` and ``r_max``; any other key is a DomainError.
    """
    values = {key: value for _, key, value in read_key_values(path, _PROFILE_KEYS, "profile")}
    if "name" not in values:
        raise DomainError(f"{path}: a profile definition file needs a [profile] name")
    return builtin_profile(
        values["name"],
        eps=values.get("eps"),
        eta=values.get("eta"),
        r0=values.get("r0"),
        r_max=values.get("r_max", DEFAULT_R_MAX),
    )
