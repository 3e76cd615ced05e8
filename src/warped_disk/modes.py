"""Radial harmonic and biharmonic modes in overflow-safe log space.

For angular frequency m, the non-singular radial harmonic mode is

    phi_m(r) = exp(Lambda_m(r)),   Lambda_m(r) = |m| * integral_1^r ds/phi(s),

and reduction of order produces a biharmonic partner psi_m = z * phi_m
with L_m psi_m = phi_m, where

    z(r) = integral_0^r w(s) ds,
    w(s) = [phi(s) phi_2m(s)]^{-1} * integral_0^s phi(t) phi_2m(t) dt,

and phi_2m = exp(2 Lambda_m). On surfaces with steeply negative
curvature, phi and the inner integral overflow doubles long before the
quantities of interest do, so everything is accumulated in scaled form:
the integration state is (Lambda, log w, z), advanced by an adaptive
stiff-capable integrator whose dense output serves as the quadrature.
The same solve integrates the profile itself, as log(phi/r) and
phi'/phi - 1/r, from the curvature K(r) of ``MetricProfile.k``: each
step evaluates K once and reads no profile interpolant, and each pass
carries its own profile error. Since Lambda_m is |m| times a profile
integral that does not depend on m, one solve carries (log w, z) for
every requested |m| beside a single Lambda. Every entry point solves
its set of m this way, a single m included; ``biharmonic_mode`` solves
it twice, the gap bounding the error.
The inner ratio w is exactly the quantity whose growth or decay drives
the Liouville-type dichotomies, so it is exposed alongside the modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import LSODA, solve_ivp

from ._util import write_csv
from .errors import DomainError, QuadratureError
from .geometry import MetricProfile, RadialGrid
from .operators import sample_derivatives  # noqa: F401 -- patched by benchmarks/tracing.py
from .operators import separated_laplacian

__all__ = [
    "BiharmonicMode",
    "ResidualReport",
    "biharmonic_mode",
    "verify_mode_residuals",
    "export_mode_csv",
]

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-11
# Local step tolerances under-deliver globally by roughly the step
# count, so the pass meant to achieve the requested accuracy runs
# _DELIVER times tighter, and the reference pass _TIGHTEN times tighter
# still. The gap between the two is the reported per-node bound.
_DELIVER = 32.0
_TIGHTEN = 100.0
_BOUND_SAFETY = 8.0     # reported bounds may exceed the request by this factor
_ORIGIN_FRACTION = 0.5  # integration starts at min(1e-5, r_min * this)


# ----------------------------------------------------------------------
# mode containers
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BiharmonicMode:
    """The mode pair phi_m, psi_m = z phi_m as Lambda_m, z and log psi_m on a grid.

    ``quadrature_error`` bounds log psi_m per node; ``lam_error`` bounds
    Lambda_m = log phi_m alone.
    """

    m: int
    grid: RadialGrid
    lam: np.ndarray
    z: np.ndarray
    log_psi: np.ndarray
    quadrature_error: np.ndarray
    lam_error: np.ndarray

    def __post_init__(self):
        for name in ("lam", "z", "log_psi", "quadrature_error", "lam_error"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != self.grid.nodes.shape:
                raise DomainError("mode arrays must match the grid length")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        lam, z = self.lam, self.z
        if self.m != 0 and np.any(np.diff(lam) < -1e-9 * np.maximum(1.0, np.abs(lam[:-1]))):
            raise DomainError("Lambda_m must be nondecreasing")
        if self.m == 0 and np.any(lam != 0.0):
            raise DomainError("Lambda_0 vanishes identically")
        if np.any(z <= 0.0):
            raise DomainError("the reduction factor is positive for r > 0")
        if np.any(np.diff(z) < -1e-12 * z[:-1]):
            raise DomainError("the reduction factor is nondecreasing")


# ----------------------------------------------------------------------
# the quadrature pass
# ----------------------------------------------------------------------

# rows of the pass state: the profile's two flat deviations, Lambda_ref,
# then log w_m for each |m| and z_m for each |m|
_LAM = 2
_W = 3


class _AnchoredLSODA(LSODA):
    """LSODA recording Lambda_ref at r = 1 as a dense solution reads it, even when none is kept."""

    def __init__(self, *args, at_one: list, **kwargs):
        super().__init__(*args, **kwargs)
        self._at_one = at_one

    def step(self):
        message = super().step()
        if self.status != "failed" and self.t_old < 1.0 <= self.t:
            self._at_one.append(float(self.dense_output()(1.0)[_LAM]))
        return message


class _ModePass:
    """Solution of the profile and the (Lambda, log w_m, z_m) system for a set of |m|.

    One adaptive solve, driven by the curvature K(r) alone, carries the
    profile and every requested |m|. The state is

        (log(phi/s), phi'/phi - 1/s, Lambda_ref, log w_m for each m, z_m for each m),

    where the first two obey log(phi/s)' = b and b' = -K - b (b + 2/s)
    for b = phi'/phi - 1/s: deviations from the flat profile, so K = 0
    keeps them exactly 0. Lambda_ref is Lambda of the largest requested
    |m| and Lambda_m = (|m|/m_ref) Lambda_ref. Each right-hand-side call
    evaluates K once and reads no profile interpolant, so the loose and
    tight passes of ``biharmonic_mode`` each carry their own profile
    error and their gap bounds it. With a single |m| the mode rows are
    exactly the per-frequency (Lambda_m, log w, z) system.

    The profile starts from the origin series phi(t) ~ t - K(0) t^3/6 at
    t0. Lambda is integrated from t0 with Lambda(t0) = 0 and shifted so
    that Lambda(1) = 0 afterwards; w and z are invariant under that
    shift. The mode seed uses phi(t) ~ t on [0, t0]: the inner integrand
    behaves like t^(1+2|m|), so w(t0) = t0/(2+2|m|) and z(t0) = t0^2/(4+4|m|).

    Given ``radii`` (increasing, in (t0, r_end]), only the states there
    are kept instead of a dense solution, which saves memory.

    The accessors take the angular frequency m, which may be omitted
    when the pass holds only one.
    """

    def __init__(self, profile: MetricProfile, m, r_end: float,
                 rtol: float, atol: float, t0: float | None = None, radii=None):
        ms = sorted({abs(int(k)) for k in ([m] if np.isscalar(m) else m)})
        if not ms:
            raise DomainError("a mode pass needs at least one angular frequency")
        k_of = profile.k
        if k_of is None:
            raise DomainError("a mode pass integrates the profile from its curvature; "
                              "this profile has no scalar K(r) (MetricProfile.k)")
        r_end = float(r_end)
        if r_end > profile.r_max * (1.0 + 1e-12):
            raise DomainError("mode grid extends beyond the profile's radius of validity")
        if profile.r_max < 1.0:
            raise DomainError("mode normalization at r = 1 needs a profile valid up to r >= 1")
        r_end = min(r_end, profile.r_max)
        if r_end <= 0.0:
            raise DomainError("mode horizon must be positive")
        if t0 is None:
            t0 = min(1e-5, _ORIGIN_FRACTION * r_end)
        self.ms = tuple(ms)
        self.t0 = t0
        n = len(ms)
        m_ref = ms[-1]
        self._lam_scale = np.array(ms) / max(m_ref, 1)   # Lambda_m / Lambda_ref per row
        slots = [(k, 2.0 * am) for k, am in enumerate(ms, start=_W)]
        exp = math.exp

        # Python floats, written over the state list in place: for a
        # handful of states, numpy slicing and ufuncs would cost more
        # than the arithmetic. The right-hand side does not read
        # Lambda_ref or z.
        def rhs(s, y):
            out = y.tolist()
            a, b = out[0], out[1]
            inv_s = 1.0 / s
            e = exp(-a) * inv_s      # 1/phi
            v = b + inv_s            # phi'/phi
            out[0] = b
            out[1] = -k_of(s) - b * (b + 2.0 * inv_s)
            out[_LAM] = m_ref * e
            for k, two_m in slots:
                lw = out[k]
                out[k] = exp(-lw) - (v + two_m * e)
                out[k + n] = exp(lw)
            return out

        def jac(s, y):
            out = np.zeros((_W + 2 * n, _W + 2 * n))
            a, b = float(y[0]), float(y[1])
            inv_s = 1.0 / s
            e = exp(-a) * inv_s
            out[0, 1] = 1.0
            out[1, 1] = -2.0 * (b + inv_s)
            out[_LAM, 0] = -m_ref * e
            for k, two_m in slots:
                lw = float(y[k])
                out[k, 0] = two_m * e
                out[k, 1] = -1.0
                out[k, k] = -exp(-lw)
                out[k + n, k] = exp(lw)
            return out

        k0 = k_of(0.0)
        c = 1.0 - k0 * t0 * t0 / 6.0     # phi(t0) / t0 from the origin series
        y0 = [math.log(c), -k0 * t0 / (3.0 * c), 0.0,
              *[math.log(t0 / (2.0 + 2.0 * am)) for am in ms],
              *[t0 * t0 / (4.0 + 4.0 * am) for am in ms]]
        span_end = max(r_end, 1.0)  # Lambda is anchored at r = 1
        rtol = max(rtol, 1e-13)     # below this the solver clamps anyway
        at_one = []
        sol = solve_ivp(rhs, (t0, span_end), y0, method=_AnchoredLSODA, at_one=at_one,
                        rtol=rtol, atol=atol, jac=jac,
                        dense_output=radii is None, t_eval=radii)
        if sol.status != 0:
            raise QuadratureError(
                f"mode quadrature for m={', '.join(map(str, ms))} stopped: {sol.message}",
                worst_interval=(float(sol.t[-1]), span_end),
            )
        self._sol = sol.sol
        self._radii = radii
        self._samples = None if radii is None else sol.y
        # raw Lambda_ref at r = 1, the shift that normalizes phi_m(1) = 1
        self.lam_at_one = at_one[0] if at_one else 0.0

    def _index(self, m) -> int:
        if m is None:
            if len(self.ms) != 1:
                raise DomainError(f"this pass holds m = {self.ms}; name the one wanted")
            return 0
        am = abs(int(m))
        if am not in self.ms:
            raise DomainError(f"m = {m} is not in this pass (m = {self.ms})")
        return self.ms.index(am)

    def _states(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self._sol is None:
            if not np.array_equal(r, self._radii):
                raise DomainError("this pass holds values only at the radii it was solved for")
            return self._samples
        if np.any(r < self.t0 * (1.0 - 1e-12)):
            raise DomainError(f"mode values only available for r >= {self.t0:g}")
        return self._sol(np.maximum(r, self.t0))

    def _lams(self, states) -> np.ndarray:
        """Lambda_m for every |m| in ``ms`` (row k holds m = ms[k]); Lambda_0 is +0.0."""
        lam = np.multiply.outer(self._lam_scale, states[_LAM] - self.lam_at_one)
        lam[self._lam_scale == 0.0] = 0.0   # 0 times a negative Lambda_ref is -0.0
        return lam

    def inner_ratio(self, r, m=None):
        """w(r): the scaled inner integral the growth lemmas are about."""
        return np.exp(self._states(r)[_W + self._index(m)])

    def all_values(self, r, m=None):
        """(Lambda_m, w_m, z_m) at the radii r."""
        k = self._index(m)
        out = self._states(r)
        return self._lams(out)[k], np.exp(out[_W + k]), out[_W + len(self.ms) + k]

    def lam_z(self, r):
        """(Lambda_m, z_m) at the radii r for every |m| in ``ms``, from one read.

        Row k of either array holds m = ms[k].
        """
        out = self._states(r)
        return self._lams(out), out[_W + len(self.ms):]


# Dense-output interpolation error is not controlled by the step
# tolerances and can dominate when both passes take similar steps; the
# reported bound is floored by this times the state magnitude.
_DENSE_FLOOR = 5e-12


def _checked(values_tight, values_loose, magnitude, rtol, atol, nodes, what):
    err = np.abs(values_tight - values_loose)
    floor = np.maximum(atol, _DENSE_FLOOR * (1.0 + np.abs(magnitude)))
    allowed = _BOUND_SAFETY * np.maximum(atol, rtol * np.maximum(np.abs(magnitude), 1.0))
    bad = err > np.maximum(allowed, floor)
    if np.any(bad):
        i = int(np.argmax(err / np.maximum(allowed, floor)))
        lo = nodes[max(0, i - 1)]
        raise QuadratureError(
            f"{what} did not converge to the requested tolerance",
            worst_interval=(float(lo), float(nodes[i])),
        )
    return np.maximum(err, floor)


def biharmonic_mode(
    profile: MetricProfile,
    m,
    grid: RadialGrid,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> BiharmonicMode | tuple[BiharmonicMode, ...]:
    """Compute phi_m and psi_m = z * phi_m as (Lambda_m, z, log psi_m) on the grid.

    ``m`` is one angular frequency (giving one ``BiharmonicMode``) or a
    sequence (giving a tuple of modes in its order), solved as one system.
    Lambda_m = |m| * integral_1^r ds/phi is signed (negative for r < 1)
    and normalized so that phi_m(1) = 1. Per-node error bounds come from
    comparing the requested-tolerance pass against one two orders
    tighter: ``quadrature_error`` for log psi_m, ``lam_error`` for
    Lambda_m alone. Each pass integrates the profile from K(r) itself,
    so the bounds cover the profile's error as well.
    """
    if rtol <= 0.0 or atol <= 0.0:
        raise DomainError("quadrature tolerances must be positive")
    if grid.r_min <= 0.0:
        raise DomainError("mode grids must stay inside (0, r_max]")
    single = np.isscalar(m)
    ms = [int(m)] if single else [int(k) for k in m]
    nodes = grid.nodes
    t0 = min(1e-5, _ORIGIN_FRACTION * grid.r_min)
    lam_l, z_l = _ModePass(profile, ms, grid.r_max, rtol / _DELIVER, atol / _DELIVER,
                           t0=t0, radii=nodes).lam_z(nodes)
    tight = _ModePass(profile, ms, grid.r_max, rtol / (_DELIVER * _TIGHTEN),
                      atol / (_DELIVER * _TIGHTEN), t0=t0, radii=nodes)
    lam_t, z_t = tight.lam_z(nodes)

    out = []
    for mi in ms:
        am = abs(mi)
        k = tight.ms.index(am)
        # this m's share of the shift that normalizes Lambda_m(1) = 0
        shift = abs(tight.lam_at_one) * (am / tight.ms[-1]) if am else 0.0
        err_lam = _checked(lam_t[k], lam_l[k], np.abs(lam_t[k]) + shift,
                           rtol, atol, nodes, f"Lambda_{mi} quadrature")
        err_z = _checked(z_t[k], z_l[k], z_t[k], rtol, atol, nodes,
                         f"reduction factor quadrature (m={mi})")
        out.append(BiharmonicMode(
            m=mi,
            grid=grid,
            lam=lam_t[k],
            z=z_t[k],
            log_psi=lam_t[k] + np.log(z_t[k]),
            quadrature_error=err_lam + err_z / np.maximum(z_t[k], 1e-300),
            lam_error=np.zeros_like(err_lam) if am == 0 else err_lam,
        ))
    return out[0] if single else tuple(out)


def mode_pass(profile: MetricProfile, m, r_end: float,
              rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> _ModePass:
    """Dense mode solution for callers that sample many radii at once.

    ``m`` is one angular frequency or a sequence of them; a sequence is
    solved as one system whose frequencies share the profile rows and the
    K(r) evaluation of every right-hand-side call. The pass runs _TIGHTEN
    times tighter than the requested tolerances.
    """
    return _ModePass(profile, m, r_end, rtol / _TIGHTEN, atol / _TIGHTEN)


# ----------------------------------------------------------------------
# residual verification
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    """Largest scaled residuals of a mode pair over the interior grid nodes.

    ``harmonic`` is max |L_m phi_m| / max(1, phi_m) (eq4) and
    ``biharmonic`` is max |L_m psi_m - phi_m| / max(1, phi_m) (eq6).
    """

    harmonic: float
    biharmonic: float


_LINEAR_LAM_CAP = 300.0  # below this, exp(Lambda) is safely representable


def verify_mode_residuals(profile: MetricProfile, mode: BiharmonicMode) -> ResidualReport:
    """Check a mode pair against L_m phi_m = 0 and L_m psi_m = phi_m.

    Both residuals are divided by max(1, phi_m) and reported as maxima
    over the interior nodes. phi_m, and psi_m where phi_m is also small,
    are differenced in linear space (the stencils are then exact on
    low-degree polynomial modes); larger ones through the log form of
    ``separated_laplacian``, which stays representable.
    """
    x = mode.grid.nodes
    if x.size < 5:
        raise DomainError("residual verification needs at least five nodes")
    v = np.asarray(profile.dlog_phi(x), dtype=float)
    phi_m = np.exp(np.minimum(mode.lam, 700.0))
    log_f = np.stack([mode.lam, mode.log_psi])   # log phi_m, log psi_m
    linear = np.max(log_f, axis=1) <= _LINEAR_LAM_CAP
    linear &= linear[0]   # psi_m's linear residual subtracts phi_m
    res = np.empty_like(log_f)
    if np.any(linear):
        with np.errstate(over="ignore"):
            phi = np.asarray(profile.phi(x), dtype=float)
        lap = separated_laplacian(mode.m, x, np.exp(log_f[linear]), v, phi=phi)
        target = np.stack([np.zeros_like(phi_m), phi_m])[linear]
        res[linear] = np.abs(lap - target) / np.maximum(1.0, phi_m)
    if not np.all(linear):
        log_phi = np.asarray(profile.log_phi(x), dtype=float)
        ratio = separated_laplacian(mode.m, x, log_f[~linear], v, log_phi=log_phi)
        # (L f - target)/max(1, phi_m) = ((f/phi_m) L f/f - target/phi_m) min(phi_m, 1),
        # with f/phi_m = 1, z and target/phi_m = 0, 1 for phi_m, psi_m
        f_over_phi = np.stack([np.ones_like(phi_m), mode.z])[~linear]
        res[~linear] = (np.abs(f_over_phi * ratio - np.array([[0.0], [1.0]])[~linear])
                        * np.minimum(phi_m, 1.0))
    worst = np.max(res[:, 1:-1], axis=1)
    return ResidualReport(harmonic=float(worst[0]), biharmonic=float(worst[1]))


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------

def export_mode_csv(path, mode: BiharmonicMode) -> None:
    """Per-mode CSV: r, lambda_m, z, log_psi_m, err_bound."""
    rows = zip(
        map(float, mode.grid.nodes),
        map(float, mode.lam),
        map(float, mode.z),
        map(float, mode.log_psi),
        map(float, mode.quadrature_error),
    )
    write_csv(path, ["r", "lambda_m", "z", "log_psi_m", "err_bound"], rows)
