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
the integration state is (Lambda, log w, z), advanced by LSODA, an
adaptive stiff-capable integrator, run from scipy's compiled ODEPACK
extension through ``_lsoda``. A pass yields one of two products.
Callers that name their radii (``biharmonic_mode`` at its grid nodes,
the evidence ladder and profile probes of ``asymptotics``) get the
states at exactly those radii from one compiled call, which steps from
one radius to the next. The disk problem, whose solution is read at
arbitrary points, gets a dense pass that keeps each step's interpolant.
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

Every caller reads the profile from its own pass, as log phi and
phi'/phi (``profile_rows``): ``biharmonic_mode`` keeps the tight pass's
rows at its grid nodes beside the modes, ``numeric_evidence`` reads its
probes from the classify pass, and ``verify_disk_solution`` its grid from
the dense disk pass. The residual checks difference against those rows
and check the rows against K(r) through the Riccati equation
(phi'/phi)' + (phi'/phi)^2 + K = 0 (``profile_residual``). No command
reads a profile evaluator; those of
``geometry.profile_from_curvature`` and of every built-in read a dense
pass of m = 0: this pass is the package's one ODE solve of the
profile, and every pass raises ConjugatePointError where phi returns
to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _lsoda
from ._util import write_csv
from .errors import ConjugatePointError, DomainError, QuadratureError
from .geometry import MetricProfile, RadialGrid
from .geometry import solve_ivp  # noqa: F401 -- patched by benchmarks/tracing.py
from .operators import sample_derivatives, separated_laplacian

__all__ = [
    "BiharmonicMode",
    "ResidualReport",
    "biharmonic_mode",
    "verify_mode_residuals",
    "profile_residual",
    "export_mode_csv",
]

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-11
RTOL_FLOOR = 1e-13      # a pass clamps a smaller rtol to this; LSODA would clamp it anyway
# Local step tolerances under-deliver globally by roughly the step
# count, so the pass meant to achieve the requested accuracy runs
# _DELIVER times tighter, and the reference pass _TIGHTEN times tighter
# still. The gap between the two is the reported per-node bound.
_DELIVER = 32.0
_TIGHTEN = 100.0
# The smallest requested rtol no pass clamps: mode_pass runs _TIGHTEN
# times tighter, the reference pass of biharmonic_mode _DELIVER * _TIGHTEN.
MODE_PASS_MIN_RTOL = RTOL_FLOOR * _TIGHTEN
BIHARMONIC_MODE_MIN_RTOL = RTOL_FLOOR * _DELIVER * _TIGHTEN
_BOUND_SAFETY = 8.0     # reported bounds may exceed the request by this factor
_ORIGIN_FRACTION = 0.5  # integration starts at min(1e-5, r_min * this)
_BLOWDOWN = 1e6         # phi'/phi below minus this marks the collapse of phi


# ----------------------------------------------------------------------
# mode containers
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BiharmonicMode:
    """The mode pair phi_m, psi_m = z phi_m as Lambda_m, z and log psi_m on a grid.

    ``quadrature_error`` bounds log psi_m per node; ``lam_error`` bounds
    Lambda_m = log phi_m alone. ``log_phi`` and ``dlog_phi`` hold log phi
    and phi'/phi of the profile at the nodes, as the pass that produced
    the modes integrated them from K(r).
    """

    m: int
    grid: RadialGrid
    lam: np.ndarray
    z: np.ndarray
    log_psi: np.ndarray
    quadrature_error: np.ndarray
    lam_error: np.ndarray
    log_phi: np.ndarray
    dlog_phi: np.ndarray

    def __post_init__(self):
        for name in ("lam", "z", "log_psi", "quadrature_error", "lam_error",
                     "log_phi", "dlog_phi"):
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


def _dense_outcome(solve):
    """The dense pass ``solve()`` runs, or the ``Stopped`` it raises."""
    try:
        return solve()
    except _lsoda.Stopped as exc:
        return exc


def _raise_if_collapsed(outcome):
    """Raise ConjugatePointError if phi collapses at a failed dense pass's last accepted step.

    That step is in the pass's ``Stopped``, or is the last finite column
    of its solution. There phi'/phi < -_BLOWDOWN means phi ~ c (R - r)
    vanishes just ahead, at R = r - 1/(phi'/phi).
    """
    if isinstance(outcome, _lsoda.Stopped):
        r, state = outcome.reached, outcome.state
    else:
        i = int(np.argmin(np.append(np.isfinite(outcome.y).all(axis=0), False))) - 1
        r, state = outcome.t[i], outcome.y[:, i]
    v = state[1] + 1.0 / r
    if v < -_BLOWDOWN:
        raise ConjugatePointError(r - 1.0 / v)


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
    t0 (if K(0) t0^2 >= 6, the pass raises ConjugatePointError at
    pi/sqrt(K(0))). Lambda is integrated from t0 with Lambda(t0) = 0 and
    shifted so that Lambda(1) = 0 afterwards; w and z are invariant under
    that shift. The mode seed uses phi(t) ~ t on [0, t0]: the inner integrand
    behaves like t^(1+2|m|), so w(t0) = t0/(2+2|m|) and z(t0) = t0^2/(4+4|m|).

    Given ``radii`` (in (t0, r_end], any order), one compiled call
    (``_lsoda.at_radii``) steps from each radius to the next and keeps
    the states there and at the anchor r = 1; any subset of those radii
    reads back exactly, and any other radius is refused. Without
    ``radii`` the pass keeps a dense solution (``_lsoda.dense``),
    readable anywhere in [t0, r_end]. Both drive the same LSODA with the
    same right-hand side, Jacobian and tolerances. A solve that stops,
    or reaches a non-finite state, raises ConjugatePointError where phi
    collapses to zero, and QuadratureError otherwise.

    ``inner_ratio`` takes the angular frequency m, which may be omitted
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
        m_ref = ms[-1]
        if m_ref and profile.r_max < 1.0:
            raise DomainError("mode normalization at r = 1 needs a profile valid up to r >= 1")
        r_end = min(r_end, profile.r_max)
        if r_end <= 0.0:
            raise DomainError("mode horizon must be positive")
        if t0 is None:
            t0 = min(1e-5, _ORIGIN_FRACTION * r_end)
        self.ms = tuple(ms)
        self.t0 = t0
        n = len(ms)
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
        if c <= 0.0:   # phi vanishes before t0, at pi/sqrt(K(0)) for the K(0) the series assumes
            raise ConjugatePointError(math.pi / math.sqrt(k0))
        y0 = [math.log(c), -k0 * t0 / (3.0 * c), 0.0,
              *[math.log(t0 / (2.0 + 2.0 * am)) for am in ms],
              *[t0 * t0 / (4.0 + 4.0 * am) for am in ms]]
        # Lambda is anchored at r = 1; a pass of m = 0 alone needs no anchor
        anchor = [1.0] if m_ref else []
        span_end = max([r_end, *anchor])
        rtol = max(rtol, RTOL_FLOOR)
        what = f"mode quadrature for m={', '.join(map(str, ms))}"
        self._radii = None
        if radii is not None:
            self._radii = np.union1d(np.asarray(radii, dtype=float), anchor)
            if not (self._radii[0] > t0 and self._radii[-1] <= span_end):
                raise DomainError(f"mode values only available on ({t0:g}, {span_end:g}]")

        def solve_dense():
            return _lsoda.dense(rhs, jac, y0, t0, span_end, rtol, atol)

        # a failed pass at named radii reruns densely, since only a dense
        # pass knows its last accepted step
        try:
            if radii is None:
                sol = solve_dense()
            else:
                sol = _lsoda.at_radii(rhs, jac, y0, np.concatenate(([t0], self._radii)),
                                      rtol, atol, tcrit=span_end)
        except _lsoda.Stopped as exc:
            _raise_if_collapsed(exc if radii is None else _dense_outcome(solve_dense))
            raise QuadratureError(f"{what} stopped: {exc.message}",
                                  worst_interval=(exc.reached, span_end)) from None
        # a NaN from K(r) fails no error test, so LSODA carries it to the
        # end of the pass and reports success
        bad = ~np.isfinite(sol.y).all(axis=0)
        if np.any(bad):
            _raise_if_collapsed(sol if radii is None else _dense_outcome(solve_dense))
            i = int(np.argmax(bad))
            raise QuadratureError(f"{what} reached a non-finite state at r = {sol.t[i]:.6g}",
                                  worst_interval=(float(sol.t[max(i - 1, 0)]), float(sol.t[i])))
        self._sol = sol
        # raw Lambda_ref at r = 1, the shift that normalizes phi_m(1) = 1
        self.lam_at_one = float(self._states(1.0)[_LAM]) if m_ref else 0.0

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
        if self._radii is not None:
            i = np.minimum(np.searchsorted(self._radii, r), self._radii.size - 1)
            if np.any(self._radii[i] != r):
                raise DomainError("this pass holds values only at the radii it was solved for")
            return self._sol.y[:, i]
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

    def lam_z(self, r):
        """(Lambda_m, z_m) at the radii r for every |m| in ``ms``, from one read.

        Row k of either array holds m = ms[k].
        """
        out = self._states(r)
        return self._lams(out), out[_W + len(self.ms):]

    def deviation_rows(self, r):
        """(log(phi/r), phi'/phi - 1/r) at the radii r: the profile states of this pass."""
        return self._states(r)[:_LAM]

    def profile_rows(self, r):
        """(log phi, phi'/phi) at the radii r, as this pass integrated them."""
        r = np.asarray(r, dtype=float)
        a, b = self.deviation_rows(r)
        return a + np.log(r), b + 1.0 / r


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


def _outward_max(err, nodes):
    """The running maximum of ``err`` taken outward from the anchor r = 1.

    Lambda_m is pinned to 0 at r = 1, so its error builds up away from
    there; the pointwise gap between two passes can pass through zero
    where the tight pass's own error does not. Nodes at or above 1 take
    the largest gap from the first such node up to them, nodes below 1
    the largest from the last such node down to them.
    """
    above = nodes >= 1.0
    out = np.empty_like(err)
    out[above] = np.maximum.accumulate(err[above])
    out[~above] = np.maximum.accumulate(err[~above][::-1])[::-1]
    return out


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
    Lambda_m alone. Lambda_m's share is the running maximum of the gap
    outward from r = 1, where Lambda_m is anchored. Each pass integrates
    the profile from K(r) itself, so the bounds cover the profile's error
    as well; the tight pass's profile rows are kept as ``log_phi`` and
    ``dlog_phi``.

    The reference pass runs rtol / 3200, and no pass runs below
    ``RTOL_FLOOR`` (1e-13): an rtol under ``BIHARMONIC_MODE_MIN_RTOL``
    (3.2e-10) is clamped there without a message, and the bound then
    measures the gap between two nearly equal passes.
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
    log_phi, dlog_phi = tight.profile_rows(nodes)

    out = []
    for mi in ms:
        am = abs(mi)
        k = tight.ms.index(am)
        # this m's share of the shift that normalizes Lambda_m(1) = 0
        shift = abs(tight.lam_at_one) * (am / tight.ms[-1]) if am else 0.0
        err_lam = _outward_max(_checked(lam_t[k], lam_l[k], np.abs(lam_t[k]) + shift,
                                        rtol, atol, nodes, f"Lambda_{mi} quadrature"), nodes)
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
            log_phi=log_phi,
            dlog_phi=dlog_phi,
        ))
    return out[0] if single else tuple(out)


def mode_pass(profile: MetricProfile, m, r_end: float,
              rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
              radii=None) -> _ModePass:
    """Mode solution for callers that sample many radii at once.

    ``m`` is one angular frequency or a sequence of them; a sequence is
    solved as one system whose frequencies share the profile rows and the
    K(r) evaluation of every right-hand-side call. The pass runs _TIGHTEN
    times tighter than the requested tolerances, its rtol clamped from
    below to ``RTOL_FLOOR`` (1e-13) without a message: any rtol under
    ``MODE_PASS_MIN_RTOL`` (1e-11) runs the pass of 1e-11. Given ``radii``
    it holds the values at those radii (any subset can be read back, no
    other radius); without, it holds a dense solution readable anywhere
    in [t0, r_end].
    """
    return _ModePass(profile, m, r_end, rtol / _TIGHTEN, atol / _TIGHTEN, radii=radii)


# ----------------------------------------------------------------------
# residual verification
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    """Largest scaled residuals of a mode pair over the interior grid nodes.

    ``harmonic`` is max |L_m phi_m| / max(1, phi_m) (eq4) and
    ``biharmonic`` is max |L_m psi_m - phi_m| / max(1, phi_m) (eq6).
    ``profile`` is max |v' + v^2 + K| / max(1, v^2, |K|) for the
    profile rows v = phi'/phi the modes were computed with.
    """

    harmonic: float
    biharmonic: float
    profile: float


_LINEAR_LAM_CAP = 300.0  # below this, exp(Lambda) is safely representable


def verify_mode_residuals(profile: MetricProfile, mode: BiharmonicMode) -> ResidualReport:
    """Check a mode pair against L_m phi_m = 0 and L_m psi_m = phi_m, and its profile against K.

    L_m is applied with the profile rows the mode carries (``log_phi``,
    ``dlog_phi``); phi is formed as r exp(log(phi/r)), so a flat profile
    gives phi = r exactly. No profile evaluator is read. Both residuals
    are divided by max(1, phi_m) and reported as maxima over the
    interior nodes. phi_m, and psi_m where phi_m is also small, are
    differenced in linear space (the stencils are then exact on
    low-degree polynomial modes); larger ones through the log form of
    ``separated_laplacian``, which stays representable.

    The rows themselves are checked against ``profile.k`` at the nodes:
    v = phi'/phi obeys v' + v^2 + K = 0, with v' differenced from the
    rows. The check therefore does not take the pass's word for the
    profile, and a mode checked against another surface's K fails it.
    """
    x = mode.grid.nodes
    if x.size < 5:
        raise DomainError("residual verification needs at least five nodes")
    v, log_phi = mode.dlog_phi, mode.log_phi
    phi_m = np.exp(np.minimum(mode.lam, 700.0))
    log_f = np.stack([mode.lam, mode.log_psi])   # log phi_m, log psi_m
    linear = np.max(log_f, axis=1) <= _LINEAR_LAM_CAP
    linear &= linear[0]   # psi_m's linear residual subtracts phi_m
    res = np.empty_like(log_f)
    if np.any(linear):
        with np.errstate(over="ignore"):
            phi = x * np.exp(log_phi - np.log(x))
        lap = separated_laplacian(mode.m, x, np.exp(log_f[linear]), v, phi=phi)
        target = np.stack([np.zeros_like(phi_m), phi_m])[linear]
        res[linear] = np.abs(lap - target) / np.maximum(1.0, phi_m)
    if not np.all(linear):
        ratio = separated_laplacian(mode.m, x, log_f[~linear], v, log_phi=log_phi)
        # (L f - target)/max(1, phi_m) = ((f/phi_m) L f/f - target/phi_m) min(phi_m, 1),
        # with f/phi_m = 1, z and target/phi_m = 0, 1 for phi_m, psi_m
        f_over_phi = np.stack([np.ones_like(phi_m), mode.z])[~linear]
        res[~linear] = (np.abs(f_over_phi * ratio - np.array([[0.0], [1.0]])[~linear])
                        * np.minimum(phi_m, 1.0))
    worst = np.max(res[:, 1:-1], axis=1)
    return ResidualReport(harmonic=float(worst[0]), biharmonic=float(worst[1]),
                          profile=profile_residual(profile, x, v))


def profile_residual(profile: MetricProfile, x: np.ndarray, v: np.ndarray) -> float:
    """max |v' + v^2 + K| / max(1, v^2, |K|) over the interior nodes x.

    v holds phi'/phi at the nodes as a pass integrated it; v' is
    differenced from those rows and K read from ``profile.k``. Since
    phi'' = -K phi gives v' + v^2 + K = 0, rows checked against another
    surface's K fail, whatever pass produced them.
    """
    if profile.k is None:
        raise DomainError("residual verification checks the profile against its "
                          "curvature; this profile has no scalar K(r) (MetricProfile.k)")
    k = np.array([profile.k(r) for r in x.tolist()], dtype=float)
    dv, _ = sample_derivatives(x, v)
    riccati = np.abs(dv + v * v + k) / np.maximum(np.maximum(1.0, v * v), np.abs(k))
    return float(np.max(riccati[1:-1]))


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------

def export_mode_csv(path, mode: BiharmonicMode) -> None:
    """Per-mode CSV: r, lambda_m, z, log_psi_m, err_bound."""
    write_csv(path, ["r", "lambda_m", "z", "log_psi_m", "err_bound"],
              [mode.grid.nodes, mode.lam, mode.z, mode.log_psi, mode.quadrature_error])
