"""ODEPACK's LSODA from scipy's compiled extension, without importing scipy.integrate.

Every mode pass runs LSODA, and LSODA is all the package needs from
``scipy.integrate``. Importing ``scipy.integrate`` imports the whole
subpackage, ``scipy.special`` and ``scipy.optimize`` with it, which is
most of every command's start-up time and memory. This module loads the
one extension LSODA lives in, ``scipy/integrate/_odepack<suffix>``, by
path: ``importlib.util.find_spec("scipy")`` finds scipy's directory
without importing scipy, and ``importlib.machinery.ExtensionFileLoader``
loads the file. When that load fails (no such file, or a scipy laid out
otherwise), ``scipy.integrate._odepack`` is imported the normal way:
the same extension, only with the full import.

The extension's entry points are scipy's private API, and this is the
only module that knows them. It calls them with the argument values
scipy's public wrappers pass, so ``at_radii`` gives bitwise the output
of ``scipy.integrate.odeint`` and ``dense`` that of ``solve_ivp(...,
method="LSODA", dense_output=True)``; the tests pin both, and the
fallback import, rather than a scipy version.

Both drivers take ``rhs(t, y)`` and ``jac(t, y)`` and raise ``Stopped``
when LSODA gives up, with ODEPACK's reason in the words of scipy's
message table. Each solution carries LSODA's own work counters: steps
(``nst``), right-hand-side calls (``nfe``) and Jacobians (``nje``).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path

import numpy as np

_NAME = "scipy.integrate._odepack"


def _load_by_path():
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed as a package directory")
    folder = Path(spec.submodule_search_locations[0]) / "integrate"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_odepack{suffix}"
        if path.is_file():
            loader = importlib.machinery.ExtensionFileLoader(_NAME, str(path))
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(_NAME, path, loader=loader))
            loader.exec_module(module)
            return module
    raise ImportError(f"no _odepack extension in {folder}")


def _load():
    """The ODEPACK extension: loaded by path, else through ``scipy.integrate``."""
    try:
        return _load_by_path()
    except (ImportError, OSError):
        from scipy.integrate import _odepack
        return _odepack


_odepack = _load()

# ODEPACK's return codes (istate), as scipy.integrate.odeint words them
_MESSAGES = {
    2: "Integration successful.",
    1: "Nothing was done; the integration time was 0.",
    -1: "Excess work done on this call (perhaps wrong Dfun type).",
    -2: "Excess accuracy requested (tolerances too small).",
    -3: "Illegal input detected (internal error).",
    -4: "Repeated error test failures (internal error).",
    -5: "Repeated convergence failures (perhaps bad Jacobian or tolerances).",
    -6: "Error weight became zero during problem.",
    -7: "Internal workspace insufficient to finish (internal error).",
    -8: "Run terminated (internal error).",
}

# odeint's per-call step cap, 500 by default; between two far-apart
# radii a long pass needs more, and solve_ivp has no cap at all
_MXSTEP = 1_000_000_000
# method orders, odeint's and solve_ivp's defaults: Adams up to 12, BDF up to 5
_MXORDN, _MXORDS = 12, 5


class Stopped(Exception):
    """LSODA gave up: ``message`` says why, ``reached`` is the last radius it reached."""

    def __init__(self, istate: int, reached: float):
        self.message = _MESSAGES.get(istate, f"unexpected istate {istate}")
        self.reached = float(reached)
        super().__init__(self.message)


@dataclass(frozen=True)
class Solution:
    """States ``y[:, i]`` at the radii ``t[i]``, and LSODA's work counters.

    A dense solution also holds each step's interpolant, ``(t, h, p, yh)``
    for the step ending at t, and reads anywhere on its span when called.
    """

    t: np.ndarray
    y: np.ndarray
    nst: int
    nfe: int
    nje: int
    steps: tuple = ()

    def __call__(self, r):
        """The states at r, a scalar or a 1-d array, as ``OdeSolution`` reads them.

        A radius on a step end reads the step after it, as ``OdeSolution``
        does for LSODA (``alt_segment=True``); radii beyond the span
        extrapolate the first or last step.
        """
        r = np.asarray(r)
        last = len(self.steps) - 1
        if r.ndim == 0:
            return self._read(min(max(np.searchsorted(self.t, r, side="right") - 1, 0), last), r)
        order = np.argsort(r)
        reverse = np.empty_like(order)
        reverse[order] = np.arange(order.shape[0])
        r_sorted = r[order]
        segments = np.clip(np.searchsorted(self.t, r_sorted, side="right") - 1, 0, last)
        ys = []
        start = 0
        for segment, group in groupby(segments.tolist()):
            end = start + len(list(group))
            ys.append(self._read(segment, r_sorted[start:end]))
            start = end
        return np.hstack(ys)[:, reverse]

    def _read(self, i, r):
        # LsodaDenseOutput: the Nordsieck array at the step end, in powers of (r - t)/h
        t, h, p, yh = self.steps[i]
        x = ((r - t) / h) ** (p if r.ndim == 0 else p[:, None])
        return np.dot(yh, x)


def at_radii(rhs, jac, y0, t, rtol: float, atol: float, tcrit: float) -> Solution:
    """The states at the increasing radii t[1:], starting from y0 at t[0].

    One compiled call steps from each radius to the next, never past
    ``tcrit``, and interpolates the state at each radius, as
    ``scipy.integrate.odeint(rhs, y0, t, Dfun=jac, rtol=rtol, atol=atol,
    tcrit=[tcrit], mxstep=_MXSTEP, full_output=True, tfirst=True)`` does.
    """
    t = np.array(t, dtype=float)
    ys, info, istate = _odepack.odeint(
        rhs, list(y0), t, (), jac, 0, -1, -1, 1, rtol, atol, [tcrit],
        0.0, 0.0, 0.0, 0, _MXSTEP, 0, _MXORDN, _MXORDS, 1)
    if istate != 2:
        # tcur holds the radius reached for each output up to the failed one
        raise Stopped(istate, info["tcur"][np.argmin(info["tcur"] >= t[1:])])
    return Solution(t=t[1:], y=ys[1:].T, nst=int(info["nst"][-1]),
                    nfe=int(info["nfe"][-1]), nje=int(info["nje"][-1]))


def dense(rhs, jac, y0, t0: float, t_end: float, rtol: float, atol: float) -> Solution:
    """A solution on [t0, t_end], readable anywhere, one LSODA step at a time.

    Each call takes one step without passing t_end (itask 5, with
    rwork[0] = t_end) and keeps that step's interpolant, as
    ``solve_ivp(rhs, (t0, t_end), y0, method="LSODA", rtol=rtol,
    atol=atol, jac=jac, dense_output=True)`` does.
    """
    y = np.asarray(y0, dtype=float)
    n = y.size
    rwork = np.zeros(max(20 + (_MXORDN + 4) * n, 22 + (_MXORDS + 4) * n + n * n))
    rwork[0] = t_end
    iwork = np.zeros(20 + n, dtype=np.int32)
    iwork[5] = 500      # the per-call step cap solve_ivp leaves; each call takes one step
    iwork[7], iwork[8] = _MXORDN, _MXORDS
    state_doubles = np.zeros(240)
    state_ints = np.zeros(48, dtype=np.int32)
    ts, ys, steps = [t0], [y.copy()], []
    t, istate = t0, 1
    while t < t_end:
        y, t, istate = _odepack.lsoda(rhs, y, t, t_end, rtol, atol, 5, istate, rwork, iwork,
                                      jac, 1, (), 1, (), state_doubles, state_ints)
        if istate < 0:
            raise Stopped(istate, ts[-1])
        istate = 2
        # the Nordsieck array up to the order of the step just taken; when
        # the order is about to drop, its last column still has the scale
        # of the step size used, rwork[10], not that of the next, rwork[11]
        order = iwork[13]
        h = rwork[11]
        yh = np.reshape(rwork[20:20 + (order + 1) * n], (n, order + 1), order="F").copy()
        if iwork[14] < order:
            yh[:, -1] *= (h / rwork[10]) ** order
        steps.append((t, h, np.arange(order + 1), yh))
        ts.append(t)
        ys.append(y.copy())
    return Solution(t=np.array(ts), y=np.vstack(ys).T, nst=int(iwork[10]),
                    nfe=int(iwork[11]), nje=int(iwork[12]), steps=tuple(steps))
