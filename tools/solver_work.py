"""Solver work of the ``classify`` and ``bvp`` mode passes on each built-in, as JSON.

    PYTHONPATH=src python tools/solver_work.py [REPEATS]

Runs ``asymptotics.numeric_evidence`` as ``warped-disk classify`` does at
its defaults (horizon 1000, built-ins valid to r = 1200), and
``bvp.solve_disk_biharmonic`` as ``warped-disk bvp`` does on a disk of
radius 3 with |m| <= 8, and records what LSODA did in each pass: its
steps (``nst``), right-hand-side calls (``nfe``) and Jacobians (``nje``).
These are LSODA's own counters, so versions of the package compare one
to one. A version with ``warped_disk._lsoda`` reports them from its
solutions; an older one from the ``odeint`` and ``solve_ivp`` calls in
``modes`` (a ``solve_ivp`` pass counts the steps of its dense solution).
A ``named_radii`` pass keeps the states at the radii its caller reads, a
``dense`` pass is readable anywhere. Per surface it also records the
Lambda_1 verdict, the z_0 verdict and the least in-process time of REPEATS
(default 5) classify passes.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import numpy as np

import warped_disk as wd
from warped_disk import asymptotics, bvp, modes

SURFACES = (("euclidean", {}), ("hyperbolic", {}), ("power-curvature", {"eps": 1.0}),
            ("quadratic-curvature", {"eta": 1.0}), ("log-threshold", {"eps": 0.5}))
HORIZON = 1000.0
DISK_RADIUS, DISK_M = 3.0, 8


def _count(kind: str, record: list, solver, counters):
    def counted(*args, **kwargs):
        out = solver(*args, **kwargs)
        record.append({"pass": kind, **dict(zip(("nst", "nfe", "nje"), map(int, counters(out))))})
        return out
    return counted


def _counting(record: list) -> list:
    """Wrap the LSODA drivers so each pass appends its counters; returns what to restore."""
    lsoda = getattr(modes, "_lsoda", None)
    if lsoda is not None:
        patches = [(lsoda, "at_radii", "named_radii"), (lsoda, "dense", "dense")]
        counters = lambda sol: (sol.nst, sol.nfe, sol.nje)  # noqa: E731
        wraps = [counters, counters]
    else:
        patches = [(modes, "odeint", "named_radii"), (modes, "solve_ivp", "dense")]
        wraps = [lambda out: (out[1]["nst"][-1], out[1]["nfe"][-1], out[1]["nje"][-1]),
                 lambda res: (len(res.t) - 1, res.nfev, res.njev)]
    saved = []
    for (module, name, kind), counters in zip(patches, wraps):
        saved.append((module, name, getattr(module, name)))
        setattr(module, name, _count(kind, record, getattr(module, name), counters))
    return saved


def _disk_spectrum() -> bvp.FourierSpectrum:
    size = 2 * DISK_M + 1
    return bvp.FourierSpectrum(m_max=DISK_M, alpha=np.ones(size), beta=np.ones(size),
                               truncation_energy=(0.0, 0.0), real_valued=False)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    repeats = int(argv[0]) if argv else 5
    out = {}
    for name, params in SURFACES:
        metric = wd.builtin_profile(name, r_max=1200.0, **params).metric
        best = float("inf")
        for _ in range(repeats):
            t = perf_counter()
            asymptotics.numeric_evidence(metric, horizon=HORIZON)
            best = min(best, perf_counter() - t)
        classify: list = []
        disk: list = []
        saved = _counting(classify)
        try:
            ev = asymptotics.numeric_evidence(metric, horizon=HORIZON)
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)
        saved = _counting(disk)
        try:
            bvp.solve_disk_biharmonic(metric, DISK_RADIUS, _disk_spectrum())
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)
        out[name] = {
            "numeric_evidence_s": best,
            "classify": classify,
            "disk": disk,
            "phi_verdict": ev.phi_verdict,
            "z_verdict": ev.z_verdict,
        }
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
