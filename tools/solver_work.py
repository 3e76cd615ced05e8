"""Solver work of the ``classify`` mode pass on each built-in, as JSON.

    PYTHONPATH=src python tools/solver_work.py [REPEATS]

Runs ``asymptotics.numeric_evidence`` as ``warped-disk classify`` does at
its defaults (m = 1..8, horizon 1000, built-ins valid to r = 1200) and
records what the mode pass's LSODA did. A pass through ``odeint``
reports ``nfe``, ``nje`` and ``nst``; one through ``solve_ivp`` reports
``nfev``, ``njev`` and the steps of its dense solution. Both are LSODA's
own counters, so the two solvers compare one to one, across versions of
the package too. Per surface it also records the Lambda verdict, the z
verdict of each m and the least in-process time of REPEATS (default 5)
calls. A version whose evidence holds a Lambda verdict per m (rather
than one for all m) reports that list under ``phi_verdict``.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import warped_disk as wd
from warped_disk import asymptotics, modes

SURFACES = (("euclidean", {}), ("hyperbolic", {}), ("power-curvature", {"eps": 1.0}),
            ("quadratic-curvature", {"eta": 1.0}), ("log-threshold", {"eps": 0.5}))
M_SET = tuple(range(1, 9))
HORIZON = 1000.0


def _counting(record: list):
    """Wrap the solvers ``modes`` looks up so each solve appends its counters."""
    solve_ivp = modes.solve_ivp

    def counted_solve_ivp(*args, **kwargs):
        res = solve_ivp(*args, **kwargs)
        record.append({"solver": "solve_ivp", "rhs": int(res.nfev), "jac": int(res.njev),
                       "steps": len(res.t) - 1})
        return res

    modes.solve_ivp = counted_solve_ivp
    if hasattr(modes, "odeint"):
        odeint = modes.odeint

        def counted_odeint(*args, **kwargs):
            ys, info = odeint(*args, **kwargs)
            record.append({"solver": "odeint", "rhs": int(info["nfe"][-1]),
                           "jac": int(info["nje"][-1]), "steps": int(info["nst"][-1])})
            return ys, info

        modes.odeint = counted_odeint


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    repeats = int(argv[0]) if argv else 5
    out = {}
    for name, params in SURFACES:
        metric = wd.builtin_profile(name, r_max=1200.0, **params).metric
        best = float("inf")
        for _ in range(repeats):
            t = perf_counter()
            asymptotics.numeric_evidence(metric, m_set=M_SET, horizon=HORIZON)
            best = min(best, perf_counter() - t)
        record: list = []
        saved = modes.solve_ivp, getattr(modes, "odeint", None)
        _counting(record)
        try:
            ev = asymptotics.numeric_evidence(metric, m_set=M_SET, horizon=HORIZON)
        finally:
            modes.solve_ivp = saved[0]
            if saved[1] is not None:
                modes.odeint = saved[1]
        out[name] = {
            "numeric_evidence_s": best,
            "solves": record,
            "phi_verdict": getattr(ev, "phi_verdict", None)
            or [m.phi_verdict for m in ev.modes if m.m != 0],
            "z_verdicts": {m.m: m.z_verdict for m in ev.modes},
        }
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
