"""Per-layer tracing for the traced benchmark run.

The package is not edited: ``install`` replaces each public name at the
place its caller looks it up (``asymptotics.mode_pass``,
``bvp.sample_derivatives``, ``modes.solve_ivp`` ...) with a wrapper that
records a span, and ``uninstall`` puts the originals back. Nothing is
patched during the untraced, timed passes.

A span is ``[name, start, end, parent, leaf_s]``. Profile lookups
(``MetricProfile.log_phi`` and friends) run about 250 thousand times
per ``classify`` pass, too often to keep one span each, so they are
counted and timed as a leaf of whichever span is open (``leaf_s``). A
layer's self time is its span time minus its child spans and leaf time,
so the self times of all layers, the leaf layer included, add up to the
span total.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from time import perf_counter

import numpy as np

from warped_disk import asymptotics, bvp, cli, geometry, modes, operators

PROFILE_EVAL = "geometry.profile_eval"
_PROFILE_FIELDS = ("phi", "phi_prime", "log_phi", "dlog_phi")

# (module, attribute, span name): every caller-side lookup of a layer's
# public functions on the paths the workloads run.
_SPANNED = (
    (cli, "main", "cli.main"),
    (asymptotics, "classify_surface", "asymptotics.classify_surface"),
    (asymptotics, "numeric_evidence", "asymptotics.numeric_evidence"),
    (asymptotics, "mode_pass", "modes.mode_pass"),
    (bvp, "mode_pass", "modes.mode_pass"),
    (modes, "biharmonic_mode", "modes.biharmonic_mode"),
    (modes, "verify_mode_residuals", "modes.verify_mode_residuals"),
    (modes, "sample_derivatives", "operators.sample_derivatives"),
    (bvp, "sample_derivatives", "operators.sample_derivatives"),
    (operators, "sample_derivatives", "operators.sample_derivatives"),
    (bvp, "read_trace_csv", "bvp.read_trace_csv"),
    (bvp, "analyze_trace", "bvp.analyze_trace"),
    (bvp, "solve_disk_biharmonic", "bvp.solve_disk_biharmonic"),
    (bvp, "write_coefficients_csv", "bvp.write_coefficients_csv"),
    (bvp, "synthesize_trace", "bvp.synthesize_trace"),
    (bvp, "verify_disk_solution", "bvp.verify_disk_solution"),
    (bvp, "evaluate_solution", "bvp.evaluate_solution"),
    (cli, "write_csv", "util.write_csv"),
    (modes, "write_csv", "util.write_csv"),
    (asymptotics, "write_csv", "util.write_csv"),
    (geometry, "write_csv", "util.write_csv"),
    (operators, "write_csv", "util.write_csv"),
    (bvp, "write_csv", "util.write_csv"),
)
_IVP_SITES = ((geometry, "geometry.ivp"), (modes, "modes.ivp"))


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.root_leaf_s = 0.0
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = [name, perf_counter(), 0.0, parent, 0.0]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def leaf(self, fn, arg):
        t = perf_counter()
        try:
            return fn(arg)
        finally:
            dt = perf_counter() - t
            self.counters[PROFILE_EVAL + ".calls"] += 1
            if self._stack:
                self.spans[self._stack[-1]][4] += dt
            else:
                self.root_leaf_s += dt

    def layers(self, normalize=None) -> tuple[dict, float]:
        """Per layer name: calls, inclusive seconds and self seconds; and the span total.

        The span total is the time covered by root spans plus lookups made
        outside any span. ``normalize(t0, t1, seconds)`` rescales times
        (see speed.py): each span's self and leaf time by the factor over
        its own interval, and inclusive times are summed from those.
        """
        n = len(self.spans)
        raw_child = [0.0] * n
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                raw_child[parent] += end - start
        inclusive = [0.0] * n
        out: dict[str, dict] = {}
        leaf_total = self.root_leaf_s
        total = self.root_leaf_s
        # children come after their parent, so walk backwards
        for i in range(n - 1, -1, -1):
            name, start, end, parent, leaf_s = self.spans[i]
            raw = end - start
            factor = normalize(start, end, raw) / raw if normalize and raw > 0 else 1.0
            own = (raw - raw_child[i] - leaf_s) * factor
            leaf = leaf_s * factor
            inclusive[i] += own + leaf
            if parent >= 0:
                inclusive[parent] += inclusive[i]
            else:
                total += inclusive[i]
            rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["s"] += inclusive[i]
            rec["self_s"] += own
            leaf_total += leaf
        out[PROFILE_EVAL] = {
            "calls": self.counters[PROFILE_EVAL + ".calls"],
            "s": leaf_total,
            "self_s": leaf_total,
        }
        return out, total


class _CountedDense:
    """Dense output that counts the points it is asked for."""

    def __init__(self, sol, counters: Counter):
        self._sol = sol
        self._counters = counters

    def __call__(self, t):
        self._counters["modes.dense.points"] += int(np.size(t))
        return self._sol(t)


def _span_wrapper(tracer: Tracer, name: str, fn):
    def wrapped(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return wrapped


def _ivp_wrapper(tracer: Tracer, prefix: str, solve_ivp):
    def wrapped(*args, **kwargs):
        res = solve_ivp(*args, **kwargs)
        c = tracer.counters
        c[prefix + ".solves"] += 1
        c[prefix + ".nfev"] += int(res.nfev)
        c[prefix + ".njev"] += int(res.njev)
        c[prefix + ".steps"] += len(res.t) - 1
        if prefix == "modes.ivp" and res.sol is not None:
            res.sol = _CountedDense(res.sol, c)
        return res
    return wrapped


def _profile_wrapper(tracer: Tracer, builtin_profile):
    """builtin_profile whose surface routes profile lookups through the tracer."""

    def leaf(fn):
        return lambda r: tracer.leaf(fn, r)

    def wrapped(*args, **kwargs):
        surface = tracer.call("geometry.builtin_profile", builtin_profile, args, kwargs)
        metric = dataclasses.replace(
            surface.metric,
            **{f: leaf(getattr(surface.metric, f)) for f in _PROFILE_FIELDS},
        )
        return geometry.Surface(surface.name, metric, surface.curvature)
    return wrapped


def install(tracer: Tracer) -> list:
    """Patch every traced lookup site; returns what ``uninstall`` restores."""
    saved = []

    def patch(module, attr, value):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    for module, attr, name in _SPANNED:
        patch(module, attr, _span_wrapper(tracer, name, getattr(module, attr)))
    for module, prefix in _IVP_SITES:
        patch(module, "solve_ivp", _ivp_wrapper(tracer, prefix, module.solve_ivp))
    patch(geometry, "builtin_profile", _profile_wrapper(tracer, geometry.builtin_profile))
    return saved


def uninstall(saved: list) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)
