"""Regime labels of surfaces with no declared tail, scored against their truth.

    PYTHONPATH=src python tools/label_table.py [--horizons 100,1000]

Classifies 90 surfaces through the Python API, none with a declared
tail, at each horizon: the K-only families of ``geometry.family_surface``,
K = -kappa/(r^2 log r) for 31 kappa in [0.5, 2], K = -r^2 (log r)^p for
31 p in [0, 6] and K = -a(a-1)/r^2 (phi ~ r^a) for a = 1.02, 1.05, 1.1,
1.5 and 2; ``exact.milnor_threshold`` at kappa = 0.5, 0.8, 1, 1.2 and 2;
``exact.exp_square``; and 17 built-ins with their declared tails
stripped. Every surface is valid to r = 1200 and reads K alone.

Prints one line per surface and horizon (the labels, the route and the
truth), then the count of label pairs by score over all horizons: both
true, true and undetermined, both undetermined, true and wrong,
undetermined and wrong, both wrong. Two versions of the package label
the same surfaces differently exactly where their lines differ. The
table takes about 2 s on one core.
"""

from __future__ import annotations

import argparse

import warped_disk as wd
from warped_disk import exact
from warped_disk.geometry import family_surface, k_only_surface

R_MAX = 1200.0
SCORES = ("both true", "true + undetermined", "both undetermined", "true + wrong",
          "undetermined + wrong", "both wrong")
_PARABOLIC_RIGID = ("parabolic", "rigid")
_LIOUVILLE = ("hyperbolic", "liouville_to_harmonic")
_ADMITS = ("hyperbolic", "admits_nonharmonic_bounded")
_BUILTINS = (("euclidean", {}, _PARABOLIC_RIGID), ("hyperbolic", {}, _LIOUVILLE),
             *((family, {key: value}, truth)
               for family, key, truth in (("log-threshold", "eps", _LIOUVILLE),
                                          ("power-curvature", "eps", _ADMITS),
                                          ("quadratic-curvature", "eta", _LIOUVILLE))
               for value in (0.1, 0.5, 1.0, 2.0, 4.0)))


def cases():
    """(name, surface, truth) of every surface in the table."""
    for i in range(31):
        kappa = (10 + i) / 20.0
        yield (f"kappa={kappa:g}", family_surface("kappa", kappa, R_MAX),
               _PARABOLIC_RIGID if kappa <= 1.0 else _LIOUVILLE)
    for i in range(31):
        # z(inf) < inf exactly when integral^inf (-K)^(-1/2) dr < inf: p > 2
        p = i / 5.0
        yield f"p={p:g}", family_surface("p", p, R_MAX), _ADMITS if p > 2.0 else _LIOUVILLE
    for a in (1.02, 1.05, 1.1, 1.5, 2.0):
        # integral^inf dr/r^a < inf, and w_0 grows like r/(a+1)
        yield f"a={a:g}", family_surface("a", a, R_MAX), _LIOUVILLE
    for kappa in (0.5, 0.8, 1.0, 1.2, 2.0):
        entry = exact.milnor_threshold(kappa)
        yield entry.name, k_only_surface(entry.name, entry.k, R_MAX), entry.truth
    # K = -6 - 4 r^2 lies between -5 r^2 and Milnor's bound far out
    entry = exact.exp_square
    yield entry.name, k_only_surface(entry.name, entry.k, R_MAX), _LIOUVILLE
    for family, params, truth in _BUILTINS:
        built = wd.builtin_profile(family, r_max=R_MAX, **params)
        yield f"{built.name} stripped", k_only_surface(built.name, built.curvature.k, R_MAX), truth


def score(labels, truth) -> str:
    """One of SCORES: the two labels' kinds, in the order true, undetermined, wrong."""
    a, b = sorted("true" if got == want else "undetermined" if got == wd.UNDETERMINED
                  else "wrong" for got, want in zip(labels, truth))
    return f"both {a}" if a == b else f"{a} + {b}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--horizons", default="100,1000",
                        help="comma-separated horizons (default 100,1000)")
    horizons = [float(h) for h in parser.parse_args(argv).horizons.split(",")]
    counts = dict.fromkeys(SCORES, 0)
    for name, surface, truth in cases():
        for horizon in horizons:
            report = wd.classify_surface(surface, horizon=horizon)
            labels = (report.harmonic_regime, report.biharmonic_regime)
            counts[score(labels, truth)] += 1
            print(f"{name:44} h={horizon:<6g} {', '.join(labels):45} {report.route:14} "
                  f"truth: {', '.join(truth)}")
    print(" | ".join(f"{key}: {value}" for key, value in counts.items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
