"""Harmonic and biharmonic analysis on rotationally symmetric surfaces.

Build a metric profile (integrated from its curvature K(r)),
compute the radial harmonic modes phi_m and their biharmonic partners
psi_m = z phi_m in overflow-safe log space, verify them against the
separated Laplacian, classify the surface into curvature regimes, and
solve the biharmonic Dirichlet problem on geodesic disks. The names
exported here are the ones the ``warped-disk`` commands (``classify``,
``modes``, ``bvp`` and ``verify``) are built from.

The namespace is lazy (PEP 562): ``import warped_disk`` loads no
submodule. The first lookup of an exported name imports the module that
defines it and caches the name here, so ``warped_disk.classify_surface``
is ``warped_disk.asymptotics.classify_surface``. The submodules resolve
the same way, ``warped_disk.bvp`` after a bare ``import warped_disk``
included. A command run through ``warped_disk.cli`` thus loads only the
layers it runs.
"""

import importlib

__version__ = "0.1.0"

# the exported names of each submodule
_NAMES = {
    "asymptotics": (
        "ADMITS_NONHARMONIC_BOUNDED",
        "HYPERBOLIC",
        "LIOUVILLE_TO_HARMONIC",
        "PARABOLIC",
        "RIGID",
        "UNDETERMINED",
        "ClassificationReport",
        "classify_surface",
        "numeric_evidence",
    ),
    "bvp": (
        "BoundaryTrace",
        "FourierSpectrum",
        "ModeCoefficients",
        "analyze_trace",
        "evaluate_solution",
        "solve_disk_biharmonic",
        "synthesize_trace",
        "verify_disk_solution",
    ),
    "errors": (
        "AliasingWarning",
        "ConjugatePointError",
        "DomainError",
        "IntegrationError",
        "QuadratureError",
        "WarpedDiskError",
    ),
    "geometry": (
        "CurvatureProfile",
        "MetricProfile",
        "RadialGrid",
        "Surface",
        "TailDescriptor",
        "builtin_profile",
        "profile_from_curvature",
    ),
    "modes": (
        "BiharmonicMode",
        "biharmonic_mode",
        "verify_mode_residuals",
    ),
}
_EXPORTS = {name: module for module, names in _NAMES.items() for name in names}
_SUBMODULES = frozenset((
    "_lsoda", "_util", "asymptotics", "bvp", "cli", "errors", "exact", "geometry", "modes",
    "operators",
))

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        # the import binds the submodule here as a package attribute
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
