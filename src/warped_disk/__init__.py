"""Harmonic and biharmonic analysis on rotationally symmetric surfaces.

Build a metric profile (closed form or integrated from curvature),
compute the radial harmonic modes phi_m and their biharmonic partners
psi_m = z phi_m in overflow-safe log space, verify them against the
separated Laplacian, classify the surface into curvature regimes, and
solve the biharmonic Dirichlet problem on geodesic disks. The names
exported here are the ones the ``warped-disk`` commands (``classify``,
``modes``, ``bvp`` and ``verify``) are built from.
"""

from .asymptotics import (
    ADMITS_NONHARMONIC_BOUNDED,
    HYPERBOLIC,
    LIOUVILLE_TO_HARMONIC,
    PARABOLIC,
    RIGID,
    UNDETERMINED,
    ClassificationReport,
    classify_surface,
    estimate_log_derivative_limit,
    fit_tail_exponent,
    numeric_evidence,
)
from .bvp import (
    BoundaryTrace,
    FourierSpectrum,
    ModeCoefficients,
    analyze_trace,
    evaluate_solution,
    solve_disk_biharmonic,
    synthesize_trace,
    verify_disk_solution,
)
from .errors import (
    AliasingWarning,
    ConjugatePointError,
    DomainError,
    IntegrationError,
    QuadratureError,
    WarpedDiskError,
)
from .geometry import (
    CurvatureProfile,
    MetricProfile,
    RadialGrid,
    Surface,
    TailDescriptor,
    builtin_profile,
    profile_from_curvature,
)
from .modes import (
    BiharmonicMode,
    biharmonic_mode,
    verify_mode_residuals,
)

__version__ = "0.1.0"
