"""Exception types shared across the package."""


class WarpedDiskError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(WarpedDiskError):
    """An argument lies outside the domain an operation is defined on."""


class ConjugatePointError(WarpedDiskError):
    """The warp function reached zero at a positive radius.

    The metric degenerates there, so the profile does not define a
    complete surface on the plane. ``radius`` is the estimated location
    of the first zero.
    """

    def __init__(self, radius: float, message: str | None = None):
        self.radius = float(radius)
        super().__init__(message or f"warp function vanishes near r = {radius:.10g}")


class IntegrationError(WarpedDiskError):
    """The ODE integrator failed (stiffness, step underflow)."""


class QuadratureError(IntegrationError):
    """A mode quadrature did not converge to the requested tolerance.

    ``worst_interval`` brackets the radius at which the accuracy check
    failed or the integrator stopped.
    """

    def __init__(self, message: str, worst_interval: tuple[float, float] | None = None):
        self.worst_interval = worst_interval
        if worst_interval is not None:
            message = f"{message} (worst interval: [{worst_interval[0]:.6g}, {worst_interval[1]:.6g}])"
        super().__init__(message)


class AliasingWarning(UserWarning):
    """Boundary trace carries non-negligible energy beyond the truncation order."""
