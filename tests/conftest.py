import numpy as np
import pytest
from hypothesis import settings

import warped_disk as wd

# property tests are reproducible and free of per-example time limits
settings.register_profile("warped-disk", deadline=None, derandomize=True)
settings.load_profile("warped-disk")

FAR = 1100.0  # covers the default evidence horizon with margin


def k_only(k, r_max):
    """A profile of K alone, without evaluators: a mode pass reads K alone."""
    return wd.MetricProfile(phi=None, phi_prime=None, log_phi=None, dlog_phi=None,
                            r_max=r_max, k=k)


@pytest.fixture(scope="session")
def euclidean():
    return wd.builtin_profile("euclidean")


@pytest.fixture(scope="session")
def hyperbolic():
    return wd.builtin_profile("hyperbolic")


@pytest.fixture(scope="session")
def log_threshold():
    return wd.builtin_profile("log-threshold", eps=0.5, r_max=FAR)


@pytest.fixture(scope="session")
def power1():
    return wd.builtin_profile("power-curvature", eps=1.0, r_max=FAR)


@pytest.fixture(scope="session")
def quadratic1():
    return wd.builtin_profile("quadratic-curvature", eta=1.0, r_max=FAR)


@pytest.fixture(scope="session")
def all_builtins(euclidean, hyperbolic, log_threshold, power1, quadratic1):
    return (euclidean, hyperbolic, log_threshold, power1, quadratic1)


@pytest.fixture(scope="session")
def interior_threshold():
    """K = -1/(q log q), q = r^2 + e: everywhere above the Milnor bound."""

    def k(r):
        q = np.asarray(r, dtype=float) ** 2 + np.e
        return -1.0 / (q * np.log(q))

    curv = wd.CurvatureProfile(k=k, tail=wd.TailDescriptor("ge_milnor", r0=2.0))
    metric = wd.profile_from_curvature(curv.k, r_max=FAR, name="interior-threshold")
    return wd.Surface("interior-threshold", metric, curv)
