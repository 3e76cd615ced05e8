"""Exact curved surfaces given by their warp function phi, for the tests.

A surface dr^2 + phi(r)^2 dtheta^2 given by phi has K = -phi''/phi by
hand, and Lambda_1 = integral_1^r ds/phi and z_0, the radial solution
of Delta u = 1 with u(0) = 0, in closed form. Each family holds K as a
function of one float, as the package takes it, beside those closed
forms, so the package's values can be checked on a curved surface at
every radius. Closed forms take arrays of radii.
"""

from __future__ import annotations

import numpy as np
from scipy.special import exp1


def ein(x) -> np.ndarray:
    """Ein(x) = integral_0^x (1 - e^-t)/t dt = E_1(x) + log x + gamma.

    Below x = 1 the series sum_k (-1)^(k+1) x^k / (k k!) is summed, since
    E_1(x) + log x cancels there.
    """
    x = np.asarray(x, dtype=float)
    big, small = np.maximum(x, 1.0), np.minimum(x, 1.0)
    direct = exp1(big) + np.log(big) + np.euler_gamma
    term = small.copy()          # (-1)^(k+1) x^k / k! at k = 1
    series = small.copy()
    for k in range(2, 24):       # x^23 / (23 * 23!) < 1e-24 for x < 1
        term = -term * small / k
        series = series + term / k
    return np.where(x < 1.0, series, direct)


class ExpSquare:
    """phi = r e^{r^2}: hyperbolic, and z_0 grows like (log r)/2.

    (hyperbolic, liouville_to_harmonic) is the truth: Lambda_1(inf) =
    E_1(1)/2 is finite and z_0(inf) is not.
    """

    truth = ("hyperbolic", "liouville_to_harmonic")

    @staticmethod
    def k(r: float) -> float:
        return -6.0 - 4.0 * r * r

    @staticmethod
    def log_phi(r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return np.log(r) + r * r

    @staticmethod
    def lam1(r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return (exp1(1.0) - exp1(r * r)) / 2.0

    @staticmethod
    def z0(r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return ein(r * r) / 4.0
