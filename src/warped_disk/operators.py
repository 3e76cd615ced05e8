"""Discrete radial operators.

The Laplacian of a separated function f(r) e^{i m theta} reduces to

    L_m f = f'' + (phi'/phi) f' - (m^2/phi^2) f.

This module applies L_m to sampled radial functions with three-point
finite differences (exact on quadratics, second order on uniform grids),
in linear form or, for g = log f of a positive f that may overflow, as
L_m f / f = g'' + g'^2 + (phi'/phi) g' - m^2/phi^2.
"""

from __future__ import annotations

import numpy as np

from ._util import write_csv  # noqa: F401 -- patched by benchmarks/tracing.py
from .errors import DomainError

__all__ = [
    "separated_laplacian",
    "sample_derivatives",
]


def sample_derivatives(x: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives of samples on a (possibly nonuniform) grid.

    Samples run along the last axis of ``f``, so a 2-d ``f`` holds one
    function per row on the common nodes ``x``; the derivatives have the
    shape of ``f``. Interior nodes use the three-point formulas that are
    exact on quadratics; each endpoint uses a cubic fit through its four
    nearest nodes, which keeps the boundary values second-order accurate.
    """
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    n = x.size
    if n < 5:
        raise DomainError("need at least five nodes for the stencils")
    if not np.all(np.isfinite(f)):
        raise DomainError("samples must be finite")
    d1 = np.empty(f.shape)
    d2 = np.empty(f.shape)
    hm = x[1:-1] - x[:-2]
    hp = x[2:] - x[1:-1]
    # divided-difference form: exactly zero on constants, which the
    # expanded three-point weights are not on strongly graded grids
    sm = (f[..., 1:-1] - f[..., :-2]) / hm
    sp = (f[..., 2:] - f[..., 1:-1]) / hp
    d1[..., 1:-1] = (hp * sm + hm * sp) / (hm + hp)
    d2[..., 1:-1] = 2.0 * (sp - sm) / (hm + hp)
    for idx, sl in ((0, slice(0, 4)), (-1, slice(-4, None))):
        coeffs = np.polyfit(x[sl] - x[idx], f[..., sl].T, 3)
        d1[..., idx] = coeffs[2]
        d2[..., idx] = 2.0 * coeffs[1]
    return d1, d2


def separated_laplacian(
    m, x: np.ndarray, f: np.ndarray, dlog_phi: np.ndarray,
    phi: np.ndarray | None = None, log_phi: np.ndarray | None = None,
) -> np.ndarray:
    """L_m applied to samples on the nodes x, the one place L_m is coded.

    As in ``sample_derivatives``, samples run along the last axis of
    ``f``; ``m`` is one angular frequency or, for a 2-d ``f``, one per
    row. ``dlog_phi`` holds phi'/phi on the nodes. Given ``phi``, f holds
    linear samples and the result is L_m f. Given ``log_phi`` instead, f
    holds g = log f and the result is L_m f / f = g'' + g'^2 +
    (phi'/phi) g' - m^2/phi^2, which stays representable where f
    overflows.
    """
    d1, d2 = sample_derivatives(x, f)
    m2 = np.asarray(m, dtype=float)[..., None] ** 2
    if log_phi is not None:
        return d2 + d1 * d1 + dlog_phi * d1 - m2 * np.exp(-2.0 * np.minimum(log_phi, 350.0))
    with np.errstate(over="ignore"):  # phi^2 = inf gives m^2/phi^2 = 0, its limit
        return d2 + dlog_phi * d1 - m2 / (phi * phi) * f
