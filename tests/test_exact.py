"""Each entry of the table of exact surfaces against its definition.

K = -phi''/phi = -((log phi)'' + ((log phi)')^2), Lambda_1 = integral_1^r
ds/phi, w_0 = (1/phi) integral_0^r phi and z_0 = integral_0^r w_0 are
checked from the entry's own log phi, by differences and by
``scipy.integrate.quad``, so the closed forms the other tests and
``verify`` read are the surfaces they name.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from warped_disk import exact

ENTRIES = [
    *[pytest.param(exact.space_form(k), id=f"space_form({k:g})") for k in (0.0, -1.0, -4.0, 0.25)],
    pytest.param(exact.exp_square, id="exp_square"),
    *[pytest.param(exact.milnor_threshold(kappa), id=f"milnor_threshold({kappa:g})")
      for kappa in (0.5, 1.0, 2.0)],
]
CLOSED = [entry for entry in ENTRIES if entry.values[0].lam1 is not None]


def _radii(entry, n):
    return np.geomspace(0.01, min(5.0, 0.9 * entry.r_max), n)


def _phi(entry, s):
    return math.exp(float(entry.log_phi(s)))


@pytest.mark.parametrize("entry", ENTRIES)
def test_curvature_and_log_derivative_follow_from_log_phi(entry):
    # with a = log(phi/r), phi'/phi = a' + 1/r and K = -(a'' + a'^2 + 2 a'/r):
    # the log r part, whose two terms in K cancel, is taken out before
    # differencing; fourth-order central differences of a, steps below r/4
    r = np.geomspace(1e-3, 5.0, 60)
    h = np.minimum(r / 4.0, 1e-2)

    def a(x):
        return entry.log_phi(x) - np.log(x)

    f = [a(r + j * h) for j in (-2, -1, 0, 1, 2)]
    d1 = (f[0] - 8.0 * f[1] + 8.0 * f[3] - f[4]) / (12.0 * h)
    d2 = (-f[0] + 16.0 * f[1] - 30.0 * f[2] + 16.0 * f[3] - f[4]) / (12.0 * h * h)
    k = np.array([entry.k(x) for x in r.tolist()])
    assert all(isinstance(entry.k(x), float) for x in (0.0, 1.0, 5.0))
    assert_allclose(-(d2 + d1 * d1 + 2.0 * d1 / r), k, rtol=1e-6, atol=1e-6)
    assert_allclose(d1 + 1.0 / r, entry.dlog_phi(r), rtol=1e-7, atol=1e-7)


@pytest.mark.parametrize("entry", CLOSED)
def test_lambda_1_is_the_integral_of_one_over_phi(entry):
    for r in _radii(entry, 6).tolist():
        oracle, err = quad(lambda s: 1.0 / _phi(entry, s), 1.0, r, epsabs=1e-13, epsrel=1e-12)
        assert err < 1e-10
        assert_allclose(entry.lam1(r), oracle, rtol=1e-10, atol=1e-12)
        assert_allclose(entry.lam(3, r), 3.0 * oracle, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("entry", CLOSED)
def test_w_0_and_z_0_are_their_integrals(entry):
    for r in _radii(entry, 6).tolist():
        inner, err = quad(lambda s: _phi(entry, s), 0.0, r, epsabs=0.0, epsrel=1e-12)
        assert err < 1e-10 * inner
        assert_allclose(entry.w0(r), inner / _phi(entry, r), rtol=1e-10)
        # the quad oracle of z_0 (for hyperbolic, the integral of (cosh s - 1)/sinh s)
        oracle, err = quad(entry.w0, 0.0, r, epsabs=0.0, epsrel=1e-12)
        assert err < 1e-10 * oracle
        assert_allclose(entry.z0(r), oracle, rtol=1e-10)


def test_plane_per_m_forms_are_their_integrals():
    # w_m = (1/(phi phi_2m)) integral_0^r phi phi_2m with phi_2m = r^(2|m|), z_m = integral_0^r w_m
    plane = exact.space_form(0.0)
    for m in (1, 2, 5, -3):
        for r in (0.01, 0.7, 4.0):
            def weight(s):
                return _phi(plane, s) * math.exp(2.0 * float(plane.lam(m, s)))

            inner, _ = quad(weight, 0.0, r, epsabs=0.0, epsrel=1e-12)
            assert_allclose(plane.w_m(m, r), inner / weight(r), rtol=1e-10)
            oracle, _ = quad(lambda s: plane.w_m(m, s), 0.0, r, epsabs=0.0, epsrel=1e-12)
            assert_allclose(plane.z_m(m, r), oracle, rtol=1e-10)
    assert_allclose(plane.w_m(0, 2.0), plane.w0(2.0), rtol=0.0)
    assert_allclose(plane.z_m(np.arange(3), 2.0), [plane.z_m(m, 2.0) for m in range(3)], rtol=0.0)


def test_closed_forms_stay_finite_where_phi_overflows():
    r = np.array([1e3, 1e5])
    hyperbolic = exact.space_form(-1.0)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        values = [f(r) for f in (hyperbolic.log_phi, hyperbolic.dlog_phi, hyperbolic.lam1,
                                 hyperbolic.w0, hyperbolic.z0)]
    assert all(np.all(np.isfinite(v)) for v in values)


@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
def test_truth_labels_are_the_label_strings_of_the_asymptotics_module(kappa):
    from warped_disk import asymptotics as asy

    assert exact.milnor_threshold(kappa).truth in {
        (asy.PARABOLIC, asy.RIGID), (asy.HYPERBOLIC, asy.LIOUVILLE_TO_HARMONIC)}
