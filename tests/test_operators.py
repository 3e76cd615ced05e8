import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import warped_disk as wd
from warped_disk import exact
from warped_disk.geometry import RadialGrid
from warped_disk.operators import sample_derivatives, separated_laplacian


def apply_linear(profile, m, grid, f):
    """L_m f on the grid nodes through the linear form."""
    x = grid.nodes
    return separated_laplacian(m, x, f, profile.dlog_phi(x), phi=profile.phi(x))


# ----------------------------------------------------------------------
# separated_laplacian
# ----------------------------------------------------------------------

def test_flat_laplacian_of_r_squared(euclidean):
    grid = RadialGrid.uniform(0.5, 2.0, 101)
    out = apply_linear(euclidean.metric, 0, grid, grid.nodes**2)
    assert_allclose(out[1:-1], 4.0, atol=1e-10)


def test_flat_m2_harmonic(euclidean):
    grid = RadialGrid.uniform(0.5, 2.0, 101)
    out = apply_linear(euclidean.metric, 2, grid, np.exp(exact.space_form(0.0).lam(2, grid.nodes)))
    assert_allclose(out[1:-1], 0.0, atol=1e-10)


def test_hyperbolic_mode_is_annihilated(hyperbolic):
    grid = RadialGrid.uniform(0.5, 3.0, 201)
    mode = wd.biharmonic_mode(hyperbolic.metric, 1, grid, rtol=1e-11, atol=1e-13)
    out = apply_linear(hyperbolic.metric, 1, grid, np.exp(mode.lam))
    h = grid.nodes[1] - grid.nodes[0]
    assert np.max(np.abs(out[1:-1])) < 5.0 * h * h


@pytest.mark.parametrize("form", ["linear", "log"])
def test_rows_with_their_own_m_equal_one_row_calls(form):
    # samples run along the last axis: row i of a 2-d call with per-row m
    # is the 1-d call for that row, exactly at interior nodes
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(0.5, 3.0, 40))
    f = rng.normal(size=(7, 40))
    m = np.arange(-3, 4)
    plane = exact.space_form(0.0)
    log_phi, v = plane.log_phi(x), plane.dlog_phi(x)
    kw = {"phi": np.exp(log_phi)} if form == "linear" else {"log_phi": log_phi}
    rows = separated_laplacian(m, x, f, v, **kw)
    assert rows.shape == f.shape
    for i in range(7):
        one = separated_laplacian(int(m[i]), x, f[i], v, **kw)
        assert np.array_equal(rows[i, 1:-1], one[1:-1])
        assert_allclose(rows[i], one, rtol=1e-12, atol=1e-12)
    same_m = separated_laplacian(2, x, f, v, **kw)
    assert np.array_equal(same_m[3, 1:-1], separated_laplacian(2, x, f[3], v, **kw)[1:-1])


def test_laplacian_preconditions(euclidean):
    small = RadialGrid.uniform(1.0, 2.0, 4)
    with pytest.raises(wd.DomainError):
        apply_linear(euclidean.metric, 0, small, np.ones(4))
    grid = RadialGrid.uniform(1.0, 2.0, 6)
    bad = np.ones(6)
    bad[3] = np.inf
    with pytest.raises(wd.DomainError):
        apply_linear(euclidean.metric, 0, grid, bad)


def test_stencil_second_order_convergence(euclidean):
    # L_1 r^3 = 8 r in the flat metric
    maxima = []
    for n in (51, 101, 201):
        grid = RadialGrid.uniform(1.0, 2.0, n)
        out = apply_linear(euclidean.metric, 1, grid, grid.nodes**3)
        maxima.append(np.max(np.abs(out[1:-1] - 8.0 * grid.nodes[1:-1])))
    assert 3.5 <= maxima[0] / maxima[1] <= 4.5
    assert 3.5 <= maxima[1] / maxima[2] <= 4.5


def test_nonuniform_stencil_exact_on_quadratics(euclidean):
    grid = RadialGrid.geometric(0.5, 4.0, 41)
    out = apply_linear(euclidean.metric, 0, grid, grid.nodes**2)
    assert_allclose(out[1:-1], 4.0, atol=1e-9)


def test_log_representation_matches_linear(hyperbolic):
    # the log form differences g = log f rather than f, so the two forms
    # of L_1 cosh agree to the stencils' second-order error
    metric = hyperbolic.metric
    gaps = []
    for n in (51, 101, 201):
        grid = RadialGrid.uniform(1.0, 2.0, n)
        x = grid.nodes
        f = np.cosh(x)
        lin = apply_linear(metric, 1, grid, f)
        log = separated_laplacian(1, x, np.log(f), metric.dlog_phi(x), log_phi=metric.log_phi(x))
        gap = np.max(np.abs(log * f - lin)[1:-1])
        assert gap <= 2.0 * (x[1] - x[0]) ** 2
        gaps.append(gap)
    assert 3.5 <= gaps[0] / gaps[1] <= 4.5
    assert 3.5 <= gaps[1] / gaps[2] <= 4.5


# ----------------------------------------------------------------------
# derivative helper
# ----------------------------------------------------------------------

def test_sample_derivatives_quadratic_exact():
    x = np.geomspace(0.5, 2.0, 21)
    f = 2.0 * x**2 - x + 3.0
    d1, d2 = sample_derivatives(x, f)
    assert_allclose(d1, 4.0 * x - 1.0, atol=1e-10)
    assert_allclose(d2, 4.0, atol=1e-9)


def test_sample_derivatives_cubic():
    # centered d2 is exact on cubics; centered d1 has the h^2 f'''/6 term
    x = np.linspace(0.0, 1.0, 21)
    h = x[1] - x[0]
    f = 2.0 * x**3 - x**2 + 3.0 * x - 5.0
    d1, d2 = sample_derivatives(x, f)
    assert_allclose(d2[1:-1], 12.0 * x[1:-1] - 2.0, atol=1e-9)
    assert_allclose(d1[1:-1], 6.0 * x[1:-1] ** 2 - 2.0 * x[1:-1] + 3.0, atol=2.1 * h * h)
    assert_allclose(d1[[0, -1]], [3.0, 7.0], atol=1e-9)  # cubic endpoint fit


_spacings = st.lists(st.floats(1e-3, 1.0), min_size=4, max_size=40)
_coefficient = st.floats(-10.0, 10.0)


@given(_spacings, st.floats(-5.0, 5.0), _coefficient, _coefficient, _coefficient)
def test_interior_stencils_exact_on_quadratics(spacings, x0, a, b, c):
    x = x0 + np.concatenate(([0.0], np.cumsum(spacings)))
    f = a + b * x + c * x * x
    d1, d2 = sample_derivatives(x, f)
    # rounding scale: the terms of f at the three stencil nodes, over h
    h = np.minimum(np.diff(x)[:-1], np.diff(x)[1:])
    terms = abs(a) + np.abs(b * x) + np.abs(c * x * x)
    near = np.maximum.reduce([terms[:-2], terms[1:-1], terms[2:]])
    tol = 64.0 * np.finfo(float).eps
    slope = b + 2.0 * c * x[1:-1]
    assert np.all(np.abs(d1[1:-1] - slope) <= tol * (near / h + abs(b) + np.abs(2.0 * c * x[1:-1])))
    assert np.all(np.abs(d2[1:-1] - 2.0 * c) <= tol * (near / (h * h) + abs(c)))


@given(_spacings, st.floats(-5.0, 5.0), st.floats(-1e6, 1e6))
def test_interior_stencils_zero_on_constants(spacings, x0, value):
    x = x0 + np.concatenate(([0.0], np.cumsum(spacings)))
    d1, d2 = sample_derivatives(x, np.full(x.size, value))
    assert np.all(d1[1:-1] == 0.0)
    assert np.all(d2[1:-1] == 0.0)
