import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

import warped_disk as wd
from warped_disk.geometry import RadialGrid
from warped_disk.operators import RadialFunctionSamples, sample_derivatives


def samples(grid, values, rep="linear"):
    return RadialFunctionSamples(grid=grid, values=np.asarray(values, dtype=float),
                                 representation=rep)


# ----------------------------------------------------------------------
# samples container
# ----------------------------------------------------------------------

def test_samples_validation():
    grid = RadialGrid.uniform(1.0, 2.0, 5)
    with pytest.raises(wd.DomainError):
        RadialFunctionSamples(grid=grid, values=np.ones(4))
    with pytest.raises(wd.DomainError):
        RadialFunctionSamples(grid=grid, values=np.ones(5), representation="octal")
    s = samples(grid, -np.ones(5))
    with pytest.raises(wd.DomainError):
        s.log_values()


# ----------------------------------------------------------------------
# radial_laplacian_apply
# ----------------------------------------------------------------------

def test_flat_laplacian_of_r_squared(euclidean):
    grid = RadialGrid.uniform(0.5, 2.0, 101)
    out = wd.radial_laplacian_apply(euclidean.metric, 0, samples(grid, grid.nodes**2))
    assert_allclose(out.values[1:-1], 4.0, atol=1e-10)


def test_flat_m2_harmonic(euclidean):
    grid = RadialGrid.uniform(0.5, 2.0, 101)
    out = wd.radial_laplacian_apply(euclidean.metric, 2, samples(grid, grid.nodes**2))
    assert_allclose(out.values[1:-1], 0.0, atol=1e-10)


def test_hyperbolic_mode_is_annihilated(hyperbolic):
    grid = RadialGrid.uniform(0.5, 3.0, 201)
    mode = wd.biharmonic_mode(hyperbolic.metric, 1, grid, rtol=1e-11, atol=1e-13).harmonic()
    out = wd.radial_laplacian_apply(hyperbolic.metric, 1, samples(grid, mode.phi_values()))
    h = grid.nodes[1] - grid.nodes[0]
    assert np.max(np.abs(out.values[1:-1])) < 5.0 * h * h


def test_laplacian_preconditions(euclidean):
    small = RadialGrid.uniform(1.0, 2.0, 4)
    with pytest.raises(wd.DomainError):
        wd.radial_laplacian_apply(euclidean.metric, 0, samples(small, np.ones(4)))
    with_zero = RadialGrid.uniform(0.0, 1.0, 6)
    with pytest.raises(wd.DomainError):
        wd.radial_laplacian_apply(euclidean.metric, 1, samples(with_zero, np.ones(6)))
    grid = RadialGrid.uniform(1.0, 2.0, 6)
    bad = np.ones(6)
    bad[3] = np.inf
    with pytest.raises(wd.DomainError):
        wd.radial_laplacian_apply(euclidean.metric, 0, samples(grid, bad))


def test_stencil_second_order_convergence(euclidean):
    # L_1 r^3 = 8 r in the flat metric
    maxima = []
    for n in (51, 101, 201):
        grid = RadialGrid.uniform(1.0, 2.0, n)
        out = wd.radial_laplacian_apply(euclidean.metric, 1, samples(grid, grid.nodes**3))
        maxima.append(np.max(np.abs(out.values[1:-1] - 8.0 * grid.nodes[1:-1])))
    assert 3.5 <= maxima[0] / maxima[1] <= 4.5
    assert 3.5 <= maxima[1] / maxima[2] <= 4.5


def test_nonuniform_stencil_exact_on_quadratics(euclidean):
    grid = RadialGrid.geometric(0.5, 4.0, 41)
    out = wd.radial_laplacian_apply(euclidean.metric, 0, samples(grid, grid.nodes**2))
    assert_allclose(out.values[1:-1], 4.0, atol=1e-9)


def test_log_representation_matches_linear(hyperbolic):
    grid = RadialGrid.uniform(1.0, 2.0, 51)
    f = np.cosh(grid.nodes)
    lin = wd.radial_laplacian_apply(hyperbolic.metric, 1, samples(grid, f))
    log = wd.radial_laplacian_apply(hyperbolic.metric, 1, samples(grid, np.log(f), "logarithmic"))
    assert_allclose(lin.values, log.values, rtol=1e-9, atol=1e-11)


# ----------------------------------------------------------------------
# sturm_compare
# ----------------------------------------------------------------------

def threshold_pair(r0=2.0, a=2.5, b=12.0, n=301):
    """f below the threshold comparison function, h above it."""
    grid = RadialGrid.uniform(a, b, n)
    r = grid.nodes
    psi = (r - r0 + 1.0) * np.log(r - r0 + 1.0)
    # kappa at least max psi''/psi and (psi'/psi)(a)^2 so the exponential
    # dominates both hypotheses
    ratio2 = 1.0 / ((r - r0 + 1.0) ** 2 * np.log(r - r0 + 1.0))
    slope_a = (np.log(r[0] - r0 + 1.0) + 1.0) / psi[0]
    kappa = max(float(np.max(ratio2)), slope_a**2) * 1.5
    h = np.exp(math.sqrt(kappa) * (r - r[0]))
    return grid, psi, h


def test_sturm_threshold_pair_passes():
    grid, f, h = threshold_pair()
    report = wd.sturm_compare(samples(grid, f), samples(grid, h))
    assert report.hypotheses_hold
    assert report.conclusion_holds
    assert report.consistent
    assert report.first_violation is None


def test_sturm_reflexive():
    grid = RadialGrid.uniform(1.0, 5.0, 101)
    f = np.exp(0.3 * grid.nodes)
    report = wd.sturm_compare(samples(grid, f), samples(grid, f))
    assert report.hypotheses_hold and report.conclusion_holds


def test_sturm_sinh_vs_exp_hypotheses_violated():
    # f''/f = h''/h = 1 but f'/f(1) = coth 1 > 1 = h'/h(1)
    grid = RadialGrid.uniform(1.0, 10.0, 301)
    f = np.sinh(grid.nodes)
    h = np.exp(grid.nodes)
    report = wd.sturm_compare(samples(grid, f), samples(grid, h))
    assert not report.slope_ordering_at_start
    assert not report.hypotheses_hold
    assert report.consistent  # no claim is made when hypotheses fail


def test_sturm_rejects_mismatched_grids():
    g1 = RadialGrid.uniform(1.0, 2.0, 11)
    g2 = RadialGrid.uniform(1.0, 2.0, 12)
    with pytest.raises(wd.DomainError):
        wd.sturm_compare(samples(g1, np.ones(11)), samples(g2, np.ones(12)))


def test_sturm_rejects_nonpositive():
    grid = RadialGrid.uniform(1.0, 2.0, 11)
    with pytest.raises(wd.DomainError):
        wd.sturm_compare(samples(grid, np.linspace(-1, 1, 11)), samples(grid, np.ones(11)))


def random_ordered_pair(rng):
    """Solutions of v' = q - v^2 with ordered q and ordered start."""
    c0 = rng.uniform(0.05, 1.0)
    c1 = rng.uniform(0.0, 0.8)
    w1 = rng.uniform(0.5, 2.0)
    p1 = rng.uniform(0.0, 2.0 * math.pi)
    gap = rng.uniform(0.0, 1.0)
    w2 = rng.uniform(0.5, 2.0)
    p2 = rng.uniform(0.0, 2.0 * math.pi)

    def q_f(r):
        return c0 + c1 * (1.0 + math.sin(w1 * r + p1)) / 2.0

    def q_h(r):
        return q_f(r) + gap * (1.0 + math.sin(w2 * r + p2)) / 2.0

    v0 = rng.uniform(0.05, 1.0)
    dv0 = rng.uniform(0.01, 0.5)

    def rhs(r, y):
        return (q_f(r) - y[0] ** 2, q_h(r) - y[1] ** 2,
                y[0], y[1])

    sol = solve_ivp(rhs, (1.0, 4.0), (v0, v0 + dv0, 0.0, 0.0),
                    rtol=1e-11, atol=1e-13, dense_output=True)
    return sol


def test_sturm_randomized_soundness():
    rng = np.random.default_rng(1234)
    grid = RadialGrid.uniform(1.0, 4.0, 121)
    for _ in range(100):
        sol = random_ordered_pair(rng)
        vf, vh, log_f, log_h = sol.sol(grid.nodes)
        assert np.all(vf <= vh + 1e-9 * np.maximum(1.0, np.abs(vh)))
        report = wd.sturm_compare(
            samples(grid, log_f, "logarithmic"), samples(grid, log_h, "logarithmic")
        )
        assert report.conclusion_holds


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
