import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import warped_disk as wd
from warped_disk import bvp
from warped_disk.geometry import RadialGrid
from warped_disk.modes import mode_pass
from warped_disk.operators import separated_laplacian


def spectrum_from_arrays(m_max, alpha, beta, real_valued=False):
    return bvp.FourierSpectrum(
        m_max=m_max,
        alpha=np.asarray(alpha, dtype=complex),
        beta=np.asarray(beta, dtype=complex),
        truncation_energy=(0.0, 0.0),
        real_valued=real_valued,
    )


def forward_spectrum(metric, radius, m_max, c, d):
    """Boundary coefficients from known (c, d) via independent tight modes."""
    alpha = np.empty(2 * m_max + 1, dtype=complex)
    beta = np.empty(2 * m_max + 1, dtype=complex)
    passes = {m: mode_pass(metric, m, radius, rtol=1e-12, atol=1e-14)
              for m in range(m_max + 1)}
    for i, m in enumerate(range(-m_max, m_max + 1)):
        lam, z = (a[0] for a in passes[abs(m)].lam_z(np.array([radius])))
        phi_m = math.exp(lam[0])
        alpha[i] = c[i] * phi_m + d[i] * z[0] * phi_m
        beta[i] = d[i] * phi_m
    return spectrum_from_arrays(m_max, alpha, beta), passes


# ----------------------------------------------------------------------
# traces and spectra
# ----------------------------------------------------------------------

def test_trace_validation():
    with pytest.raises(wd.DomainError):
        bvp.BoundaryTrace(1.0, np.ones(12), np.zeros(12))  # not a power of two
    with pytest.raises(wd.DomainError):
        bvp.BoundaryTrace(1.0, np.ones(8), np.zeros(4))
    with pytest.raises(wd.DomainError):
        bvp.BoundaryTrace(-1.0, np.ones(8), np.zeros(8))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_trace_refuses_non_finite_samples(bad):
    samples = np.ones(8)
    samples[3] = bad
    with pytest.raises(wd.DomainError, match="finite"):
        bvp.BoundaryTrace(1.0, samples, np.zeros(8))
    with pytest.raises(wd.DomainError, match="finite"):
        bvp.BoundaryTrace(1.0, np.zeros(8), samples.astype(complex))


def test_analyze_constant_trace():
    trace = bvp.BoundaryTrace(1.0, np.ones(16), np.zeros(16))
    spec = wd.analyze_trace(trace, 4)
    assert_allclose(spec.pair(0)[0], 1.0, atol=1e-14)
    for m in range(1, 5):
        assert abs(spec.pair(m)[0]) < 1e-14
        assert abs(spec.pair(-m)[0]) < 1e-14


def test_analyze_cosine():
    theta = 2.0 * np.pi * np.arange(32) / 32
    trace = bvp.BoundaryTrace(1.0, np.cos(2.0 * theta), np.zeros(32))
    spec = wd.analyze_trace(trace, 4)
    assert_allclose(spec.pair(2)[0], 0.5, atol=1e-14)
    assert_allclose(spec.pair(-2)[0], 0.5, atol=1e-14)
    assert abs(spec.pair(1)[0]) < 1e-14


def test_analyze_needs_enough_samples():
    trace = bvp.BoundaryTrace(1.0, np.ones(8), np.zeros(8))
    with pytest.raises(wd.DomainError):
        wd.analyze_trace(trace, 4)


def test_analyze_parseval():
    # m_max = 31 is the largest that N = 64 allows; it keeps the bins
    # m = -31 .. 31. The one bin left out is the Nyquist bin m = N/2 = 32.
    # On the samples cos(N/2 theta) is (-1)^j, with sample energy 1 but
    # continuous energy 1/2, so the symmetric layout cannot carry that bin
    # and keep Parseval: its energy goes to truncation_energy instead.
    n, m_max = 64, 31
    rng = np.random.default_rng(0)
    u = rng.normal(size=n)
    lap = rng.normal(size=n)
    sign = (-1.0) ** np.arange(n)
    nyq_u = np.mean(u * sign)
    nyq_lap = np.mean(lap * sign)

    # Band-limited to |m| <= m_max: Parseval holds in full, with no warning.
    u_band = u - nyq_u * sign
    lap_band = lap - nyq_lap * sign
    with warnings.catch_warnings():
        warnings.simplefilter("error", wd.AliasingWarning)
        spec = wd.analyze_trace(bvp.BoundaryTrace(1.0, u_band, lap_band), m_max)
    assert_allclose(np.sum(np.abs(spec.alpha) ** 2), np.mean(u_band**2), rtol=1e-12)
    assert_allclose(np.sum(np.abs(spec.beta) ** 2), np.mean(lap_band**2), rtol=1e-12)

    # The raw draw: the kept bins plus the Nyquist energy make up the whole,
    # and truncation_energy reports exactly the Nyquist share.
    with pytest.warns(wd.AliasingWarning):
        spec = wd.analyze_trace(bvp.BoundaryTrace(1.0, u, lap), m_max)
    assert_allclose(np.sum(np.abs(spec.alpha) ** 2) + nyq_u**2, np.mean(u**2), rtol=1e-12)
    assert_allclose(np.sum(np.abs(spec.beta) ** 2) + nyq_lap**2, np.mean(lap**2), rtol=1e-12)
    assert_allclose(spec.truncation_energy,
                    (nyq_u**2 / np.mean(u**2), nyq_lap**2 / np.mean(lap**2)), rtol=1e-12)


def test_analyze_aliasing_warning():
    theta = 2.0 * np.pi * np.arange(32) / 32
    trace = bvp.BoundaryTrace(1.0, np.cos(9.0 * theta), np.zeros(32))
    with pytest.warns(wd.AliasingWarning):
        spec = wd.analyze_trace(trace, 4)
    assert spec.truncation_energy[0] > 0.99


def test_bandlimited_round_trip():
    rng = np.random.default_rng(3)
    m_max = 6
    alpha = rng.normal(size=13) + 1j * rng.normal(size=13)
    beta = rng.normal(size=13) + 1j * rng.normal(size=13)
    spec = spectrum_from_arrays(m_max, alpha, beta)
    trace = wd.synthesize_trace(spec, 2.0, 32)
    back = wd.analyze_trace(trace, m_max)
    assert_allclose(back.alpha, alpha, atol=1e-12)
    assert_allclose(back.beta, beta, atol=1e-12)


def test_real_trace_conjugate_symmetry():
    theta = 2.0 * np.pi * np.arange(32) / 32
    trace = bvp.BoundaryTrace(1.0, np.cos(theta) + 0.3 * np.sin(3 * theta), np.cos(2 * theta))
    spec = wd.analyze_trace(trace, 5)
    for m in range(1, 6):
        assert_allclose(spec.pair(-m)[0], np.conj(spec.pair(m)[0]), atol=1e-14)
    assert spec.real_valued


# ----------------------------------------------------------------------
# the coefficient solve
# ----------------------------------------------------------------------

def test_solve_constant(euclidean):
    alpha = np.zeros(9, dtype=complex)
    alpha[4] = 1.0
    spec = spectrum_from_arrays(4, alpha, np.zeros(9), real_valued=True)
    coeffs = wd.solve_disk_biharmonic(euclidean.metric, 1.0, spec)
    assert_allclose(coeffs.pair(0)[0], 1.0, atol=1e-12)
    assert all(coeffs.pair(m)[1] == 0 for m in range(-4, 5))


def test_solve_flat_paraboloid(euclidean):
    # u = r^2/4 on the unit disk: alpha_0 = 1/4, beta_0 = 1, and
    # psi_0(1) = 1/4 exactly, so d_0 = 1 and c_0 = 0
    alpha = np.zeros(3, dtype=complex)
    beta = np.zeros(3, dtype=complex)
    alpha[1] = 0.25
    beta[1] = 1.0
    spec = spectrum_from_arrays(1, alpha, beta, real_valued=True)
    coeffs = wd.solve_disk_biharmonic(euclidean.metric, 1.0, spec)
    c0, d0 = coeffs.pair(0)
    assert_allclose(d0, 1.0, atol=1e-9)
    assert abs(c0) < 1e-9


def test_solve_known_pair_flat(euclidean):
    # m = +/-1 solution (r + r^3/8) cos(theta) built from c = d = (1/2, 1/2)
    radius = 2.0
    c = np.array([0.5, 0.0, 0.5], dtype=complex)
    d = np.array([0.5, 0.0, 0.5], dtype=complex)
    phi1 = radius
    psi1 = radius**3 / 8.0
    alpha = np.array([c[0] * phi1 + d[0] * psi1, 0.0, c[2] * phi1 + d[2] * psi1])
    beta = np.array([d[0] * phi1, 0.0, d[2] * phi1])
    spec = spectrum_from_arrays(1, alpha, beta, real_valued=True)
    coeffs = wd.solve_disk_biharmonic(euclidean.metric, radius, spec)
    for m in (-1, 1):
        cm, dm = coeffs.pair(m)
        assert_allclose(cm, 0.5, rtol=1e-10)
        assert_allclose(dm, 0.5, rtol=1e-10)


def test_solve_recovers_random_coefficients(hyperbolic):
    rng = np.random.default_rng(21)
    m_max = 6
    c = rng.normal(size=13) + 1j * rng.normal(size=13)
    d = rng.normal(size=13) + 1j * rng.normal(size=13)
    spec, _ = forward_spectrum(hyperbolic.metric, 3.0, m_max, c, d)
    coeffs = wd.solve_disk_biharmonic(hyperbolic.metric, 3.0, spec)
    assert_allclose(coeffs.c, c, rtol=1e-7, atol=1e-9)
    assert_allclose(coeffs.d, d, rtol=1e-7, atol=1e-9)
    assert_allclose(coeffs.conditioning[::-1], coeffs.conditioning)  # z(R) per |m|


def test_solve_and_boundary_check_equal_the_per_mode_formulas(hyperbolic):
    # the array expressions must round exactly as the scalar per-m formulas
    rng = np.random.default_rng(12)
    m_max, radius = 5, 2.5
    alpha = rng.normal(size=11) + 1j * rng.normal(size=11)
    beta = rng.normal(size=11) + 1j * rng.normal(size=11)
    beta[3] = 0.0
    spec = spectrum_from_arrays(m_max, alpha, beta)
    coeffs = wd.solve_disk_biharmonic(hyperbolic.metric, radius, spec)
    lam, z = coeffs._modes.lam_z(radius)
    bu = bl = 0.0
    for i, m in enumerate(range(-m_max, m_max + 1)):
        lam_r, z_r = float(lam[abs(m)]), float(z[abs(m)])
        a, b = complex(alpha[i]), complex(beta[i])
        scale = math.exp(-lam_r)
        c, d = (a - b * z_r) * scale, b * scale
        assert coeffs.pair(m) == (c, d)
        assert coeffs.conditioning[i] == z_r
        phim = math.exp(lam_r)
        bu += abs((c + d * z_r) * phim - a)
        bl += abs(d * phim - b)
    report = wd.verify_disk_solution(hyperbolic.metric, coeffs, RadialGrid.uniform(0.5, radius, 33))
    assert (report.boundary_u_error, report.boundary_lap_error) == (bu, bl)


def _per_mode_interior_residuals(profile, coeffs, grid):
    """interior_max and interior_rms as one stencil call per mode computes them."""
    x = grid.nodes
    v = np.asarray(profile.dlog_phi(x), dtype=float)
    phi = np.asarray(profile.phi(x), dtype=float)
    lam, z = coeffs._modes.lam_z(x)
    m_max = coeffs.spectrum.m_max
    worst = 0.0
    sq_sum = 0.0
    for m in range(-m_max, m_max + 1):
        cm, dm = coeffs.pair(m)
        am = abs(m)
        phim = np.exp(np.minimum(lam[am], 700.0))
        fm = (cm + dm * z[am]) * phim
        res = separated_laplacian(m, x, fm.real, v, phi=phi) - dm.real * phim
        if cm.imag or dm.imag:
            res = res + 1j * (separated_laplacian(m, x, fm.imag, v, phi=phi) - dm.imag * phim)
        scaled = np.abs(res[1:-1]) / max(1.0, float(np.max(np.abs(fm))))
        worst = max(worst, float(np.max(scaled)))
        sq_sum += float(np.sum(scaled**2))
    return worst, math.sqrt(sq_sum / ((2 * m_max + 1) * (x.size - 2)))


@pytest.mark.parametrize("surface", ["euclidean", "hyperbolic", "power1"])
@pytest.mark.parametrize("kind", ["real_trace", "complex", "zero_rows"])
def test_interior_check_equals_the_per_mode_loop(request, surface, kind):
    # one stencil pass over all modes rounds exactly as one pass per mode
    metric = request.getfixturevalue(surface).metric
    rng = np.random.default_rng(21)
    m_max, radius = 8, 3.0
    if kind == "real_trace":
        trace = bvp.BoundaryTrace(radius, rng.normal(size=64), rng.normal(size=64))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", wd.AliasingWarning)
            spec = wd.analyze_trace(trace, m_max)
    else:
        alpha = rng.normal(size=17) + 1j * rng.normal(size=17)
        beta = rng.normal(size=17) + 1j * rng.normal(size=17)
        if kind == "zero_rows":   # real, imaginary and vanishing rows side by side
            alpha[::3] = alpha[::3].real
            beta[::3] = beta[::3].real
            alpha[1::4] = beta[1::4] = 0.0
        spec = spectrum_from_arrays(m_max, alpha, beta)
    coeffs = wd.solve_disk_biharmonic(metric, radius, spec)
    grid = RadialGrid.geometric(radius * 1e-3, radius, 257)
    report = wd.verify_disk_solution(metric, coeffs, grid)
    expected = _per_mode_interior_residuals(metric, coeffs, grid)
    assert (report.interior_max, report.interior_rms) == expected


def test_solve_flags_underflow():
    # a cigar, phi = eps tanh(r/eps), whose warp function levels off at
    # eps, so Lambda_1(R) ~ (R - 1)/eps = 600 > 500
    eps = 0.01

    def k(r):
        q = math.exp(-r / eps)   # sech(r/eps) = 2q/(1 + q^2), without cosh overflow
        return 2.0 / eps**2 * (2.0 * q / (1.0 + q * q)) ** 2

    prof = wd.profile_from_curvature(k, r_max=8.0)
    alpha = np.zeros(3, dtype=complex)
    beta = np.zeros(3, dtype=complex)
    beta[2] = 1.0  # m = +1
    spec = spectrum_from_arrays(1, alpha, beta)
    coeffs = wd.solve_disk_biharmonic(prof, 7.0, spec)
    assert coeffs.underflow[2]
    assert coeffs.pair(1)[1] == 0.0


def test_harmonic_degeneration(euclidean):
    rng = np.random.default_rng(5)
    m_max = 4
    alpha = rng.normal(size=9) + 1j * rng.normal(size=9)
    spec = spectrum_from_arrays(m_max, alpha, np.zeros(9))
    coeffs = wd.solve_disk_biharmonic(euclidean.metric, 2.0, spec)
    assert np.all(coeffs.d == 0.0)
    expected_c = alpha * np.exp(-np.abs(np.arange(-4, 5)) * math.log(2.0))
    assert_allclose(coeffs.c, expected_c, rtol=1e-9)


def test_solve_deterministic(euclidean):
    rng = np.random.default_rng(9)
    alpha = rng.normal(size=9) + 1j * rng.normal(size=9)
    beta = rng.normal(size=9) + 1j * rng.normal(size=9)
    spec = spectrum_from_arrays(4, alpha, beta)
    first = wd.solve_disk_biharmonic(euclidean.metric, 2.0, spec)
    second = wd.solve_disk_biharmonic(euclidean.metric, 2.0, spec)
    assert np.array_equal(first.c, second.c)
    assert np.array_equal(first.d, second.d)


def test_solve_linear_in_boundary_perturbation(euclidean):
    base = spectrum_from_arrays(2, np.zeros(5), np.zeros(5))
    base_coeffs = wd.solve_disk_biharmonic(euclidean.metric, 2.0, base)
    results = {}
    for delta in (1e-3, 2e-3):
        alpha = np.zeros(5, dtype=complex)
        alpha[4] = delta  # m = +2 entry only
        coeffs = wd.solve_disk_biharmonic(euclidean.metric, 2.0, spectrum_from_arrays(2, alpha, np.zeros(5)))
        moved = np.flatnonzero(np.abs(coeffs.c - base_coeffs.c) + np.abs(coeffs.d - base_coeffs.d))
        assert list(moved) == [4]
        results[delta] = complex(coeffs.c[4])
    assert_allclose(results[2e-3] / results[1e-3], 2.0, rtol=1e-12)


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

def test_evaluate_constant(euclidean):
    alpha = np.zeros(5, dtype=complex)
    alpha[2] = 1.0
    coeffs = wd.solve_disk_biharmonic(
        euclidean.metric, 1.5, spectrum_from_arrays(2, alpha, np.zeros(5), real_valued=True)
    )
    for r, theta in ((0.0, 0.0), (0.3, 1.1), (1.5, 4.0)):
        assert_allclose(wd.evaluate_solution(euclidean.metric, coeffs, r, theta), 1.0, atol=1e-10)


def test_evaluate_flat_paraboloid(euclidean):
    # u = r^2/4 on the disk of radius 2: alpha_0 = u(2) = 1 and, under the
    # package convention Delta(r^2/4) = 1, beta_0 = 1
    alpha = np.zeros(3, dtype=complex)
    beta = np.zeros(3, dtype=complex)
    alpha[1] = 1.0
    beta[1] = 1.0
    coeffs = wd.solve_disk_biharmonic(
        euclidean.metric, 2.0, spectrum_from_arrays(1, alpha, beta, real_valued=True)
    )
    for r in (0.05, 0.5, 1.3, 2.0):
        assert_allclose(
            wd.evaluate_solution(euclidean.metric, coeffs, r, 0.7), r * r / 4.0,
            rtol=1e-6, atol=1e-9,
        )


def test_evaluate_refuses_extrapolation(euclidean):
    alpha = np.zeros(3, dtype=complex)
    alpha[1] = 1.0
    coeffs = wd.solve_disk_biharmonic(
        euclidean.metric, 1.0, spectrum_from_arrays(1, alpha, np.zeros(3))
    )
    with pytest.raises(wd.DomainError):
        wd.evaluate_solution(euclidean.metric, coeffs, 1.5, 0.0)


def test_evaluate_against_dense_synthesis(hyperbolic):
    rng = np.random.default_rng(17)
    m_max = 4
    c = rng.normal(size=9) + 1j * rng.normal(size=9)
    d = rng.normal(size=9) + 1j * rng.normal(size=9)
    spec, passes = forward_spectrum(hyperbolic.metric, 3.0, m_max, c, d)
    coeffs = wd.solve_disk_biharmonic(hyperbolic.metric, 3.0, spec)
    for r, theta in ((0.02, 0.3), (0.4, 2.0), (1.7, 5.5), (2.99, 1.0)):
        value = wd.evaluate_solution(hyperbolic.metric, coeffs, r, theta)
        exact = 0.0j
        for i, m in enumerate(range(-m_max, m_max + 1)):
            lam, z = (a[0] for a in passes[abs(m)].lam_z(np.array([max(r, 2.1e-5)])))
            exact += (c[i] + d[i] * z[0]) * np.exp(lam[0]) * np.exp(1j * m * theta)
        assert abs(value - exact) < 1e-8


@settings(max_examples=20)
@given(st.booleans(), st.integers(0, 4), st.floats(0.5, 3.0), st.booleans(), st.data())
def test_band_limited_spectrum_survives_solve_and_evaluation(
    euclidean, hyperbolic, flat, m_max, radius, real, data
):
    # the solution evaluated on the rim reproduces the boundary trace
    size = 2 * m_max + 1
    parts = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=4 * size, max_size=4 * size))
    re_a, im_a, re_b, im_b = np.reshape(parts, (4, size))
    alpha = re_a + 1j * im_a
    beta = re_b + 1j * im_b
    if real:  # conjugate-symmetric, so the trace is real
        alpha = alpha + np.conj(alpha[::-1])
        beta = beta + np.conj(beta[::-1])
    spec = spectrum_from_arrays(m_max, alpha, beta, real_valued=real)
    metric = (euclidean if flat else hyperbolic).metric
    coeffs = wd.solve_disk_biharmonic(metric, radius, spec)
    trace = wd.synthesize_trace(spec, radius, 16)
    values = np.array([wd.evaluate_solution(metric, coeffs, radius, theta)
                       for theta in trace.theta_nodes])
    scale = float(np.max(np.abs(trace.u_values)))
    assert np.max(np.abs(values - trace.u_values)) <= 1e-9 * scale


# ----------------------------------------------------------------------
# verification report
# ----------------------------------------------------------------------

def test_verify_constant_zero_residual(euclidean):
    alpha = np.zeros(3, dtype=complex)
    alpha[1] = 1.0
    coeffs = wd.solve_disk_biharmonic(
        euclidean.metric, 1.0, spectrum_from_arrays(1, alpha, np.zeros(3))
    )
    report = wd.verify_disk_solution(
        euclidean.metric, coeffs, RadialGrid.geometric(1e-2, 1.0, 101)
    )
    assert report.interior_max < 1e-12
    assert report.boundary_u_error < 1e-14


def test_verify_flat_paraboloid_rounding(euclidean):
    alpha = np.zeros(3, dtype=complex)
    beta = np.zeros(3, dtype=complex)
    alpha[1] = 0.25
    beta[1] = 1.0
    coeffs = wd.solve_disk_biharmonic(
        euclidean.metric, 1.0, spectrum_from_arrays(1, alpha, beta)
    )
    report = wd.verify_disk_solution(
        euclidean.metric, coeffs, RadialGrid.geometric(1e-2, 1.0, 101)
    )
    assert report.interior_max < 1e-8  # stencils exact on quadratics
    assert report.boundary_u_error < 1e-14


def test_verify_random_solution_hyperbolic(hyperbolic):
    rng = np.random.default_rng(8)
    m_max = 3
    c = rng.normal(size=7) + 1j * rng.normal(size=7)
    d = rng.normal(size=7) + 1j * rng.normal(size=7)
    spec, _ = forward_spectrum(hyperbolic.metric, 2.0, m_max, c, d)
    coeffs = wd.solve_disk_biharmonic(hyperbolic.metric, 2.0, spec)
    maxima = []
    for n in (51, 101, 201):
        report = wd.verify_disk_solution(
            hyperbolic.metric, coeffs, RadialGrid.uniform(0.5, 2.0, n)
        )
        maxima.append(report.interior_max)
        assert report.boundary_u_error < 1e-8
    assert 3.3 <= maxima[0] / maxima[1] <= 4.7
    assert 3.3 <= maxima[1] / maxima[2] <= 4.7


# ----------------------------------------------------------------------
# CSV round trips
# ----------------------------------------------------------------------

def test_trace_csv_round_trip(tmp_path):
    theta = 2.0 * np.pi * np.arange(16) / 16
    trace = bvp.BoundaryTrace(2.0, np.cos(theta), np.sin(theta))
    path = tmp_path / "trace.csv"
    bvp.write_trace_csv(path, trace)
    back = bvp.read_trace_csv(path, radius=2.0)
    assert_allclose(back.u_values, trace.u_values, atol=1e-15)
    assert_allclose(back.lap_u_values, trace.lap_u_values, atol=1e-15)


def test_trace_csv_rejects_bad_input(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("theta,u\n0.0,1.0\n")
    with pytest.raises(wd.DomainError):
        bvp.read_trace_csv(path, radius=1.0)
    path.write_text("theta,u,lap_u\n0.0,1.0,0.0\n0.5,1.0,0.0\n1.0,1.0,0.0\n")
    with pytest.raises(wd.DomainError):
        bvp.read_trace_csv(path, radius=1.0)


@pytest.mark.parametrize("row", ["0.5,1.0", "0.5,one,0.0"], ids=["short", "non_numeric"])
def test_trace_csv_names_the_malformed_line(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"theta,u,lap_u\n0.0,1.0,0.0\n{row}\n")
    with pytest.raises(wd.DomainError, match=r"bad\.csv, line 3: expected three numbers"):
        bvp.read_trace_csv(path, radius=1.0)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_trace_csv_names_the_non_finite_line(tmp_path, cell):
    theta = (2.0 * np.pi * np.arange(4) / 4).tolist()
    rows = [f"{t!r},1.0,0.0" for t in theta]
    rows[2] = f"{theta[2]!r},1.0,{cell}"
    path = tmp_path / "bad.csv"
    path.write_text("theta,u,lap_u\n" + "\n".join(rows) + "\n")
    with pytest.raises(wd.DomainError, match=r"bad\.csv, line 4: non-finite sample"):
        bvp.read_trace_csv(path, radius=1.0)


def test_coefficients_csv(tmp_path, euclidean):
    alpha = np.zeros(3, dtype=complex)
    alpha[1] = 1.0
    coeffs = wd.solve_disk_biharmonic(
        euclidean.metric, 1.0, spectrum_from_arrays(1, alpha, np.zeros(3))
    )
    path = tmp_path / "coeffs.csv"
    bvp.write_coefficients_csv(path, coeffs)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "m,re_c,im_c,re_d,im_d"
    assert len(lines) == 4
    middle = lines[2].split(",")
    assert middle[0] == "0" and float(middle[1]) == 1.0
