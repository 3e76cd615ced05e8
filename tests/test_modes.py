import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad

import warped_disk as wd
from warped_disk import _lsoda, exact, modes
from warped_disk.geometry import RadialGrid, _blended_curvature
from warped_disk.modes import export_mode_csv, mode_pass
from warped_disk.operators import separated_laplacian

from conftest import k_only

TIGHT = dict(rtol=1e-10, atol=1e-12)
PLANE = exact.space_form(0.0)
HYPERBOLIC = exact.space_form(-1.0)


# ----------------------------------------------------------------------
# harmonic modes
# ----------------------------------------------------------------------

def test_flat_mode_is_power(euclidean):
    grid = RadialGrid.geometric(0.1, 10.0, 201)
    mode = wd.biharmonic_mode(euclidean.metric, 3, grid, **TIGHT)
    assert_allclose(mode.lam, PLANE.lam(3, grid.nodes), atol=1e-8)


def test_zero_mode_is_trivial(euclidean):
    grid = RadialGrid.geometric(0.1, 10.0, 31)
    mode = wd.biharmonic_mode(euclidean.metric, 0, grid)
    assert np.all(mode.lam == 0.0)
    assert np.all(mode.lam_error == 0.0)


def test_mode_symmetry_in_m(hyperbolic):
    grid = RadialGrid.geometric(0.5, 8.0, 61)
    plus = wd.biharmonic_mode(hyperbolic.metric, 2, grid)
    minus = wd.biharmonic_mode(hyperbolic.metric, -2, grid)
    assert_allclose(plus.lam, minus.lam, rtol=0.0, atol=0.0)


def test_hyperbolic_mode_closed_form(hyperbolic):
    grid = RadialGrid.geometric(0.25, 30.0, 121)
    mode = wd.biharmonic_mode(hyperbolic.metric, 1, grid, **TIGHT)
    assert_allclose(mode.lam, HYPERBOLIC.lam1(grid.nodes), atol=1e-8)


def test_mode_normalized_at_one(euclidean, hyperbolic):
    grid = RadialGrid(np.array([0.5, 0.75, 1.0, 2.0, 3.0]))
    for surface in (euclidean, hyperbolic):
        mode = wd.biharmonic_mode(surface.metric, 2, grid)
        assert abs(mode.lam[2]) < 1e-10


def test_mode_monotone(log_threshold):
    grid = RadialGrid.geometric(0.5, 100.0, 101)
    mode = wd.biharmonic_mode(log_threshold.metric, 3, grid)
    assert np.all(np.diff(mode.lam) >= -1e-12)


def test_error_bounds_are_conservative(euclidean):
    grid = RadialGrid.geometric(0.1, 10.0, 101)
    mode = wd.biharmonic_mode(euclidean.metric, 5, grid, **TIGHT)
    actual = np.abs(mode.lam - PLANE.lam(5, grid.nodes))
    assert np.all(actual <= mode.lam_error + 1e-11)


@pytest.mark.parametrize("eps", [0.5, 1.0, 2.0])
def test_error_bounds_cover_the_profile_error(eps):
    # both passes integrate the profile themselves, so their gap covers its
    # error too; a reference from a far tighter profile and tolerance must
    # lie within the reported bounds at every node
    grid = RadialGrid.geometric(1e-3, 100.0, 512)
    surface = wd.builtin_profile("power-curvature", eps=eps, r_max=120.0)
    ref_surface = wd.builtin_profile("power-curvature", eps=eps, r_max=120.0,
                                     step_control=(1e-13, 1e-15))
    got = wd.biharmonic_mode(surface.metric, range(4), grid)
    ref = wd.biharmonic_mode(ref_surface.metric, range(4), grid, rtol=1e-11, atol=1e-13)
    for mode, exact in zip(got, ref):
        assert np.all(np.abs(mode.lam - exact.lam) <= mode.lam_error), mode.m
        assert np.all(np.abs(mode.log_psi - exact.log_psi) <= mode.quadrature_error), mode.m


def test_lam_error_covers_a_node_where_the_pass_gap_vanishes(euclidean):
    # the loose and tight passes agree to the atol floor at r = 0.0256,
    # while the tight pass is off by 1.1e-9 |m| there
    grid = RadialGrid.geometric(0.00094, 11.4, 530)
    for mode in wd.biharmonic_mode(euclidean.metric, range(4), grid, rtol=1e-7, atol=1e-9):
        actual = np.abs(mode.lam - PLANE.lam(mode.m, grid.nodes))
        assert np.all(actual <= mode.lam_error), mode.m


_CLOSED_FORM = {"euclidean": PLANE, "hyperbolic": HYPERBOLIC}


@settings(max_examples=30)
@given(surface=st.sampled_from(sorted(_CLOSED_FORM)),
       log_rtol=st.floats(math.log10(3.2e-10), -5.0),
       ms=st.sets(st.integers(0, 8), min_size=1),
       r_min=st.floats(1e-4, 1e-1), r_max=st.floats(3.0, 1000.0), n=st.integers(32, 600))
def test_lam_error_covers_the_closed_form_at_every_node(request, surface, log_rtol, ms,
                                                         r_min, r_max, n):
    metric = request.getfixturevalue(surface).metric
    rtol = 10.0 ** log_rtol
    grid = RadialGrid.geometric(r_min, r_max, n)
    form = _CLOSED_FORM[surface]
    for mode in wd.biharmonic_mode(metric, sorted(ms), grid, rtol=rtol, atol=rtol / 100.0):
        actual = np.abs(mode.lam - form.lam(mode.m, grid.nodes))
        assert np.all(actual <= mode.lam_error), mode.m


def test_exp_square_surface_is_within_its_bounds_at_every_node():
    # phi = r e^{r^2}, integrated from K = -6 - 4r^2 alone
    surface = exact.exp_square
    metric = wd.profile_from_curvature(surface.k, r_max=5.0)
    grid = RadialGrid.geometric(1e-3, 5.0, 128)
    mode0, mode1 = wd.biharmonic_mode(metric, (0, 1), grid)
    r = grid.nodes
    assert np.all(np.abs(mode1.lam - surface.lam1(r)) <= mode1.lam_error)
    assert np.all(np.abs(mode0.log_psi - np.log(surface.z0(r))) <= mode0.quadrature_error)
    assert_allclose(mode0.log_phi, surface.log_phi(r), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
def test_milnor_threshold_is_within_its_bounds(kappa):
    # no closed form: Lambda_1 and z_0 of phi = r u^kappa by quadrature of
    # the table's phi, Lambda_1 in t = log s, where its integrand is smooth
    entry = exact.milnor_threshold(kappa)
    grid = RadialGrid.geometric(1e-2, 1000.0, 64)
    mode0, mode1 = wd.biharmonic_mode(k_only(entry.k, 1000.0), (0, 1), grid)

    def phi(s):
        return math.exp(float(entry.log_phi(s)))

    def w0(s):
        return quad(phi, 0.0, s, epsabs=0.0, epsrel=1e-13)[0] / phi(s)

    for i in (0, 20, 40, 63):
        r = float(grid.nodes[i])
        lam1, _ = quad(lambda t: math.exp(t) / phi(math.exp(t)), 0.0, math.log(r),
                       epsabs=1e-14, epsrel=1e-13)
        z0, _ = quad(w0, 0.0, r, epsabs=0.0, epsrel=1e-12, limit=200)
        assert abs(mode1.lam[i] - lam1) <= mode1.lam_error[i], r
        assert abs(mode0.log_psi[i] - math.log(z0)) <= mode0.quadrature_error[i], r


def _below(a, b, rel=1e-8):
    return np.all(a <= b + rel * np.maximum(np.abs(a), np.abs(b)))


@settings(max_examples=40)
@given(tail=st.tuples(st.floats(0.0, 2.0), st.floats(-2.0, 2.5), st.floats(0.5, 4.0)),
       bump=st.tuples(st.floats(0.01, 2.0), st.floats(0.0, 50.0), st.floats(0.2, 5.0)))
def test_more_negative_curvature_orders_the_pass_rows(tail, bump):
    # Sturm comparison: K_a <= K_b gives phi'/phi and log phi of a at least
    # those of b, w_0 (w_0' = 1 - (phi'/phi) w_0) and z_0 at most, and
    # Lambda_1 = integral_1^r ds/phi at most for r >= 1; w_m and z_m with
    # m != 0 are not ordered
    c, p, r0 = tail
    height, center, width = bump
    k_b = _blended_curvature(lambda r: -c * r**p, r0)

    def k_a(r):
        return k_b(r) - height * math.exp(-(((r - center) / width) ** 2))

    radii = np.geomspace(1e-3, 50.0, 64)
    rows = []
    for k in (k_a, k_b):
        mp = mode_pass(k_only(k, 50.0), (0, 1), 50.0, radii=radii)
        lam, z = mp.lam_z(radii)
        rows.append((*mp.profile_rows(radii), mp.inner_ratio(radii, 0), z[0], lam[1]))
    (log_phi_a, v_a, w_a, z_a, lam_a), (log_phi_b, v_b, w_b, z_b, lam_b) = rows
    assert _below(v_b, v_a) and _below(log_phi_b, log_phi_a)
    assert _below(w_a, w_b) and _below(z_a, z_b)
    outer = radii >= 1.0
    assert _below(lam_a[outer], lam_b[outer])


def test_mode_pass_refuses_a_profile_without_curvature(euclidean):
    prof = dataclasses.replace(euclidean.metric, k=None)
    with pytest.raises(wd.DomainError, match="curvature"):
        mode_pass(prof, 1, 10.0)


def test_mode_grid_beyond_profile_raises(euclidean):
    prof = wd.profile_from_curvature(lambda r: 0.0, r_max=2.0)
    grid = RadialGrid.geometric(0.5, 5.0, 21)
    with pytest.raises(wd.DomainError):
        wd.biharmonic_mode(prof, 1, grid)


def test_mode_rejects_nonpositive_grid_start(euclidean):
    grid = RadialGrid.uniform(0.0, 2.0, 21)
    with pytest.raises(wd.DomainError):
        wd.biharmonic_mode(euclidean.metric, 1, grid)


# ----------------------------------------------------------------------
# reduction factor and biharmonic modes
# ----------------------------------------------------------------------

def test_flat_reduction_factor_m0(euclidean):
    grid = RadialGrid.geometric(0.1, 10.0, 101)
    mode = wd.biharmonic_mode(euclidean.metric, 0, grid, **TIGHT)
    assert_allclose(mode.z, PLANE.z_m(0, grid.nodes), rtol=1e-6)
    assert np.all(mode.quadrature_error >= 0.0)


def test_flat_reduction_factor_m1(euclidean):
    grid = RadialGrid.geometric(0.1, 10.0, 101)
    z = wd.biharmonic_mode(euclidean.metric, 1, grid, **TIGHT).z
    assert_allclose(z, PLANE.z_m(1, grid.nodes), rtol=1e-6)


def test_flat_biharmonic_mode_m2(euclidean):
    grid = RadialGrid.geometric(0.1, 10.0, 101)
    mode = wd.biharmonic_mode(euclidean.metric, 2, grid, **TIGHT)
    psi = np.exp(PLANE.lam(2, grid.nodes)) * PLANE.z_m(2, grid.nodes)
    assert_allclose(np.exp(mode.log_psi), psi, rtol=1e-6)
    assert_allclose(mode.log_psi, mode.lam + np.log(mode.z), rtol=0.0, atol=0.0)


def test_hyperbolic_psi0_against_direct_quadrature(hyperbolic):
    # psi_0 = z_0 is the integral of w_0; evaluate that directly as the oracle
    grid = RadialGrid.geometric(0.5, 12.0, 41)
    mode = wd.biharmonic_mode(hyperbolic.metric, 0, grid, **TIGHT)
    for idx in (0, 10, 25, 40):
        oracle, quad_err = quad(HYPERBOLIC.w0, 0.0, grid.nodes[idx])
        assert quad_err < 1e-9
        assert_allclose(mode.z[idx], oracle, rtol=1e-7)
    # and the closed form of that integral keeps growing (unbounded mode)
    assert_allclose(mode.z, HYPERBOLIC.z0(grid.nodes), rtol=1e-7)


def test_biharmonic_mode_invariants(power1):
    grid = RadialGrid.geometric(0.5, 50.0, 81)
    mode = wd.biharmonic_mode(power1.metric, 1, grid)
    assert np.all(mode.z > 0.0)
    assert np.all(np.diff(mode.z) >= -1e-12 * mode.z[:-1])


def test_biharmonic_mode_refuses_a_broken_lambda(euclidean):
    grid = RadialGrid.geometric(0.5, 2.0, 9)
    mode = wd.biharmonic_mode(euclidean.metric, 1, grid)
    with pytest.raises(wd.DomainError, match="nondecreasing"):
        dataclasses.replace(mode, lam=mode.lam[::-1])
    with pytest.raises(wd.DomainError, match="Lambda_0"):
        dataclasses.replace(mode, m=0)


def test_power_reduction_factor_converges(power1):
    # steep negative curvature keeps the biharmonic partner comparable to
    # the harmonic mode: z approaches a finite limit
    radii = 800.0 / 2.0 ** np.arange(6, -1.0, -1.0)
    mp = mode_pass(power1.metric, 1, 800.0)
    z = mp.lam_z(radii)[1][0]
    inc = np.diff(z)
    ratios = inc[1:] / inc[:-1]
    assert np.all(ratios < 0.8)
    assert inc[-1] / z[-1] < 0.05


# ----------------------------------------------------------------------
# one pass over several angular frequencies
# ----------------------------------------------------------------------

def test_shared_pass_flat_closed_forms(euclidean):
    r = np.geomspace(1e-3, 1000.0, 61)
    mp = mode_pass(euclidean.metric, range(9), 1000.0)
    lams, zs = mp.lam_z(r)
    for m in range(9):
        lam, w, z = lams[m], mp.inner_ratio(r, m), zs[m]
        assert_allclose(lam, PLANE.lam(m, r), rtol=1e-8, atol=1e-8 * m)
        assert_allclose(w, PLANE.w_m(m, r), rtol=1e-8)
        assert_allclose(z, PLANE.z_m(m, r), rtol=1e-8)
        assert_array_equal(mp.inner_ratio(r, -m), w)


def test_shared_pass_matches_single_passes(power1):
    # sharing step control must not loosen any component: at the
    # tolerances of biharmonic_mode's tight single-m pass, each m of the
    # shared pass agrees with that mode within its loose/tight bound
    grid = RadialGrid.geometric(0.05, 20.0, 41)
    shared = mode_pass(power1.metric, range(4), grid.r_max,
                       rtol=modes.DEFAULT_RTOL / modes._DELIVER,
                       atol=modes.DEFAULT_ATOL / modes._DELIVER)
    for m in range(4):
        single = wd.biharmonic_mode(power1.metric, m, grid)
        lam, z = (a[m] for a in shared.lam_z(grid.nodes))
        gap = np.abs(lam - single.lam) + np.abs(z - single.z) / single.z
        assert np.all(gap <= single.quadrature_error)


def test_pass_accessors_name_the_mode(euclidean):
    mp = mode_pass(euclidean.metric, (1, 3), 10.0)
    with pytest.raises(wd.DomainError):
        mp.inner_ratio(2.0)
    with pytest.raises(wd.DomainError):
        mp.inner_ratio(2.0, 2)


def test_pass_kept_at_fixed_radii_agrees_with_dense_pass(power1):
    # the odeint pass at named radii and the dense solve_ivp pass drive the
    # same LSODA, but from different first steps; run as biharmonic_mode's
    # loose pass for a request of rtol, they agree within the allowance its
    # check gives that request, the r = 1 normalization included
    rtol = 1e-11 * modes._DELIVER
    r = np.geomspace(0.05, 20.0, 41)
    tols = (rtol / modes._DELIVER, 1e-13)
    dense = modes._ModePass(power1.metric, range(3), 20.0, *tols)
    kept = modes._ModePass(power1.metric, range(3), 20.0, *tols, radii=r)

    def close(a, b):
        allowed = modes._BOUND_SAFETY * rtol * np.maximum(1.0, np.abs(b))
        assert np.all(np.abs(a - b) <= allowed)

    close(kept.lam_at_one, dense.lam_at_one)
    for a, b in zip(kept.lam_z(r), dense.lam_z(r)):
        close(a, b)
    # any subset of the kept radii reads back the same values, any other radius is refused
    sub = r[[30, 2, 17]]
    for a, b in zip(kept.lam_z(sub), kept.lam_z(r)):
        assert_array_equal(a, b[:, [30, 2, 17]])
    assert_array_equal(kept.inner_ratio(r[5], 1), kept.inner_ratio(r, 1)[5])
    for other in (0.5 * (r[3] + r[4]), r[:-1] * (1.0 + 1e-15), 25.0, 1e-3):
        with pytest.raises(wd.DomainError):
            kept.lam_z(other)


@pytest.mark.parametrize("path", ["kept", "dense"])
def test_non_finite_curvature_raises_at_its_radius(euclidean, path):
    # NaN fails no error test, so the solver itself reports success
    bad = dataclasses.replace(euclidean.metric, k=lambda r: math.nan if r > 5.0 else 0.0)
    with pytest.raises(wd.QuadratureError, match="non-finite") as info:
        if path == "kept":
            wd.biharmonic_mode(bad, 2, RadialGrid.geometric(0.1, 50.0, 20))
        else:
            mode_pass(bad, [1, 2], 50.0).lam_z(40.0)
    lo, hi = info.value.worst_interval
    assert lo <= 5.0 < hi <= 10.0


def _run_pass(path, metric):
    if path == "kept":
        wd.biharmonic_mode(metric, 2, RadialGrid.geometric(0.1, 50.0, 20))
    else:
        mode_pass(metric, [1, 2], 50.0)


@pytest.mark.parametrize("path", ["kept", "dense"])
def test_stopped_pass_raises_without_a_warning(euclidean, path, monkeypatch):
    # K = 1e6 makes phi oscillate with period 2 pi / 1000: its first zero,
    # r = pi/1000, is a conjugate point, named in the error alone
    sphere = exact.space_form(1e6)
    stiff = dataclasses.replace(euclidean.metric, k=sphere.k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(wd.ConjugatePointError) as info:
            _run_pass(path, stiff)
        assert info.value.radius == pytest.approx(sphere.r_max, rel=1e-6)

        # a stop where phi is not collapsing keeps LSODA's reason
        def stop(*args, **kwargs):
            raise _lsoda.Stopped(-5, 7.0, np.zeros(7))

        monkeypatch.setattr(_lsoda, "at_radii", stop)
        monkeypatch.setattr(_lsoda, "dense", stop)
        with pytest.raises(wd.QuadratureError, match="convergence failures") as info:
            _run_pass(path, euclidean.metric)
    assert info.value.worst_interval == (7.0, 50.0)


@pytest.mark.parametrize("k", [1.0, 1e6])
@pytest.mark.parametrize("path", ["radii", "dense", "biharmonic_mode"])
def test_every_pass_names_the_conjugate_point(euclidean, path, k):
    # phi = sin(sqrt(K) r) / sqrt(K) returns to zero at pi / sqrt(K)
    form = exact.space_form(k)
    first_zero = form.r_max
    sphere = dataclasses.replace(euclidean.metric, k=form.k)
    nodes = np.geomspace(0.1 * first_zero, 1.6 * first_zero, 20)
    with pytest.raises(wd.ConjugatePointError) as info:
        if path == "radii":
            mode_pass(sphere, [0, 1], nodes[-1], radii=nodes)
        elif path == "dense":
            mode_pass(sphere, [1, 2], nodes[-1])
        else:
            wd.biharmonic_mode(sphere, range(3), RadialGrid(nodes))
    assert info.value.radius == pytest.approx(first_zero, rel=1e-6)


def test_origin_seed_past_the_first_zero_names_the_conjugate_point(euclidean):
    # K(0) t0^2 >= 6 (t0 = 1e-5 here): the origin series leaves phi(t0) <= 0
    form = exact.space_form(1e11)
    sphere = dataclasses.replace(euclidean.metric, k=form.k)
    with pytest.raises(wd.ConjugatePointError) as info:
        mode_pass(sphere, [0, 1], 1.0)
    assert info.value.radius == form.r_max


def test_biharmonic_mode_return_shape(euclidean):
    grid = RadialGrid.geometric(0.1, 10.0, 33)
    one = wd.biharmonic_mode(euclidean.metric, 2, grid)
    assert isinstance(one, wd.BiharmonicMode) and one.m == 2
    (only,) = wd.biharmonic_mode(euclidean.metric, (2,), grid)
    for name in ("lam", "z", "log_psi", "quadrature_error", "lam_error"):
        assert_array_equal(getattr(only, name), getattr(one, name))
    many = wd.biharmonic_mode(euclidean.metric, [2, 0, -2], grid)
    assert isinstance(many, tuple)
    assert [mode.m for mode in many] == [2, 0, -2]
    assert_array_equal(many[0].log_psi, many[2].log_psi)
    assert_array_equal(many[1].lam, 0.0)


@pytest.mark.parametrize("surface, ms, grid", [
    ("power1", range(4), RadialGrid.geometric(1e-3, 100.0, 256)),
    ("euclidean", range(9), RadialGrid.geometric(1e-3, 1000.0, 512)),
])
def test_biharmonic_mode_set_matches_single_calls(request, surface, ms, grid):
    # one loose/tight pair for the whole set agrees with each single-m
    # pair per node, within the larger of the two reported bounds
    metric = request.getfixturevalue(surface).metric
    for m, mode in zip(ms, wd.biharmonic_mode(metric, ms, grid)):
        single = wd.biharmonic_mode(metric, m, grid)
        assert mode.m == m
        assert np.all(np.abs(mode.lam - single.lam)
                      <= np.maximum(mode.lam_error, single.lam_error))
        assert np.all(np.abs(mode.log_psi - single.log_psi)
                      <= np.maximum(mode.quadrature_error, single.quadrature_error))


def test_biharmonic_mode_set_flat_closed_form(euclidean):
    grid = RadialGrid.geometric(1e-3, 1000.0, 512)
    r = grid.nodes
    for m, mode in enumerate(wd.biharmonic_mode(euclidean.metric, range(9), grid)):
        log_psi = PLANE.lam(m, r) + np.log(PLANE.z_m(m, r))
        assert np.all(np.abs(mode.log_psi - log_psi) <= mode.quadrature_error)


# ----------------------------------------------------------------------
# mean integral ratio (1/phi(s)) * integral_0^s phi: the m = 0 inner ratio
# ----------------------------------------------------------------------

def test_mean_integral_ratio_flat(euclidean):
    s = np.array([0.5, 2.0, 40.0])
    assert_allclose(mode_pass(euclidean.metric, 0, 40.0).inner_ratio(s), PLANE.w0(s), rtol=1e-8)


def test_mean_integral_ratio_hyperbolic(hyperbolic):
    mp = mode_pass(hyperbolic.metric, 0, 60.0)
    s = np.array([1.0, 5.0, 30.0])
    assert_allclose(mp.inner_ratio(s), HYPERBOLIC.w0(s), rtol=1e-8)
    assert_allclose(mp.inner_ratio(60.0), HYPERBOLIC.w0(60.0), rtol=1e-8)


def test_mean_integral_ratio_power_decay(power1):
    # on a -r^(2+eps) tail the ratio decays like r^-(1+eps/2)
    radii = np.geomspace(30.0, 300.0, 16)
    vals = mode_pass(power1.metric, 0, 300.0).inner_ratio(radii)
    slope = np.polyfit(np.log(radii), np.log(vals), 1)[0]
    assert_allclose(slope, -1.5, atol=0.05)


# ----------------------------------------------------------------------
# residual verification
# ----------------------------------------------------------------------

def test_residuals_flat_mode_exact(euclidean):
    grid = RadialGrid.uniform(1.0, 2.0, 101)
    mode = wd.biharmonic_mode(euclidean.metric, 1, grid, **TIGHT)
    rep = wd.verify_mode_residuals(euclidean.metric, mode)
    assert rep.harmonic < 1e-8


def test_residuals_flat_psi0_exact(euclidean):
    grid = RadialGrid.uniform(1.0, 2.0, 101)
    mode = wd.biharmonic_mode(euclidean.metric, 0, grid, **TIGHT)
    rep = wd.verify_mode_residuals(euclidean.metric, mode)
    assert rep.biharmonic < 1e-8


def test_residuals_shrink_second_order(hyperbolic):
    maxima = []
    for n in (51, 101, 201):
        grid = RadialGrid.uniform(1.0, 2.0, n)
        mode = wd.biharmonic_mode(hyperbolic.metric, 1, grid, **TIGHT)
        maxima.append(wd.verify_mode_residuals(hyperbolic.metric, mode).harmonic)
    assert 3.5 <= maxima[0] / maxima[1] <= 4.5
    assert 3.5 <= maxima[1] / maxima[2] <= 4.5


def test_residuals_log_path_for_huge_modes(euclidean):
    # flat modes with large m overflow doubles (Lambda = m log r > 709)
    # and the verification must go through the log-space identity
    grid = RadialGrid.uniform(300.0, 600.0, 201)
    mode = wd.biharmonic_mode(euclidean.metric, 130, grid)
    assert np.max(mode.lam) > 709.0
    with np.errstate(over="ignore"):
        assert np.any(np.isinf(np.exp(mode.lam)))
    rep = wd.verify_mode_residuals(euclidean.metric, mode)
    assert np.isfinite(rep.harmonic)
    assert rep.harmonic < 1e-4


def _separate_residuals(mode, profile=None):
    """The eq4 and eq6 maxima as two separate checks of the pair compute them.

    The profile comes from the mode's own rows, phi as r exp(log(phi/r));
    given ``profile``, from its evaluators instead.
    """
    x, m, lam = mode.grid.nodes, mode.m, mode.lam
    with np.errstate(over="ignore"):
        if profile is None:
            v, log_phi = mode.dlog_phi, mode.log_phi
            phi = x * np.exp(log_phi - np.log(x))
        else:
            v = np.asarray(profile.dlog_phi(x), dtype=float)
            phi = np.asarray(profile.phi(x), dtype=float)
            log_phi = np.asarray(profile.log_phi(x), dtype=float)
    weight = np.minimum(np.exp(np.minimum(lam, 700.0)), 1.0)
    if np.max(lam) <= 300.0:
        f = np.exp(lam)
        eq4 = np.abs(separated_laplacian(m, x, f, v, phi=phi)) / np.maximum(1.0, f)
    else:
        eq4 = np.abs(separated_laplacian(m, x, lam, v, log_phi=log_phi)) * weight
    if np.max(mode.log_psi) <= 300.0 and np.max(lam) <= 300.0:
        f = np.exp(lam)
        psi = np.exp(mode.log_psi)
        eq6 = np.abs(separated_laplacian(m, x, psi, v, phi=phi) - f) / np.maximum(1.0, f)
    else:
        ratio = separated_laplacian(m, x, mode.log_psi, v, log_phi=log_phi)
        eq6 = np.abs(mode.z * ratio - 1.0) * weight
    return float(np.max(eq4[1:-1])), float(np.max(eq6[1:-1]))


_PAIR_CASES = [
    ("euclidean", range(4), RadialGrid.geometric(1e-3, 1000.0, 256), "linear"),
    ("hyperbolic", range(4), RadialGrid.geometric(0.05, 30.0, 129), "linear"),
    ("power1", range(3), RadialGrid.geometric(1e-3, 100.0, 256), "linear"),
    ("euclidean", (43,), RadialGrid.uniform(100.0, 1000.0, 201), "mixed"),
    ("euclidean", (130,), RadialGrid.uniform(300.0, 600.0, 201), "log"),
    ("euclidean", (280,), RadialGrid.uniform(2.8, 2.95, 41), "small_z"),
]


@pytest.mark.parametrize("surface, ms, grid, forms", _PAIR_CASES)
def test_pair_check_equals_separate_checks(request, surface, ms, grid, forms):
    # one call per pair rounds exactly as the separate eq4 and eq6 checks,
    # in linear form, in log form, with phi_m linear beside psi_m in log form,
    # and with psi_m < phi_m small enough for linear form while phi_m is not
    metric = request.getfixturevalue(surface).metric
    for mode in wd.biharmonic_mode(metric, ms, grid):
        in_log = (np.max(mode.lam) > 300.0, np.max(mode.log_psi) > 300.0)
        assert in_log == {"linear": (False, False), "mixed": (False, True),
                          "log": (True, True), "small_z": (True, False)}[forms]
        rep = wd.verify_mode_residuals(metric, mode)
        assert (rep.harmonic, rep.biharmonic) == _separate_residuals(mode)


@pytest.mark.parametrize("surface, ms, grid, forms",
                         [case for case in _PAIR_CASES if case[0] == "euclidean"])
def test_flat_rows_give_the_closed_form_residuals(euclidean, surface, ms, grid, forms):
    # on K = 0 the pass rows are the closed forms exactly, so the residuals
    # equal those of the closed-form evaluators bit for bit
    for mode in wd.biharmonic_mode(euclidean.metric, ms, grid):
        assert_array_equal(mode.log_phi, PLANE.log_phi(grid.nodes))
        assert_array_equal(mode.dlog_phi, PLANE.dlog_phi(grid.nodes))
        rep = wd.verify_mode_residuals(euclidean.metric, mode)
        assert (rep.harmonic, rep.biharmonic) == _separate_residuals(mode, euclidean.metric)


def test_profile_residual_catches_another_surfaces_curvature(power1):
    power2 = wd.builtin_profile("power-curvature", eps=2.0, r_max=power1.metric.r_max)
    grid = RadialGrid.geometric(1e-3, 20.0, 256)
    mode = wd.biharmonic_mode(power1.metric, 1, grid)
    matched = wd.verify_mode_residuals(power1.metric, mode).profile
    foreign = wd.verify_mode_residuals(power2.metric, mode).profile
    assert matched < 1e-2
    assert foreign >= 100.0 * matched


def test_mode_profile_rows_match_the_profile(power1):
    grid = RadialGrid.geometric(1e-3, 20.0, 64)
    mode = wd.biharmonic_mode(power1.metric, 2, grid, **TIGHT)
    # the eager profile runs at rtol 1e-10, so its own error sets the scale
    assert_allclose(mode.log_phi, power1.metric.log_phi(grid.nodes), rtol=1e-9, atol=1e-7)
    assert_allclose(mode.dlog_phi, power1.metric.dlog_phi(grid.nodes), rtol=1e-7)
    with pytest.raises(ValueError):
        mode.log_phi[0] = 0.0


# ----------------------------------------------------------------------
# comparison tail product w * phi'/phi -> 1
# ----------------------------------------------------------------------

def test_comparison_tail_product_limits(quadratic1, power1):
    # on a -K ~ r^p tail the inner ratio w(s) behaves like 1/(phi'/phi)(s)
    for surface in (quadratic1, power1):
        mp = mode_pass(surface.metric, 0, 45.0)
        for s in (20.0, 40.0):
            product = float(mp.inner_ratio(s, 0) * surface.metric.dlog_phi(s))
            assert abs(product - 1.0) < 0.05, (surface.name, s, product)


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------

def test_mode_csv_columns(tmp_path, euclidean):
    grid = RadialGrid.geometric(0.5, 2.0, 9)
    mode = wd.biharmonic_mode(euclidean.metric, 1, grid)
    path = tmp_path / "mode_1.csv"
    export_mode_csv(path, mode)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "r,lambda_m,z,log_psi_m,err_bound"
    assert len(lines) == 10
    row = lines[1].split(",")
    assert_allclose(float(row[0]), 0.5)
    assert_allclose(float(row[2]), PLANE.z_m(1, 0.5), rtol=1e-6)


def test_mode_csv_reads_back_bit_for_bit(tmp_path, hyperbolic):
    grid = RadialGrid.geometric(1e-3, 50.0, 64)
    mode = wd.biharmonic_mode(hyperbolic.metric, 2, grid)
    path = tmp_path / "mode_2.csv"
    export_mode_csv(path, mode)
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    for column, values in zip(table.T, (grid.nodes, mode.lam, mode.z, mode.log_psi,
                                        mode.quadrature_error)):
        np.testing.assert_array_equal(column, values)
