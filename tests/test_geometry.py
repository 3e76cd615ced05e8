import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import warped_disk as wd
from warped_disk import _lsoda, exact, geometry
from warped_disk.geometry import RadialGrid, read_profile_file
from warped_disk.operators import sample_derivatives

PLANE = exact.space_form(0.0)
HYPERBOLIC = exact.space_form(-1.0)


def closed_phi(form, r):
    """phi and phi' of a table entry: exp(log phi) and phi times phi'/phi."""
    phi = np.exp(form.log_phi(r))
    return phi, phi * form.dlog_phi(r)


def analytic_profile(phi, dphi, r_max=50.0):
    return wd.MetricProfile(
        phi=lambda r: phi(np.asarray(r, dtype=float)),
        phi_prime=lambda r: dphi(np.asarray(r, dtype=float)),
        log_phi=lambda r: np.log(phi(np.asarray(r, dtype=float))),
        dlog_phi=lambda r: dphi(np.asarray(r, dtype=float)) / phi(np.asarray(r, dtype=float)),
        r_max=r_max,
    )


# ----------------------------------------------------------------------
# grids
# ----------------------------------------------------------------------

def test_grid_invariants():
    g = RadialGrid.uniform(0.0, 1.0, 11)
    assert len(g) == 11 and g.r_min == 0.0
    with pytest.raises(wd.DomainError):
        RadialGrid(np.array([0.0, 0.5, 0.4]))
    with pytest.raises(wd.DomainError):
        RadialGrid(np.array([0.0, 1.0]))
    with pytest.raises(wd.DomainError):
        RadialGrid.geometric(0.0, 1.0, 8)


def test_grid_nodes_immutable():
    g = RadialGrid.uniform(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        g.nodes[0] = 3.0


# ----------------------------------------------------------------------
# curvature -phi''/phi and log derivative phi'/phi
# ----------------------------------------------------------------------

def phi_second(metric, r, h=1e-3):
    """phi''(r) from a five-point difference of phi' (error O(h^4))."""
    d = [float(metric.phi_prime(r + k * h)) for k in (-2, -1, 1, 2)]
    return (d[0] - 8.0 * d[1] + 8.0 * d[2] - d[3]) / (12.0 * h)


def curvature(metric, r):
    return -phi_second(metric, r) / float(metric.phi(r))


def test_curvature_of_flat(euclidean):
    assert curvature(euclidean.metric, 2.0) == 0.0


def test_curvature_of_hyperbolic(hyperbolic):
    assert_allclose(curvature(hyperbolic.metric, 1.5), -1.0, rtol=1e-12)


def test_curvature_round_trip_quartic():
    prof = wd.profile_from_curvature(lambda r: -(r**4), r_max=2.0)
    assert_allclose(curvature(prof, 1.2), -(1.2**4), rtol=1e-9)
    # independent check: difference phi' and compare with -K phi
    x = np.linspace(0.5, 1.5, 401)
    d1, _ = sample_derivatives(x, np.asarray(prof.phi_prime(x), dtype=float))
    assert_allclose(d1[5:-5], (x**4 * prof.phi(x))[5:-5], rtol=5e-4)


def test_curvature_domain_errors(euclidean):
    # profiles are read on (0, r_max] only
    with pytest.raises(wd.DomainError):
        euclidean.metric.require_radius(0.0)
    with pytest.raises(wd.DomainError):
        euclidean.metric.require_radius(euclidean.metric.r_max * 2)


def test_log_derivative_flat(euclidean):
    assert_allclose(euclidean.metric.dlog_phi(4.0), PLANE.dlog_phi(4.0), rtol=1e-14)


def test_log_derivative_hyperbolic(hyperbolic):
    assert_allclose(hyperbolic.metric.dlog_phi(3.0), HYPERBOLIC.dlog_phi(3.0), rtol=1e-12)
    # coth 40 = 1 to double precision; the profile pass carries its own error
    assert_allclose(hyperbolic.metric.dlog_phi(40.0), HYPERBOLIC.dlog_phi(40.0),
                    rtol=geometry.DEFAULT_RTOL)


def test_log_derivative_quadratic_growth(quadratic1):
    # comparison bound: phi'/phi grows about linearly on a -eta r^2 tail
    v10, v20, v40 = quadratic1.metric.dlog_phi(np.array([10.0, 20.0, 40.0]))
    assert 1.8 < v20 / v10 < 2.2
    assert 1.9 < v40 / v20 < 2.1


# ----------------------------------------------------------------------
# profile_from_curvature
# ----------------------------------------------------------------------

def test_ivp_flat():
    prof = wd.profile_from_curvature(PLANE.k, r_max=6.0)
    for r in (0.5, 1.0, 5.0):
        assert_allclose(float(prof.phi(r)), closed_phi(PLANE, r)[0], rtol=1e-8)


def test_ivp_ending_below_unit_radius():
    # the profile pass holds m = 0 alone, which needs no anchor at r = 1
    prof = wd.profile_from_curvature(HYPERBOLIC.k, r_max=0.5)
    for r in (1e-7, 0.1, 0.5):
        assert_allclose(float(prof.phi(r)), closed_phi(HYPERBOLIC, r)[0], rtol=1e-8)


def test_ivp_hyperbolic():
    prof = wd.profile_from_curvature(HYPERBOLIC.k, r_max=6.0)
    for r in (0.5, 1.0, 5.0):
        assert_allclose(float(prof.phi(r)), closed_phi(HYPERBOLIC, r)[0], rtol=1e-8)
    assert_allclose(float(prof.phi_prime(5.0)), closed_phi(HYPERBOLIC, 5.0)[1], rtol=1e-8)


def test_ivp_sphere_conjugate_point():
    sphere = exact.space_form(1.0)
    with pytest.raises(wd.ConjugatePointError) as err:
        wd.profile_from_curvature(sphere.k, r_max=6.0)
    assert abs(err.value.radius - sphere.r_max) <= 1.1e-3


def test_ivp_origin_seed_past_the_first_zero_names_the_conjugate_point():
    # K(0) ORIGIN_STEP^2 >= 6: the origin series leaves phi(ORIGIN_STEP) <= 0
    sphere = exact.space_form(1e13)
    with pytest.raises(wd.ConjugatePointError) as err:
        wd.profile_from_curvature(sphere.k, r_max=1.0)
    assert err.value.radius == sphere.r_max


@settings(max_examples=30)
@given(st.floats(-4.0, 4.0).map(lambda k: round(k, 3)))
def test_ivp_constant_curvature_matches_closed_form(k):
    # rounding keeps K = 0 exact and |K| >= 1e-3, so pi/sqrt(K) stays small
    form = exact.space_form(k)
    r_max = 40.0 if k <= 0.0 else 0.9 * form.r_max
    prof = wd.profile_from_curvature(form.k, r_max=r_max)
    r = np.geomspace(1e-3, r_max, 200)
    log_phi, dlog_phi = form.log_phi(r), form.dlog_phi(r)
    assert np.all(np.abs(prof.log_phi(r) - log_phi) <= 1e-7)
    # relative to the curvature scale too: for K > 0, phi'/phi crosses
    # zero at pi / (2 sqrt(K))
    scale = np.maximum(np.abs(dlog_phi), math.sqrt(abs(k)))
    assert np.all(np.abs(prof.dlog_phi(r) - dlog_phi) <= 1e-7 * scale)
    if k > 0.0:
        first_zero = form.r_max
        with pytest.raises(wd.ConjugatePointError) as err:
            wd.profile_from_curvature(form.k, r_max=1.5 * first_zero)
        assert abs(err.value.radius - first_zero) <= 1e-8 * first_zero


def test_ivp_rejects_bad_arguments():
    with pytest.raises(wd.DomainError):
        wd.profile_from_curvature(lambda r: 0.0, r_max=2.0, step_control=(0.0, 1e-12))
    with pytest.raises(wd.DomainError):
        wd.profile_from_curvature(lambda r: np.nan, r_max=2.0)
    with pytest.raises(wd.DomainError):
        wd.profile_from_curvature("not-a-curvature", r_max=2.0)


@pytest.mark.parametrize("name, params", [
    ("power-curvature", {"eps": 300.0}),
    ("quadratic-curvature", {"eta": 1e308}),
])
def test_overflowing_builtin_curvature_is_a_domain_error_without_warning(name, params):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(wd.DomainError, match="not finite"):
            wd.builtin_profile(name, **params)


_CURVED = [
    ("power-curvature", {"eps": 1.0}),
    ("quadratic-curvature", {"eta": 1.25}),
    ("log-threshold", {"eps": 0.5}),
    ("euclidean", {}),
    ("hyperbolic", {}),
]


@pytest.fixture
def ivp_calls(monkeypatch):
    """Counts the profile passes: dense LSODA passes started at geometry.ORIGIN_STEP."""
    calls = []
    dense = _lsoda.dense

    def counted(rhs, jac, y0, t0, *args):
        if t0 == geometry.ORIGIN_STEP:
            calls.append(t0)
        return dense(rhs, jac, y0, t0, *args)

    monkeypatch.setattr(_lsoda, "dense", counted)
    return calls


@pytest.mark.parametrize("name, params", _CURVED)
def test_curved_builtin_solves_its_profile_on_first_read(ivp_calls, name, params):
    surface = wd.builtin_profile(name, r_max=60.0, **params)
    assert ivp_calls == []
    r = np.geomspace(1e-7, 12.0, 97)   # phi stays below overflow here
    first = {f: np.asarray(getattr(surface.metric, f)(r))
             for f in ("phi", "phi_prime", "log_phi", "dlog_phi")}
    assert len(ivp_calls) == 1
    eager = wd.profile_from_curvature(surface.metric.k, r_max=60.0,
                                      step_control=(geometry.DEFAULT_RTOL, geometry.DEFAULT_ATOL),
                                      name=surface.name)
    for field, values in first.items():
        np.testing.assert_array_equal(values, getattr(eager, field)(r))
    surface.metric.phi(r)
    assert len(ivp_calls) == 2   # the eager solve above; later reads reuse the first
    assert eager.name == surface.metric.name and eager.r_max == surface.metric.r_max


def test_concurrent_first_reads_agree():
    # threads that find the profile unsolved may each solve it; all must
    # read the one result an eager solve gives
    surface = wd.builtin_profile("power-curvature", eps=1.0, r_max=30.0)
    r = np.geomspace(1e-3, 10.0, 33)
    results = [None] * 4
    start = threading.Barrier(len(results))

    def read(i):
        start.wait(timeout=30.0)
        results[i] = surface.metric.log_phi(r)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    eager = wd.profile_from_curvature(surface.metric.k, r_max=30.0, name=surface.name)
    for values in results:
        np.testing.assert_array_equal(values, eager.log_phi(r))


@pytest.mark.parametrize("name, params", _CURVED)
def test_curved_builtin_checks_its_ivp_at_construction(ivp_calls, name, params):
    with pytest.raises(wd.DomainError, match="step_control"):
        wd.builtin_profile(name, step_control=(0.0, 1e-12), **params)
    with pytest.raises(wd.DomainError, match="step_control"):
        wd.builtin_profile(name, step_control=(1e-10, -1.0), **params)
    with pytest.raises(wd.DomainError, match="origin step"):
        wd.builtin_profile(name, r_max=geometry.ORIGIN_STEP / 2.0, **params)
    assert ivp_calls == []


def test_ivp_positivity_on_grid():
    prof = wd.profile_from_curvature(lambda r: -float(np.sin(r) ** 2), r_max=8.0)
    r = np.linspace(1e-4, 8.0, 500)
    assert np.all(prof.phi(r) > 0.0)


# ----------------------------------------------------------------------
# built-ins
# ----------------------------------------------------------------------

def test_builtin_euclidean(euclidean):
    # K = 0 keeps the pass state (log(phi/r), phi'/phi - 1/r) at 0, so the
    # evaluators are the closed forms exactly
    r = np.geomspace(1e-7, euclidean.metric.r_max, 301)
    np.testing.assert_array_equal(euclidean.metric.log_phi(r), PLANE.log_phi(r))
    np.testing.assert_array_equal(euclidean.metric.dlog_phi(r), PLANE.dlog_phi(r))
    # the table's state rows are exactly 0 too, and phi = r e^a, phi' = e^a (1 + r b)
    # built from them are the evaluators' values bit for bit
    a, b = PLANE.log_phi(r) - np.log(r), PLANE.dlog_phi(r) - 1.0 / r
    assert not np.any(a) and not np.any(b)
    np.testing.assert_array_equal(euclidean.metric.phi(r), r * np.exp(a))
    np.testing.assert_array_equal(euclidean.metric.phi_prime(r), np.exp(a) * (1.0 + r * b))
    phi, phi_prime = closed_phi(PLANE, r)
    assert_allclose(euclidean.metric.phi(r), phi, rtol=1e-14)
    assert_allclose(euclidean.metric.phi_prime(r), phi_prime, rtol=1e-14)


def test_builtin_hyperbolic(hyperbolic):
    assert_allclose(float(hyperbolic.metric.phi(1.0)), closed_phi(HYPERBOLIC, 1.0)[0], rtol=1e-12)
    r = np.geomspace(1e-3, 200.0, 301)
    phi, phi_prime = closed_phi(HYPERBOLIC, r)
    assert_allclose(hyperbolic.metric.phi(r), phi, rtol=1e-7)
    assert_allclose(hyperbolic.metric.phi_prime(r), phi_prime, rtol=1e-7)
    assert_allclose(hyperbolic.metric.log_phi(r), HYPERBOLIC.log_phi(r), rtol=1e-9, atol=1e-9)
    assert_allclose(hyperbolic.metric.dlog_phi(r), HYPERBOLIC.dlog_phi(r), rtol=1e-10)


def test_builtin_phi_overflows_to_inf_without_warning(hyperbolic, power1):
    assert float(hyperbolic.metric.phi(1000.0)) == math.inf
    assert float(power1.metric.phi(1000.0)) == math.inf
    assert float(hyperbolic.metric.phi_prime(1000.0)) == math.inf


def test_builtin_curvature_is_its_metric_curvature(all_builtins):
    # one scalar K drives both the profile pass and the curvature checks
    for surface in all_builtins:
        assert surface.curvature.k is surface.metric.k, surface.name
        assert isinstance(surface.curvature.k(5.0), float), surface.name


def test_builtin_power_curvature_values(power1):
    # tail at r=3, constant cap (= tail value at r0+1) inside
    assert_allclose(float(power1.curvature.k(3.0)), -27.0, rtol=1e-12)
    assert_allclose(float(power1.curvature.k(0.5)), -8.0, rtol=1e-12)


def test_builtin_log_threshold_tail(log_threshold):
    r = 10.0
    assert_allclose(
        float(log_threshold.curvature.k(r)), -1.5 / (r * r * math.log(r)), rtol=1e-12
    )


def test_builtin_rejections():
    with pytest.raises(wd.DomainError):
        wd.builtin_profile("moebius")
    with pytest.raises(wd.DomainError):
        wd.builtin_profile("power-curvature", eps=-1.0)
    with pytest.raises(wd.DomainError):
        wd.builtin_profile("quadratic-curvature")  # eta missing
    with pytest.raises(wd.DomainError):
        wd.builtin_profile("log-threshold", eps=0.5, r0=1.5)


@pytest.mark.parametrize("name, params", [
    ("euclidean", {"eps": 5.0}),
    ("euclidean", {"eta": 1.0}),
    ("euclidean", {"r0": 2.0}),
    ("hyperbolic", {"eps": 1.0}),
    ("hyperbolic", {"eta": 1.0}),
    ("hyperbolic", {"r0": 2.0}),
    ("log-threshold", {"eps": 0.5, "eta": 1.0}),
    ("power-curvature", {"eps": 1.0, "eta": 1.0}),
    ("quadratic-curvature", {"eta": 1.0, "eps": 1.0}),
])
def test_builtin_refuses_a_parameter_its_family_does_not_take(name, params):
    with pytest.raises(wd.DomainError, match="does not take"):
        wd.builtin_profile(name, **params)


def test_builtin_curvature_blend_is_smooth(power1):
    # C^2 blend: second difference of K stays bounded through [r0, r0+1]
    r = np.linspace(0.9, 2.1, 2001)
    k = geometry.sample_curvature(power1.curvature.k, r)
    d2 = np.diff(k, 2) / (r[1] - r[0]) ** 2
    assert np.max(np.abs(np.diff(d2))) < 1.0  # no jump in K''


# ----------------------------------------------------------------------
# origin smoothness: phi'(0+) = 1 and phi''(0+) = 0
# ----------------------------------------------------------------------

H_ORIGIN = 1e-3


def origin_errors(metric, h=H_ORIGIN):
    """|phi'(h) - 1| and |phi''(h)|, against their bounds 50 h^2 and 50 h."""
    return abs(float(metric.phi_prime(h)) - 1.0), abs(phi_second(metric, h, h / 10.0))


def test_origin_smoothness_flat(euclidean):
    assert_allclose(origin_errors(euclidean.metric), (0.0, 0.0), atol=1e-10)


def test_origin_smoothness_hyperbolic(hyperbolic):
    slope_err, second_err = origin_errors(hyperbolic.metric)
    assert slope_err <= 50.0 * H_ORIGIN**2 and second_err <= 50.0 * H_ORIGIN


def test_origin_smoothness_rejects_quadratic_term():
    prof = analytic_profile(lambda r: r + r**2, lambda r: 1.0 + 2.0 * r)
    _, second_err = origin_errors(prof)
    assert second_err > 50.0 * H_ORIGIN
    assert_allclose(second_err, 2.0, atol=1e-6)


def test_origin_smoothness_integrated_profiles(power1, quadratic1, log_threshold):
    for surface in (power1, quadratic1, log_threshold):
        slope_err, second_err = origin_errors(surface.metric)
        assert slope_err <= 50.0 * H_ORIGIN**2, surface.name
        assert second_err <= 50.0 * H_ORIGIN, surface.name


# ----------------------------------------------------------------------
# invariants
# ----------------------------------------------------------------------

def test_round_trip_reproduces_builtin(hyperbolic):
    prof = wd.profile_from_curvature(hyperbolic.curvature.k, r_max=8.0)
    r = np.linspace(0.25, 7.5, 30)
    assert_allclose(prof.phi(r), closed_phi(HYPERBOLIC, r)[0], rtol=1e-8)


def test_origin_normalization(all_builtins):
    for surface in all_builtins:
        k0 = abs(float(surface.curvature.k(0.0))) + 1.0
        for h in (1e-3, 1e-2):
            ratio = float(surface.metric.phi(h)) / h
            assert abs(ratio - 1.0) <= k0 * h * h

def test_declared_tails_hold(all_builtins):
    for surface in all_builtins:
        curv = surface.curvature
        check = curv.tail.verify(curv.k, min(surface.metric.r_max, 1000.0))
        assert check.ok, surface.name


def test_tail_descriptor_validation():
    with pytest.raises(wd.DomainError):
        wd.TailDescriptor("le_power", r0=2.0)  # eps missing
    with pytest.raises(wd.DomainError):
        wd.TailDescriptor("between", r0=2.0, eps=1.0)  # eta missing
    with pytest.raises(wd.DomainError):
        wd.TailDescriptor("ge_milnor", r0=0.5)  # needs r0 > 1
    with pytest.raises(wd.DomainError):
        wd.TailDescriptor("sideways", r0=2.0)


def test_verify_tail_detects_violation():
    tail = wd.TailDescriptor("ge_milnor", r0=2.0)
    check = tail.verify(lambda r: -np.asarray(r, dtype=float) ** 2, 100.0)
    assert not check.ok
    assert check.first_violation is not None


# ----------------------------------------------------------------------
# files
# ----------------------------------------------------------------------

def test_profile_file_round_trip(tmp_path):
    path = tmp_path / "surface.profile"
    path.write_text("[profile]\nname = power-curvature\neps = 1.0\nr0 = 1.0\nr_max = 5.0\n")
    surface = read_profile_file(path)
    assert_allclose(float(surface.curvature.k(3.0)), -27.0, rtol=1e-12)
    assert surface.metric.r_max == 5.0


def test_profile_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "surface.profile"
    path.write_text("[profile]\nname = euclidean\nwarp = 2\n")
    with pytest.raises(wd.DomainError):
        read_profile_file(path)
