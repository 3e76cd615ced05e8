import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import warped_disk as wd
from warped_disk import asymptotics as asy


# ----------------------------------------------------------------------
# log-derivative limit
# ----------------------------------------------------------------------

def test_limit_hyperbolic(hyperbolic):
    est = wd.estimate_log_derivative_limit(hyperbolic.metric, 200.0)
    assert_allclose(est.last, 1.0, rtol=1e-10)
    assert_allclose(est.extrapolated, 1.0, rtol=1e-10)
    assert est.trend in ("decreasing", "flat")


def test_limit_flat(euclidean):
    est = wd.estimate_log_derivative_limit(euclidean.metric, 1000.0)
    assert est.last == pytest.approx(1e-3)
    assert abs(est.extrapolated) < 1e-8
    assert est.trend == "decreasing"


def test_limit_interior_threshold(interior_threshold):
    # curvature above the Milnor bound forces phi'/phi -> 0
    est = wd.estimate_log_derivative_limit(interior_threshold.metric, 1000.0)
    assert est.trend == "decreasing"
    assert abs(est.extrapolated) < 5e-3
    assert est.last < 0.01


def test_limit_quadratic_grows(quadratic1):
    est = wd.estimate_log_derivative_limit(quadratic1.metric, 500.0)
    assert est.trend == "increasing"
    assert est.last > 100.0


# ----------------------------------------------------------------------
# tail fitting
# ----------------------------------------------------------------------

def test_fit_power_tail():
    fit = wd.fit_tail_exponent(lambda r: -(np.asarray(r) ** 4), (10.0, 1000.0))
    assert fit.kind == "power"
    assert_allclose(fit.exponent, 4.0, atol=0.05)
    assert fit.residual < 1e-10


def test_fit_constant_curvature_is_flat_power():
    fit = wd.fit_tail_exponent(lambda r: -np.ones_like(np.asarray(r, dtype=float)),
                               (10.0, 1000.0))
    assert fit.kind == "power"
    assert_allclose(fit.exponent, 0.0, atol=0.05)


def test_fit_log_threshold_template():
    def k(r):
        r = np.asarray(r, dtype=float)
        return -2.0 / (r * r * np.log(r))

    fit = wd.fit_tail_exponent(k, (5.0, 500.0))
    assert fit.kind == "log_threshold"
    assert_allclose(fit.kappa, 2.0, atol=0.05)


def test_fit_refuses_nonnegative():
    fit = wd.fit_tail_exponent(lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                               (10.0, 100.0))
    assert fit.kind == "nonnegative"


def test_fit_refuses_oscillation():
    def k(r):
        r = np.asarray(r, dtype=float)
        return -np.exp(2.0 * np.sin(np.log(r))) / r**2

    fit = wd.fit_tail_exponent(k, (10.0, 1000.0))
    assert fit.kind == "undetermined"
    assert fit.residual > asy.FIT_RESIDUAL_MAX


def test_fit_window_validation():
    with pytest.raises(wd.DomainError):
        wd.fit_tail_exponent(lambda r: -r, (0.5, 10.0))
    with pytest.raises(wd.DomainError):
        wd.fit_tail_exponent(lambda r: -r, (5.0, 10.0), n=8)


# ----------------------------------------------------------------------
# numeric evidence
# ----------------------------------------------------------------------

def test_evidence_flat(euclidean):
    bundle = wd.numeric_evidence(euclidean.metric, m_set=(0, 1, 2), horizon=1000.0)
    by_m = {ev.m: ev for ev in bundle.modes}
    assert by_m[0].phi_verdict == "bounded"       # Lambda_0 is identically 0
    assert by_m[1].phi_verdict == "unbounded"
    assert by_m[2].phi_verdict == "unbounded"
    assert all(ev.z_verdict == "unbounded" for ev in bundle.modes)
    assert bundle.phi_grows
    assert_allclose(bundle.ratio_slope, 1.0, atol=0.01)  # s/2 grows linearly


def test_evidence_hyperbolic(hyperbolic):
    bundle = wd.numeric_evidence(hyperbolic.metric, m_set=(1,), horizon=1000.0)
    ev = bundle.mode(1)
    assert ev.phi_verdict == "bounded"
    assert ev.z_verdict == "unbounded"


def test_evidence_power(power1):
    bundle = wd.numeric_evidence(power1.metric, m_set=(1,), horizon=1000.0)
    ev = bundle.mode(1)
    assert ev.phi_verdict == "bounded"
    assert ev.z_verdict == "bounded"
    # the true decay rate of the mean-integral ratio on a -r^3 tail
    assert_allclose(bundle.ratio_slope, -1.5, atol=0.1)


def test_evidence_quadratic(quadratic1):
    bundle = wd.numeric_evidence(quadratic1.metric, m_set=(1,), horizon=1000.0)
    assert bundle.mode(1).z_verdict == "unbounded"
    assert_allclose(bundle.ratio_slope, -1.0, atol=0.1)


def test_evidence_needs_m(euclidean):
    with pytest.raises(wd.DomainError):
        wd.numeric_evidence(euclidean.metric, m_set=())


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------

def test_classify_flat(euclidean):
    report = wd.classify_surface(euclidean, horizon=1000.0, m_set=(1, 2))
    assert report.harmonic_regime == wd.PARABOLIC
    assert report.biharmonic_regime == wd.RIGID
    assert report.route == "both"
    assert report.declared_verified


def test_classify_hyperbolic(hyperbolic):
    report = wd.classify_surface(hyperbolic, horizon=1000.0, m_set=(1, 2))
    assert report.harmonic_regime == wd.HYPERBOLIC
    assert report.biharmonic_regime == wd.LIOUVILLE_TO_HARMONIC
    assert report.route == "both"


def test_classify_log_threshold(log_threshold):
    report = wd.classify_surface(log_threshold, horizon=1000.0, m_set=(1, 2))
    assert report.harmonic_regime == wd.HYPERBOLIC
    assert report.biharmonic_regime == wd.LIOUVILLE_TO_HARMONIC


def test_classify_power(power1):
    report = wd.classify_surface(power1, horizon=1000.0, m_set=(1, 2))
    assert report.harmonic_regime == wd.HYPERBOLIC
    assert report.biharmonic_regime == wd.ADMITS_NONHARMONIC_BOUNDED
    assert report.route == "both"


def test_classify_quadratic(quadratic1):
    report = wd.classify_surface(quadratic1, horizon=1000.0, m_set=(1, 2))
    assert report.harmonic_regime == wd.HYPERBOLIC
    assert report.biharmonic_regime == wd.LIOUVILLE_TO_HARMONIC


def test_classify_interior_threshold(interior_threshold):
    report = wd.classify_surface(interior_threshold, horizon=1000.0, m_set=(1, 2))
    assert report.harmonic_regime == wd.PARABOLIC
    assert report.biharmonic_regime == wd.RIGID


def test_route_consistency(all_builtins):
    # whenever both routes produce labels they must agree, which the
    # orchestrator encodes as route == "both" without conflict notes
    for surface in all_builtins:
        report = wd.classify_surface(surface, horizon=500.0, m_set=(1, 2))
        assert report.route == "both"
        assert not any("says" in note for note in report.notes)


def test_classify_rejects_other_types(euclidean):
    # a Surface carries the curvature the tail checks need; its parts alone are refused
    for subject in (42, euclidean.metric, euclidean.curvature):
        with pytest.raises(wd.DomainError):
            wd.classify_surface(subject)


# ----------------------------------------------------------------------
# guard rails: gaps stay undetermined
# ----------------------------------------------------------------------

def _fake_evidence(phi_grows=True, nondecreasing=True):
    limit = asy.LimitEstimate(0.0, 0.0, "flat", np.array([1.0]), np.array([0.0]))
    return asy.EvidenceBundle(
        horizon=100.0,
        modes=(),
        ratio_slope=0.0,
        ratio_window=(10.0, 100.0),
        phi_grows=phi_grows,
        phi_nondecreasing=nondecreasing,
        log_derivative=limit,
    )


def test_declared_custom_tail_is_undetermined():
    curv = wd.CurvatureProfile(
        k=lambda r: -np.ones_like(np.asarray(r, dtype=float)),
        tail=wd.TailDescriptor("custom", r0=2.0),
    )
    h, b, ok, _ = asy._declared_labels(curv, 100.0, _fake_evidence())
    assert (h, b) == (wd.UNDETERMINED, wd.UNDETERMINED)
    assert not ok


def test_milnor_tail_without_growth_is_undetermined(euclidean):
    h, b, ok, notes = asy._declared_labels(
        euclidean.curvature, 100.0, _fake_evidence(phi_grows=False)
    )
    assert ok  # the inequality itself verifies
    assert (h, b) == (wd.UNDETERMINED, wd.UNDETERMINED)
    assert any("growth" in n for n in notes)


def test_one_sided_upper_bound_leaves_biharmonic_open():
    curv = wd.CurvatureProfile(
        k=lambda r: -np.ones_like(np.asarray(r, dtype=float)),
        tail=wd.TailDescriptor("le_log_threshold", r0=2.0, eps=1.0),
    )
    h, b, ok, _ = asy._declared_labels(curv, 100.0, _fake_evidence())
    assert ok
    assert h == wd.HYPERBOLIC
    assert b == wd.UNDETERMINED


def test_fit_gap_near_threshold_gives_no_descriptor():
    fit = asy.TailFit("log_threshold", None, 1.01, 0.001, (10.0, 100.0))
    assert asy._fit_descriptor(fit, lambda r: -1.0 / np.asarray(r) ** 2, 100.0) is None


def test_mixed_numeric_verdicts_undetermined():
    modes = (
        asy.ModeEvidence(1, "bounded", "unbounded", 0.5, 2.0, 1.0, 10.0, 5.0),
        asy.ModeEvidence(2, "unbounded", "unbounded", 1.0, 2.0, 9.0, 10.0, 5.0),
    )
    bundle = asy.EvidenceBundle(
        horizon=100.0, modes=modes, ratio_slope=0.0, ratio_window=(10.0, 100.0),
        phi_grows=True, phi_nondecreasing=True,
        log_derivative=asy.LimitEstimate(0.0, 0.0, "flat", np.array([1.0]), np.array([0.0])),
    )
    h, b, _ = asy._numeric_labels(bundle)
    assert h == wd.UNDETERMINED
    assert b == wd.UNDETERMINED


# ----------------------------------------------------------------------
# report export
# ----------------------------------------------------------------------

def test_export_report(tmp_path, euclidean):
    report = wd.classify_surface(euclidean, horizon=300.0, m_set=(1, 2))
    txt = tmp_path / "classification.txt"
    csv_path = tmp_path / "evidence.csv"
    asy.export_report(report, txt, csv_path)
    text = txt.read_text()
    assert "harmonic_regime = parabolic" in text
    assert "biharmonic_regime = rigid" in text
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "m,phi_m_verdict,z_verdict,ratio_slope"
    assert len(lines) == 3
