import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import warped_disk as wd
from warped_disk import asymptotics as asy
from warped_disk import exact
from warped_disk.geometry import TAIL_KINDS, _blended_curvature
from warped_disk.modes import mode_pass

from conftest import k_only


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
    bundle = wd.numeric_evidence(euclidean.metric, horizon=1000.0)
    assert bundle.phi_verdict == "unbounded"
    assert bundle.z_verdict == "unbounded"


def test_evidence_hyperbolic(hyperbolic):
    bundle = wd.numeric_evidence(hyperbolic.metric, horizon=1000.0)
    assert bundle.phi_verdict == "bounded"
    assert bundle.z_verdict == "unbounded"


def test_evidence_power(power1):
    bundle = wd.numeric_evidence(power1.metric, horizon=1000.0)
    assert bundle.phi_verdict == "bounded"
    assert bundle.z_verdict == "bounded"


def test_evidence_quadratic(quadratic1):
    bundle = wd.numeric_evidence(quadratic1.metric, horizon=1000.0)
    assert bundle.z_verdict == "unbounded"


@pytest.mark.parametrize("surface, k", [("euclidean", 0.0), ("hyperbolic", -1.0)],
                         ids=["euclidean", "hyperbolic"])
def test_z0_matches_its_closed_form(request, surface, k):
    # z_0 is the radial solution of Delta u = 1 with u(0) = 0
    radii = asy._ladder(1000.0)
    _, z = mode_pass(request.getfixturevalue(surface).metric, (0, 1), 1000.0,
                     radii=radii).lam_z(radii)
    assert_allclose(z[0], exact.space_form(k).z0(radii), rtol=1e-9)


def _family(k_tail, r0):
    """A surface from a blended tail, with no declared tail, valid to r = 1200."""
    k = _blended_curvature(k_tail, r0)
    return wd.Surface("family", k_only(k, 1200.0), wd.CurvatureProfile(k=k))


def _milnor_family(kappa):
    # K = -kappa/(r^2 log r): Milnor's threshold sits at kappa = 1
    return _family(lambda r: -kappa / (r * r * math.log(r)), 2.0)


def _quadratic_log_family(p):
    # K = -r^2 (log r)^p: z(inf) < inf exactly when p > 2
    return _family(lambda r: -r * r * math.log(r) ** p, 3.0)


@pytest.mark.parametrize("build", [
    pytest.param(partial(wd.builtin_profile, "euclidean"), id="euclidean"),
    pytest.param(partial(wd.builtin_profile, "hyperbolic"), id="hyperbolic"),
    pytest.param(partial(wd.builtin_profile, "power-curvature", eps=1.0), id="power"),
    pytest.param(partial(wd.builtin_profile, "quadratic-curvature", eta=1.0), id="quadratic"),
    pytest.param(partial(wd.builtin_profile, "log-threshold", eps=0.5), id="log-threshold"),
    *[pytest.param(partial(_milnor_family, kappa), id=f"kappa={kappa:g}")
      for kappa in (0.5, 0.9, 1.0, 1.1, 2.0)],
    *[pytest.param(partial(_quadratic_log_family, p), id=f"p={p:g}") for p in (0, 1, 2, 3, 6)],
])
def test_one_lambda_ladder_stands_for_every_m(build):
    # Lambda_m = |m| Lambda_1 and z_m <= z_0, so the bundle's two verdicts,
    # on Lambda_1 and on z_0, are those of every Lambda_m and every z_m;
    # the surfaces are the built-ins at the command-line defaults and the
    # two families on either side of the theory's thresholds
    metric = build().metric
    bundle = asy.numeric_evidence(metric, horizon=1000.0)
    ladder = asy._ladder(1000.0)
    lam, z = mode_pass(metric, range(0, 9), 1000.0, radii=ladder).lam_z(ladder)
    assert [asy._increment_verdict(row)[0] for row in lam[1:]] == [bundle.phi_verdict] * 8
    assert [asy._increment_verdict(row)[0] for row in z] == [bundle.z_verdict] * 9
    assert np.all(z[1:] <= z[0])


_BLENDED_TAIL = st.tuples(st.floats(0.0, 2.0), st.floats(-2.0, 2.5), st.floats(0.5, 4.0))


@settings(max_examples=25)
@given(tail=_BLENDED_TAIL)
def test_every_z_m_stays_below_z_0(tail):
    # phi_2m = exp(2 Lambda_m) is nondecreasing, so w_m <= w_0 and z_m <= z_0
    c, p, r0 = tail
    metric = k_only(_blended_curvature(lambda r: -c * r**p, r0), 50.0)
    radii = np.geomspace(1e-3, 50.0, 64)
    _, z = mode_pass(metric, range(0, 9), 50.0, radii=radii).lam_z(radii)
    assert np.all(z[1:] <= z[0] * (1.0 + 1e-9))


# no subnormal increment and no overflowing ratio, so scaling by 2^k is exact
_SAMPLE = st.floats(-1e100, 1e100).filter(lambda x: x == 0.0 or abs(x) >= 1e-100)
# increments with ratios near the verdict thresholds reach every verdict
_NEAR_GEOMETRIC = st.lists(st.floats(0.85, 1.05), min_size=3, max_size=10).map(
    lambda ratios: np.cumsum(np.cumprod([1.0, *ratios])).tolist())


@given(values=st.one_of(st.lists(_SAMPLE, min_size=4, max_size=12).map(sorted),
                        _NEAR_GEOMETRIC).filter(lambda v: abs(v[-1]) >= 1e-20),
       k=st.integers(-30, 30))
def test_increment_verdict_does_not_depend_on_scale(values, k):
    v = np.array(values)
    assert asy._increment_verdict(2.0**k * v) == asy._increment_verdict(v)


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------

def test_classify_flat(euclidean):
    report = wd.classify_surface(euclidean, horizon=1000.0)
    assert report.harmonic_regime == wd.PARABOLIC
    assert report.biharmonic_regime == wd.RIGID
    assert report.route == "both"
    assert report.declared_verified


def test_classify_hyperbolic(hyperbolic):
    report = wd.classify_surface(hyperbolic, horizon=1000.0)
    assert report.harmonic_regime == wd.HYPERBOLIC
    assert report.biharmonic_regime == wd.LIOUVILLE_TO_HARMONIC
    assert report.route == "both"


def test_classify_log_threshold(log_threshold):
    report = wd.classify_surface(log_threshold, horizon=1000.0)
    assert report.harmonic_regime == wd.HYPERBOLIC
    assert report.biharmonic_regime == wd.LIOUVILLE_TO_HARMONIC


def test_classify_power(power1):
    report = wd.classify_surface(power1, horizon=1000.0)
    assert report.harmonic_regime == wd.HYPERBOLIC
    assert report.biharmonic_regime == wd.ADMITS_NONHARMONIC_BOUNDED
    assert report.route == "both"


def test_classify_quadratic(quadratic1):
    report = wd.classify_surface(quadratic1, horizon=1000.0)
    assert report.harmonic_regime == wd.HYPERBOLIC
    assert report.biharmonic_regime == wd.LIOUVILLE_TO_HARMONIC


def test_classify_interior_threshold(interior_threshold):
    report = wd.classify_surface(interior_threshold, horizon=1000.0)
    assert report.harmonic_regime == wd.PARABOLIC
    assert report.biharmonic_regime == wd.RIGID


def test_route_consistency(all_builtins):
    # whenever both routes produce labels they must agree, which the
    # orchestrator encodes as route == "both" without conflict notes
    for surface in all_builtins:
        report = wd.classify_surface(surface, horizon=500.0)
        assert report.route == "both"
        assert not any("says" in note for note in report.notes)


_TRUTH = {
    "euclidean": (wd.PARABOLIC, wd.RIGID),
    "hyperbolic": (wd.HYPERBOLIC, wd.LIOUVILLE_TO_HARMONIC),
    "log-threshold": (wd.HYPERBOLIC, wd.LIOUVILLE_TO_HARMONIC),
    "power-curvature": (wd.HYPERBOLIC, wd.ADMITS_NONHARMONIC_BOUNDED),
    "quadratic-curvature": (wd.HYPERBOLIC, wd.LIOUVILLE_TO_HARMONIC),
}


# the horizon from which each built-in must get its truth: the numeric
# route's, or where the samples of a tail that labels alone start to verify
_TRUTH_FROM = {"euclidean": 3.0}


@pytest.mark.parametrize("horizon", [1e-3, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 10.0, 15.9, 16.0, 100.0])
def test_every_builtin_label_is_its_truth_or_undetermined_at_any_horizon(all_builtins, horizon):
    # below horizon 16 the ladder's four rungs fall under r = 2 and see the
    # surface near the origin, so only the declared route may label; the
    # plane's verified Milnor tail (from r0 = 2) labels it from K alone
    for surface in all_builtins:
        report = wd.classify_surface(surface, horizon=horizon)
        labels = (report.harmonic_regime, report.biharmonic_regime)
        name = surface.name.split("(")[0]
        truth = _TRUTH[name]
        if horizon >= _TRUTH_FROM.get(name, asy.NUMERIC_MIN_HORIZON):
            assert labels == truth, surface.name
        else:
            assert all(got in (want, wd.UNDETERMINED) for got, want in zip(labels, truth)), (
                surface.name, labels)


def test_numeric_route_is_silent_below_its_horizon():
    assert asy.NUMERIC_MIN_HORIZON == 16.0
    bundle = asy.EvidenceBundle(horizon=15.9, phi_verdict="unbounded", z_verdict="unbounded",
                                phi_nondecreasing=True)
    h, b, notes = asy._numeric_labels(bundle)
    assert (h, b) == (wd.UNDETERMINED, wd.UNDETERMINED)
    assert notes == ["horizon 15.9 is below 16: the ladder's lowest rung would fall under "
                     "r = 2; numeric route not used"]


@pytest.mark.parametrize("kappa", [
    0.5,
    pytest.param(1.0, marks=pytest.mark.xfail(strict=True, reason=(
        "Lambda_1 grows like log log r at kappa = 1, which a ladder to r = 1000 reads as "
        "bounded; labels at the threshold itself wait for ROADMAP.md item 3"))),
    2.0,
])
def test_milnor_threshold_labels(kappa):
    # phi = r u^kappa sits exactly on Milnor's threshold at kappa = 1, with
    # no declared tail: kappa = 0.5 may stay undetermined, the others may not
    entry = exact.milnor_threshold(kappa)
    surface = wd.Surface(entry.name, k_only(entry.k, 1200.0), wd.CurvatureProfile(k=entry.k))
    report = wd.classify_surface(surface, horizon=1000.0)
    labels = (report.harmonic_regime, report.biharmonic_regime)
    if kappa == 0.5:
        assert all(got in (want, wd.UNDETERMINED) for got, want in zip(labels, entry.truth))
    else:
        assert labels == entry.truth


def _keeps(labels, label):
    """Whether every definite label after the first ``label`` is ``label`` too."""
    definite = [got for got in labels if got != wd.UNDETERMINED]
    return label not in definite or set(definite[definite.index(label):]) == {label}


def test_definite_labels_are_monotone_along_both_threshold_axes():
    # by comparison, a more negative K is at least as hyperbolic and has a
    # z_0 at least as bounded: along kappa in K = -kappa/(r^2 log r), and p
    # in K = -r^2 (log r)^p, a definite label once reached is kept
    harmonic = [wd.classify_surface(_milnor_family(kappa), horizon=1000.0).harmonic_regime
                for kappa in np.linspace(0.5, 2.0, 8)]
    biharmonic = [wd.classify_surface(_quadratic_log_family(p), horizon=1000.0).biharmonic_regime
                  for p in np.linspace(0.0, 3.0, 8)]
    assert (harmonic[0], harmonic[-1]) == (wd.PARABOLIC, wd.HYPERBOLIC), harmonic
    assert _keeps(harmonic, wd.HYPERBOLIC), harmonic
    assert biharmonic[-1] == wd.ADMITS_NONHARMONIC_BOUNDED, biharmonic
    assert _keeps(biharmonic, wd.ADMITS_NONHARMONIC_BOUNDED), biharmonic


@pytest.mark.parametrize("build, horizon, route, harmonic_by_both", [
    pytest.param(partial(_milnor_family, 0.5), 1000.0, "declared_tail", None, id="kappa=0.5"),
    pytest.param(partial(_milnor_family, 0.8), 1000.0, "conflict", None, id="kappa=0.8"),
    pytest.param(partial(_quadratic_log_family, 3.0), 1000.0, "numeric", None, id="p=3"),
    pytest.param(partial(_quadratic_log_family, 0.4), 1000.0, "conflict", wd.HYPERBOLIC,
                 id="p=0.4"),
    pytest.param(partial(wd.builtin_profile, "power-curvature", eps=1.0), 1000.0, "both", None,
                 id="power"),
    pytest.param(partial(wd.builtin_profile, "hyperbolic"), 0.5, "none", None, id="hyperbolic"),
])
def test_every_overall_route(build, horizon, route, harmonic_by_both):
    # every overall route, from the per-label routes of the threshold
    # families and two built-ins; at p = 0.4 the routes conflict on the
    # biharmonic label only, and both give the harmonic one
    report = wd.classify_surface(build(), horizon=horizon)
    assert report.route == route
    if harmonic_by_both is not None:
        assert report.harmonic_regime == harmonic_by_both
        assert any(note.startswith("tail inferred by fit") for note in report.notes)
        assert "phi_m ladder is undetermined" not in report.notes
        assert [note.split(":")[0] for note in report.notes if "route says" in note] == [
            "biharmonic"]


def test_classify_rejects_other_types(euclidean):
    # a Surface carries the curvature the tail checks need; its parts alone are refused
    for subject in (42, euclidean.metric, euclidean.curvature):
        with pytest.raises(wd.DomainError):
            wd.classify_surface(subject)


# ----------------------------------------------------------------------
# guard rails: gaps stay undetermined
# ----------------------------------------------------------------------

def _fake_evidence(nondecreasing=True):
    return asy.EvidenceBundle(
        horizon=100.0,
        phi_verdict="bounded",
        z_verdict="unbounded",
        phi_nondecreasing=nondecreasing,
    )


def test_declared_custom_tail_is_undetermined():
    # a tail with no inequality to check cannot be declared, so no label
    # comes from one; every kind that can be declared has labels
    with pytest.raises(wd.DomainError):
        wd.TailDescriptor("custom", r0=2.0)
    assert set(asy._TAIL_LABELS) == set(TAIL_KINDS)


def test_verified_milnor_tail_labels_from_the_curvature_alone(euclidean):
    # K >= -1/(r^2 log r) is Milnor's parabolic case and the paper's rigid
    # one; the evidence, here that of a hyperbolic surface, plays no part
    curv = euclidean.curvature
    h, b, ok, notes = asy._declared_labels(curv.k, curv.tail, 100.0, _fake_evidence())
    assert ok
    assert (h, b) == (wd.PARABOLIC, wd.RIGID)
    assert notes == []


@pytest.mark.parametrize("surface, horizon", [("euclidean", 0.5), ("hyperbolic", 2.0)])
def test_tail_at_or_beyond_the_horizon_is_reported_unchecked(request, surface, horizon):
    # both tails start at r0 = 2: no sample lies in (r0, horizon], so none failed
    report = asy.classify_surface(request.getfixturevalue(surface), horizon=horizon)
    assert not report.declared_verified
    assert "declared tail starts at r0 = 2, at or beyond the horizon; not checked" in report.notes
    assert not any("failed sample verification" in note for note in report.notes)


def test_one_sided_upper_bound_leaves_biharmonic_open():
    h, b, ok, _ = asy._declared_labels(
        lambda r: -np.ones_like(np.asarray(r, dtype=float)),
        wd.TailDescriptor("le_log_threshold", r0=2.0, eps=1.0),
        100.0, _fake_evidence())
    assert ok
    assert h == wd.HYPERBOLIC
    assert b == wd.UNDETERMINED


def test_fit_gap_near_threshold_gives_no_descriptor():
    fit = asy.TailFit("log_threshold", None, 1.01, 0.001, (10.0, 100.0))
    assert asy._fit_descriptor(fit, lambda r: -1.0 / np.asarray(r) ** 2) is None


def _bundle(phi_verdict, z_verdict):
    return asy.EvidenceBundle(horizon=100.0, phi_verdict=phi_verdict, z_verdict=z_verdict,
                              phi_nondecreasing=True)


def test_mixed_numeric_verdicts_undetermined():
    h, b, notes = asy._numeric_labels(_bundle("bounded", "undetermined"))
    assert h == wd.HYPERBOLIC
    assert b == wd.UNDETERMINED
    assert notes == ["z_0 ladder is undetermined"]


def test_undetermined_lambda_ladder_leaves_harmonic_undetermined():
    assert asy._numeric_labels(_bundle("undetermined", "unbounded")) == (
        wd.UNDETERMINED, wd.UNDETERMINED, ["phi_m ladder is undetermined"])


@pytest.mark.parametrize("phi_verdict, z_verdict, labels", [
    ("bounded", "bounded", (wd.HYPERBOLIC, wd.ADMITS_NONHARMONIC_BOUNDED)),
    ("bounded", "unbounded", (wd.HYPERBOLIC, wd.LIOUVILLE_TO_HARMONIC)),
    ("unbounded", "unbounded", (wd.PARABOLIC, wd.RIGID)),
    ("unbounded", "bounded", (wd.PARABOLIC, wd.UNDETERMINED)),
])
def test_numeric_labels_from_the_two_verdicts(phi_verdict, z_verdict, labels):
    h, b, notes = asy._numeric_labels(_bundle(phi_verdict, z_verdict))
    assert (h, b) == labels
    assert bool(notes) == (b == wd.UNDETERMINED)


# ----------------------------------------------------------------------
# report export
# ----------------------------------------------------------------------

def test_export_report(tmp_path, euclidean):
    report = wd.classify_surface(euclidean, horizon=300.0)
    txt = tmp_path / "classification.txt"
    asy.export_report(report, txt)
    text = txt.read_text()
    assert "harmonic_regime = parabolic" in text
    assert "biharmonic_regime = rigid" in text
    assert "phi_ladder = unbounded" in text
    assert "z0_ladder = unbounded" in text
    assert list(tmp_path.iterdir()) == [txt]
