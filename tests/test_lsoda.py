"""The compiled LSODA driver against scipy's public wrappers, bit for bit.

``_lsoda`` calls scipy's private ODEPACK entry points. These tests pin
that API: a pass at named radii must equal ``scipy.integrate.odeint``,
a dense pass must equal ``solve_ivp(method="LSODA", dense_output=True)``,
and the fallback import must give the same output as the load by path.
"""

import sys

import numpy as np
import pytest
from numpy.testing import assert_array_equal
from scipy.integrate import odeint, solve_ivp

import warped_disk as wd
from warped_disk import _lsoda, asymptotics, bvp, modes
from warped_disk.geometry import RadialGrid


@pytest.fixture
def calls(monkeypatch):
    """Each driver call's arguments and solution, in call order."""
    record = []
    for name in ("at_radii", "dense"):
        driver = getattr(_lsoda, name)

        def spy(*args, _driver=driver, _name=name, **kwargs):
            sol = _driver(*args, **kwargs)
            record.append((_name, args, kwargs, sol))
            return sol

        monkeypatch.setattr(_lsoda, name, spy)
    return record


def _classify_pass(metric):
    asymptotics.numeric_evidence(metric, horizon=1000.0)


def _modes_passes(metric):
    modes.biharmonic_mode(metric, range(3), RadialGrid.geometric(1e-3, 100.0, 256))


def _disk_pass(metric):
    spectrum = bvp.FourierSpectrum(m_max=8, alpha=np.ones(17), beta=np.ones(17),
                                   truncation_energy=(0.0, 0.0), real_valued=False)
    return bvp.solve_disk_biharmonic(metric, 3.0, spectrum)


@pytest.mark.parametrize("surface", ["euclidean", "hyperbolic", "power1", "quadratic1",
                                     "log_threshold"])
@pytest.mark.parametrize("run", [_classify_pass, _modes_passes], ids=["classify", "modes"])
def test_named_radii_pass_equals_public_odeint(request, calls, surface, run):
    run(request.getfixturevalue(surface).metric)
    assert calls and all(name == "at_radii" for name, *_ in calls)
    for _, (rhs, jac, y0, t, rtol, atol), kwargs, sol in calls:
        ys, info = odeint(rhs, y0, t, Dfun=jac, rtol=rtol, atol=atol, tcrit=[kwargs["tcrit"]],
                          mxstep=_lsoda._MXSTEP, full_output=True, tfirst=True)
        assert info["message"] == "Integration successful."
        assert_array_equal(sol.t, t[1:])
        assert_array_equal(sol.y, ys[1:].T)
        assert (sol.nst, sol.nfe, sol.nje) == (info["nst"][-1], info["nfe"][-1], info["nje"][-1])


@pytest.mark.parametrize("surface", ["euclidean", "hyperbolic", "power1", "quadratic1",
                                     "log_threshold"])
def test_dense_pass_equals_public_solve_ivp(request, calls, surface):
    _disk_pass(request.getfixturevalue(surface).metric)
    ((name, (rhs, jac, y0, t0, t_end, rtol, atol), _, sol),) = calls
    assert name == "dense"
    ref = solve_ivp(rhs, (t0, t_end), y0, method="LSODA", rtol=rtol, atol=atol, jac=jac,
                    dense_output=True)
    assert ref.status == 0
    assert_array_equal(sol.t, ref.t)
    assert_array_equal(sol.y, ref.y)
    assert (sol.nst, sol.nfe, sol.nje) == (ref.t.size - 1, ref.nfev, ref.njev)
    # every step end (which reads the step after it), random radii in any
    # order, and the span's ends, as one array and one scalar at a time
    r = np.concatenate((ref.t, np.random.default_rng(5).uniform(t0, t_end, 2000)))
    assert_array_equal(sol(r), ref.sol(r))
    for x in [*r[::7].tolist(), t0, t_end, 1.0]:
        assert_array_equal(sol(x), ref.sol(x))
        assert_array_equal(sol(np.float64(x)), ref.sol(np.float64(x)))


def test_fallback_import_gives_the_same_output(monkeypatch, power1):
    def refuse():
        raise ImportError("by-path load refused")

    by_path = _lsoda._odepack
    monkeypatch.setattr(_lsoda, "_load_by_path", refuse)
    imported = _lsoda._load()
    assert imported is sys.modules["scipy.integrate._odepack"]
    outputs = []
    for module in (by_path, imported):
        monkeypatch.setattr(_lsoda, "_odepack", module)
        mode = wd.biharmonic_mode(power1.metric, 2, RadialGrid.geometric(1e-3, 100.0, 64))
        mp = _disk_pass(power1.metric)._modes
        outputs.append((mode.lam, mode.z, mode.log_phi, mp.lam_z(np.linspace(0.01, 3.0, 50))))
    for a, b in zip(*outputs):
        assert_array_equal(a, b)
