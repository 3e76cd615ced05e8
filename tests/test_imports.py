"""What an import loads: the lazy package namespace and the per-command layers.

Each test runs its script in a fresh interpreter, since the test process
has every layer loaded already.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import warped_disk

_SRC = str(Path(warped_disk.__file__).resolve().parents[1])

# every name the package exported when its __init__ imported all layers
_EXPORTED = {
    "asymptotics": ("ADMITS_NONHARMONIC_BOUNDED", "HYPERBOLIC", "LIOUVILLE_TO_HARMONIC",
                    "PARABOLIC", "RIGID", "UNDETERMINED", "ClassificationReport",
                    "classify_surface", "numeric_evidence"),
    "bvp": ("BoundaryTrace", "FourierSpectrum", "ModeCoefficients", "analyze_trace",
            "evaluate_solution", "solve_disk_biharmonic", "synthesize_trace",
            "verify_disk_solution"),
    "errors": ("AliasingWarning", "ConjugatePointError", "DomainError", "IntegrationError",
               "QuadratureError", "WarpedDiskError"),
    "geometry": ("CurvatureProfile", "MetricProfile", "RadialGrid", "Surface",
                 "TailDescriptor", "builtin_profile", "profile_from_curvature"),
    "modes": ("BiharmonicMode", "biharmonic_mode", "verify_mode_residuals"),
}


def _run(script, *args):
    """Run ``script`` in a fresh interpreter; the literal it prints last, evaluated."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.strip().splitlines()[-1])


_LOADED_LAYERS = """
import contextlib, io, sys
from pathlib import Path
NAMES = ("warped_disk.asymptotics", "warped_disk.bvp", "warped_disk.exact", "configparser")
out = Path(sys.argv[1])
loaded = {}
import warped_disk.cli as cli
loaded["import"] = [name for name in NAMES if name in sys.modules]
runs = (
    ("profiles", ["profiles"]),
    ("modes", ["modes", "--horizon", "5", "--mmax", "1", "--grid", "geometric,0.1,16",
               "--out", str(out / "modes")]),
    ("classify", ["classify", "--horizon", "50", "--rmax", "60", "--out", str(out / "classify")]),
)
for label, argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, label
    loaded[label] = [name for name in NAMES if name in sys.modules]
print(loaded)
"""


def test_each_command_loads_only_the_layers_it_runs(tmp_path):
    # run in this order, so each command's list also holds what the ones before it loaded
    loaded = _run(_LOADED_LAYERS, str(tmp_path))
    assert loaded == {
        "import": [],
        "profiles": [],
        "modes": [],
        "classify": ["warped_disk.asymptotics"],
    }


_NAMESPACE = """
import sys
import warped_disk
EXPORTED = {exported!r}
result = {{"bare": [name for name in sys.modules if name.startswith("warped_disk.")]}}
result["dir"] = sorted(dir(warped_disk))
result["bvp_resolves"] = warped_disk.bvp is sys.modules["warped_disk.bvp"]
try:
    warped_disk.no_such_name
except AttributeError as exc:
    result["unknown"] = str(exc)
result["not_the_same"] = [
    f"{{module}}.{{name}}" for module, names in EXPORTED.items() for name in names
    if getattr(warped_disk, name) is not getattr(sys.modules["warped_disk." + module], name)]
star = {{}}
exec("from warped_disk import *", star)
result["star"] = sorted(set(star) - {{"__builtins__"}})
result["all"] = sorted(warped_disk.__all__)
print(result)
"""


def test_lazy_namespace_resolves_every_exported_name_and_submodule():
    result = _run(_NAMESPACE.format(exported=_EXPORTED))
    names = sorted([*(name for names in _EXPORTED.values() for name in names), "__version__"])
    assert len(names) == 34
    assert result["bare"] == []
    assert result["bvp_resolves"] is True
    assert result["unknown"] == "module 'warped_disk' has no attribute 'no_such_name'"
    assert result["not_the_same"] == []
    assert result["all"] == names
    assert result["star"] == names
    assert set(names) <= set(result["dir"])
    assert "bvp" in result["dir"]
