"""Write the CLI output set of a warped_disk version into one directory.

    PYTHONPATH=src python tools/output_set.py OUTDIR

Runs ``classify``, ``modes``, ``bvp`` and ``verify`` on fixed inputs with
whichever ``warped_disk`` is importable here, each in its own subdirectory
of OUTDIR. The children run in those subdirectories, so the absolute
directory of that ``warped_disk`` goes first on their ``PYTHONPATH``; a
relative ``PYTHONPATH=src`` would not reach it from there. A subdirectory
holds the files the command writes, its stdout (``stdout.txt``) and its
exit code (``exit.txt``); stderr is not kept, since warnings name source
paths. The traces the ``bvp`` runs read are written to ``OUTDIR/inputs``.
``inprocess`` runs several of those commands in turn in one child, each
in its own subdirectory, to show that calls in one process act as in
fresh ones.
Two trees written from two versions of the package are byte-identical
exactly when ``diff -r`` reports nothing.
The whole set takes about 5 s on two cores.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import warped_disk

POWER = ["--profile", "power-curvature", "--eps", "1"]
EUCLIDEAN = ["--profile", "euclidean"]
HYPERBOLIC = ["--profile", "hyperbolic"]

_MAIN = "import sys; from warped_disk.cli import main; sys.exit(main(sys.argv[1:]))"
# one child: run each (subdirectory, argv) of the JSON list in argv[1] there
_MAIN_IN_TURN = """
import contextlib, io, json, os, sys
from pathlib import Path
from warped_disk.cli import main
for name, args in json.loads(sys.argv[1]):
    os.chdir(name)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    Path("stdout.txt").write_text(out.getvalue())
    Path("exit.txt").write_text(f"{code}\\n")
    os.chdir("..")
"""


def _write_trace(path: Path, u: np.ndarray, lap: np.ndarray) -> None:
    theta = 2.0 * math.pi * np.arange(u.size) / u.size
    rows = (f"{t!r},{a!r},{b!r}" for t, a, b in zip(theta.tolist(), u.tolist(), lap.tolist()))
    path.write_text("theta,u,lap_u\n" + "\n".join(rows) + "\n")


def write_inputs(inputs: Path) -> None:
    """A noisy 64-sample trace and one band-limited to |m| <= 3."""
    inputs.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(20250207)
    _write_trace(inputs / "noisy.csv", rng.normal(size=64), rng.normal(size=64))
    theta = 2.0 * math.pi * np.arange(64) / 64
    _write_trace(inputs / "band.csv",
                 1.0 + np.cos(theta) + 0.5 * np.sin(2.0 * theta) - 0.25 * np.cos(3.0 * theta),
                 0.25 - np.cos(theta) + 0.125 * np.sin(3.0 * theta))


RUNS = {
    "classify_euclidean": ["classify", *EUCLIDEAN],
    "classify_power": ["classify", *POWER],
    "classify_hyperbolic": ["classify", *HYPERBOLIC],
    "classify_quadratic": ["classify", "--profile", "quadratic-curvature", "--eta", "1"],
    "classify_log_threshold": ["classify", "--profile", "log-threshold", "--eps", "0.5"],
    # below the horizon the numeric route needs
    "classify_hyperbolic_h05": ["classify", *HYPERBOLIC, "--horizon", "0.5"],
    # the plane's verified Milnor tail labels it there from K alone
    "classify_euclidean_h5": ["classify", *EUCLIDEAN, "--horizon", "5"],
    # horizons at or below the declared tail's r0 read only the constant cap
    "classify_power_r0_40_h30": ["classify", *POWER, "--r0", "40", "--horizon", "30"],
    "classify_log_threshold_r0_30_h25": ["classify", "--profile", "log-threshold", "--eps", "0.5",
                                         "--r0", "30", "--horizon", "25"],
    "modes_euclidean": ["modes", *EUCLIDEAN],
    "modes_power": ["modes", *POWER, "--horizon", "100", "--mmax", "2"],
    "modes_hyperbolic": ["modes", *HYPERBOLIC],
    # short decimal radii in the r column
    "modes_uniform": ["modes", *EUCLIDEAN, "--grid", "uniform,0.25,64", "--horizon", "16"],
    # a grid below r = 1, where Lambda_m is normalized: exit 64
    "modes_refused": ["modes", *EUCLIDEAN, "--horizon", "0.5", "--rmax", "0.6", "--mmax", "1"],
    "bvp_noisy_euclidean": ["bvp", *EUCLIDEAN, "--radius", "3", "../inputs/noisy.csv"],
    "bvp_noisy_power": ["bvp", *POWER, "--radius", "3", "../inputs/noisy.csv"],
    "bvp_noisy_hyperbolic": ["bvp", *HYPERBOLIC, "--radius", "3", "../inputs/noisy.csv"],
    "bvp_band_power": ["bvp", *POWER, "--radius", "3", "../inputs/band.csv"],
    "bvp_band_hyperbolic": ["bvp", *HYPERBOLIC, "--radius", "3", "../inputs/band.csv"],
    "verify": ["verify"],
    "verify_fault_stencil": ["verify", "--inject-fault", "stencil"],
}
# runs of RUNS made in turn by one child, into OUTDIR/<key>/<run>
IN_TURN = {"inprocess": ("classify_power", "classify_euclidean", "modes_uniform")}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 64
    root = Path(argv[0])
    write_inputs(root / "inputs")
    package_root = str(Path(warped_disk.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    for name, args in RUNS.items():
        run_dir = root / name
        run_dir.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run([sys.executable, "-c", _MAIN, *args, "--out", "."],
                              cwd=run_dir, env=env, capture_output=True, text=True)
        (run_dir / "stdout.txt").write_text(proc.stdout)
        (run_dir / "exit.txt").write_text(f"{proc.returncode}\n")
        print(f"{name}: exit {proc.returncode}")
    for name, runs in IN_TURN.items():
        for run in runs:
            (root / name / run).mkdir(parents=True, exist_ok=True)
        plan = json.dumps([(run, [*RUNS[run], "--out", "."]) for run in runs])
        proc = subprocess.run([sys.executable, "-c", _MAIN_IN_TURN, plan],
                              cwd=root / name, env=env, capture_output=True, text=True)
        print(f"{name}: exit {proc.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
