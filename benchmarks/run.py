"""Benchmark for warped-disk: three workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload classify|modes|disk|all --seed N \
        --seconds S --trace 0|1 [--quick]

Run from the repository root. Each workload runs in its own fresh
process with one thread (WARPED_DISK_THREADS and the BLAS/OpenMP thread
counts set to 1), one workload at a time. ``--trace 0`` measures the
end-to-end metrics with nothing patched; ``--trace 1`` measures the
per-layer metrics from a separately traced pair of passes. Every output
is checked by an oracle (see workloads.py), output files are hashed, and
the traced counters must repeat exactly. Times are reported at a
reference host speed (see speed.py). The last line printed is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Work files go to .bench_work/ under the repository root: per-run
scratch (deleted), span dumps of traced runs, and per (package sources,
benchmark code, workload, seed) records of output hashes and counters,
which later runs of the same code and seed must reproduce.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("classify", "modes", "disk")
SETUP_SAMPLES = 3          # imports timed per run, the workload process's own included
RUN_DEADLINE_S = 170.0     # whole run, children included

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "eval_p50_us": "us",
    "eval_p99_us": "us",
}
PER_LAYER = {
    "geometry.builtin_profile.s": "s",
    "geometry.ivp.nfev": "count",
    "geometry.ivp.steps": "count",
    "geometry.profile_eval.calls": "count",
    "geometry.profile_eval.s": "s",
    "modes.mode_pass.calls": "count",
    "modes.mode_pass.s": "s",
    "modes.biharmonic_mode.calls": "count",
    "modes.biharmonic_mode.s": "s",
    "modes.verify_mode_residuals.s": "s",
    "modes.ivp.solves": "count",
    "modes.ivp.nfev": "count",
    "modes.ivp.njev": "count",
    "modes.ivp.steps": "count",
    "modes.dense.points": "count",
    "asymptotics.classify_surface.self_s": "s",
    "asymptotics.numeric_evidence.self_s": "s",
    "operators.sample_derivatives.calls": "count",
    "operators.sample_derivatives.s": "s",
    "bvp.analyze_trace.s": "s",
    "bvp.solve_disk_biharmonic.s": "s",
    "bvp.verify_disk_solution.s": "s",
    "bvp.evaluate_solution.calls": "count",
    "bvp.evaluate_solution.s": "s",
    "cli.self_s": "s",
    "util.write_csv.calls": "count",
    "util.write_csv.s": "s",
    "cli.output_bytes": "B",
    "trace.overhead_frac": "1",
}
# names whose value must repeat exactly between traced passes and runs
DETERMINISTIC_SUFFIXES = (".calls", ".nfev", ".njev", ".steps", ".solves", ".points", ".output_bytes")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("WARPED_DISK_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_child(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a workload process")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                              env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest(directory: Path) -> str:
    """Hash of the Python sources under a directory."""
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _same_across(records: list[dict], key) -> bool:
    first = key(records[0])
    return all(key(r) == first for r in records[1:])


def median_of(passes: list[dict], key: str) -> dict:
    """Per operation, the median over its repetitions."""
    return {label: statistics.median(p[key][label] for p in passes) for label in passes[0][key]}


def _deterministic(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k.endswith(DETERMINISTIC_SUFFIXES)}


def layer_values(rec: dict) -> dict:
    """Per-layer metric values of one traced pass (overhead added by the caller)."""
    layers, counters = rec["layers"], rec["counters"]

    def total(name, key="s"):
        return layers.get(name, {}).get(key, 0)

    values = {
        "geometry.builtin_profile.s": total("geometry.builtin_profile"),
        "geometry.profile_eval.calls": total("geometry.profile_eval", "calls"),
        "geometry.profile_eval.s": total("geometry.profile_eval"),
        "asymptotics.classify_surface.self_s": total("asymptotics.classify_surface", "self_s"),
        "asymptotics.numeric_evidence.self_s": total("asymptotics.numeric_evidence", "self_s"),
        "cli.self_s": total("cli.main", "self_s"),
        "cli.output_bytes": rec["output_bytes"],
    }
    for name in ("modes.mode_pass", "modes.biharmonic_mode", "operators.sample_derivatives",
                 "bvp.evaluate_solution", "util.write_csv"):
        values[name + ".calls"] = total(name, "calls")
        values[name + ".s"] = total(name)
    for name in ("modes.verify_mode_residuals", "bvp.analyze_trace",
                 "bvp.solve_disk_biharmonic", "bvp.verify_disk_solution"):
        values[name + ".s"] = total(name)
    for name in ("geometry.ivp.nfev", "geometry.ivp.steps", "modes.ivp.solves",
                 "modes.ivp.nfev", "modes.ivp.njev", "modes.ivp.steps", "modes.dense.points"):
        values[name] = counters.get(name, 0)
    return values


def _check_record(key: str, found: dict, problems: list[str]) -> str:
    """Compare hashes/counters with an earlier run of the same source and seed."""
    path = WORK / "records" / f"{key}.json"
    old = json.loads(path.read_text()) if path.is_file() else {}
    status = "new"
    for what, value in found.items():
        if what in old:
            if old[what] != value:
                problems.append(f"{what} differ from an earlier run of the same source and seed")
                status = "MISMATCH"
            elif status == "new":
                status = "match"
    merged = {**found, **old}
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(merged, sort_keys=True, indent=1))
    os.replace(tmp, path)
    return status


def run_workload(workload: str, seed: int, seconds: float, trace: int, quick: bool = False) -> dict:
    """Run one workload in fresh processes; returns the full result record."""
    if not (SRC / "warped_disk" / "cli.py").is_file():
        raise BenchError(f"package sources not found under {SRC}")
    deadline = time.monotonic() + RUN_DEADLINE_S
    tag = f"{workload}-seed{seed}" + ("-quick" if quick else "")
    work = WORK / "runs" / f"{tag}-trace{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--work", str(work)] + (["--quick"] if quick else [])
    setup = []
    try:
        if trace == 0:
            setup = [_run_child(["--setup-only"], deadline)["setup"]
                     for _ in range(SETUP_SAMPLES - 1)]
        child = _run_child(args, deadline)
        if trace:
            dest = WORK / "traces" / f"{tag}.json"
            dest.parent.mkdir(parents=True, exist_ok=True)
            os.replace(work / "spans.json", dest)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup.append(child["setup"])

    timed, probes = child["passes"], child["probes"]
    traced = child.get("traced", [])
    everything = timed + probes + traced
    problems = [f for p in everything for f in p["failures"]]
    for group in (timed + traced, probes):
        if group and not _same_across(group, lambda p: p["hashes"]):
            problems.append("output files differ between passes of one run")
    found = {"hashes": timed[0]["hashes"]}
    result = {
        "workload": workload, "seed": seed, "trace": trace, "quick": quick,
        "env": {**child["env"], "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)), "commit": git_commit(),
                "source": source_digest(SRC / "warped_disk"), "threads": 1},
        "passes": len(timed),
        "attempted": sum(p["ops"] for p in everything),
        "failed": sum(len(p["failures"]) for p in everything),
        "op_s": median_of(timed, "op_s"),
        "raw_wall_s": sum(median_of(timed, "op_raw_s").values()),
    }
    wall = sum(result["op_s"].values())
    if trace == 0:
        lat = child["eval_latency_us"]
        result["eval"] = lat
        result["setup_samples"] = len(setup)
        result["raw_setup_s"] = statistics.median(s["raw_s"] for s in setup)
        result["metrics"] = {
            "setup_s": statistics.median(s["s"] for s in setup),
            "wall_s": wall,
            "cpu_s": sum(median_of(timed, "op_cpu_s").values()),
            "peak_rss_mb": child["peak_rss_mb"],
            "eval_p50_us": lat["p50"],
            "eval_p99_us": lat["p99"],
        }
        units = END_TO_END
    else:
        per_pass = [layer_values(p) for p in traced]
        if not _same_across(per_pass, _deterministic):
            problems.append("traced counters differ between two passes of one run")
        found["counters"] = _deterministic(per_pass[0])
        metrics = {k: statistics.median(v[k] for v in per_pass) for k in per_pass[0]}
        metrics.update(found["counters"])
        metrics["trace.overhead_frac"] = sum(median_of(traced, "op_s").values()) / wall - 1.0
        result["metrics"] = metrics
        result["span_total_s"] = [p["span_total_s"] for p in traced]
        result["self_sum_s"] = [p["self_sum_s"] for p in traced]
        result["layers"] = [p["layers"] for p in traced]
        units = PER_LAYER
    # outputs and counts are compared only between runs of the same
    # package sources and the same benchmark code
    key = f"{result['env']['source']}-{source_digest(HERE)}-{tag}"
    result["record"] = _check_record(key, found, problems)
    result["problems"] = problems
    result["correct"] = not problems
    result["units"] = units
    return result


def _print_human(res: dict) -> None:
    env = res["env"]
    print(f"env: nproc={env['nproc']} affinity={env['affinity']} threads={env['threads']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"commit={env['commit']} source={env['source']}")
    mode = "traced" if res["trace"] else "untraced"
    print(f"workload {res['workload']} seed {res['seed']} ({mode}): {res['passes']} timed passes, "
          f"{res['attempted']} operations, {res['failed']} failed, "
          f"fail_frac = {res['failed'] / res['attempted']:.4g} (unit 1)")
    per_op = f"sum over operations of the median of {res['passes']} passes"
    ev = res.get("eval", {})
    points = f"{ev.get('points')} points, each the median of {ev.get('repetitions')}"
    samples = {"setup_s": f"median of {res.get('setup_samples')} imports",
               "wall_s": per_op, "cpu_s": per_op, "peak_rss_mb": "one process",
               "eval_p50_us": points, "eval_p99_us": points}
    for name, value in res["metrics"].items():
        note = samples.get(name, "median of 2 traced passes")
        print(f"  {name:40s} {value:>16.6g} {res['units'][name]:6s} ({note})")
    for label, seconds in res["op_s"].items():
        print(f"  op {label:37s} {seconds:>16.6g} s      (median of {res['passes']} passes)")
    print(f"  raw (not speed-normalized): wall {res['raw_wall_s']:.6g} s"
          + (f", setup {res['raw_setup_s']:.6g} s" if "raw_setup_s" in res else ""))
    if res["trace"]:
        print(f"  span total {res['span_total_s']} s, self-time sum {res['self_sum_s']} s")
    print(f"output hashes and counters vs earlier runs: {res['record']}")
    for problem in res["problems"]:
        print(f"PROBLEM: {problem}")


def _json_line(results: list[dict], prefix: bool) -> str:
    metrics = {}
    for res in results:
        for name, value in res["metrics"].items():
            key = f"{res['workload']}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": res["units"][name]}
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny configs, for the tests")
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, args.trace, args.quick)
            _print_human(res)
            results.append(res)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(_json_line(results, prefix=args.workload == "all"), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
