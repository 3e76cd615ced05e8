"""Run one workload in this (fresh, single-threaded) process.

    python3 benchmarks/child.py --setup-only
    python3 benchmarks/child.py --workload W --seed N --seconds S --trace 0|1 --work DIR [--quick]

``run.py`` starts this with the package on PYTHONPATH and the thread
count pinned to 1. The first thing it does is time ``import
warped_disk.cli``; the last line it prints is one JSON record.
"""

import argparse
import json
import sys
import time

from speed import SpeedSampler

MIN_PASSES = 3   # every operation (and probe point) gets at least this many repetitions


def _timed_import(sampler: SpeedSampler) -> dict:
    t0 = time.perf_counter()
    import warped_disk.cli  # noqa: F401
    t1 = time.perf_counter()
    return {"raw_s": t1 - t0, "s": sampler.normalize(t0, t1, t1 - t0)}


def main(argv=None) -> int:
    with SpeedSampler() as sampler:
        return _main(sampler, argv)


def _main(sampler: SpeedSampler, argv) -> int:
    setup = _timed_import(sampler)
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--work")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    import resource
    import shutil
    import traceback
    from hashlib import sha256
    from pathlib import Path

    import numpy as np
    import scipy

    import tracing
    import workloads

    work = Path(args.work)
    inputs_dir = work / "inputs"
    inputs_dir.mkdir(parents=True)
    config = "quick" if args.quick else "full"
    ops = workloads.build(args.workload, args.seed, config, inputs_dir)
    # classify and modes evaluate no points; a euclidean disk probe, run
    # twice after each of their passes, gives them the evaluation latency too
    probe = [] if args.workload == "disk" else 2 * workloads.disk_ops(
        args.seed, inputs_dir, profiles=("euclidean",))
    latencies: dict[str, list] = {}   # per op label, per repetition, per point

    def run_pass(ops, tag):
        """Run every op once; time only Op.run, then check and hash its files."""
        root = work / tag
        rec = {"ops": 0, "failures": [], "hashes": {}, "output_bytes": 0,
               "op_s": {}, "op_raw_s": {}, "op_cpu_s": {}}
        for i, op in enumerate(ops):
            out = root / f"op{i}"
            out.mkdir(parents=True)
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                result = op.run(out)
                error = None
            except Exception as exc:  # a failed operation is counted, not fatal
                error = exc
            c1, w1 = time.process_time(), time.perf_counter()
            rec["op_raw_s"][op.label] = w1 - w0
            rec["op_s"][op.label] = sampler.normalize(w0, w1, w1 - w0)
            rec["op_cpu_s"][op.label] = sampler.normalize(w0, w1, c1 - c0)
            rec["ops"] += 1
            if error is None:
                try:
                    op.check(out, result)
                except workloads.OracleError as exc:
                    error = exc
            if error is not None:
                traceback.print_exception(error, file=sys.stderr)
                rec["failures"].append(f"{op.label}: {type(error).__name__}: {error}")
            elif isinstance(result, dict) and "latency_s" in result:
                latencies.setdefault(op.label, []).append(
                    [sampler.normalize(t, t + lat, lat)
                     for t, lat in zip(result["starts"].tolist(), result["latency_s"].tolist())])
            for f in sorted(p for p in out.rglob("*") if p.is_file()):
                data = f.read_bytes()
                rec["hashes"][f"{op.label}/{f.relative_to(out)}"] = sha256(data).hexdigest()
                rec["output_bytes"] += len(data)
        shutil.rmtree(root)
        return rec

    def timed_passes(budget, min_passes, probe):
        """Closed loop: repeat the pass (then the probe) until budget seconds have gone by."""
        passes, probes = [], []
        start = time.perf_counter()
        while len(passes) < min_passes or time.perf_counter() - start < budget:
            passes.append(run_pass(ops, f"pass{len(passes)}"))
            if probe:
                probes.append(run_pass(probe, f"probe{len(probes)}"))
        return passes, probes

    record = {
        "setup": setup,
        "env": {"python": sys.version.split()[0], "numpy": np.__version__,
                "scipy": scipy.__version__},
    }
    if args.trace == 0:
        record["passes"], record["probes"] = timed_passes(args.seconds, MIN_PASSES, probe)
        # per point, the median of its repetitions; then percentiles over points
        per_point = [np.median(np.array(reps), axis=0) for reps in latencies.values()]
        lat_us = np.concatenate(per_point) * 1e6 if per_point else np.array([np.nan])
        record["eval_latency_us"] = {
            "p50": float(np.percentile(lat_us, 50)),
            "p99": float(np.percentile(lat_us, 99)),
            "points": sum(p.size for p in per_point),
            "repetitions": min((len(r) for r in latencies.values()), default=0),
        }
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        record["passes"], record["probes"] = timed_passes(args.seconds / 2.0, 1, [])
        record["traced"] = []
        spans = []
        for k in range(2):
            tracer = tracing.Tracer()
            saved = tracing.install(tracer)
            try:
                rec = run_pass(ops, f"traced{k}")
            finally:
                tracing.uninstall(saved)
            layers, span_total = tracer.layers(sampler.normalize)
            rec.update(layers=layers, counters=dict(tracer.counters), span_total_s=span_total,
                       self_sum_s=sum(v["self_s"] for v in layers.values()))
            record["traced"].append(rec)
            spans.append({"spans": tracer.spans, "root_leaf_s": tracer.root_leaf_s})
        (work / "spans.json").write_text(json.dumps(spans))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
