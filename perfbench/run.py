"""Seeded benchmark for parastream.

    python3 perfbench/run.py --workload semantic_clear --seed 1 --seconds 25 --trace 0

Run from the repository root. The program is imported from ``src/`` of
the same checkout; nothing is installed. ``--trace 0`` measures the
end-to-end metrics untraced; ``--trace 1`` runs a fixed prefix of the
workload twice, untraced and traced in alternation, checks that both
passes give the same outputs bit for bit, and reports the per-layer
metrics. Operations and set-up are timed in CPU time. Metric names,
units and directions come from BENCHMARK.json. Every run prints one
line per metric, a provenance record, and as its last line the JSON
result; it also writes the result (with spans, when traced) under
``.perfbench/``. A failed correctness check exits with status 1, a
missing program with status 2.
"""

from __future__ import annotations

import os
import time

# One caller thread, small matrices: a single BLAS thread (never more
# than nproc) keeps runs steady on a shared machine. Set before anything
# loads numpy.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from recorder import Recorder, percentile, samples_beyond, self_time_by_name  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5  # this process plus four fresh ones


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(spec):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def load_program():
    """Import parastream from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "parastream" / "__init__.py").is_file():
        print(f"perfbench: no program at {src / 'parastream'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import parastream

    if pathlib.Path(parastream.__file__).resolve().parent != (src / "parastream").resolve():
        print(f"perfbench: imported {parastream.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def setup_seconds(args, own):
    """Median set-up time of this process and of fresh ones: CPU time
    from interpreter start to inputs ready, which, like the operation
    times, leaves out time the hypervisor gives to other guests."""
    samples = [own]
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples), samples


def blas_threads_in_use():
    """Thread count the loaded OpenBLAS reports, or None if not queryable."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def machine_record():
    import numpy as np
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_reported": blas_threads_in_use(),
    }


def end_to_end(run, setup_s):
    cpu_ms = [1e3 * t for t in run.latencies]
    wall_ms = [1e3 * t for t in run.wall]
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_cpu_ms_p50": percentile(cpu_ms, 50),
        "op_cpu_ms_p90": percentile(cpu_ms, 90),
        "ops_per_cpu_s": len(cpu_ms) / sum(run.latencies),
    }
    values.update({k: run.summary[k] for k in ("psnr_db", "ms_ssim", "cbr")})
    extra = {
        "op_samples": len(cpu_ms),
        "op_samples_beyond_p90": samples_beyond(len(cpu_ms), 90),
        "op_wall_ms_p50": percentile(wall_ms, 50),
        "op_wall_ms_p90": percentile(wall_ms, 90),
        "ops_per_wall_s": len(wall_ms) / sum(run.wall),
        "op_failure_rate": run.failed / run.attempted,
    }
    return values, extra


def per_layer(untraced, traced, rec):
    import instrument

    ops = len(traced.latencies)
    values, bases = instrument.layer_metrics(rec, ops)
    values["pipeline.corruption_rate"] = traced.summary["corruption_rate"]
    values["training.loss_end"] = traced.summary.get("train_loss_end", 0.0)
    values["tracing.overhead_ratio"] = sum(traced.latencies) / sum(untraced.latencies)
    bases["tracing.overhead_ratio"] = (
        f"traced over untraced op CPU time, {ops} operations each"
    )
    own = self_time_by_name(rec.spans)
    ranked = sorted(own, key=own.get, reverse=True)
    extra = {
        "bases": bases,
        "tracing_overhead_wall_ratio": sum(traced.wall) / sum(untraced.wall),
        "top_self_layers": [[n, 1e3 * own[n] / ops] for n in ranked[:5]],
        "top_self_layer": ranked[0] if ranked else None,
        "span_count": len(rec.spans),
    }
    return values, extra


def emit(spec, args, values, extra, correct, attempted, failed, record):
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: m for m in spec[kind]}
    if set(values) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(metrics))} out of step with BENCHMARK.json")
    for name, m in metrics.items():
        print(f"{name:<40} {values[name]:>16.6f} {m['unit']:<8} {m['better']} is better")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": m["unit"]} for n, m in metrics.items()},
    }
    record.update(extra)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps({"result": result, "record": record}, default=str))
    print(json.dumps({"record": {k: v for k, v in record.items() if k != "spans"}}, default=str))
    print(json.dumps(result))
    return 0 if correct else 1


def main():
    spec = load_spec()
    args = parse_args(spec)
    load_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workload.setup(args.seed)
    own_setup = time.process_time()
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    setup_s, setup_samples = setup_seconds(args, own_setup)
    record = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one caller thread",
        "commit": git_commit(),
        "machine": machine_record(),
        "setup_samples_s": setup_samples,
    }
    workload.warm_up()
    try:
        if args.trace == 0:
            run = workload.measure(args.seconds)
            values, extra = end_to_end(run, setup_s)
            attempted, failed, errors = run.attempted, run.failed, run.errors
            extra["quality"] = run.summary
        else:
            rec = Recorder(clock=workloads.CLOCK)
            untraced, traced = workload.trace(rec)
            values, extra = per_layer(untraced, traced, rec)
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
            errors = untraced.errors + traced.errors
            extra["quality"] = traced.summary
            if traced.summary != untraced.summary:
                errors.append("traced pass changed the outputs: "
                              f"{untraced.summary} vs {traced.summary}")
            extra["spans"] = {
                "fields": ["name", "start", "end", "parent", "op"],
                "rows": rec.spans,
                "counts": dict(rec.counts),
            }
    except workloads.CheckError as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        return 1
    record["errors"] = errors
    return emit(spec, args, values, extra, not errors, attempted, failed, record)


if __name__ == "__main__":
    sys.exit(main())
