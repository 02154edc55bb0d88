"""Benchmark of the qls package: one seeded workload per run, every output checked.

    python3 bench/run.py --workload {spectra,qfi,synthesis,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the package is imported from
./src, and the CLI runs as `python -m qls.cli` with PYTHONPATH=src).  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable report
with sample counts, known failures and the environment.  NOTES.md explains
the workloads, metrics, filters and known failures.
"""

import os

# One BLAS/OpenMP thread in this process and in every child it starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

WORKLOADS = ("spectra", "qfi", "synthesis", "cli")
SETUP_REPEATS = 3
IMPORT_PROBE = "import time; t = time.perf_counter(); import qls; print(time.perf_counter() - t)"


def _import_seconds():
    """`import qls` in a fresh interpreter, timed inside it."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def _environment(seed):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "nproc": os.cpu_count(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "seed": seed}


def _setup(name, seed, workdir):
    if name == "spectra":
        import spectra
        return spectra.setup(seed, workdir)
    if name == "qfi":
        import qfi
        return qfi.setup(seed, workdir)
    if name == "synthesis":
        import synthesis
        return synthesis.setup(seed, workdir)
    import cliwork
    return cliwork.setup(seed, workdir, ROOT)


def _run_batch(ops, tracer, log, speed):
    """Run every op once under the speedometer.

    Appends (name, seconds, mean reference seconds, outcome, detail, traced)
    per op, where seconds exclude the sampling, and returns the batch's
    elapsed time.
    """
    t_batch = time.perf_counter()
    speed.sample()
    for op in ops:
        tracer.op_id += 1
        tracer.op_name = op.name
        first, busy = len(speed.samples) - 1, speed.busy
        t0 = time.perf_counter()
        try:
            op.fn(tracer)
            outcome, detail = "pass", ""
        except Exception as exc:  # every failure is recorded and classified, never fatal
            label = op.known(exc) if op.known else None
            outcome = f"known:{label}" if label else "failed"
            detail = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0 - (speed.busy - busy)
        speed.sample()
        refs = speed.samples[first:]
        log.append((op.name, seconds, sum(refs) / len(refs), outcome, detail, tracer.enabled))
    return time.perf_counter() - t_batch


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        import qls  # noqa: F401  (fails outside a source checkout)
    except ImportError as exc:
        print(f"cannot import qls from {os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
        return 2
    from spans import Tracer, nested_count, span_table
    from speed import ChildSpeedometer, Speedometer

    out_dir = os.path.join(ROOT, ".bench_out")
    workdir = os.path.join(out_dir, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t_import = _import_seconds()
            t0 = time.perf_counter()
            ops = _setup(args.workload, args.seed, workdir)
            setup_times.append(t_import + time.perf_counter() - t0)

        tracer = Tracer()
        batches, elapsed_per_batch = [], []  # (traced, rows) per batch
        t_start = time.perf_counter()
        if args.workload == "cli":
            import cliwork
            speedometer = ChildSpeedometer(ROOT, cliwork.child_env(ROOT))
        else:
            speedometer = Speedometer()
        with speedometer as speed:
            while True:
                traced_count = sum(traced for traced, _ in batches)
                tracer.enabled = bool(args.trace) and traced_count < len(batches) - traced_count
                rows = []
                elapsed_per_batch.append(_run_batch(ops, tracer, rows, speed))
                batches.append((tracer.enabled, rows))
                elapsed = time.perf_counter() - t_start
                need_traced = args.trace and not any(traced for traced, _ in batches)
                if not need_traced and elapsed + statistics.median(elapsed_per_batch) > args.seconds:
                    break
        if args.trace and args.workload == "cli":
            import cliwork
            for _ in range(5):
                tracer.call("cli.startup", cliwork.startup, ROOT)
        self_usage = resource.getrusage(
            resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # rows: (name, seconds, reference seconds, outcome, detail, traced)
    log = [row for _, rows in batches for row in rows]
    untraced = [row for row in log if not row[5]]
    walls = {flag: [sum(row[1] for row in rows) for traced, rows in batches if traced == flag]
             for flag in (False, True)}
    costs = [sum(row[1] / row[2] for row in rows) for traced, rows in batches if not traced]
    op_times = [row[1] for row in untraced]
    op_costs = [row[1] / row[2] for row in untraced]
    failed_rows = [row for row in log if row[3] == "failed"]
    known_rows = [row for row in log if row[3].startswith("known:")]
    attempted = len(log)
    metrics_e2e = {
        "wall_ref": {"value": statistics.median(costs), "unit": "ref"},
        "op_p50_ref": {"value": statistics.median(op_costs), "unit": "ref"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": self_usage.ru_maxrss / 1024.0, "unit": "MB"},
    }

    report = {
        "workload": args.workload, "environment": _environment(args.seed),
        "batches": {"untraced": len(walls[False]), "traced": len(walls[True])},
        "ops_per_batch": len(ops), "op_samples": len(op_times), "setup_s_samples": len(setup_times),
        "wall_s": statistics.median(walls[False]),
        "op_p50_ms": 1e3 * statistics.median(op_times),
        "reference_ms": 1e3 * statistics.median(row[2] for row in untraced),
        "batch_walls_s": {"untraced": walls[False], "traced": walls[True]},
        "batch_costs_ref": costs,
        "fail_ratio": (len(failed_rows) + len(known_rows)) / attempted,
        "unexpected_failures": len(failed_rows), "known_failures": len(known_rows),
        "wait": "none: no layer queues work",
    }
    if len(op_times) >= 100:
        report["op_p90_ms"] = 1e3 * statistics.quantiles(op_times, n=10, method="inclusive")[8]
        report["op_p90_ref"] = statistics.quantiles(op_costs, n=10, method="inclusive")[8]
    else:
        report["op_p90_ms"] = f"omitted: {len(op_times)} operations < 100"
    known_by_case = {}
    for name, _, _, outcome, detail, _ in known_rows:
        known_by_case.setdefault(f"{name} -> {outcome[6:]}", detail[:160])
    report["known_failure_cases"] = known_by_case
    report["unexpected_failure_cases"] = sorted({f"{r[0]}: {r[4][:200]}" for r in failed_rows})

    if args.trace:
        import layers
        table = span_table(tracer.spans, len(walls[True]))
        metrics = layers.metrics(table, tracer, nested_count, walls, report)
        report["spans"] = table
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "op_id", "op", "n", "points", "ok"],
                       "spans": tracer.spans}, fh)
        report["trace_file"] = os.path.relpath(trace_path, ROOT)
    else:
        metrics = metrics_e2e

    for key, value in report.items():
        print(f"{key}: {json.dumps(value, default=str)}")
    for key, m in metrics_e2e.items():
        print(f"{key}: {m['value']:.6g} {m['unit']}")
    result = {"correct": not failed_rows, "attempted": attempted, "failed": len(failed_rows),
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
