"""The fixed set of per-layer metrics printed by a traced run.

Every workload prints every name; a function a workload does not call
reports 0 calls and 0 time.  Counts, busy time and failures are per batch;
`.ms` is the median call, `.us_per_point` the busy time per grid point
split by system size n.  The full span table, with calls and busy time of
every function, is in the readable report and the trace file.
"""

import statistics

GRID = ["cli.tf", "cli.ps", "model.tf_equal", "absorber.verify_absorber", "estimation.coherent_qfi"]
SIZES = [1, 4, 16, 32]
TIMED = [
    "io.family_from_json", "estimation.stationary_qfi_rate_freq", "estimation.stationary_qfi_rate_time",
    "estimation.destabilized_scaling_check",
    "stationary.solve_lyapunov", "algebra.williamson", "stationary.is_globally_minimal",
    "stationary.pure_mixed_split", "absorber.dual_system", "model.tf_equal",
    "realization.tf_as_rational", "realization.gilbert_realize", "algebra.gramian_flat",
    "algebra.factor_flat_gram", "realization.physical_from_classical", "realization.ps_as_rational",
    "realization.ps_realize", "realization.siso_cascade_identify", "realization.noisy_realize",
]
CLI = ["help", "validate", "tf", "ps", "gm", "split", "realize-tf", "realize-ps", "realize-noisy",
       "cascade-id", "absorber", "qfi", "sweep", "malformed"]
FAILED = sorted(set(GRID + TIMED + [f"cli.{c}" for c in CLI] + ["model.family_evaluate"]))


def names():
    """Every per-layer metric name with its unit, in output order."""
    out = [(f"{f}.n{n}.us_per_point", "us") for f in GRID for n in SIZES]
    out += [("model.family_evaluate.us", "us"), ("model.family_evaluate.calls", "count"),
            ("model.family_evaluate.calls_per_freq_rate", "count")]
    out += [(f"{f}.ms", "ms") for f in TIMED]
    out += [("cli.startup.ms", "ms")] + [(f"cli.{c}.ms", "ms") for c in CLI if c not in ("tf", "ps")]
    out += [("cli.tf.ms", "ms"), ("cli.ps.ms", "ms")]
    out += [(f"{f}.failed", "count") for f in FAILED]
    out += [("ops.fail_ratio", "ratio"), ("ops.known_failures", "count"), ("trace.overhead_s", "s")]
    return out


def metrics(table, tracer, nested_count, walls, report):
    batches_traced = len(walls[True])
    batches_all = len(walls[False]) + batches_traced
    values = {}
    for f in GRID:
        per_n = table.get(f, {}).get("us_per_point", {})
        for n in SIZES:
            values[f"{f}.n{n}.us_per_point"] = per_n.get(n, 0.0)
    ev = table.get("model.family_evaluate", {})
    values["model.family_evaluate.us"] = 1e3 * ev.get("ms", 0.0)
    values["model.family_evaluate.calls"] = ev.get("calls", 0.0)
    freq_calls = table.get("estimation.stationary_qfi_rate_freq", {}).get("calls", 0.0) * batches_traced
    inside = nested_count(tracer.spans, "model.family_evaluate", "estimation.stationary_qfi_rate_freq")
    values["model.family_evaluate.calls_per_freq_rate"] = inside / freq_calls if freq_calls else 0.0
    for f in TIMED + ["cli.startup"] + [f"cli.{c}" for c in CLI]:
        values[f"{f}.ms"] = table.get(f, {}).get("ms", 0.0)
    for f in FAILED:
        values[f"{f}.failed"] = tracer.failed.get(f, 0) / batches_all
    values["ops.fail_ratio"] = report["fail_ratio"]
    values["ops.known_failures"] = report["known_failures"] / batches_all
    values["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    units = dict(names())
    return {name: {"value": values.get(name, 0.0), "unit": units[name]} for name, _ in names()}
