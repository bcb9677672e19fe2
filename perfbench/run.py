"""mesospin benchmark: one workload, one process, closed loop, one client.

    python3 perfbench/run.py --workload scan|tomo --seed N \
        --seconds S --trace 0|1

Prints the environment, one line per metric (name, value, unit) and,
as the last line, a JSON object with keys correct, attempted, failed
and metrics.  --trace 0 reports the end-to-end metrics; --trace 1 runs
the same ops untraced and then traced and reports the per-layer
metrics.  Exits 1 when an output fails a correctness check and 2 when
the benchmark cannot run (for instance, without src/mesospin).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# One BLAS/OpenMP thread: the loop has one client, and the thread count
# changes the iteration path of the tomography fits (the same dataset
# can converge at one count and stop at max_iter at another).
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up probes per untraced run: some before the measured loop and the
# rest after it, so that the median spans the run's speed phases.
SETUP_PROBES = 5
SETUP_PROBES_BEFORE = 3

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

# (metric, unit, source): a counter name, or ("self", layer) for the
# layer's self time.  Values are per op of the traced pass.
PER_LAYER = [
    ("fitting.iterations", "count/op", "fitting.iterations"),
    ("fitting.residual.calls", "count/op", "fitting.residual.calls"),
    ("fitting.jacobian.calls", "count/op", "fitting.jacobian.calls"),
    ("fitting.unconverged", "count/op", "fitting.unconverged"),
    ("fitting.self_s", "s/op", ("self", "fitting")),
    ("tomography.fits", "count/op", "tomography.fit_density_matrix.calls"),
    ("tomography.self_s", "s/op", ("self", "tomography")),
    ("angular.tensor_operator.calls", "count/op", "angular.tensor_operator.calls"),
    ("angular.self_s", "s/op", ("self", "angular")),
    ("ensemble.calls", "count/op", "ensemble.calls"),
    ("ensemble.samples", "count/op", "ensemble.samples"),
    ("ensemble.self_s", "s/op", ("self", "ensemble")),
    ("metrology.fisher_information.calls", "count/op",
     "metrology.fisher_information.calls"),
    ("metrology.self_s", "s/op", ("self", "metrology")),
    ("measurement.projection_probs.calls", "count/op",
     "measurement.projection_probs.calls"),
    ("measurement.sample_counts.calls", "count/op",
     "measurement.sample_counts.calls"),
    ("measurement.self_s", "s/op", ("self", "measurement")),
    ("rng.substream.calls", "count/op", "rng.substream.calls"),
    ("rng.self_s", "s/op", ("self", "rng")),
    ("cli.requests", "count/op", "cli.main.calls"),
    ("cli.bytes_written", "B/op", "cli.bytes_written"),
    ("cli.self_s", "s/op", ("self", "cli")),
    ("config.self_s", "s/op", ("self", "config")),
    ("core.expi_hermitian.calls", "count/op", "core.expi_hermitian.calls"),
    ("core.self_s", "s/op", ("self", "core")),
    ("dynamics.self_s", "s/op", ("self", "dynamics")),
    ("dephasing.self_s", "s/op", ("self", "dephasing")),
    ("budget.self_s", "s/op", ("self", "budget")),
]
TRACE_OVERHEAD = ("trace.overhead_frac", "fraction")


def _pin_threads():
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment():
    """Numeric environment of the run; imports numpy, so pin threads first."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "thread_env": {var: os.environ.get(var) for var in _THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": _cpu_model(),
    }


def end_to_end_metrics(setup_times, latencies, peak_rss_kib):
    # percentiles interpolate linearly between ranks
    percentiles = statistics.quantiles(latencies, n=100, method="inclusive")
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p95_ms": 1e3 * percentiles[94],
        "peak_rss_mb": peak_rss_kib / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def per_layer_metrics(counts, self_seconds, n_ops, overhead):
    out = {}
    for name, unit, source in PER_LAYER:
        if isinstance(source, tuple):
            total = self_seconds.get(source[1], 0.0)
        else:
            total = counts.get(source, 0)
        out[name] = {"value": total / n_ops, "unit": unit}
    out[TRACE_OVERHEAD[0]] = {"value": overhead, "unit": TRACE_OVERHEAD[1]}
    return out


def _import_package():
    sys.path.insert(0, SRC)
    import runners  # noqa: E402  (imports numpy and mesospin)
    return runners


def _setup_probe(workload, seed):
    """Child process: import, one warm-up request, report the ready time."""
    runners = _import_package()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"probe-{workload}-", dir=OUT)
    try:
        runners.WORKLOAD_TYPES[workload](seed, workdir).warm_up()
        print(f"ready {time.time()!r}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(workload, seed, probes):
    """Spawn-to-ready seconds of fresh processes, run one after another."""
    times = []
    for _ in range(probes):
        spawned = time.time()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2 or lines[0] != "ready":
            raise RuntimeError(f"setup probe failed:\n{proc.stderr[-2000:]}")
        times.append(float(lines[1]) - spawned)
    return times


def _layer_modules():
    import importlib

    return {name: importlib.import_module(f"mesospin.{name}")
            for name in tracing.LAYERS}


def _traced(runners, workload, seconds):
    """Untraced loop for half the time, then the same ops traced."""
    plain = runners.drive(workload, seconds=seconds / 2.0)
    if plain.error:
        return plain, {}, []
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer, _layer_modules())
    try:
        traced = runners.drive(workload, count=len(plain.latencies), tracer=tracer)
    finally:
        restore()
    path = os.path.join(OUT, f"trace-{workload.name}-{workload.seed}.json")
    tracer.write(path, {"workload": workload.name, "seed": workload.seed,
                        "env": environment()})
    metrics = per_layer_metrics(
        tracer.counts, tracing.layer_self_seconds(tracer.spans),
        len(traced.latencies), 1.0 - sum(plain.latencies) / sum(traced.latencies))
    traced.latencies = plain.latencies + traced.latencies
    traced.failed += plain.failed
    note = f"trace written to {os.path.relpath(path, ROOT)} ({len(tracer.spans)} spans)"
    return traced, metrics, [note]


def run(workload_name, seed, seconds, trace):
    """Run one workload; returns (result dict, human-readable lines)."""
    setup_times = [] if trace else measure_setup(workload_name, seed,
                                                 SETUP_PROBES_BEFORE)
    runners = _import_package()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"run-{workload_name}-", dir=OUT)
    try:
        workload = runners.WORKLOAD_TYPES[workload_name](seed, workdir)
        workload.warm_up()
        if trace:
            outcome, metrics, lines = _traced(runners, workload, seconds)
        else:
            outcome = runners.drive(workload, seconds=seconds)
            setup_times += measure_setup(workload_name, seed,
                                         SETUP_PROBES - SETUP_PROBES_BEFORE)
            metrics = end_to_end_metrics(
                setup_times, outcome.latencies,
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            lines = [f"setup_probes_s {setup_times}"]
        if outcome.error is None:
            try:
                workload.finish()
            except runners.CheckFailure as exc:
                outcome.error = str(exc)
        if workload_name == "scan":
            lines.append(f"repeated requests checked {workload.repeats_checked}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = len(outcome.latencies), outcome.failed
    lines.append(f"ops {attempted} failed {failed} busy_s {sum(outcome.latencies):.3f}")
    lines.append(f"failed_frac {failed / attempted!r} fraction")
    if outcome.error is not None:
        lines.append(f"CHECK FAILED: {outcome.error}")
        metrics = {}
    for name, metric in metrics.items():
        lines.append(f"{name} {metric['value']!r} {metric['unit']}")
    result = {"correct": outcome.error is None, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "mesospin")):
        print(f"perfbench: no mesospin package under {SRC}", file=sys.stderr)
        return 2
    _pin_threads()
    if args.setup_probe:
        return _setup_probe(args.workload, args.seed)

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    result, lines = run(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
