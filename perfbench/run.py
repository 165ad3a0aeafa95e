"""clfrd benchmark: one workload per run, closed loop, one thread.

    python3 perfbench/run.py --workload study --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  ``--workload`` is ``study``, ``compare``, ``surface`` or
``all`` (each workload in turn, each in its own process).  With
``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics; with ``--trace 1`` the run is split
into an untraced half and a traced half and the metrics are the
per-layer ones.  The lines before it are a human-readable report: the
run record, the output digest, every metric with its unit, the failure
fraction and any failed check.
"""

from __future__ import annotations

import os

# one caller, one thread: pin BLAS pools before numpy is imported
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("study", "compare", "surface")
SETUP_RUNS = 5
SUBPROCESS_TIMEOUT = 170  # a whole workload run under --workload all
SETUP_TIMEOUT = 60
END_TO_END = (  # (metric, unit)
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)
IMPORT_MODULES = {"clfrd": "import.total_ms", "scipy.stats": "import.scipy_stats_ms",
                  "scipy.optimize": "import.scipy_optimize_ms"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")
    return args


# ---------------------------------------------------------------------------
# set-up time: a fresh interpreter imports clfrd and builds the inputs


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import time in ms of the modules in IMPORT_MODULES (0 if never imported)."""
    found = dict.fromkeys(IMPORT_MODULES.values(), 0.0)
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) == 3 and fields[2].strip() in IMPORT_MODULES:
            found[IMPORT_MODULES[fields[2].strip()]] = int(fields[1]) / 1e3
    return found


def measure_setup(workload: str, seed: int) -> list[tuple[float, dict[str, float]]]:
    """(wall seconds, import times) of SETUP_RUNS fresh interpreters.

    These times are not scaled by the host speed probe: the probe, run in
    this process, did not track the child's import time and made it noisier.
    """
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; import clfrd; "
            f"import inputs; inputs.build({workload!r}, {seed})")
    runs = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up subprocess failed:\n{proc.stderr[-2000:]}")
        runs.append((wall, parse_importtime(proc.stderr)))
    return runs


# ---------------------------------------------------------------------------
# measurement


def run_phase(workload, budget_s: float, whole: bool) -> list:
    """Whole cycles until the budget is spent; with ``whole``, also until the
    workload is at a boundary (the study stops on whole checked blocks)."""
    cycles = []
    end = time.perf_counter() + budget_s
    while not cycles or time.perf_counter() < end or (whole and not workload.at_boundary()):
        cycles.append(workload.cycle())
    return cycles


def ops_per_s(cycles) -> float:
    """Median over cycles of operations per second at the reference host speed."""
    return statistics.median(c.ops / c.seconds for c in cycles)


def percentile(values, p: int) -> float:
    values = sorted(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def run_record(args) -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "clfrd").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    revision = None  # an exported checkout has no git metadata; the source digest stands in
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                      text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_revision": revision, "source_sha256": source.hexdigest(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def end_to_end(workload, args, setup) -> dict[str, float]:
    cycles = run_phase(workload, args.seconds, whole=True)
    latencies = [ms for c in cycles for ms in c.latencies_ms]
    speeds = [f for c in cycles for f in c.speeds]
    print(f"ops: {sum(c.ops for c in cycles)} in {len(cycles)} cycles; "
          f"latency samples: {len(latencies)}")
    print(f"host speed factor: median {statistics.median(speeds):.3f}, "
          f"range {min(speeds):.3f}-{max(speeds):.3f}; unscaled: "
          f"ops_per_s {statistics.median(c.ops / c.raw_seconds for c in cycles):.4g}")
    if args.workload == "surface":
        print(f"split per op: kernels {statistics.median(c.kernels_ms for c in cycles):.1f} ms, "
              f"measures {statistics.median(c.measures_ms for c in cycles):.1f} ms")
    print("note: set-up is timed with the OS file cache warm; the harness does not drop it")
    return {
        "setup_s": statistics.median(wall for wall, _ in setup),
        "ops_per_s": ops_per_s(cycles),
        "op_ms_p50": percentile(latencies, 50),
        "op_ms_p90": percentile(latencies, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload, args, setup) -> dict[str, float]:
    """Half the run untraced, half traced; spans are written when it ends."""
    import layers
    import tracing
    import workloads

    untraced = run_phase(workload, args.seconds / 2.0, whole=False)
    tracer = tracing.Tracer()
    layers.instrument(tracer)
    workload.call = tracer.call
    try:
        traced = run_phase(workload, args.seconds / 2.0, whole=True)
    finally:
        tracer.uninstall()
        workload.call = workloads.plain_call
    plain_rate, traced_rate = ops_per_s(untraced), ops_per_s(traced)
    print(f"ops_per_s untraced {plain_rate:.4g}, traced {traced_rate:.4g}; {len(tracer.start)} spans")
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{args.workload}.npz"
    tracer.write(trace_path)
    print(f"spans written to {trace_path.relative_to(ROOT)}")

    extra = {name: statistics.median(imports[name] for _, imports in setup)
             for name in IMPORT_MODULES.values()}
    extra["trace.overhead_frac"] = 1.0 - traced_rate / plain_rate
    extra["surface.kernels_ms"] = statistics.median(c.kernels_ms for c in untraced)
    extra["surface.measures_ms"] = statistics.median(c.measures_ms for c in untraced)
    # span times scale to the reference host speed like the end-to-end times
    factor = statistics.median(f for c in traced for f in c.speeds)
    return layers.metrics(tracer.summary(), sum(c.ops for c in traced),
                          tracer.fits_converged, factor, extra)


def run_one(args) -> dict:
    setup = measure_setup(args.workload, args.seed)
    sys.path.insert(0, str(SRC))
    import layers
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.cycle()  # warm-up: fills caches, runs every check, fixes the digests
    print(f"record: {json.dumps(run_record(args), sort_keys=True)}")
    print(f"digest: {workload.digest()}")
    if args.trace:
        metrics = per_layer(workload, args, setup)
        units = {name: unit for name, unit, _, _ in layers.PER_LAYER}
    else:
        metrics = end_to_end(workload, args, setup)
        units = dict(END_TO_END)

    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6f} {units[name]}")
    print(f"fail_frac: {workload.failed}/{workload.attempted} = {workload.failed / workload.attempted}")
    for line in workload.failures[:20]:
        print(f"FAILED {line}")
    return {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in turn, each in a fresh process so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} failed:\n{proc.stderr[-2000:]}")
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "clfrd" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'clfrd'}; run from a clfrd checkout",
              file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
