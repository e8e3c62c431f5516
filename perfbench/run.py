"""apromfl benchmark entry point.

    python3 perfbench/run.py --workload apromfl-default --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seconds 45          # every workload

Run from the root of a source checkout: the program is imported from
``src/``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``. Lines before it
print the environment and every metric by name and unit. See README.md.
"""

import os
import sys

#: One BLAS/OpenMP thread per process, set before numpy loads; pool workers
#: inherit it. Unpinned, numpy's OpenBLAS uses 2 threads on 2 cores, so a
#: serial run burns extra CPU and two workers oversubscribe the machine.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_line(metrics: dict, attempted: int, failed: int) -> str:
    return json.dumps(
        {
            "correct": failed == 0 and bool(metrics),
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def run_all(args, names) -> int:
    """Every workload in its own process, so that peak RSS and the patched
    module state of one workload cannot leak into the next."""
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode or not lines:
            print(proc.stderr, file=sys.stderr, end="")
            failed, attempted = failed + 1, attempted + 1
            continue
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for key, value in result["metrics"].items():
            metrics[f"{name}/{key}"] = (value["value"], value["unit"])
    print(result_line(metrics, attempted, failed))
    return 0 if metrics else 1


def main(argv=None) -> int:
    if not (SRC / "apromfl" / "__init__.py").is_file():
        print(f"error: no apromfl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import apromfl

    if Path(apromfl.__file__).resolve().parent != SRC / "apromfl":
        print(f"error: apromfl was imported from {apromfl.__file__}", file=sys.stderr)
        return 2
    import bench

    args = parse_args(argv, bench.WORKLOADS)
    if args.workload == "all":
        return run_all(args, list(bench.WORKLOADS))
    print("env " + json.dumps(environment()), flush=True)
    measure = bench.measure_traced if args.trace else bench.measure
    work_dir = ROOT / ".perfbench_runs" / f"{args.workload}-{os.getpid()}"
    try:
        report = measure(bench.WORKLOADS[args.workload], args.seed, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for note in report.notes:
        print(f"{args.workload}: {note}")
    for metric, (value, unit) in report.metrics.items():
        print(f"{args.workload}: {metric} = {value:.6g} {unit}")
    print(result_line(report.metrics, report.attempted, report.failed))
    return 0 if report.metrics else 1


if __name__ == "__main__":
    sys.exit(main())
