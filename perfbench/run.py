"""Benchmark of glgat's public Python API: four workloads, one command.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

For each workload this script writes the inputs from the seed with
``generate_synthetic`` and ``write_csv_dataset`` (cached under
``.perfbench/`` at the repository root), then runs the workload in a fresh
``worker.py`` process with one BLAS thread, pinned to one CPU. It prints the
machine record, the worker's report, and as its last line the JSON result.
The exit code is 0 when every correctness check passed, 1 when one failed
and 2 when the benchmark could not run.

README.md in this directory lists the workloads, the metrics and the layer
each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench"
RUN_LIMIT_S = 175.0  # a run must end within 180 s


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine_record() -> dict:
    """Results from different BLAS builds or thread counts are not comparable."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
        "pinned_cpus": 1,
    }


def inputs(n: int, t: int, seed: int) -> Path:
    """The CSVs for one shape and seed, written once and reused.

    Only the newest seed of each shape is kept, because the METR-LA shape
    takes 123 MB.
    """
    from glgat.data import generate_synthetic, write_csv_dataset

    shape = f"n{n}-t{t}-"
    base = CACHE / "inputs"
    target = base / f"{shape}seed{seed}"
    if (target / "edges.csv").is_file():
        return target
    base.mkdir(parents=True, exist_ok=True)
    for old in base.glob(f"{shape}*"):
        shutil.rmtree(old)
    graph, series, _ = generate_synthetic(n=n, t=t, seed=seed)
    partial = base / f"{shape}partial-{os.getpid()}"
    write_csv_dataset(graph, series, partial)
    partial.rename(target)
    return target


def run_workload(name: str, args, machine: dict, deadline: float | None) -> tuple[int, dict | None]:
    from worker import WORKLOADS

    w = WORKLOADS[name]
    started = time.perf_counter()
    data = inputs(w.n, w.t, args.seed)
    scratch = CACHE / "work"
    scratch.mkdir(parents=True, exist_ok=True)
    print(f"== {name}: N={w.n} T={w.t} seed={args.seed} trace={args.trace}")
    print(f"   inputs ready in {time.perf_counter() - started:.1f} s: {data.relative_to(ROOT)}")

    env = dict(os.environ)
    threads = str(machine["blas_threads"])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--data", str(data), "--scratch", str(scratch),
    ]
    try:
        proc = subprocess.run(
            command, env=env, stdout=subprocess.PIPE, text=True,
            timeout=None if deadline is None else max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        print(f"error: workload {name} ran past the time limit", file=sys.stderr)
        return 2, None
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(proc.stdout, end="")
        print(f"error: workload {name} exited {proc.returncode} without a result", file=sys.stderr)
        return 2, None
    print("\n".join(lines[:-1]))

    record = {"workload": name, "seed": args.seed, "trace": args.trace, "machine": machine, **result}
    results = CACHE / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    return proc.returncode, result


def main(argv=None) -> int:
    start = time.monotonic()
    if not (ROOT / "src" / "glgat" / "__init__.py").is_file():
        print(f"error: no glgat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from worker import WORKLOADS

    names = tuple(WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    machine = machine_record()
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    if args.workload != "all":
        names = (args.workload,)
    results = {}
    worst = 0
    for name in names:
        deadline = start + RUN_LIMIT_S if len(names) == 1 else None
        code, result = run_workload(name, args, machine, deadline)
        worst = max(worst, code)
        if result is None:
            return 2
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return worst


if __name__ == "__main__":
    sys.exit(main())
