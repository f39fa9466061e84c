"""Run the benchmark in alternating pairs on two source trees and summarize.

    python tools/bench_pairs.py PARENT CHANGE --label NAME \\
        [--workload W ...] [--seeds 1-10] [--out DIR]

PARENT and CHANGE are checkouts of the repository, such as ``git archive``
copies of two commits. For every workload and seed the script runs
``python3 perfbench/run.py --workload W --seed S`` in each tree, one after
the other: the parent first on odd seeds and the change first on even
ones, so that neither side always runs second. A pair is the two runs of
one workload and seed.

It writes ``BENCH_<NAME>.json`` into DIR (by default the current
directory): the machine record, each tree's revision and the sha1 of its
``src/`` files, every run's exit code and JSON result line, and for every
workload and end-to-end metric of ``BENCHMARK.json`` each side's median
and quartiles over its runs, the change of the median, and the pairs the
change won (ties count for neither). ``gain`` is true when the change won
at least nine pairs in ten and its median beats the parent's by more than
the parent's interquartile range. ``worse_than_bound`` is true when the
change's median is worse than the parent's by more than the metric's
``bound``, a fraction of the parent's median. Per side it also gives the
failed share of operations (summed ``failed`` over summed ``attempted``)
and the runs that failed a correctness check or exited non-zero. It prints
the same summary as a table.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def revision(tree: Path) -> dict:
    """The tree's git commit when it is a repository, and the sha1 of its sources."""
    digest = hashlib.sha1()
    for path in sorted((tree / "src").rglob("*.py")):
        digest.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes())
    git = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"], capture_output=True, text=True)
    commit = git.stdout.strip() if git.returncode == 0 and (tree / ".git").exists() else None
    return {"commit": commit, "src_sha1": digest.hexdigest()}


def machine(tree: Path) -> dict:
    spec = importlib.util.spec_from_file_location("bench_run", tree / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.machine_record()


def run_once(tree: Path, workload: str, seed: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"exit": proc.returncode, "result": result}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(runs: list[dict], metrics: list[dict], workload: str) -> dict:
    """Each side's failed share and failing runs, and per metric the
    comparison of the paired runs of ``workload``."""
    runs = [run for run in runs if run["workload"] == workload]
    sides = {}
    for side in ("parent", "change"):
        mine = [run for run in runs if run["side"] == side]
        results = [run["result"] for run in mine if run["result"] is not None]
        attempted = sum(r.get("attempted", 0) for r in results)
        failed = sum(r.get("failed", 0) for r in results)
        sides[side] = {
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted if attempted else None,
            "bad_runs": [
                {"seed": run["seed"], "exit": run["exit"]}
                for run in mine
                if run["exit"] != 0 or run["result"] is None or not run["result"].get("correct", False)
            ],
        }
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = {}
        for run in runs:
            if run["result"] is not None:
                value = run["result"]["metrics"].get(name, {}).get("value")
                if value is not None:
                    pairs.setdefault(run["seed"], {})[run["side"]] = value
        pairs = [p for p in pairs.values() if len(p) == 2]
        if not pairs:
            continue
        parent = quartiles([p["parent"] for p in pairs])
        change = quartiles([p["change"] for p in pairs])
        sign = 1.0 if lower else -1.0
        wins = sum(sign * (p["parent"] - p["change"]) > 0 for p in pairs)
        margin = sign * (parent["median"] - change["median"])
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": parent,
            "change": change,
            "median_change_pct": 100.0 * (change["median"] / parent["median"] - 1.0),
            "change_wins": wins,
            "pairs": len(pairs),
            "gain": wins >= 0.9 * len(pairs) and margin > parent["q3"] - parent["q1"],
            "worse_than_bound": -margin > metric["bound"] * abs(parent["median"]),
        }
    return {"sides": sides, "metrics": out}


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--label", required=True)
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path, default=Path.cwd())
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    runs = []
    for workload in workloads:
        for seed in args.seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                run = run_once(trees[side], workload, seed)
                runs.append({"workload": workload, "seed": seed, "side": side, "first": order[0], **run})
                print(f"{workload} seed {seed} {side}: exit {run['exit']}", flush=True)

    record = {
        "label": args.label,
        "command": "python3 perfbench/run.py --workload W --seed S",
        "machine": machine(trees["change"]),
        "revisions": {side: revision(tree) for side, tree in trees.items()},
        "seeds": args.seeds,
        "runs": runs,
        "summary": {w: summarize(runs, bench["end_to_end"], w) for w in workloads},
    }
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for workload, summary in record["summary"].items():
        for side, s in summary["sides"].items():
            share = "n/a" if s["failed_share"] is None else f"{s['failed_share']:.4g}"
            print(f"{workload:<14} {side:<16} failed share {share}, bad runs {s['bad_runs']}")
        for name, s in summary["metrics"].items():
            p, c = s["parent"], s["change"]
            print(
                f"{workload:<14} {name:<16} {p['median']:>10.4g} [{p['q1']:.4g}, {p['q3']:.4g}] -> "
                f"{c['median']:>10.4g} [{c['q1']:.4g}, {c['q3']:.4g}] {s['median_change_pct']:+6.1f}% "
                f"won {s['change_wins']}/{s['pairs']}{'  GAIN' if s['gain'] else ''}"
                f"{'  WORSE THAN BOUND' if s['worse_than_bound'] else ''}"
            )
    print(f"wrote {path}")
    return max(run["exit"] for run in runs)


if __name__ == "__main__":
    sys.exit(main())
