"""Alternating before/after runs of the benchmark on two checkouts.

Usage: python3 scripts/bench_pairs.py PARENT CHANGE [--workload W ...]
           [--seed 2] [--out BENCH.json]

Runs `perfbench/run.py --workload W --seed S --seconds T --trace 0` in each
checkout, 10 pairs of runs per workload, T the change's BENCHMARK.json
`run_seconds`: the parent first in odd pairs (1, 3, ..),
the change first in even ones, so a drift of the host weighs on both sides
alike.  For every end-to-end metric of BENCHMARK.json it reports, per
workload, each side's median and quartiles and how many pairs the change
won (by the metric's `better`), plus the Python version, the CPU count and
whether PYTHONDONTWRITEBYTECODE was set.  The runs get
PYTHONDONTWRITEBYTECODE=1, so nothing is written inside either tree.  A tree
that already holds a __pycache__ is warned about: stale bytecode lowers
setup_s and peak_rss_mb.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("digital-n8", "twisted-p2-wide", "twisted-grid")
PAIRS = 10


def commit(tree: Path):
    """The tree's git commit, with -dirty for uncommitted changes, or None."""
    try:
        out = subprocess.run(
            ["git", "-C", str(tree), "describe", "--always", "--dirty", "--abbrev=12"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def has_pycache(tree: Path) -> bool:
    return any("__pycache__" in dirs for _, dirs, _ in os.walk(tree))


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in tree: its last JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {tree} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next((line.split("digest=")[1] for line in lines if "digest=" in line), None)
    return result


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file():
            ap.error(f"{tree} holds no perfbench/run.py")
        if has_pycache(tree):
            print(f"bench_pairs: WARNING: the {side} tree holds a __pycache__; stale bytecode"
                  " lowers setup_s and peak_rss_mb", file=sys.stderr)
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        # set for every run; the caller's own value, which a reader of other runs may need
        "PYTHONDONTWRITEBYTECODE": {"runs": "1", "caller": os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "seed": args.seed, "seconds": seconds, "pairs": PAIRS,
        "commits": {side: commit(tree) for side, tree in trees.items()},
        "pycache": {side: has_pycache(tree) for side, tree in trees.items()},
        "workloads": {},
    }
    for workload in args.workload or WORKLOADS:
        runs = {"parent": [], "change": []}
        for k in range(1, PAIRS + 1):
            for side in ("parent", "change") if k % 2 else ("change", "parent"):
                runs[side].append(run(trees[side], workload, args.seed, seconds))
            print(f"{workload} pair {k}/{PAIRS} done", file=sys.stderr)
        metrics = {}
        for name, direction in better.items():
            got = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
            sign = 1 if direction == "lower" else -1
            wins = sum(sign * (c - p) < 0 for p, c in zip(got["parent"], got["change"]))
            metrics[name] = {
                "unit": runs["parent"][0]["metrics"][name]["unit"], "better": direction,
                "parent": summary(got["parent"]), "change": summary(got["change"]),
                "change_wins": f"{wins}/{PAIRS}", "values": got,
            }
        report["workloads"][workload] = {
            "correct": all(r["correct"] for rs in runs.values() for r in rs),
            "digests": {side: sorted({r["digest"] for r in rs}) for side, rs in runs.items()},
            "metrics": metrics,
        }
    text = json.dumps(report, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
