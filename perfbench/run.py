"""The twoside benchmark: seeded attack workloads, timed end to end or traced.

    python3 perfbench/run.py --workload twisted-p2-wide --seed 1 --seconds 40 --trace 0

Each workload runs in fresh single-threaded worker processes with one closed
loop each: the next attack starts only after the previous one ends.  Inputs
are public transcripts generated from --seed; every recovered key is checked
against the honest shared key.  Every time is scaled to reference-host ms
by a hostspeed sample taken just before it (see hostspeed.py).  The last
stdout line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
from a separate traced run with --trace 1.
--workload all runs every workload, one after another.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed
from stats import min_samples, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("digital-n8", "twisted-p2-wide", "twisted-grid")

# Worker processes per untraced run.  Each sets up once, so setup_s is a median
# over this many fresh processes; they share the run's seconds and its p90
# needs min_samples(90) successful attacks between them.
PROCESSES = 5

END_TO_END = {
    "attack_ms_p50": "ms",
    "attack_ms_p90": "ms",
    "attacks_per_s": "1/s",
    "exchange_ms_p50": "ms",
    "attack_success_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SPAN_METRICS = (
    "digital_kex.transcript_from_json",
    "digital_kex.attack_columns",
    "solver.max_candidate",
    "solver.verify",
    "digital_kex.recover_shared_key",
    "digital_kex.keygen",
    "digital_kex.shared_key",
    "twisted_kex.transcript_from_json",
    "gf.field_from_json",
    "gf.make_field_ctx",
    "twisted_ring.make_ring_ctx",
    "twisted_kex.basis_products",
    "twisted_kex.attack_system",
    "gf.gauss_solve",
    "twisted_kex.recover_shared_key",
    "twisted_kex.keygen",
    "twisted_kex.shared_key",
)
COUNT_METRICS = (
    "system.unknowns",
    "system.equations",
    "gf.rank",
    "gf.nullity",
    "solver.unconstrained",
    "replay.terms",
)
CACHE_METRICS = {
    "gf.f_mul_cache_entries": "count",
    "gf.f_mul_hit_ratio": "ratio",
    "digital.digit_sum_cache_entries": "count",
    "digital.digit_sum_hit_ratio": "ratio",
}


def per_layer_units() -> dict:
    units = {f"{name}_ms": "ms" for name in SPAN_METRICS}
    units.update({name: "count" for name in COUNT_METRICS})
    units.update(CACHE_METRICS)
    units["trace.overhead_ratio"] = "ratio"
    units["trace.instances"] = "count"
    return units


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, stream: int, seconds: float, min_attacks: int, trace: bool):
    """Start one worker; returns (set-up seconds, its JSON result).

    The set-up time is scaled by hostspeed samples taken just before the
    worker starts and just after it reports ready.
    """
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--stream", str(stream),
        "--seconds", repr(seconds), "--min-attacks", str(min_attacks),
    ] + (["--trace"] if trace else [])
    env = dict(os.environ, PYTHONHASHSEED="0")
    before = hostspeed.sample()
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env) as proc:
        first = proc.stdout.readline()
        wall_s = perf_counter() - t0
        after = hostspeed.sample()
        rest = proc.stdout.read()
    if proc.returncode != 0 or first.strip() != "ready":
        raise WorkerFailed(f"{workload} worker {stream} exited with {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1])
    result["wall_setup_s"] = wall_s
    return hostspeed.scale(wall_s, (before + after) / 2), result


def check_digests(workload: str, seed: int, digests: list) -> str:
    """Compare the workers' input digests with the recorded ones for this seed."""
    table = json.loads((HERE / "digests.json").read_text()).get(workload, {})
    expected = table.get(str(seed))
    if expected is None:
        return "unrecorded"
    return "match" if expected[: len(digests)] == digests else "MISMATCH"


def end_to_end(runs: list) -> dict:
    """End-to-end values from the workers' (set-up seconds, result) pairs.

    Latencies come from successful attacks only; every failed attack counts
    against attack_success_rate.  Times are in reference-host units.
    """
    results = [r for _, r in runs]
    attack_ms = [t for r in results for t in r["attack_ms"]]
    exchange_ms = [t for r in results for t in r["exchange_ms"]]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"samples: attacks={len(attack_ms)} (p90 needs {min_samples(90)}) exchanges={len(exchange_ms)} processes={len(runs)}")
    wall_ms = [t for r in results for t in r["wall_attack_ms"]]
    kernel_ms = [t for r in results for t in r["kernel_ms"]]
    print(
        f"wall clock: attack p50 {percentile(wall_ms, 50):.3f} ms, setup median"
        f" {statistics.median(r['wall_setup_s'] for r in results):.3f} s;"
        f" hostspeed kernel p10/p50/p90 {percentile(kernel_ms, 10):.3f}/{percentile(kernel_ms, 50):.3f}"
        f"/{percentile(kernel_ms, 90):.3f} ms (reference {hostspeed.REFERENCE_MS} ms)"
    )
    return {
        "attack_ms_p50": percentile(attack_ms, 50),
        "attack_ms_p90": percentile(attack_ms, 90),
        "attacks_per_s": len(attack_ms) / (sum(attack_ms) / 1000),
        "exchange_ms_p50": percentile(exchange_ms, 50),
        "attack_success_rate": (attempted - failed) / attempted,
        "setup_s": statistics.median(s for s, _ in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }


def per_layer(r: dict) -> dict:
    """Per-layer values from the traced worker's result."""
    values = {f"{name}_ms": r["self_ms"].get(name, 0.0) for name in SPAN_METRICS}
    for name in COUNT_METRICS:
        present = [c[name] for c in r["counts"] if name in c]
        values[name] = statistics.median(present) if present else 0
    values.update(r["cache"])
    values["trace.overhead_ratio"] = statistics.median(r["traced_attack_ms"]) / statistics.median(r["attack_ms"])
    values["trace.instances"] = len(r["traced_attack_ms"])
    print("span self time, median reference-host ms per instance:")
    for name, ms in sorted(r["self_ms"].items()):
        print(f"  {name:40s} {ms:10.4f}")
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        runs = [run_worker(workload, seed, 0, seconds, 1, True)]
    else:
        min_each = math.ceil(min_samples(90) / PROCESSES)
        runs = [run_worker(workload, seed, k, seconds / PROCESSES, min_each, False) for k in range(PROCESSES)]
    results = [r for _, r in runs]

    digests = [r["digest"] for r in results]
    status = check_digests(workload, seed, digests)
    combined = hashlib.sha256("".join(digests).encode()).hexdigest()
    print(f"inputs: workload={workload} seed={seed} sha256={combined} digest={status}")
    if status == "MISMATCH":
        print(f"FLAG: {workload} seed {seed} generated other inputs than recorded in digests.json", file=sys.stderr)
    for r in results:
        for key in ("first_error", "traced_first_error"):
            if r.get(key):
                print(f"first failure: {r[key]}", file=sys.stderr)
    if not all(r["attack_ms"] for r in results):
        raise WorkerFailed(f"{workload}: a worker had no successful attack")
    print("worker p50/p90 reference-host ms:", " ".join(f"{percentile(r['attack_ms'], 50):.3f}/{percentile(r['attack_ms'], 90):.3f}" for r in results))

    values, units = (per_layer(results[0]), per_layer_units()) if trace else (end_to_end(runs), END_TO_END)
    attempted = sum(r["attempted"] + r.get("traced_attempted", 0) for r in results)
    failed = sum(r["failed"] + r.get("traced_failed", 0) for r in results)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "twoside" / "__init__.py").is_file():
        print(f"run.py: no twoside sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(json.dumps({
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }))
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            if args.workload == "all":
                result = {"workload": workload, **result}
            print(json.dumps(result))
    except WorkerFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
