"""One workload process: set up, signal readiness, attack in a closed loop.

Started by run.py, one fresh single-threaded process per call, so lru caches
and memory never carry over from another workload or process.  Prints
`ready` on its own line when set-up is done (the parent stops the set-up
clock there), then one JSON line with the raw samples.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    """Import the package from this checkout's src, never from elsewhere."""
    if not (SRC / "twoside" / "__init__.py").is_file():
        sys.exit(f"worker: no twoside package under {SRC}")
    sys.path.insert(0, str(SRC))
    import twoside

    if Path(twoside.__file__).resolve().parent != SRC / "twoside":
        sys.exit(f"worker: imported twoside from {twoside.__file__}, not {SRC}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--stream", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--min-attacks", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    import_program()
    import hostspeed
    import workloads
    from tracing import Tracer, median_self_ms

    wl = workloads.WORKLOADS[args.workload]
    source = workloads.instances(wl, args.seed, args.stream)
    pool = list(itertools.islice(source, wl.pool))
    result = {"digest": workloads.digest(pool)}
    print("ready", flush=True)

    budget = args.seconds / 2 if args.trace else args.seconds
    plain = workloads.closed_loop(wl.scheme, itertools.chain(pool, source), budget, args.min_attacks)
    result.update(
        attempted=plain.attempted,
        failed=plain.failed,
        first_error=plain.first_error,
        attack_ms=plain.attack_ms,
        exchange_ms=plain.exchange_ms,
        wall_attack_ms=plain.wall_attack_ms,
        kernel_ms=plain.kernel_ms,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if args.trace:
        result["cache"] = workloads.cache_counters()
        tracer = Tracer()
        counts = []
        with tracer.patched(workloads.PATCHES[wl.scheme]):
            traced = workloads.closed_loop(
                wl.scheme,
                workloads.traced_source(tracer, source),
                budget,
                attack_fn=workloads.traced_attack(tracer, wl.scheme, counts),
            )
        # reference-host ms per wall ms, per traced instance
        scale = [hostspeed.REFERENCE_MS / k for k in traced.kernel_ms]
        result.update(
            traced_attempted=traced.attempted,
            traced_failed=traced.failed,
            traced_first_error=traced.first_error,
            traced_attack_ms=[(s.end - s.start) * 1000 * scale[s.instance] for s in tracer.spans if s.name == "attack"],
            self_ms=median_self_ms(tracer.spans, scale),
            counts=counts,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
