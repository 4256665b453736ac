"""Attack-time sweep over parameter sizes, written as CSV to stdout or a file.

Usage: python scripts/sweep_sizes.py [--trials N] [--seed N] [--out PATH]
"""

import argparse
import csv
import statistics
import sys
import time
from dataclasses import dataclass
from random import Random

from twoside import digital_kex, twisted_kex


@dataclass(frozen=True)
class SweepConfig:
    digital_sizes: tuple = (2, 3, 4, 5, 6, 7, 8, 10, 12)
    twisted_points: tuple = (
        (2, 2, 3), (3, 2, 4), (5, 1, 6), (2, 3, 5), (7, 1, 8), (3, 2, 8), (2, 4, 6),
    )
    trials: int = 20
    seed: int = 1


def time_digital(n, trials, seed):
    times = []
    rng = Random(f"{seed}:digital:{n}")
    for _ in range(trials):
        params = digital_kex.random_params(n, rng)
        tr = digital_kex.run_exchange(params, rng)
        t0 = time.perf_counter()
        key = digital_kex.attack(params, tr.alice.pk, tr.bob.pk)
        times.append(time.perf_counter() - t0)
        assert key == tr.shared_key
    return times


def time_twisted(p, n, m, trials, seed):
    times = []
    rng = Random(f"{seed}:twisted:{p}:{n}:{m}")
    for _ in range(trials):
        params = twisted_kex.random_params(p, n, m, rng)
        tr = twisted_kex.run_exchange(params, rng)
        t0 = time.perf_counter()
        key = twisted_kex.attack(params, tr.alice.pk, tr.bob.pk)
        times.append(time.perf_counter() - t0)
        assert key == tr.shared_key
    return times


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="-")
    args = ap.parse_args()
    cfg = SweepConfig(trials=args.trials, seed=args.seed)

    fh = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    writer = csv.writer(fh)
    writer.writerow(
        ["scheme", "params", "unknowns", "median_ms", "p90_ms", "max_ms"]
    )

    for n in cfg.digital_sizes:
        times = time_digital(n, cfg.trials, cfg.seed)
        times.sort()
        writer.writerow(
            [
                "digital",
                f"n={n}",
                n * n,
                f"{1000 * statistics.median(times):.2f}",
                f"{1000 * times[int(0.9 * (len(times) - 1))]:.2f}",
                f"{1000 * times[-1]:.2f}",
            ]
        )

    for (p, n, m) in cfg.twisted_points:
        times = time_twisted(p, n, m, cfg.trials, cfg.seed)
        times.sort()
        unknowns = n * m * (m // 2 + 1)  # of the reduced system the attack solves
        writer.writerow(
            [
                "twisted",
                f"p={p};fext={n};m={m}",
                unknowns,
                f"{1000 * statistics.median(times):.2f}",
                f"{1000 * times[int(0.9 * (len(times) - 1))]:.2f}",
                f"{1000 * times[-1]:.2f}",
            ]
        )

    if fh is not sys.stdout:
        fh.close()


if __name__ == "__main__":
    main()
