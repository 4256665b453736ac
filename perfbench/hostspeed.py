"""How fast the host runs right now, measured with a fixed reference kernel.

A host that shares its physical cores with other tenants can drift in
speed by up to 1.9x within a minute.  Every timed operation is
preceded by a `sample()` of a small pure-Python kernel that lives here, in
the benchmark's own code, and never changes with the program.  `scale`
expresses the operation's wall time in milliseconds of a host on which the
kernel takes REFERENCE_MS: a slow phase stretches the operation and the
kernel alike, so the drift cancels, while a slower program still reads
slower because the kernel does not change with it.

The kernel mixes the kinds of work the program does: integer arithmetic,
a min-plus matrix product over lists, small function calls with dict
stores, and elimination over F_2 on int bit rows.
"""

from __future__ import annotations

from random import Random
from time import perf_counter

# The kernel's time, in ms, on the host the benchmark was tuned on (a
# 2-vCPU Intel Xeon VM, Python 3.11) in its usual phase.  It only fixes the
# unit: scaled times are ms on a host that runs the kernel this fast.
REFERENCE_MS = 2.0

# Repetitions per sample; the fastest is kept, so an interrupt or a
# garbage collection during one repetition does not read as a slow host.
REPS = 3

_rng = Random(0)
_A = [[_rng.randrange(100) for _ in range(16)] for _ in range(16)]
_Bt = [list(col) for col in zip(*[[_rng.randrange(100) for _ in range(16)] for _ in range(16)])]
_ROWS = [_rng.getrandbits(256) for _ in range(96)]


def _larger(a: int, b: int) -> int:
    return a if a > b else b


def kernel() -> int:
    """Fixed work, about 2 ms on the reference host; returns a checksum."""
    acc = 0
    for i in range(5000):
        acc += i * i % 7
    product = [[min(a + b for a, b in zip(row, col)) for col in _Bt] for row in _A]
    acc += sum(map(sum, product))
    top, seen = 0, {}
    for i in range(1500):
        top = _larger(top, (i * 7919) % 1000)
        seen[i % 97] = top
    acc += sum(seen.values())
    rows, pivot = list(_ROWS), 0
    for bit in range(255, 200, -1):
        mask = 1 << bit
        for i in range(pivot, len(rows)):
            if rows[i] & mask:
                rows[pivot], rows[i] = rows[i], rows[pivot]
                lead = rows[pivot]
                for j, row in enumerate(rows):
                    if j != pivot and row & mask:
                        rows[j] = row ^ lead
                pivot += 1
                break
    return acc + pivot


def sample(reps: int = REPS) -> float:
    """The kernel's fastest time over `reps` runs, in ms."""
    best = float("inf")
    for _ in range(reps):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best * 1000


def scale(wall_ms: float, kernel_ms: float) -> float:
    """Wall time measured next to a kernel sample, in reference-host ms."""
    return wall_ms * REFERENCE_MS / kernel_ms
