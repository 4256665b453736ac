"""Rewrite digests.json: the SHA-256 of each worker's set-up inputs per seed.

    python3 perfbench/record_digests.py

run.py compares the digests its workers report with this table and flags a
run whose inputs differ, so a parent and a change are shown to attack the
same instances.  Rerun this only after a deliberate change to how inputs
are generated.
"""

import itertools
import json

from run import HERE, PROCESSES, WORKLOADS
from worker import import_program

SEEDS = range(32)


def main() -> None:
    import_program()
    import workloads

    table = {}
    for name in WORKLOADS:
        wl = workloads.WORKLOADS[name]
        table[name] = {
            str(seed): [
                workloads.digest(list(itertools.islice(workloads.instances(wl, seed, k), wl.pool)))
                for k in range(PROCESSES)
            ]
            for seed in SEEDS
        }
    (HERE / "digests.json").write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
