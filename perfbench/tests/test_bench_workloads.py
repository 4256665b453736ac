import itertools
import json
from dataclasses import replace
from pathlib import Path

import pytest

import workloads
from tracing import Tracer

BENCH = Path(__file__).resolve().parent.parent


def pool(name, seed, stream=0):
    wl = workloads.WORKLOADS[name]
    return list(itertools.islice(workloads.instances(wl, seed, stream), wl.pool))


def test_digest_is_stable_for_a_fixed_seed_and_moves_with_it():
    first = workloads.digest(pool("digital-n8", 5))
    assert workloads.digest(pool("digital-n8", 5)) == first
    assert workloads.digest(pool("digital-n8", 6)) != first
    assert workloads.digest(pool("digital-n8", 5, stream=1)) != first


def test_recorded_digests_match_the_generator():
    table = json.loads((BENCH / "digests.json").read_text())
    for name in workloads.WORKLOADS:
        recorded = table[name]["1"]
        assert workloads.digest(pool(name, 1, stream=0)) == recorded[0]


def test_closed_loop_counts_failed_attacks():
    good, other = pool("digital-n8", 2)[:2]
    wrong_key = replace(good, key=other.key)
    broken = replace(good, public={**good.public, "params": {}})
    out = workloads.closed_loop("digital", iter([good, wrong_key, broken]), 0.0, min_attacks=3)
    assert (out.attempted, out.failed) == (3, 2)
    assert len(out.attack_ms) == len(out.exchange_ms) - 2 == 1
    assert out.first_error == "recovered key differs from the honest key"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_attack_per_workload_untraced_and_traced(name):
    wl = workloads.WORKLOADS[name]
    source = workloads.instances(wl, 3, 0)
    out = workloads.closed_loop(wl.scheme, source, 0.0)
    assert (out.attempted, out.failed) == (1, 0)

    tr, counts = Tracer(), []
    with tr.patched(workloads.PATCHES[wl.scheme]):
        traced = workloads.closed_loop(
            wl.scheme, workloads.traced_source(tr, source), 0.0,
            attack_fn=workloads.traced_attack(tr, wl.scheme, counts),
        )
    assert (traced.attempted, traced.failed) == (1, 0)
    names = {s.name for s in tr.spans}
    assert {"generate", "attack", f"{wl.scheme}_kex.transcript_from_json", f"{wl.scheme}_kex.keygen"} <= names
    assert counts[0]["system.unknowns"] > 0


def test_twisted_grid_takes_the_acceptance_points_round_robin():
    grid = [inst.public["params"] for inst in pool("twisted-grid", 1)[:6]]
    points = [(g["p"], g["n"], g["m"]) for g in grid]
    assert points == [(2, 2, 3), (3, 2, 4), (5, 1, 6), (2, 3, 5), (7, 1, 8), (2, 2, 3)]
