"""Workloads: seeded public transcripts, the timed attack and its traced twin.

The program sees only generated inputs; everything here goes through the
package's public functions: `random_params`, `run_exchange`,
`transcript_to_json`, `transcript_from_json`, `attack`, and the stage
functions `attack` is built from.  Import this module after putting the
repository's `src` directory on `sys.path`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from random import Random
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from twoside import digital, digital_kex, gf, solver, twisted_kex, twisted_ring
from twoside.digital import INF, W, w_max_component
from twoside.errors import AttackError
from twoside.solver import LinearSystem

import hostspeed
from tracing import Tracer

@dataclass(frozen=True)
class Workload:
    name: str
    scheme: str  # "digital" or "twisted"
    params: tuple  # argument tuples of the scheme's random_params, taken round-robin
    pool: int  # instances each process generates during set-up


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("digital-n8", "digital", ((8,),), 16),
        Workload("twisted-p2-wide", "twisted", ((2, 4, 6),), 8),
        Workload("twisted-grid", "twisted", ((2, 2, 3), (3, 2, 4), (5, 1, 6), (2, 3, 5), (7, 1, 8)), 20),
    )
}

MODULES = {"digital": digital_kex, "twisted": twisted_kex}


@dataclass(frozen=True)
class Instance:
    public: dict  # the transcript without secrets: all the attacker sees
    key: object  # the honest shared key
    key_json: object
    exchange_ms: float  # wall time of run_exchange
    exchange_kernel_ms: float  # hostspeed sample taken just before it


def instances(workload: Workload, seed: int, stream: int) -> Iterator[Instance]:
    """Endless deterministic sequence of fresh instances for one process."""
    mod = MODULES[workload.scheme]
    rng = Random(f"{seed}:{workload.name}:{stream}")
    for args in itertools.cycle(workload.params):
        params = mod.random_params(*args, rng)
        kernel_ms = hostspeed.sample()
        t0 = perf_counter()
        tr = mod.run_exchange(params, rng)
        exchange_ms = (perf_counter() - t0) * 1000
        full = mod.transcript_to_json(tr, include_secrets=True)
        key_json = full.pop("secrets")["shared_key"]
        yield Instance(full, tr.shared_key, key_json, exchange_ms, kernel_ms)


def digest(pool: List[Instance]) -> str:
    """SHA-256 over the public transcripts and honest keys, in order."""
    h = hashlib.sha256()
    for inst in pool:
        h.update(json.dumps([inst.public, inst.key_json], sort_keys=True).encode())
    return h.hexdigest()


def attack(scheme: str, public: dict):
    """The timed path: public transcript dict to recovered key."""
    mod = MODULES[scheme]
    pub = mod.transcript_from_json(public)
    return mod.attack(pub.params, pub.alice.pk, pub.bob.pk)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    attack_ms: List[float] = field(default_factory=list)  # reference-host ms
    exchange_ms: List[float] = field(default_factory=list)  # reference-host ms
    wall_attack_ms: List[float] = field(default_factory=list)
    kernel_ms: List[float] = field(default_factory=list)  # hostspeed samples
    first_error: Optional[str] = None


def closed_loop(
    scheme: str,
    source: Iterator[Instance],
    seconds: float,
    min_attacks: int = 1,
    attack_fn: Optional[Callable] = None,
) -> Outcome:
    """One caller: the next attack starts only after the previous one ends.

    Runs until `seconds` have passed and at least `min_attacks` were made.
    An attack that raises or returns a key other than the honest one counts
    as failed; only successful attacks contribute latency samples.  Each
    attack and each exchange is timed right after a hostspeed sample and
    scaled by it to reference-host ms.
    """
    attack_fn = attack_fn or (lambda public: attack(scheme, public))
    out = Outcome()
    deadline = perf_counter() + seconds
    while out.attempted < min_attacks or perf_counter() < deadline:
        inst = next(source)
        out.exchange_ms.append(hostspeed.scale(inst.exchange_ms, inst.exchange_kernel_ms))
        out.attempted += 1
        kernel_ms = hostspeed.sample()
        out.kernel_ms.append(kernel_ms)
        t0 = perf_counter()
        try:
            key = attack_fn(inst.public)
        except Exception as exc:  # every failure is counted, none dropped
            out.failed += 1
            out.first_error = out.first_error or f"{type(exc).__name__}: {exc}"
            continue
        elapsed = (perf_counter() - t0) * 1000
        if key == inst.key:
            out.attack_ms.append(hostspeed.scale(elapsed, kernel_ms))
            out.wall_attack_ms.append(elapsed)
        else:
            out.failed += 1
            out.first_error = out.first_error or "recovered key differs from the honest key"
    return out


# -- traced twin of `attack` ---------------------------------------------------

# Calls a stage makes internally, routed through spans during the traced pass.
# ring_ctx_from_json and element_from_json look their helpers up in
# twisted_ring, random_params in twisted_kex, so both namespaces are patched.
PATCHES = {
    "digital": (
        ("digital_kex.keygen", digital_kex, "keygen"),
        ("digital_kex.shared_key", digital_kex, "shared_key"),
    ),
    "twisted": (
        ("twisted_kex.keygen", twisted_kex, "keygen"),
        ("twisted_kex.shared_key", twisted_kex, "shared_key"),
        ("gf.make_field_ctx", twisted_kex, "make_field_ctx"),
        ("twisted_ring.make_ring_ctx", twisted_kex, "make_ring_ctx"),
        ("twisted_ring.make_ring_ctx", twisted_ring, "make_ring_ctx"),
        ("gf.field_from_json", twisted_ring, "field_from_json"),
        ("twisted_kex.basis_products", twisted_kex, "basis_products"),
    ),
}


def _traced_digital(tr: Tracer, public: dict) -> Tuple[object, Dict[str, int]]:
    with tr.span("attack"):
        pub = tr.call("digital_kex.transcript_from_json", digital_kex.transcript_from_json, public)
        params = pub.params
        columns, pairs, gens = tr.call("digital_kex.attack_columns", digital_kex.attack_columns, params)
        system = LinearSystem(columns, pub.alice.pk.flat())
        z = tr.call("solver.max_candidate", solver.max_candidate, system, W, w_max_component)
        if not tr.call("solver.verify", solver.verify, system, z, W):
            raise AttackError("public matrix is outside the span of the two-sided products")
        key = tr.call(
            "digital_kex.recover_shared_key", digital_kex.recover_shared_key,
            params, z, pub.bob.pk, pairs, gens,
        )
    counts = {
        "system.unknowns": system.unknowns,
        "system.equations": system.components,
        "solver.unconstrained": sum(v == INF for v in z),
        "replay.terms": sum(v != W.zero for v in z),
    }
    return key, counts


def _traced_twisted(tr: Tracer, public: dict) -> Tuple[object, Dict[str, int]]:
    with tr.span("attack"):
        pub = tr.call("twisted_kex.transcript_from_json", twisted_kex.transcript_from_json, public)
        params = pub.params
        p = params.ctx.field.p
        rows, rhs, left, right = tr.call(
            "twisted_kex.attack_system", twisted_kex.attack_system, params, pub.alice.pk
        )
        z = tr.call("gf.gauss_solve", gf.gauss_solve, rows, rhs, p)
        if z is None:
            raise AttackError("public element is outside the span of the basis products")
        key = tr.call(
            "twisted_kex.recover_shared_key", twisted_kex.recover_shared_key,
            params, z, pub.bob.pk, left, right,
        )
    # rank and nullity come from an untimed second elimination that keeps the pivots
    rank = len(gf.gauss_solve_full(rows, rhs, p)[2])
    counts = {
        "system.unknowns": len(rows[0]),
        "system.equations": len(rows),
        "gf.rank": rank,
        "gf.nullity": len(rows[0]) - rank,
        "replay.terms": sum(1 for v in z if v),
    }
    return key, counts


TRACED = {"digital": _traced_digital, "twisted": _traced_twisted}


def traced_source(tr: Tracer, source: Iterator[Instance]) -> Iterator[Instance]:
    """Instances generated under a root `generate` span, one instance id each."""
    for k in itertools.count():
        tr.instance = k
        with tr.span("generate"):
            inst = next(source)
        yield inst


def traced_attack(tr: Tracer, scheme: str, counts: List[Dict[str, int]]) -> Callable:
    """`attack` taken stage by stage under a root `attack` span.

    Use it inside `tr.patched(PATCHES[scheme])`; each call appends the
    instance's system counts to `counts`.
    """
    staged = TRACED[scheme]

    def run(public: dict):
        key, c = staged(tr, public)
        counts.append(c)
        return key

    return run


def cache_counters() -> Dict[str, float]:
    """Entries and hit ratio of the package's lru caches, where they exist."""
    out = {}
    for name, module, attr in (("gf.f_mul", gf, "f_mul"), ("digital.digit_sum", digital, "digit_sum")):
        cache_info = getattr(getattr(module, attr, None), "cache_info", None)
        hits, misses, _, size = cache_info() if cache_info else (0, 0, None, 0)
        out[f"{name}_cache_entries"] = size
        out[f"{name}_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out
