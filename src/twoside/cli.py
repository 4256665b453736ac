"""Command-line front end: run exchanges, attack transcripts, benchmark.

Exit codes: 0 success, 2 usage or validation error, 3 recovered key does not
match the reference (selftest: a check failed), 4 the attack's linear solve
found no solution.

Every subcommand takes --seed and echoes the seed it used, so any run can be
replayed exactly.  Benchmark rows are keyed by (params, trial) and each trial
derives its own child seed from the master seed and that key, so the CSV
content does not depend on execution order (the timing columns are wall-clock
measurements and naturally vary between runs).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
import time
from random import Random, SystemRandom
from typing import List, Optional, Tuple

from . import digital_kex, twisted_kex
from .digital import value_to_json
from .errors import AttackError, SizeCapError
from .gf import MAX_DEGREE, MAX_ORDER, MAX_PRIME, is_prime
from .twisted_ring import MAX_M

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_SOLVER = 4

MAX_TRIALS = 10000


def _int_list(text: str) -> List[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoside",
        description="Two-sided multiplication key exchange and its attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, trials: bool = False) -> None:
        p.add_argument(
            "--scheme", choices=("digital", "twisted"), default="digital"
        )
        p.add_argument("--n", type=_int_list, default=[3], help="matrix size (digital)")
        p.add_argument("--p", type=_int_list, default=[2], help="field characteristic (twisted)")
        p.add_argument(
            "--fext", type=_int_list, default=[2], help="extension degree of the field (twisted)"
        )
        p.add_argument("--m", type=_int_list, default=[3], help="dihedral rotation order (twisted)")
        p.add_argument("--seed", type=int, default=None, help="64-bit master seed")
        p.add_argument(
            "--entry-bound",
            type=int,
            default=digital_kex.DEFAULT_ENTRY_BOUND,
            help="largest finite entry sampled (digital)",
        )
        if trials:
            p.add_argument("--trials", type=int, default=10)

    px = sub.add_parser("exchange", help="run an honest exchange, write a transcript")
    common(px)
    px.add_argument("--out", default="transcript.json")
    px.add_argument(
        "--insecure-dump",
        action="store_true",
        help="include private keys and the shared key in the transcript",
    )

    pa = sub.add_parser("attack", help="recover the shared key from a transcript")
    pa.add_argument("transcript", help="path to a transcript JSON file")
    pa.add_argument(
        "--dump-system",
        default=None,
        metavar="PATH",
        help="also write the linear system as JSON {columns, target}",
    )

    pb = sub.add_parser("bench", help="attack campaign over a parameter grid")
    common(pb, trials=True)
    pb.add_argument("--out", default="bench.csv")

    ps = sub.add_parser("selftest", help="quick end-to-end check of both schemes")
    ps.add_argument("--seed", type=int, default=None)

    return parser


def _pick_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    return SystemRandom().getrandbits(64)


def _single(parser: argparse.ArgumentParser, values: List[int], flag: str) -> int:
    if len(values) != 1:
        parser.error(f"{flag} takes a single value here")
    return values[0]


def _validate_twisted(
    parser: argparse.ArgumentParser, p: int, fext: int, m: int, attack: bool = False
) -> None:
    """Reject a bad ring shape; with attack=True also an over-cap attack system."""
    # the bound first: trial division of a huge p would run for hours
    if p > MAX_PRIME or not is_prime(p):
        parser.error("p must be prime and below 2^16")
    if not 1 <= fext <= MAX_DEGREE:
        parser.error(f"--fext must be in 1..{MAX_DEGREE}")
    if p**fext > MAX_ORDER:
        parser.error(f"field order p^fext must be at most {MAX_ORDER}")
    if not 1 <= m <= MAX_M:
        parser.error(f"--m must be in 1..{MAX_M}")
    if attack:
        try:
            twisted_kex.check_system_size(fext, m)
        except ValueError as exc:
            parser.error(str(exc))


def _validate_digital(parser: argparse.ArgumentParser, n: int, bound: int) -> None:
    if not 1 <= n <= digital_kex.MAX_N:
        parser.error(f"--n must be in 1..{digital_kex.MAX_N}")
    if bound < 1:
        parser.error("--entry-bound must be positive")


def cmd_exchange(parser: argparse.ArgumentParser, args) -> int:
    seed = _pick_seed(args)
    rng = Random(seed)
    if args.scheme == "digital":
        n = _single(parser, args.n, "--n")
        _validate_digital(parser, n, args.entry_bound)
        params = digital_kex.random_params(n, rng, args.entry_bound)
        tr = digital_kex.run_exchange(params, rng)
        obj = digital_kex.transcript_to_json(tr, include_secrets=args.insecure_dump)
        summary = f"digital n={n}"
    else:
        p = _single(parser, args.p, "--p")
        fext = _single(parser, args.fext, "--fext")
        m = _single(parser, args.m, "--m")
        _validate_twisted(parser, p, fext, m)
        params = twisted_kex.random_params(p, fext, m, rng)
        tr = twisted_kex.run_exchange(params, rng)
        obj = twisted_kex.transcript_to_json(tr, include_secrets=args.insecure_dump)
        summary = f"twisted p={p} fext={fext} m={m}"
    obj["seed"] = seed
    with open(args.out, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
    print(f"scheme: {summary}")
    print(f"seed: {seed}")
    print(f"transcript: {args.out}")
    print(f"keys_agree: {str(tr.keys_agree).lower()}")
    return EXIT_OK if tr.keys_agree else EXIT_MISMATCH


def _attack_digital(obj: dict, dump_path: Optional[str]) -> Tuple[dict, list, int]:
    tr = digital_kex.transcript_from_json(obj)
    params = tr.params
    reference = tr.shared_key if obj.get("secrets") else None

    t_total = time.perf_counter()
    if dump_path:
        columns = digital_kex.attack_columns(params)[0]
        with open(dump_path, "w") as fh:
            json.dump(
                {
                    "columns": [[value_to_json(v) for v in col] for col in columns],
                    "target": [value_to_json(v) for v in tr.alice.pk.flat()],
                },
                fh,
            )
    pairs, gens = digital_kex.generators(params.n)
    recovered = []
    solve_ms = 0.0
    for target, other in (
        (tr.alice.pk, tr.bob.pk),
        (tr.bob.pk, tr.alice.pk),
    ):
        t0 = time.perf_counter()
        solution = digital_kex.solve(params, target)
        solve_ms += (time.perf_counter() - t0) * 1000.0
        if solution is None:
            raise AttackError("no solution for a public matrix")
        recovered.append(
            digital_kex.recover_shared_key(params, solution, other, pairs, gens)
        )
    attack_ms = (time.perf_counter() - t_total) * 1000.0

    unknowns = params.n * params.n
    report = {
        "scheme": "digital",
        "unknowns": unknowns,
        "equations": unknowns,
        "solve_ms": round(solve_ms, 3),
        "attack_ms": round(attack_ms, 3),
    }
    return report, recovered, reference


def _attack_twisted(obj: dict, dump_path: Optional[str]) -> Tuple[dict, list, int]:
    tr = twisted_kex.transcript_from_json(obj)
    params = tr.params
    reference = tr.shared_key if obj.get("secrets") else None

    t_total = time.perf_counter()
    # the rows depend only on the public parameters: build them once
    rows = twisted_kex.system_rows(params)
    unknowns, equations = len(rows[0]), len(rows)
    if dump_path:
        # the dump is the paper's system, not the reduced one solved below
        paper_rows, target = twisted_kex.attack_system(params, tr.alice.pk)[:2]
        columns = [list(col) for col in zip(*paper_rows)]
        with open(dump_path, "w") as fh:
            json.dump({"columns": columns, "target": list(target)}, fh)
    recovered = []
    solve_ms = 0.0
    for target_pk, other in ((tr.alice.pk, tr.bob.pk), (tr.bob.pk, tr.alice.pk)):
        t0 = time.perf_counter()
        coeffs = twisted_kex.solve(params, rows, target_pk)
        solve_ms += (time.perf_counter() - t0) * 1000.0
        if coeffs is None:
            raise AttackError("no solution for a public element")
        recovered.append(twisted_kex.replay(params, coeffs, other))
    attack_ms = (time.perf_counter() - t_total) * 1000.0

    report = {
        "scheme": "twisted",
        "unknowns": unknowns,
        "equations": equations,
        "solve_ms": round(solve_ms, 3),
        "attack_ms": round(attack_ms, 3),
    }
    return report, recovered, reference


def cmd_attack(parser: argparse.ArgumentParser, args) -> int:
    try:
        with open(args.transcript) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: JSON nested deeper than the interpreter's stack
        parser.error(f"cannot read transcript: {exc}")
    if not isinstance(obj, dict):
        parser.error("malformed transcript: the top level must be a JSON object")

    scheme = obj.get("scheme")
    try:
        if scheme == "digital":
            report, recovered, reference = _attack_digital(obj, args.dump_system)
        elif scheme == "twisted":
            report, recovered, reference = _attack_twisted(obj, args.dump_system)
        else:
            parser.error(f"unknown scheme in transcript: {scheme!r}")
    except AttackError as exc:
        print(json.dumps({"scheme": scheme, "error": str(exc)}, indent=2))
        return EXIT_SOLVER
    except SizeCapError as exc:
        parser.error(f"transcript too large to attack: {exc}")
    except (KeyError, ValueError, TypeError) as exc:
        parser.error(f"malformed transcript: {exc}")

    agree = recovered[0] == recovered[1]
    report["recovered_keys_agree"] = agree
    report["reference_key_present"] = reference is not None
    if reference is not None:
        matches = agree and recovered[0] == reference
    else:
        matches = agree
    report["attack_key_matches"] = matches
    print(json.dumps(report, indent=2))
    return EXIT_OK if matches else EXIT_MISMATCH


def _bench_digital(n: int, bound: int, rng: Random) -> Tuple[float, float, bool]:
    params = digital_kex.random_params(n, rng, bound)
    tr = digital_kex.run_exchange(params, rng)
    t_total = time.perf_counter()
    solution = digital_kex.solve(params, tr.alice.pk)
    solve_ms = (time.perf_counter() - t_total) * 1000.0
    ok = solution is not None
    if ok:
        key = digital_kex.recover_shared_key(
            params, solution, tr.bob.pk, *digital_kex.generators(n)
        )
        ok = key == tr.shared_key and tr.keys_agree
    attack_ms = (time.perf_counter() - t_total) * 1000.0
    return solve_ms, attack_ms, ok


def _bench_twisted(p: int, fext: int, m: int, rng: Random) -> Tuple[float, float, bool]:
    params = twisted_kex.random_params(p, fext, m, rng)
    tr = twisted_kex.run_exchange(params, rng)
    t_total = time.perf_counter()
    rows = twisted_kex.system_rows(params)
    t0 = time.perf_counter()
    coeffs = twisted_kex.solve(params, rows, tr.alice.pk)
    solve_ms = (time.perf_counter() - t0) * 1000.0
    ok = coeffs is not None
    if ok:
        key = twisted_kex.replay(params, coeffs, tr.bob.pk)
        ok = key == tr.shared_key and tr.keys_agree
    attack_ms = (time.perf_counter() - t_total) * 1000.0
    return solve_ms, attack_ms, ok


def cmd_bench(parser: argparse.ArgumentParser, args) -> int:
    if not 1 <= args.trials <= MAX_TRIALS:
        parser.error(f"--trials must be in 1..{MAX_TRIALS}")
    seed = _pick_seed(args)

    if args.scheme == "digital":
        axes = (sorted(set(args.n)),)
    else:
        axes = (sorted(set(args.p)), sorted(set(args.fext)), sorted(set(args.m)))
    # counted before the grid is formed: the lists multiply
    size = math.prod(map(len, axes))
    if size * args.trials > MAX_TRIALS:
        parser.error(
            f"a grid of {size} combos x {args.trials} trials exceeds the cap of "
            f"{MAX_TRIALS} trials"
        )

    if args.scheme == "digital":
        grid = [f"n={n}" for n in axes[0]]
        for n in axes[0]:
            _validate_digital(parser, n, args.entry_bound)
    else:
        combos = list(itertools.product(*axes))
        for p, fx, m in combos:
            _validate_twisted(parser, p, fx, m, attack=True)
        grid = [f"p={p};fext={fx};m={m}" for p, fx, m in combos]

    rows = []
    all_ok = True
    for label in grid:
        for trial in range(args.trials):
            rng = Random(f"{seed}:{args.scheme}:{label}:{trial}")
            if args.scheme == "digital":
                n = int(label.split("=")[1])
                solve_ms, attack_ms, ok = _bench_digital(n, args.entry_bound, rng)
            else:
                parts = dict(kv.split("=") for kv in label.split(";"))
                solve_ms, attack_ms, ok = _bench_twisted(
                    int(parts["p"]), int(parts["fext"]), int(parts["m"]), rng
                )
            all_ok = all_ok and ok
            rows.append(
                {
                    "scheme": args.scheme,
                    "params": label,
                    "trial": trial,
                    "solve_ms": f"{solve_ms:.3f}",
                    "attack_ms": f"{attack_ms:.3f}",
                    "success": str(ok).lower(),
                }
            )

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=["scheme", "params", "trial", "solve_ms", "attack_ms", "success"],
        )
        writer.writeheader()
        writer.writerows(rows)
    print(f"seed: {seed}")
    print(f"rows: {len(rows)}")
    print(f"csv: {args.out}")
    print(f"all_success: {str(all_ok).lower()}")
    return EXIT_OK if all_ok else EXIT_MISMATCH


def cmd_selftest(parser: argparse.ArgumentParser, args) -> int:
    seed = _pick_seed(args)
    print(f"seed: {seed}")
    failures = 0

    def check(label: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {label}")
        failures += 0 if ok else 1

    rng = Random(seed)
    params = digital_kex.random_params(4, rng)
    tr = digital_kex.run_exchange(params, rng)
    check("digital exchange keys agree", tr.keys_agree)
    try:
        key = digital_kex.attack(params, tr.alice.pk, tr.bob.pk)
        check("digital attack recovers the key", key == tr.shared_key)
    except AttackError:
        check("digital attack recovers the key", False)

    tparams = twisted_kex.random_params(2, 2, 3, rng)
    ttr = twisted_kex.run_exchange(tparams, rng)
    check("twisted exchange keys agree", ttr.keys_agree)
    try:
        tkey = twisted_kex.attack(tparams, ttr.alice.pk, ttr.bob.pk)
        check("twisted attack recovers the key", tkey == ttr.shared_key)
    except AttackError:
        check("twisted attack recovers the key", False)

    return EXIT_OK if failures == 0 else EXIT_MISMATCH


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "exchange":
        return cmd_exchange(parser, args)
    if args.command == "attack":
        return cmd_attack(parser, args)
    if args.command == "bench":
        return cmd_bench(parser, args)
    return cmd_selftest(parser, args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
