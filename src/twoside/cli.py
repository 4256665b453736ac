"""Command-line front end: run exchanges, attack transcripts, benchmark.

Exit codes: 0 success, 2 usage or validation error (or stdout closed before
the output was written), 3 recovered key does not match the reference
(selftest: a check failed), 4 the attack's linear solve found no solution.

The subcommands that draw randomness (exchange, bench, selftest) take --seed
and echo the seed they used, so any run replays exactly.  Benchmark rows are
keyed by (params, trial) and each trial derives its own child seed from the
master seed and that key, so the CSV content does not depend on execution
order (the timing columns are wall-clock measurements and naturally vary).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import statistics
import sys
import time
from functools import partial
from random import Random, SystemRandom
from typing import List, Tuple

from . import digital_kex, twisted_kex
from .digital import MAX_FINITE, value_to_json
from .errors import AttackError, SizeCapError
from .gf import MAX_DEGREE, MAX_ORDER, MAX_PRIME, is_prime
from .twisted_ring import MAX_M

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_SOLVER = 4

MAX_TRIALS = 10000

SCHEMES = {"digital": digital_kex, "twisted": twisted_kex}


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
    if not 1 <= bound <= MAX_FINITE:
        parser.error(f"--entry-bound must be in 1..{MAX_FINITE}")


def _grid(parser: argparse.ArgumentParser, args, attack: bool = False) -> List[Tuple[str, tuple]]:
    """The validated (label, shape) of every combo of the size options.

    A shape is (n,) or (p, fext, m), its label "n=3" or "p=2;fext=2;m=3".
    With attack=True an over-cap twisted attack system is rejected too.
    """
    if args.scheme == "digital":
        axes = {"n": args.n}
    else:
        axes = {"p": args.p, "fext": args.fext, "m": args.m}
    axes = {name: sorted(set(values)) for name, values in axes.items()}
    # counted before the grid is formed: the lists multiply
    size = math.prod(map(len, axes.values()))
    trials = getattr(args, "trials", 1)
    if size * trials > MAX_TRIALS:
        parser.error(
            f"a grid of {size} combos x {trials} trials exceeds the cap of "
            f"{MAX_TRIALS} trials"
        )
    grid = []
    for shape in itertools.product(*axes.values()):
        if args.scheme == "digital":
            _validate_digital(parser, *shape, args.entry_bound)
        else:
            _validate_twisted(parser, *shape, attack=attack)
        grid.append((";".join(f"{k}={v}" for k, v in zip(axes, shape)), shape))
    return grid


def _random_params(
    scheme: str, shape: tuple, rng: Random, bound: int = digital_kex.DEFAULT_ENTRY_BOUND
):
    if scheme == "digital":
        return digital_kex.random_params(*shape, rng, bound)
    return twisted_kex.random_params(*shape, rng)


def _write_output(parser: argparse.ArgumentParser, option: str, path: str, write) -> None:
    """Call write(fh) on path opened for writing; an OSError exits 2 naming option."""
    try:
        with open(path, "w", newline="") as fh:
            write(fh)
    except OSError as exc:
        parser.error(f"cannot write {option}: {exc}")


def cmd_exchange(parser: argparse.ArgumentParser, args) -> int:
    grid = _grid(parser, args)
    if len(grid) != 1:
        parser.error("exchange takes a single value of each size option")
    (label, shape), = grid
    seed = _pick_seed(args)
    rng = Random(seed)
    module = SCHEMES[args.scheme]
    tr = module.run_exchange(_random_params(args.scheme, shape, rng, args.entry_bound), rng)
    obj = module.transcript_to_json(tr, include_secrets=args.insecure_dump)
    obj["seed"] = seed
    _write_output(parser, "--out", args.out, lambda fh: fh.write(json.dumps(obj, indent=2) + "\n"))
    print(f"scheme: {args.scheme} {label.replace(';', ' ')}")
    print(f"seed: {seed}")
    print(f"transcript: {args.out}")
    print(f"keys_agree: {str(tr.keys_agree).lower()}")
    return EXIT_OK if tr.keys_agree else EXIT_MISMATCH


def _system_json(scheme: str, params, target) -> dict:
    """The paper's attack system for target as JSON {columns, target}."""
    if scheme == "digital":
        columns = [
            [value_to_json(v) for v in col] for col in digital_kex.attack_columns(params)[0]
        ]
        target = [value_to_json(v) for v in target.flat()]
    else:
        # the paper's system, not the n times narrower one that _attack solves
        rows, target = twisted_kex.attack_system(params, target)[:2]
        columns = [list(col) for col in zip(*rows)]
    return {"columns": columns, "target": list(target)}


def _attack(scheme: str, params, directions) -> Tuple[list, Tuple[int, int], float, float]:
    """Solve for each (target, other) public pair and replay against other.

    Returns the recovered keys, the (unknowns, equations) shape of the
    system solved, and the solve and total wall times in ms.  Raises
    AttackError when a target is outside the span.
    """
    t_total = time.perf_counter()
    if scheme == "digital":
        solve = partial(digital_kex.solve, params)
        shape = (params.n * params.n,) * 2
    else:
        # the rows depend only on the public parameters: build them once
        system = twisted_kex.system_rows(params)
        solve = partial(twisted_kex.solve, params, system)
        shape = (system.unknowns, len(system.rows))
    keys = []
    solve_ms = 0.0
    for target, other in directions:
        t0 = time.perf_counter()
        solution = solve(target)
        solve_ms += (time.perf_counter() - t0) * 1000.0
        if solution is None:
            raise AttackError("no solution for a public key")
        keys.append(SCHEMES[scheme].replay(params, solution, other))
    return keys, shape, solve_ms, (time.perf_counter() - t_total) * 1000.0


def cmd_attack(parser: argparse.ArgumentParser, args) -> int:
    try:
        with open(args.transcript) as fh:
            obj = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: bad JSON, bytes that are not UTF-8, or an int over the
        # digit limit; RecursionError: JSON nested deeper than the stack
        parser.error(f"cannot read transcript: {exc}")
    if not isinstance(obj, dict):
        parser.error("malformed transcript: the top level must be a JSON object")

    scheme = obj.get("scheme")
    # a tuple, not the dict: the JSON value may be unhashable
    if scheme not in tuple(SCHEMES):
        parser.error(f"unknown scheme in transcript: {scheme!r}")
    try:
        tr = SCHEMES[scheme].transcript_from_json(obj)
        if args.dump_system:
            system = _system_json(scheme, tr.params, tr.alice.pk)
            _write_output(parser, "--dump-system", args.dump_system, partial(json.dump, system))
        keys, (unknowns, equations), solve_ms, attack_ms = _attack(
            scheme, tr.params, ((tr.alice.pk, tr.bob.pk), (tr.bob.pk, tr.alice.pk))
        )
    except AttackError as exc:
        print(json.dumps({"scheme": scheme, "error": str(exc)}, indent=2))
        return EXIT_SOLVER
    except SizeCapError as exc:
        parser.error(f"transcript too large to attack: {exc}")
    except (KeyError, ValueError, TypeError) as exc:
        parser.error(f"malformed transcript: {exc}")

    agree = keys[0] == keys[1]
    has_reference = tr.shared_key is not None
    matches = agree and (not has_reference or keys[0] == tr.shared_key)
    report = {
        "scheme": scheme,
        "unknowns": unknowns,
        "equations": equations,
        "solve_ms": round(solve_ms, 3),
        "attack_ms": round(attack_ms, 3),
        "recovered_keys_agree": agree,
        "reference_key_present": has_reference,
        "attack_key_matches": matches,
    }
    print(json.dumps(report, indent=2))
    return EXIT_OK if matches else EXIT_MISMATCH


def cmd_bench(parser: argparse.ArgumentParser, args) -> int:
    if not 1 <= args.trials <= MAX_TRIALS:
        parser.error(f"--trials must be in 1..{MAX_TRIALS}")
    grid = _grid(parser, args, attack=True)
    # an unwritable --out fails here, not after every trial has run
    _write_output(parser, "--out", args.out, lambda fh: None)
    seed = _pick_seed(args)

    rows = []
    summaries = []
    for label, shape in grid:
        times = []
        for trial in range(args.trials):
            rng = Random(f"{seed}:{args.scheme}:{label}:{trial}")
            params = _random_params(args.scheme, shape, rng, args.entry_bound)
            tr = SCHEMES[args.scheme].run_exchange(params, rng)
            t0 = time.perf_counter()
            try:
                (key,), _, solve_ms, attack_ms = _attack(
                    args.scheme, params, ((tr.alice.pk, tr.bob.pk),)
                )
                ok = key == tr.shared_key and tr.keys_agree
            except AttackError:  # stopped at a failed solve: no solve time to report
                ok, solve_ms, attack_ms = False, math.nan, (time.perf_counter() - t0) * 1000.0
            times.append(attack_ms)
            rows.append(
                (args.scheme, label, trial, f"{solve_ms:.3f}", f"{attack_ms:.3f}", str(ok).lower())
            )
        times.sort()
        pos = 0.9 * (len(times) - 1)  # interpolated between the closest ranks
        p90 = times[int(pos)] + (times[math.ceil(pos)] - times[int(pos)]) * (pos - int(pos))
        summaries.append(
            f"{label}: median_ms={statistics.median(times):.3f} "
            f"p90_ms={p90:.3f} max_ms={times[-1]:.3f}"
        )

    header = ("scheme", "params", "trial", "solve_ms", "attack_ms", "success")
    _write_output(parser, "--out", args.out, lambda fh: csv.writer(fh).writerows([header, *rows]))
    all_ok = all(row[-1] == "true" for row in rows)
    print(f"seed: {seed}")
    print(f"rows: {len(rows)}")
    print(f"csv: {args.out}")
    print("\n".join(summaries))
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
    for scheme, shape in (("digital", (4,)), ("twisted", (2, 2, 3))):
        module = SCHEMES[scheme]
        params = _random_params(scheme, shape, rng)
        tr = module.run_exchange(params, rng)
        check(f"{scheme} exchange keys agree", tr.keys_agree)
        try:
            key = module.attack(params, tr.alice.pk, tr.bob.pk)
            check(f"{scheme} attack recovers the key", key == tr.shared_key)
        except AttackError:
            check(f"{scheme} attack recovers the key", False)

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
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader went away: drop the rest (signal docs, Note on SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
