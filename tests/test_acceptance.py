"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with plain pytest; the ACCEPTANCE lines bypass capture so the verdicts
are visible in any log.
"""

import itertools
import time
from random import Random

from twoside.digital import INF, W, w_add, w_leq, w_mul, w_max_component
from twoside.digital_kex import (
    attack,
    attack_columns,
    random_params,
    recover_shared_key,
    run_exchange,
)
from twoside.gf import gauss_solve, gauss_solve_full
from twoside.matrices import Circulant
from twoside.solver import LinearSystem, maximal_solution
from twoside.twisted_kex import attack as twisted_attack
from twoside.twisted_kex import attack_system
from twoside.twisted_kex import random_params as twisted_random_params
from twoside.twisted_kex import recover_shared_key as twisted_recover
from twoside.twisted_kex import run_exchange as twisted_run_exchange
from twoside.twisted_ring import make_ring_ctx, sample_a2, sample_r1

from helpers import (
    DIGITAL_SIZES,
    TWISTED_GRID,
    basis_a1,
    cocycle,
    dihedral_mul,
    make_test_field,
    random_digit_tie_pair,
    sample_any_element,
    sample_span,
    w_dot,
)


def run_criterion(capsys, num, desc, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {num} FAIL: {desc}")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {num} PASS: {desc}")


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_1_digital_attack_success_rate(capsys):
    def body():
        for n in DIGITAL_SIZES:
            rng = Random(0xA110 + n)
            for trial in range(100):
                params = random_params(n, rng, entry_bound=10**9)
                tr = run_exchange(params, rng)
                start = time.perf_counter()
                columns, pairs, gens = attack_columns(params)
                system = LinearSystem(columns, tr.alice.pk.flat())
                if n == 8:
                    assert system.unknowns == 64 and system.components == 64
                solution = maximal_solution(system, W, w_max_component)
                assert solution is not None, (n, trial)
                recovered = recover_shared_key(
                    params, solution, tr.bob.pk, pairs, gens
                )
                elapsed = time.perf_counter() - start
                assert recovered == tr.shared_key, (n, trial)
                assert elapsed < 1.0, (n, trial, elapsed)
                # the same instance through the timed attack
                start = time.perf_counter()
                recovered = attack(params, tr.alice.pk, tr.bob.pk)
                elapsed = time.perf_counter() - start
                assert recovered == tr.shared_key, (n, trial)
                assert elapsed < 1.0, (n, trial, elapsed)

    run_criterion(
        capsys, 1,
        "digital attack recovers the key in 100/100 instances for each "
        "n in {2,3,4,6,8}, under 1 s each, on the reference and the timed solve",
        body,
    )


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_2_twisted_attack_success_rate(capsys):
    def body():
        for (p, n, m) in TWISTED_GRID:
            rng = Random(0xA220 + p * 100 + n * 10 + m)
            for trial in range(100):
                params = twisted_random_params(p, n, m, rng)
                tr = twisted_run_exchange(params, rng)
                start = time.perf_counter()
                rows, rhs, left_size, right_size = attack_system(
                    params, tr.alice.pk
                )
                solution = gauss_solve(rows, rhs, p)
                assert solution is not None, (p, n, m, trial)
                recovered = twisted_recover(
                    params, solution, tr.bob.pk, left_size, right_size
                )
                elapsed = time.perf_counter() - start
                assert recovered == tr.shared_key, (p, n, m, trial)
                assert elapsed < 1.0, (p, n, m, trial, elapsed)
                # the same instance through the timed attack
                start = time.perf_counter()
                recovered = twisted_attack(params, tr.alice.pk, tr.bob.pk)
                elapsed = time.perf_counter() - start
                assert recovered == tr.shared_key, (p, n, m, trial)
                assert elapsed < 1.0, (p, n, m, trial, elapsed)

    run_criterion(
        capsys, 2,
        "twisted attack recovers the key in 100/100 instances for each "
        "(p,n,m) grid point, under 1 s each, on the reference and the timed solve",
        body,
    )


# -- criterion 3 ---------------------------------------------------------------


def test_criterion_3_solver_vs_exhaustive_oracle(capsys):
    def body():
        oracle_values = tuple(range(201)) + (INF,)
        rng = Random(0xA330)
        solvable = empty = 0
        for case in range(1000):
            k = 1 if case % 5 < 3 else 2
            length = rng.randrange(1, 4)
            columns = tuple(
                tuple(rng.choice(oracle_values) for _ in range(length))
                for _ in range(k)
            )
            target = tuple(rng.choice(oracle_values) for _ in range(length))
            system = LinearSystem(columns, target)
            got = maximal_solution(system, W, w_max_component)

            # brute force over the full value set, collecting every solution
            per_column = [
                {v: tuple(w_mul(v, h) for h in col) for v in oracle_values}
                for col in columns
            ]
            found = []
            if k == 1:
                for v in oracle_values:
                    if per_column[0][v] == target:
                        found.append((v,))
            else:
                for v1 in oracle_values:
                    part1 = per_column[0][v1]
                    for v2 in oracle_values:
                        part2 = per_column[1][v2]
                        for a, b, t in zip(part1, part2, target):
                            if w_add(a, b) != t:
                                break
                        else:
                            found.append((v1, v2))

            if got is None:
                assert found == [], (case, columns, target)
                empty += 1
            else:
                assert found, (case, columns, target)
                assert w_dot(got, columns, length) == target
                for other in found:
                    for z_other, z_got in zip(other, got):
                        assert w_leq(z_other, z_got), (case, other, got)
                solvable += 1
        assert solvable + empty == 1000
        assert solvable >= 100 and empty >= 100

    run_criterion(
        capsys, 3,
        "maximal-solution solver agrees with exhaustive search on 1000 "
        "random systems (solvability, validity, maximality)",
        body,
    )


# -- criterion 4 ---------------------------------------------------------------


def _semiring_axiom_triples():
    rng = Random(0xA440)
    pool = [0, 1, 9, 10, 19, 23, 28, 41, 200, 10**6, 10**9, INF]
    for _ in range(7000):
        yield (rng.choice(pool), rng.choice(pool), rng.choice(pool))
    for _ in range(3000):
        a, b = random_digit_tie_pair(rng)
        c = int("".join(sorted(str(a), reverse=True)) + "0" * rng.randrange(2))
        yield (a, b, c)


def test_criterion_4_algebra_axiom_suites(capsys):
    def body():
        # digital semiring axioms on 10^4 triples including forced ties
        count = 0
        for a, b, c in _semiring_axiom_triples():
            assert w_add(a, b) == w_add(b, a)
            assert w_mul(a, b) == w_mul(b, a)
            assert w_add(w_add(a, b), c) == w_add(a, w_add(b, c))
            assert w_mul(w_mul(a, b), c) == w_mul(a, w_mul(b, c))
            assert w_mul(a, w_add(b, c)) == w_add(w_mul(a, b), w_mul(a, c))
            assert w_add(a, a) == a and w_mul(a, a) == a
            count += 1
        assert count == 10000

        # circulant commutativity on 10^3 random pairs, n up to 8
        rng = Random(0xA441)
        for _ in range(1000):
            n = rng.randrange(1, 9)
            a = Circulant(
                W, tuple(rng.randrange(10**9) for _ in range(n))
            ).expand()
            b = Circulant(
                W, tuple(rng.randrange(10**9) for _ in range(n))
            ).expand()
            assert a @ b == b @ a

        # cocycle axioms exhaustively for every m up to 8 over each test field
        for (p, n, _) in TWISTED_GRID:
            fld = make_test_field(p, n)
            for m in range(1, 9):
                ctx = make_ring_ctx(fld, m)
                group = [(i, k) for i in range(m) for k in (0, 1)]
                one = fld.one
                for g in group:
                    assert cocycle(ctx, g, (0, 0)) == one
                    assert cocycle(ctx, (0, 0), g) == one
                from twoside.gf import f_mul

                for g, h, k in itertools.product(group, repeat=3):
                    lhs = f_mul(
                        fld,
                        cocycle(ctx, g, h),
                        cocycle(ctx, dihedral_mul(m, g, h), k),
                    )
                    rhs = f_mul(
                        fld,
                        cocycle(ctx, h, k),
                        cocycle(ctx, g, dihedral_mul(m, h, k)),
                    )
                    assert lhs == rhs, (p, n, m, g, h, k)

        # ring associativity and distributivity on 10^3 random triples
        per_point = 1000 // len(TWISTED_GRID)
        for (p, n, m) in TWISTED_GRID:
            ctx = make_ring_ctx(make_test_field(p, n), m)
            rng = Random(0xA442 + p + n + m)
            for _ in range(per_point):
                a = sample_any_element(ctx, rng)
                b = sample_any_element(ctx, rng)
                c = sample_any_element(ctx, rng)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c

        # the three commutation bullets, 10^3 samples each
        per_point = 1000 // len(TWISTED_GRID)
        for (p, n, m) in TWISTED_GRID:
            ctx = make_ring_ctx(make_test_field(p, n), m)
            rng = Random(0xA443 + p + n + m)
            for _ in range(per_point):
                g1, g2 = sample_r1(ctx, rng), sample_r1(ctx, rng)
                assert g1 * g2 == g2 * g1
            for _ in range(per_point):
                h1, h2 = sample_a2(ctx, rng), sample_a2(ctx, rng)
                assert h1 * h2.adjoint() == h2 * h1.adjoint()
                assert h1.adjoint() * h2 == h2.adjoint() * h1
            a1_basis = basis_a1(ctx)
            for _ in range(per_point):
                a1, a2 = sample_span(a1_basis, ctx, rng), sample_a2(ctx, rng)
                assert a1 * a2 == a2 * a1.adjoint()

    run_criterion(
        capsys, 4,
        "axiom suites pass: semiring (10^4 triples), circulant "
        "commutativity (10^3), cocycle (exhaustive m<=8), ring laws and all "
        "three commutation bullets",
        body,
    )


# -- criterion 5 ---------------------------------------------------------------


def test_criterion_5_protocol_correctness(capsys):
    def body():
        for n in DIGITAL_SIZES:
            rng = Random(0xA550 + n)
            for _ in range(40):
                tr = run_exchange(random_params(n, rng), rng)
                assert tr.keys_agree, n
        for (p, n, m) in TWISTED_GRID:
            rng = Random(0xA551 + p * 100 + n * 10 + m)
            for _ in range(40):
                params = twisted_random_params(p, n, m, rng)
                tr = twisted_run_exchange(params, rng)
                assert tr.keys_agree, (p, n, m)

    run_criterion(
        capsys, 5,
        "honest exchanges agree on the shared key in 100% of runs for both "
        "schemes across the full grid",
        body,
    )


# -- criterion 6 ---------------------------------------------------------------


def test_criterion_6_solution_independence(capsys):
    def body():
        instances = 0
        for (p, n, m) in TWISTED_GRID:
            rng = Random(0xA660 + p * 100 + n * 10 + m)
            for _ in range(5):
                params = twisted_random_params(p, n, m, rng)
                tr = twisted_run_exchange(params, rng)
                rows, rhs, left_size, right_size = attack_system(
                    params, tr.alice.pk
                )
                baseline, kernel, _ = gauss_solve_full(rows, rhs, p)
                assert baseline is not None

                perm = list(range(len(rows[0])))
                rng.shuffle(perm)
                permuted_rows = [tuple(row[j] for j in perm) for row in rows]
                permuted = gauss_solve(permuted_rows, rhs, p)
                assert permuted is not None
                other = [0] * len(perm)
                for pos, j in enumerate(perm):
                    other[j] = permuted[pos]
                if other == list(baseline):
                    # same particular solution despite the permutation: force
                    # a different one along the kernel
                    assert kernel, (p, n, m)
                    other = [(a + b) % p for a, b in zip(other, kernel[0])]
                assert other != list(baseline)

                key_a = twisted_recover(
                    params, baseline, tr.bob.pk, left_size, right_size
                )
                key_b = twisted_recover(
                    params, other, tr.bob.pk, left_size, right_size
                )
                assert key_a == key_b == tr.shared_key, (p, n, m)
                instances += 1
        assert instances >= 20

    run_criterion(
        capsys, 6,
        "25 twisted instances: a different solution of the same system "
        "recovers the identical shared key",
        body,
    )


# -- criterion 7 ---------------------------------------------------------------


def test_criterion_7_gaussian_solver(capsys):
    def body():
        # zero residual on 10^4 consistent systems across p in {2,3,5,7}
        rng = Random(0xA770)
        for case in range(10000):
            p = (2, 3, 5, 7)[case % 4]
            r = rng.randrange(1, 7)
            c = rng.randrange(1, 7)
            rows = [tuple(rng.randrange(p) for _ in range(c)) for _ in range(r)]
            z = [rng.randrange(p) for _ in range(c)]
            rhs = tuple(sum(a * b for a, b in zip(row, z)) % p for row in rows)
            got = gauss_solve(rows, rhs, p)
            assert got is not None, case
            for row, t in zip(rows, rhs):
                assert sum(a * b for a, b in zip(row, got)) % p == t, case

        # inconsistency verdicts cross-checked by exhaustive search over
        # F_p^c, enumerating every system for all tractable shapes
        def cross_check(rows, rhs, p, c):
            got = gauss_solve(rows, rhs, p)
            brute = any(
                all(
                    sum(a * b for a, b in zip(row, z)) % p == t
                    for row, t in zip(rows, rhs)
                )
                for z in itertools.product(range(p), repeat=c)
            )
            assert (got is not None) == brute, (rows, rhs, p)

        for p in (2, 3):
            for r in (1, 2, 3):
                for c in (1, 2, 3):
                    n_systems = p ** (r * c + r)
                    if n_systems <= 20000:
                        cells = itertools.product(range(p), repeat=r * c + r)
                        for flat in cells:
                            rows = [
                                flat[i * c : (i + 1) * c] for i in range(r)
                            ]
                            rhs = flat[r * c :]
                            cross_check(rows, rhs, p, c)
                    else:
                        sampler = Random(0xA771)
                        for _ in range(4000):
                            rows = [
                                tuple(sampler.randrange(p) for _ in range(c))
                                for _ in range(r)
                            ]
                            rhs = tuple(sampler.randrange(p) for _ in range(r))
                            cross_check(rows, rhs, p, c)

    run_criterion(
        capsys, 7,
        "gaussian solver: zero residual on 10^4 consistent systems, "
        "inconsistency verdicts match exhaustive search for c<=3, p<=3",
        body,
    )
