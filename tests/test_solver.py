"""Maximal-solution solver for one-sided linear systems over the digit semiring.

The exhaustive oracle lives at the top and defines ground truth; every pinned
value below was frozen from an oracle run, not from the solver.
"""

from random import Random

import pytest

from twoside.digital import INF, W, w_add, w_leq, w_mul, w_max_component
from twoside.solver import LinearSystem, max_candidate, maximal_solution, verify

from helpers import w_dot, w_solutions_exhaustive

ORACLE_VALUES = tuple(range(0, 201)) + (INF,)


def oracle_max_component(h, y, probe_values):
    """Largest feasible x by brute force over the probe set."""
    best = None
    for x in probe_values:
        if w_add(w_mul(x, h), y) == y:
            if best is None or w_leq(best, x):
                best = x
    return best


# -- per-component maxima, frozen from the oracle -----------------------------------


def test_max_component_oracle_agreement_dense():
    probe = tuple(range(0, 401)) + (INF, 10**6, 10**9)
    for h in (0, 1, 5, 19, 23, 28, 41, 200, INF):
        for y in (0, 1, 5, 19, 23, 28, 41, 200, INF):
            assert w_max_component(h, y) == oracle_max_component(h, y, probe)


def test_max_component_pinned():
    # frozen from the exhaustive oracle above
    assert w_max_component(5, 19) == INF
    assert w_max_component(19, 5) == 5
    assert w_max_component(28, 19) == 19  # digit-sum tie, 28 > 19


# -- solver vs oracle -----------------------------------------------------------


def test_pinned_two_column_system():
    system = LinearSystem(columns=((19,), (5,)), target=(19,))
    assert maximal_solution(system, W, w_max_component) == (INF, INF)


def test_pinned_single_column_identity():
    system = LinearSystem(columns=((19, 5),), target=(19, 5))
    assert maximal_solution(system, W, w_max_component) == (INF,)


def test_pinned_unreachable_target():
    system = LinearSystem(columns=((5,),), target=(19,))
    assert maximal_solution(system, W, w_max_component) is None
    assert w_solutions_exhaustive(((5,),), (19,), ORACLE_VALUES) == []


def test_all_unconstrained_coordinates():
    # a column below the target everywhere leaves its coordinate free; the
    # candidate keeps it at the top element
    system = LinearSystem(columns=((5,), (19,)), target=(19,))
    cand = max_candidate(system, W, w_max_component)
    assert cand == (INF, INF)


def test_solver_against_exhaustive_oracle():
    rng = Random(0x50F7)
    values_pool = list(range(0, 201)) + [INF]
    checked_solvable = 0
    checked_empty = 0
    for _ in range(250):
        k = rng.randrange(1, 3)
        length = rng.randrange(1, 4)
        columns = tuple(
            tuple(rng.choice(values_pool) for _ in range(length)) for _ in range(k)
        )
        target = tuple(rng.choice(values_pool) for _ in range(length))
        system = LinearSystem(columns, target)
        got = maximal_solution(system, W, w_max_component)
        enum = w_solutions_exhaustive(columns, target, ORACLE_VALUES)
        if got is None:
            assert enum == []
            checked_empty += 1
        else:
            assert enum != []
            assert w_dot(got, columns, length) == target
            # coordinatewise maximality against every enumerated solution
            for other in enum:
                for z_other, z_got in zip(other, got):
                    assert w_leq(z_other, z_got)
            checked_solvable += 1
    assert checked_solvable > 20 and checked_empty > 20


def test_completeness_on_honest_combinations():
    rng = Random(0x50F8)
    values_pool = [0, 3, 19, 23, 28, 41, 200, 10**6, INF]
    for _ in range(200):
        k = rng.randrange(1, 5)
        length = rng.randrange(1, 5)
        columns = tuple(
            tuple(rng.choice(values_pool) for _ in range(length)) for _ in range(k)
        )
        secret = tuple(rng.choice(values_pool) for _ in range(k))
        target = w_dot(secret, columns, length)
        system = LinearSystem(columns, target)
        got = maximal_solution(system, W, w_max_component)
        assert got is not None
        assert verify(system, got, W)
        # the secret is dominated by the maximal solution
        for z_secret, z_got in zip(secret, got):
            assert w_leq(z_secret, z_got)


def test_bumping_any_coordinate_breaks_verification():
    # any strictly greater value planted into one coordinate of the maximal
    # solution can no longer verify, else maximality would be violated
    rng = Random(0x50F9)
    values_pool = [0, 3, 19, 28, 200, INF]
    bumps = [1, 9, 37, 95, 10**6, INF]
    tested = 0
    for _ in range(150):
        k = rng.randrange(1, 4)
        length = rng.randrange(1, 4)
        columns = tuple(
            tuple(rng.choice(values_pool) for _ in range(length)) for _ in range(k)
        )
        secret = tuple(rng.choice(values_pool) for _ in range(k))
        target = w_dot(secret, columns, length)
        system = LinearSystem(columns, target)
        got = maximal_solution(system, W, w_max_component)
        assert got is not None
        for idx in range(k):
            for bump in bumps:
                if w_leq(got[idx], bump) and bump != got[idx]:
                    z = got[:idx] + (bump,) + got[idx + 1 :]
                    assert not verify(system, z, W)
                    tested += 1
    assert tested > 100


def test_verify_contract():
    system = LinearSystem(columns=((19, 5), (5, 19)), target=(19, 19))
    assert verify(system, (INF, INF), W)
    assert not verify(system, (0, 0), W)
    with pytest.raises(ValueError):
        verify(system, (INF,), W)


def test_system_validation():
    with pytest.raises(ValueError):
        LinearSystem(columns=(), target=(1,))
    with pytest.raises(ValueError):
        LinearSystem(columns=((1, 2),), target=(1,))
    with pytest.raises(ValueError):
        LinearSystem(columns=((1,),), target=())
    system = LinearSystem(columns=((1, 2), (3, 4)), target=(1, 2))
    assert system.unknowns == 2
    assert system.components == 2


def test_requires_order_on_semiring():
    from twoside.semiring import Semiring

    orderless = Semiring("orderless", add=max, mul=min, zero=0, one=9)
    system = LinearSystem(columns=((1,),), target=(1,))
    with pytest.raises(ValueError):
        max_candidate(system, orderless, lambda h, y: y)
