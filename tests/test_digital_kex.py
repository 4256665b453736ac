"""Circulant key exchange over the digit semiring, honest runs and the attack."""

import sys
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoside import digital, digital_kex, gf
from twoside.digital import (
    INF,
    MAX_FINITE,
    W,
    value_from_json,
    value_to_json,
    values_from_json,
    w_leq,
    w_max_component,
)
from twoside.digital_kex import (
    MAX_N,
    DigitalParams,
    _chain,
    _sandwich,
    attack,
    attack_columns,
    keygen,
    keypair_from_circulants,
    params_from_json,
    params_to_json,
    random_params,
    recover_shared_key,
    replay,
    run_exchange,
    sample_circulant,
    shared_key,
    solve,
    transcript_from_json,
    transcript_to_json,
)
from twoside.errors import AttackError
from twoside.exchange import Transcript
from twoside.solver import LinearSystem, maximal_solution
from twoside.matrices import (
    Circulant,
    SemiringMatrix,
    circulant_generators,
    flatten_two_sided,
    circulant_from_json,
    circulant_to_json,
    matrix_from_json,
    matrix_to_json,
)

from helpers import (
    BOOL_OR_AND,
    dense_replay,
    identity,
    mat_rows,
    naive_mat_mul,
    random_digit_tie_pair,
    sample_circulant_with_inf,
    sample_matrix_with_inf,
    w_dot,
    zeros,
)


def identity_circulant(n):
    return Circulant(W, (INF,) + (0,) * (n - 1))


# -- keygen -----------------------------------------------------------------------


def test_keygen_1x1_pk_is_a_selection():
    rng = Random(3)
    params = random_params(1, rng)
    pair = keygen(params, rng)
    m = params.matrix.rows[0][0]
    assert pair.pk.rows[0][0] in {pair.left.col[0], m, pair.right.col[0]}


def test_identity_keys_reveal_m():
    rng = Random(4)
    params = random_params(3, rng)
    e = identity_circulant(3)
    pair = keypair_from_circulants(params, e, e)
    assert pair.pk == params.matrix


def test_keygen_deterministic_per_seed():
    params = random_params(4, Random(9))
    a = keygen(params, Random(1234))
    b = keygen(params, Random(1234))
    assert a == b


def test_sample_circulant_entries_in_bound():
    c = sample_circulant(5, 50, Random(2))
    assert all(0 <= v <= 50 for v in c.col)
    c_inf = sample_circulant_with_inf(200, 50, Random(2), 0.5)
    assert any(v == INF for v in c_inf.col)


# -- honest exchange -----------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
def test_exchange_keys_agree(n):
    rng = Random(100 + n)
    for _ in range(5):
        tr = run_exchange(random_params(n, rng), rng)
        assert tr.keys_agree
        assert tr.shared_key == shared_key(tr.bob, tr.alice.pk)


def test_identity_keys_on_one_side_reveal_peer_pk():
    rng = Random(7)
    params = random_params(3, rng)
    e = identity_circulant(3)
    alice = keypair_from_circulants(params, e, e)
    bob = keygen(params, rng)
    assert shared_key(alice, bob.pk) == bob.pk


def test_shared_key_equals_five_factor_product():
    rng = Random(8)
    params = random_params(3, rng)
    alice = keygen(params, rng)
    bob = keygen(params, rng)
    # direct left-to-right product B1 * A1 * M * A2 * B2 with the oracle
    chain = mat_rows(bob.left.expand())
    for factor in (alice.left.expand(), params.matrix, alice.right.expand(),
                   bob.right.expand()):
        chain = naive_mat_mul(W, chain, mat_rows(factor))
    assert shared_key(bob, alice.pk) == SemiringMatrix(W, chain)


def test_exchange_with_infinite_entries_allowed():
    rng = Random(11)
    for _ in range(10):
        params = random_params(3, rng)
        left = sample_circulant_with_inf(3, params.entry_bound, rng, 0.3)
        right = sample_circulant_with_inf(3, params.entry_bound, rng, 0.3)
        alice = keypair_from_circulants(params, left, right)
        bob = keygen(params, rng)
        k_a = shared_key(alice, bob.pk)
        k_b = shared_key(bob, alice.pk)
        assert k_a == k_b
        assert attack(params, alice.pk, bob.pk) == k_a


# -- the attack -----------------------------------------------------------------------


def test_attack_on_identity_alice_returns_bob_pk():
    rng = Random(12)
    params = random_params(3, rng)
    e = identity_circulant(3)
    alice = keypair_from_circulants(params, e, e)
    bob = keygen(params, rng)
    honest = shared_key(alice, bob.pk)
    assert honest == bob.pk
    assert attack(params, alice.pk, bob.pk) == bob.pk


def test_attack_pinned_2x2_instance():
    params = DigitalParams(2, SemiringMatrix(W, [[19, 5], [7, 28]]))
    rng = Random(13)
    for _ in range(20):
        alice = keygen(params, rng)
        bob = keygen(params, rng)
        honest = shared_key(alice, bob.pk)
        assert honest == shared_key(bob, alice.pk)
        assert attack(params, alice.pk, bob.pk) == honest


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
def test_attack_recovers_key(n):
    rng = Random(200 + n)
    for _ in range(8):
        params = random_params(n, rng)
        tr = run_exchange(params, rng)
        assert attack(params, tr.alice.pk, tr.bob.pk) == tr.shared_key
        assert attack(params, tr.bob.pk, tr.alice.pk) == tr.shared_key


def test_attack_system_shape():
    params = random_params(4, Random(14))
    columns, pairs, gens = attack_columns(params)
    assert len(columns) == 16
    assert len(pairs) == 16
    assert all(len(col) == 16 for col in columns)


def w_values(data):
    """A value strategy weighted towards the edge cases of W's order.

    0 (additive identity), INF (multiplicative identity), one pair of
    distinct finite values with equal digit sums, shared by every value of
    the example so that ties meet, and finite values up to MAX_FINITE.
    """
    a, b = random_digit_tie_pair(Random(data.draw(st.integers(0, 2**32))))
    return st.one_of(st.sampled_from([0, INF, a, b]), st.integers(0, MAX_FINITE))


def draw_matrix(data, values, n):
    row = st.lists(values, min_size=n, max_size=n)
    return SemiringMatrix(W, data.draw(st.lists(row, min_size=n, max_size=n)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_attack_columns_match_dense_products(data):
    n = data.draw(st.integers(1, 9), label="n")
    params = DigitalParams(n, draw_matrix(data, w_values(data), n))
    gens = circulant_generators(W, n)
    columns, pairs = flatten_two_sided(params.matrix, gens, gens)
    assert attack_columns(params) == (columns, pairs, gens)


def draw_circulant(data, values, n):
    return Circulant(W, data.draw(st.lists(values, min_size=n, max_size=n)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_sandwich_matches_dense_products(data):
    n = data.draw(st.integers(1, 8), label="n")
    values = st.one_of(st.just(INF), w_values(data))  # INF is the unit: weight it
    left, right = draw_circulant(data, values, n), draw_circulant(data, values, n)
    x = draw_matrix(data, values, n)
    dense = left.expand() @ x @ right.expand()
    assert _sandwich(left, x, right) == dense
    l_x = naive_mat_mul(W, mat_rows(left.expand()), mat_rows(x))
    assert mat_rows(dense) == naive_mat_mul(W, l_x, mat_rows(right.expand()))


@pytest.mark.parametrize("n", [1, 3, 8])
def test_exchange_runs_without_matrix_products(n, monkeypatch):
    rng = Random(40 + n)
    params = random_params(n, rng)

    def fail(*args):
        raise AssertionError("the exchange formed a SemiringMatrix product")

    with monkeypatch.context() as patched:
        patched.setattr(SemiringMatrix, "__matmul__", fail)
        tr = run_exchange(params, rng)
    assert tr.keys_agree
    for own, other in ((tr.alice, tr.bob), (tr.bob, tr.alice)):
        assert own.pk == own.left.expand() @ params.matrix @ own.right.expand()
        assert shared_key(own, other.pk) == (
            own.left.expand() @ other.pk @ own.right.expand()
        )


def test_sandwich_keeps_the_matmul_errors():
    circ3 = identity_circulant(3)
    x3 = identity(W, 3)
    with pytest.raises(ValueError, match="dimension mismatch"):
        _sandwich(identity_circulant(4), x3, circ3)
    with pytest.raises(ValueError, match="dimension mismatch"):
        _sandwich(circ3, x3, identity_circulant(2))
    with pytest.raises(ValueError, match="semiring mismatch"):
        _sandwich(circ3, identity(BOOL_OR_AND, 3), circ3)
    with pytest.raises(ValueError, match="semiring mismatch"):
        _sandwich(circ3, x3, Circulant(BOOL_OR_AND, (True, False, False)))
    pair = keygen(random_params(3, Random(5)), Random(6))
    with pytest.raises(ValueError, match="dimension mismatch"):
        shared_key(pair, identity(W, 4))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_recover_shared_key_matches_dense_replay(data):
    n = data.draw(st.integers(1, 7), label="n")
    params = random_params(n, Random(data.draw(st.integers(0, 2**32))))
    values = w_values(data)
    other_pk = draw_matrix(data, values, n)
    solution = tuple(data.draw(st.lists(values, min_size=n * n, max_size=n * n)))
    _, pairs, gens = attack_columns(params)
    assert recover_shared_key(params, solution, other_pk, pairs, gens) == dense_replay(
        solution, other_pk, pairs, gens
    )


def tied_values(data):
    """Values up to a small entry bound (1, 2 or 9), or INF: few ranks, so
    many entries of M and of the target tie in W's order."""
    bound = data.draw(st.sampled_from([1, 2, 9]), label="bound")
    return st.one_of(st.integers(0, bound), st.just(INF))


def draw_solve_matrix(data, values, n):
    """A drawn matrix, or all 0 or all INF: solve's sweeps exit early there."""
    fill = data.draw(st.sampled_from([None, 0, INF]), label="fill")
    return draw_matrix(data, values, n) if fill is None else SemiringMatrix(W, [[fill] * n] * n)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_solve_matches_maximal_solution(data):
    n = data.draw(st.integers(1, 12), label="n")
    values = data.draw(st.sampled_from([w_values, tied_values]), label="values")(data)
    params = DigitalParams(n, draw_solve_matrix(data, values, n))
    columns = attack_columns(params)[0]
    inside = data.draw(st.booleans(), label="inside")
    if inside:
        # a combination of the columns: some solution exists, so the maximal one does
        zs = data.draw(st.lists(values, min_size=n * n, max_size=n * n))
        flat = w_dot(zs, columns, n * n)
        target = SemiringMatrix(W, [flat[r * n : (r + 1) * n] for r in range(n)])
    else:
        target = draw_solve_matrix(data, values, n)
    expected = maximal_solution(LinearSystem(columns, target.flat()), W, w_max_component)
    assert solve(params, target) == expected
    if inside:
        assert expected is not None


def test_solve_rejects_target_of_other_size():
    params = random_params(3, Random(16))
    with pytest.raises(ValueError, match="2 x 2, not 3 x 3"):
        solve(params, zeros(W, 2))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_chain_ranks_agree_with_w_leq(data):
    given_values = data.draw(st.lists(w_values(data), min_size=1, max_size=12))
    values, rank = _chain(given_values)
    assert set(values) == set(given_values) | {0, INF}
    assert rank[0] == 0 and rank[INF] == len(values) - 1
    for a in values:
        assert values[rank[a]] == a
        for b in values:
            assert (rank[a] <= rank[b]) == w_leq(a, b), (a, b)


@pytest.mark.parametrize("n", [16, MAX_N])
def test_replay_matches_w_dot_at_large_n(n):
    # replay sums n row-left copies per row rotation: pin it where n is largest
    rng = Random(60 + n)
    params = random_params(n, rng)

    def draw():
        return rng.choice((0, INF, rng.randrange(10), rng.randrange(MAX_FINITE + 1)))

    other_pk = SemiringMatrix(W, [[draw() for _ in range(n)] for _ in range(n)])
    solution = tuple(draw() for _ in range(n * n))
    columns = attack_columns(DigitalParams(n, other_pk))[0]
    assert replay(params, solution, other_pk).flat() == w_dot(solution, columns, n * n)


@pytest.mark.parametrize("n", [1, 5, 12])
def test_replay_moves_at_most_2n_times(n, monkeypatch):
    rng = Random(70 + n)
    params = random_params(n, rng)
    tr = run_exchange(params, rng)
    solution = solve(params, tr.alice.pk)
    moves = []

    def counting_mover(*shape):
        move = gf.mover(*shape)

        def counted(*args):
            moves.append(args)
            return move(*args)

        return counted

    monkeypatch.setattr(digital_kex, "mover", counting_mover)
    assert replay(params, solution, tr.bob.pk) == tr.shared_key
    assert 0 < len(moves) <= 2 * n


@pytest.mark.parametrize("n", [1, 2, 5])
def test_recover_shared_key_all_zero_solution(n):
    params = random_params(n, Random(30 + n))
    _, pairs, gens = attack_columns(params)
    other_pk = sample_circulant_with_inf(n, 50, Random(n), 0.5).expand()
    solution = (0,) * (n * n)
    assert recover_shared_key(params, solution, other_pk, pairs, gens) == zeros(W, n)
    assert dense_replay(solution, other_pk, pairs, gens) == zeros(W, n)


# -- the packed rank lanes at their edges -------------------------------------------


def test_widest_chain_fits_a_15_bit_lane():
    # the widest chain is solve's and recover_shared_key's: 2 n^2 values plus 0 and INF
    assert 2 * MAX_N**2 + 2 < 1 << 15


def test_chain_longer_than_a_lane_raises():
    assert len(_chain(range((1 << 15) - 1))[0]) == 1 << 15  # plus INF: fits
    with pytest.raises(ValueError, match="15-bit lanes"):
        _chain(range(1 << 15))


def test_warm_chain_runs_no_python_frame_per_value():
    # the sort reads W's order from order_key's cache: a warm chain enters
    # _chain (and its comprehension) only, not one frame per value
    rng = Random(80)
    params = random_params(8, rng)
    pair = keygen(params, rng)
    groups = (pair.left.col, pair.right.col, params.matrix.flat())
    _chain(*groups)
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        values, _ = _chain(*groups)
    finally:
        sys.setprofile(None)
    assert len(values) > 40
    assert len(calls) < 8, calls


def test_exchange_and_attack_at_the_size_cap():
    rng = Random(50)
    params = random_params(MAX_N, rng)
    tr = run_exchange(params, rng)
    for own, other in ((tr.alice, tr.bob), (tr.bob, tr.alice)):
        assert own.pk == own.left.expand() @ params.matrix @ own.right.expand()
        assert shared_key(own, other.pk) == (
            own.left.expand() @ other.pk @ own.right.expand()
        )
    assert tr.keys_agree
    assert attack(params, tr.alice.pk, tr.bob.pk) == tr.shared_key


@pytest.mark.parametrize(
    "n,honest",
    [
        pytest.param(16, False, id="False"),
        pytest.param(16, True, id="True"),
        pytest.param(MAX_N, True, id="cap-True"),  # maximal_solution ~1 s
    ],
)
def test_solve_on_all_distinct_values_matches_maximal_solution(n, honest):
    rng = Random(51)
    values = rng.sample(range(10**18), 2 * n * n)
    rows = [values[r * n : (r + 1) * n] for r in range(2 * n)]
    params = DigitalParams(n, SemiringMatrix(W, rows[:n]))
    # all-distinct target: the widest chain; an honest key: a target in the span
    target = run_exchange(params, rng).alice.pk if honest else SemiringMatrix(W, rows[n:])
    system = LinearSystem(attack_columns(params)[0], target.flat())
    expected = maximal_solution(system, W, w_max_component)
    assert solve(params, target) == expected
    assert (expected is not None) == honest


def test_solve_hits_honest_targets_at_every_n_without_moving_lanes(monkeypatch):
    # the doubled grid's window shifts at every size, odd n and the cap
    # included; solve shifts its bit grid and never calls gf.mover
    rng = Random(52)
    cases = []
    for n in range(1, MAX_N + 1):
        params = random_params(n, rng)
        cases.append((params, run_exchange(params, rng).alice.pk))

    def no_mover(*shape):
        raise AssertionError(f"solve called mover{shape}")

    monkeypatch.setattr(digital_kex, "mover", no_mover)
    solutions = [solve(params, target) for params, target in cases]
    monkeypatch.undo()
    for (params, target), zs in zip(cases, solutions):
        n = params.n
        assert w_dot(zs, attack_columns(params)[0], n * n) == target.flat(), n


def test_attack_rejects_unreachable_public_matrix():
    rng = Random(15)
    params = random_params(3, rng)
    tr = run_exchange(params, rng)
    # an entry with a digit sum beyond anything in the product span cannot be
    # expressed by any combination
    rows = [list(row) for row in tr.alice.pk.rows]
    rows[0][0] = int("9" * 18)
    corrupted = SemiringMatrix(W, rows)
    with pytest.raises(AttackError):
        attack(params, corrupted, tr.bob.pk)


def test_attack_rejects_other_pk_of_wrong_size():
    rng = Random(17)
    params3 = random_params(3, rng)
    tr3 = run_exchange(params3, rng)
    tr4 = run_exchange(random_params(4, rng), rng)
    with pytest.raises(ValueError, match="4 x 4, not 3 x 3"):
        attack(params3, tr3.alice.pk, tr4.bob.pk)


def test_recover_shared_key_rejects_other_pk_of_wrong_size():
    params = random_params(3, Random(18))
    _, pairs, gens = attack_columns(params)
    with pytest.raises(ValueError, match="4 x 4, not 3 x 3"):
        recover_shared_key(params, (INF,) * 9, zeros(W, 4), pairs, gens)


@pytest.mark.parametrize("size", [0, 8, 10])
def test_replay_rejects_solution_of_wrong_length(size):
    # n = 3 wants 9 values: 8 and 10 once returned a key, and () a wrong one
    params = random_params(3, Random(18))
    tr = run_exchange(params, Random(19))
    with pytest.raises(ValueError, match=f"solution has {size} values, not 9"):
        replay(params, (INF,) * size, tr.bob.pk)


# -- validation and serialization -----------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        DigitalParams(0, SemiringMatrix(W, [[1]]))
    with pytest.raises(ValueError):
        DigitalParams(2, SemiringMatrix(W, [[1]]))
    with pytest.raises(ValueError):
        DigitalParams(1, SemiringMatrix(W, [[1]]), entry_bound=0)
    assert DigitalParams(MAX_N, zeros(W, MAX_N)).n == MAX_N == 32
    with pytest.raises(ValueError, match=r"n must be in 1\.\.32"):
        DigitalParams(MAX_N + 1, zeros(W, MAX_N + 1))


def test_params_json_round_trip():
    params = random_params(3, Random(21))
    assert params_from_json(params_to_json(params)) == params


def test_transcript_json_round_trip_public_only():
    rng = Random(22)
    params = random_params(3, rng)
    tr = run_exchange(params, rng)
    obj = transcript_to_json(tr)
    assert "secrets" not in obj
    back = transcript_from_json(obj)
    assert back.params == tr.params
    assert back.alice.pk == tr.alice.pk
    assert back.bob.pk == tr.bob.pk
    assert back.keys_agree


def test_transcript_json_round_trip_with_secrets():
    rng = Random(23)
    params = random_params(3, rng)
    tr = run_exchange(params, rng)
    obj = transcript_to_json(tr, include_secrets=True)
    assert "secrets" in obj
    back = transcript_from_json(obj)
    assert back == tr


@pytest.mark.parametrize(
    "path",
    [
        ("alice_public",),
        ("bob_public",),
        ("secrets", "alice_left"),
        ("secrets", "bob_right"),
        ("secrets", "shared_key"),
    ],
)
def test_transcript_from_json_rejects_entries_of_wrong_size(path):
    rng = Random(24)
    tr = run_exchange(random_params(3, rng), rng)
    obj = transcript_to_json(tr, include_secrets=True)
    other = run_exchange(random_params(4, rng), rng)
    if path[-1] in ("alice_left", "bob_right"):
        wrong = circulant_to_json(other.alice.left, value_to_json)
    else:
        wrong = matrix_to_json(other.bob.pk, value_to_json)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = wrong
    with pytest.raises(ValueError, match="not 3 x 3"):
        transcript_from_json(obj)


def json_entries(data):
    """Flat JSON entries for W's decoders: all valid ints (the one-pass
    path), valid ints and "inf", or a mix with what value_from_json rejects."""
    valid = st.one_of(st.integers(0, MAX_FINITE), st.just(MAX_FINITE), st.just(0))
    bad = st.sampled_from([MAX_FINITE + 1, -1, True, False, 1.0, "INF", None, [], [1], [[0]]])
    kind = data.draw(st.sampled_from(["int", "inf", "mixed"]), label="kind")
    if kind == "inf":
        valid = st.one_of(valid, st.just("inf"))
    return valid if kind != "mixed" else st.one_of(valid, bad)


def outcome(read):
    """What read() returns, or the text of the ValueError it raises."""
    try:
        return read()
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_pass_decoders_match_entry_by_entry_decoding(data):
    n = data.draw(st.integers(1, 5), label="n")
    entries = json_entries(data)
    flat = data.draw(st.lists(entries, min_size=n * n, max_size=n * n), label="flat")
    rows = [flat[r * n : (r + 1) * n] for r in range(n)]
    col = flat[:n]
    assert outcome(lambda: values_from_json(flat)) == outcome(
        lambda: [value_from_json(v) for v in flat]
    )
    assert outcome(lambda: matrix_from_json({"n": n, "rows": rows}, W, values_from_json)) == (
        outcome(lambda: SemiringMatrix(W, [[value_from_json(v) for v in row] for row in rows]))
    )
    assert outcome(lambda: circulant_from_json({"n": n, "c": col}, W, values_from_json)) == (
        outcome(lambda: Circulant(W, [value_from_json(v) for v in col]))
    )


def test_transcript_with_inf_entries_decodes_entry_by_entry_and_attacks(monkeypatch):
    rng = Random(26)
    n, bound = 6, 1000
    params = DigitalParams(n, sample_matrix_with_inf(n, bound, rng, 0.3), bound)

    def keys():
        circ = [sample_circulant_with_inf(n, bound, rng, 0.3) for _ in range(2)]
        return keypair_from_circulants(params, *circ)

    alice, bob = keys(), keys()
    key = shared_key(alice, bob.pk)
    tr = Transcript(params, alice, bob, key, key == shared_key(bob, alice.pk))
    obj = transcript_to_json(tr, include_secrets=True)
    assert "inf" in obj["params"]["matrix"]["rows"][0] + obj["alice_public"]["rows"][0]
    decoded = []
    real = digital.value_from_json
    monkeypatch.setattr(digital, "value_from_json", lambda v: decoded.append(v) or real(v))
    back = transcript_from_json(obj)
    assert "inf" in decoded
    assert back == tr and tr.keys_agree
    assert attack(back.params, back.alice.pk, back.bob.pk) == key
