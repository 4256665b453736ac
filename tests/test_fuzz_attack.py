"""Fuzzed transcripts through `twoside attack`: every input ends in a documented exit code.

Random JSON documents and mutated honest transcripts of both schemes
(truncated lists, type-swapped fields, huge ints, nested junk, deleted keys)
are written to a file and attacked in-process, some with a --dump-system
path that cannot be written.  The attack must return, or
exit through argparse, with 0, 2, 3 or 4; any other exception fails.
"""

import contextlib
import io
import json
import os
import tempfile
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from twoside import cli, digital_kex, twisted_kex

EXIT_CODES = {0, 2, 3, 4}


def _honest_transcripts():
    rng = Random(2024)
    out = []
    for secrets in (False, True):
        params = digital_kex.random_params(3, rng, 999)
        tr = digital_kex.run_exchange(params, rng)
        out.append(digital_kex.transcript_to_json(tr, include_secrets=secrets))
        for shape in ((2, 2, 3), (3, 1, 4)):
            params = twisted_kex.random_params(*shape, rng)
            tr = twisted_kex.run_exchange(params, rng)
            out.append(twisted_kex.transcript_to_json(tr, include_secrets=secrets))
    return out


HONEST = _honest_transcripts()

# small ints keep every mutated shape cheap to attack; the huge ones hit the caps
INTS = st.integers(-3, 12) | st.sampled_from([2**31, 2**63, 2**64, 2**70, -(2**70), 10**30])
SCALARS = (
    st.none()
    | st.booleans()
    | INTS
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
    | st.sampled_from(["inf", "digital", "twisted"])
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for idx, value in enumerate(obj):
            yield from _paths(value, prefix + (idx,))


def _swapped(value):
    """The same content under another JSON type."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return [str(value), float(value), value != 0][value % 3]
    if isinstance(value, list):
        return {str(i): v for i, v in enumerate(value)}
    if isinstance(value, dict):
        return list(value.values())
    if isinstance(value, str):
        return [value]
    return "x"


@st.composite
def mutated_transcripts(draw):
    obj = json.loads(json.dumps(draw(st.sampled_from(HONEST))))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(obj))))
        if not path:
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        value = parent[key]
        kind = draw(st.sampled_from(["replace", "truncate", "swap", "huge", "nest", "delete"]))
        if kind == "delete":
            del parent[key]
            continue
        if kind == "replace":
            new = draw(JSON)
        elif kind == "truncate" and isinstance(value, (list, str)) and value:
            new = value[: draw(st.integers(0, len(value) - 1))]
        elif kind == "swap":
            new = _swapped(value)
        elif kind == "huge":
            new = draw(st.sampled_from([2**64, 2**70, -(2**70), 10**30, -1]))
        else:
            new = value
            for _ in range(draw(st.integers(1, 40))):
                new = [new]
        parent[key] = new
    return obj


# --dump-system targets, relative to the transcript's directory: a new file,
# the directory itself and a file in a missing directory (both unwritable)
DUMP_TARGETS = ("system.json", ".", os.path.join("missing", "system.json"))


def attack_exit_code(text: str, dump=None) -> int:
    """Exit code of `twoside attack` on a file holding text, run in-process."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.json")
        with open(path, "w") as fh:
            fh.write(text)
        argv = ["attack", path]
        if dump is not None:
            argv += ["--dump-system", os.path.join(tmp, dump)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                return cli.main(argv)
            except SystemExit as exc:
                return exc.code


@settings(max_examples=80, deadline=None)
@given(mutated_transcripts())
def test_attack_on_mutated_transcript_exits_with_documented_code(obj):
    assert attack_exit_code(json.dumps(obj)) in EXIT_CODES


@settings(max_examples=50, deadline=None)
@given(
    st.one_of(
        JSON,
        st.fixed_dictionaries(
            {"scheme": st.sampled_from(["digital", "twisted"])},
            optional={"params": JSON, "alice_public": JSON, "bob_public": JSON, "keys_agree": JSON},
        ),
    )
)
def test_attack_on_random_json_exits_with_documented_code(obj):
    assert attack_exit_code(json.dumps(obj)) in EXIT_CODES


def test_honest_transcripts_attack_with_exit_0():
    assert [attack_exit_code(json.dumps(obj)) for obj in HONEST] == [0] * len(HONEST)


@settings(max_examples=40, deadline=None)
@given(mutated_transcripts(), st.sampled_from(DUMP_TARGETS))
def test_attack_with_dump_system_exits_with_documented_code(obj, dump):
    assert attack_exit_code(json.dumps(obj), dump) in EXIT_CODES


def test_honest_transcripts_with_unwritable_dump_system_exit_2():
    for dump in DUMP_TARGETS[1:]:
        assert [attack_exit_code(json.dumps(obj), dump) for obj in HONEST] == [2] * len(HONEST)
