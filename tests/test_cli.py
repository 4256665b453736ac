"""End-to-end CLI behavior through subprocesses: exit codes, files, formats."""

import csv
import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env():
    """The parent's environment with this checkout's ``src`` first on PYTHONPATH.

    The child runs in a temporary directory, so inherited relative entries
    (``PYTHONPATH=src``) are made absolute against the parent's directory.
    """
    inherited = [
        os.path.abspath(p)
        for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
        if p
    ]
    return {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), *inherited])}


def run_cli(*args, cwd, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "twoside", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=child_env(),
        timeout=timeout,
    )


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# -- exchange -----------------------------------------------------------------


def test_exchange_digital(tmp_path):
    out = tmp_path / "t.json"
    res = run_cli(
        "exchange", "--scheme", "digital", "--n", "3", "--seed", "7",
        "--out", str(out), cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    assert "keys_agree: true" in res.stdout
    assert "seed: 7" in res.stdout
    obj = read_json(out)
    assert obj["scheme"] == "digital"
    assert obj["keys_agree"] is True
    assert obj["seed"] == 7
    assert "secrets" not in obj


def test_exchange_twisted(tmp_path):
    out = tmp_path / "t.json"
    res = run_cli(
        "exchange", "--scheme", "twisted", "--p", "2", "--fext", "2", "--m", "3",
        "--seed", "7", "--out", str(out), cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    obj = read_json(out)
    assert obj["scheme"] == "twisted"
    assert obj["keys_agree"] is True


def test_exchange_rejects_composite_p(tmp_path):
    res = run_cli(
        "exchange", "--scheme", "twisted", "--p", "4", "--fext", "2", "--m", "3",
        cwd=tmp_path,
    )
    assert res.returncode == 2, res.stderr
    assert "p must be prime" in res.stderr


def test_exchange_rejects_n_over_cap(tmp_path):
    res = run_cli("exchange", "--n", "33", cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert "--n must be in 1..32" in res.stderr
    assert "Traceback" not in res.stderr


def test_exchange_rejects_huge_prime_promptly(tmp_path):
    # 2^61 - 1 is prime; trial division of it would run for hours
    res = run_cli(
        "exchange", "--scheme", "twisted", "--p", str(2**61 - 1), "--fext", "1",
        "--m", "3", cwd=tmp_path, timeout=30,
    )
    assert res.returncode == 2, res.stderr
    assert "below 2^16" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "flags",
    [
        ["--n", "2,3"],
        ["--scheme", "twisted", "--p", "2,3", "--fext", "2", "--m", "3"],
    ],
)
def test_exchange_rejects_more_than_one_combo(tmp_path, flags):
    res = run_cli("exchange", *flags, "--seed", "1", "--out", "t.json", cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert "exchange takes a single value of each size option" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "t.json").exists()


def test_exchange_seed_echoed_without_flag(tmp_path):
    res = run_cli("exchange", "--n", "2", "--out", "t.json", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    seed_lines = [l for l in res.stdout.splitlines() if l.startswith("seed: ")]
    assert len(seed_lines) == 1
    int(seed_lines[0].split()[1])  # parses as an integer


def test_exchange_replay_same_seed(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        res = run_cli(
            "exchange", "--n", "3", "--seed", "42", "--out", str(out),
            "--insecure-dump", cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
    assert a.read_text() == b.read_text()


def test_insecure_dump_gates_secrets(tmp_path):
    out = tmp_path / "t.json"
    res = run_cli(
        "exchange", "--n", "2", "--seed", "1", "--out", str(out),
        "--insecure-dump", cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    obj = read_json(out)
    assert "secrets" in obj
    assert "shared_key" in obj["secrets"]


# -- attack -------------------------------------------------------------------


@pytest.mark.parametrize(
    "scheme,flags",
    [
        ("digital", ["--n", "3"]),
        ("twisted", ["--p", "2", "--fext", "2", "--m", "3"]),
        ("twisted", ["--p", "5", "--fext", "1", "--m", "6"]),
    ],
)
def test_attack_on_honest_transcript(tmp_path, scheme, flags):
    out = tmp_path / "t.json"
    res = run_cli(
        "exchange", "--scheme", scheme, *flags, "--seed", "5", "--out", str(out),
        "--insecure-dump", cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    res = run_cli("attack", str(out), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["attack_key_matches"] is True
    assert report["reference_key_present"] is True
    assert report["unknowns"] > 0 and report["equations"] > 0
    assert '"attack_key_matches": true' in res.stdout


def test_attack_on_stripped_transcript_uses_public_data_only(tmp_path):
    out = tmp_path / "t.json"
    res = run_cli(
        "exchange", "--n", "3", "--seed", "6", "--out", str(out), cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    obj = read_json(out)
    assert "secrets" not in obj  # nothing private in the file at all
    res = run_cli("attack", str(out), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["reference_key_present"] is False
    assert report["recovered_keys_agree"] is True


def test_attack_exit_4_on_corrupted_public_key(tmp_path):
    out = tmp_path / "t.json"
    res = run_cli(
        "exchange", "--n", "3", "--seed", "8", "--out", str(out), cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    obj = read_json(out)
    obj["alice_public"]["rows"][0][0] = int("9" * 18)
    out.write_text(json.dumps(obj))
    res = run_cli("attack", str(out), cwd=tmp_path)
    assert res.returncode == 4, res.stderr


def test_attack_exit_3_on_tampered_reference_key(tmp_path):
    out = tmp_path / "t.json"
    res = run_cli(
        "exchange", "--n", "3", "--seed", "9", "--out", str(out),
        "--insecure-dump", cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    obj = read_json(out)
    rows = obj["secrets"]["shared_key"]["rows"]
    rows[0][0] = 123456 if rows[0][0] != 123456 else 654321
    out.write_text(json.dumps(obj))
    res = run_cli("attack", str(out), cwd=tmp_path)
    assert res.returncode == 3, res.stderr
    report = json.loads(res.stdout)
    assert report["attack_key_matches"] is False


def test_attack_dump_system_format(tmp_path):
    out = tmp_path / "t.json"
    dump = tmp_path / "system.json"
    res = run_cli("exchange", "--n", "2", "--seed", "3", "--out", str(out), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    res = run_cli("attack", str(out), "--dump-system", str(dump), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    system = read_json(dump)
    assert set(system) == {"columns", "target"}
    assert len(system["columns"]) == 4
    assert all(len(col) == len(system["target"]) == 4 for col in system["columns"])


def test_digital_attack_and_bench_never_build_generators(tmp_path, monkeypatch, capsys):
    # the unit circulants are only part of attack_columns' paper-shaped output
    monkeypatch.syspath_prepend(str(SRC))
    from random import Random

    from twoside import cli, digital_kex

    out = tmp_path / "t.json"
    assert cli.main(["exchange", "--n", "4", "--seed", "2", "--insecure-dump", "--out", str(out)]) == 0
    params = digital_kex.random_params(4, Random(2))
    tr = digital_kex.run_exchange(params, Random(3))

    def boom(*args):
        raise AssertionError("circulant_generators called")

    monkeypatch.setattr(digital_kex, "circulant_generators", boom)
    assert digital_kex.attack(params, tr.alice.pk, tr.bob.pk) == tr.shared_key
    assert cli.main(["attack", str(out)]) == 0
    bench = tmp_path / "bench.csv"
    assert cli.main(["bench", "--n", "3", "--trials", "2", "--seed", "1", "--out", str(bench)]) == 0
    assert "all_success: true" in capsys.readouterr().out


def test_attack_unreadable_file(tmp_path):
    res = run_cli("attack", "no-such-file.json", cwd=tmp_path)
    assert res.returncode == 2, res.stderr


def test_attack_malformed_transcript(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"scheme": "digital"}')
    res = run_cli("attack", str(bad), cwd=tmp_path)
    assert res.returncode == 2, res.stderr


# the last two carry an unhashable scheme, which must not reach a dict lookup
@pytest.mark.parametrize("text", ["[]", '"x"', "42", '{"scheme": []}', '{"scheme": {}}'])
def test_attack_rejects_non_object_transcript(tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    res = run_cli("attack", str(bad), cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr


def test_attack_rejects_deeply_nested_transcript(tmp_path):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 200_000)
    res = run_cli("attack", str(bad), cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert "cannot read transcript" in res.stderr
    assert "Traceback" not in res.stderr


def test_attack_rejects_transcript_that_is_not_utf8(tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"scheme": "digital", "note": "\xff\xfe"}')
    res = run_cli("attack", str(bad), cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert "cannot read transcript" in res.stderr
    assert "Traceback" not in res.stderr


def test_attack_rejects_int_literal_over_the_digit_limit(tmp_path):
    # Python versions without the 4300-digit limit parse it and reject the
    # transcript as malformed, which also exits 2
    bad = tmp_path / "huge.json"
    bad.write_text('{"scheme": "digital", "seed": ' + "9" * 5000 + "}")
    res = run_cli("attack", str(bad), cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("value", [1.0, 0.5])
def test_attack_rejects_twisted_float_coefficients(tmp_path, value):
    out = tmp_path / "t.json"
    res = run_cli(
        "exchange", "--scheme", "twisted", "--p", "3", "--fext", "1", "--m", "4",
        "--seed", "5", "--out", str(out), cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    obj = read_json(out)
    for items in (obj["params"]["h"], obj["alice_public"]):
        items[0][2] = [value]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    res = run_cli("attack", str(bad), cwd=tmp_path)
    assert res.returncode == 2, res.stdout
    assert "malformed transcript" in res.stderr
    assert "Traceback" not in res.stderr


def test_attack_rejects_digital_peer_key_of_wrong_size(tmp_path):
    small, big = tmp_path / "n3.json", tmp_path / "n4.json"
    for n, out in ((3, small), (4, big)):
        res = run_cli("exchange", "--n", str(n), "--seed", "9", "--out", str(out), cwd=tmp_path)
        assert res.returncode == 0, res.stderr
    obj = read_json(small)
    obj["bob_public"] = read_json(big)["bob_public"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    res = run_cli("attack", str(bad), cwd=tmp_path)
    assert res.returncode == 2, res.stdout
    assert "malformed transcript: matrix is 4 x 4, not 3 x 3" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("value", ["false", 0, [1], None], ids=repr)
@pytest.mark.parametrize(
    "flags",
    [("--n", "3"), ("--scheme", "twisted", "--p", "2", "--fext", "2", "--m", "3")],
    ids=["digital", "twisted"],
)
def test_attack_rejects_keys_agree_that_is_not_a_bool(tmp_path, flags, value):
    out = tmp_path / "t.json"
    res = run_cli("exchange", *flags, "--seed", "9", "--out", str(out), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    obj = read_json(out)
    obj["keys_agree"] = value
    out.write_text(json.dumps(obj))
    res = run_cli("attack", str(out), cwd=tmp_path)
    assert res.returncode == 2, res.stdout
    assert "malformed transcript: keys_agree must be true or false" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("params", "n"), 3.0, "n and entry_bound must be ints"),
        (("params", "entry_bound"), 2.5, "n and entry_bound must be ints"),
        (("params", "matrix", "n"), 3.0, "matrix size must be an int"),
        (("alice_public", "n"), 3.0, "matrix size must be an int"),
        (("secrets", "bob_left", "n"), 3.0, "circulant size must be an int"),
    ],
)
def test_attack_rejects_digital_sizes_that_are_not_ints(tmp_path, path, value, message):
    out = tmp_path / "t.json"
    res = run_cli(
        "exchange", "--n", "3", "--seed", "9", "--insecure-dump", "--out", str(out),
        cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    obj = read_json(out)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    res = run_cli("attack", str(bad), cwd=tmp_path)
    assert res.returncode == 2, res.stdout
    assert f"malformed transcript: {message}" in res.stderr
    assert "Traceback" not in res.stderr


def test_attack_rejects_transcript_over_n_cap(tmp_path):
    n = 33
    mat = {"n": n, "rows": [[1] * n for _ in range(n)]}
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps({
        "scheme": "digital",
        "params": {"n": n, "entry_bound": 10**9, "matrix": mat},
        "alice_public": mat,
        "bob_public": mat,
        "keys_agree": True,
    }))
    res = run_cli("attack", str(bad), cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert "n must be in 1..32" in res.stderr
    assert "Traceback" not in res.stderr


def test_attack_rejects_transcript_with_huge_prime_promptly(tmp_path):
    out = tmp_path / "t.json"
    res = run_cli(
        "exchange", "--scheme", "twisted", "--p", "2", "--fext", "2", "--m", "3",
        "--seed", "3", "--out", str(out), cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    obj = read_json(out)
    obj["params"]["p"] = 2**61 - 1
    out.write_text(json.dumps(obj))
    res = run_cli("attack", str(out), cwd=tmp_path, timeout=30)
    assert res.returncode == 2, res.stderr
    assert "below 2^16" in res.stderr
    assert "Traceback" not in res.stderr


def test_attack_rejects_transcript_over_system_cap(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))
    from random import Random

    from twoside import twisted_kex

    # (2, 8, 64): 135,168 unknowns x 1,024 equations to attack
    params = twisted_kex.random_params(2, 8, 64, Random(4))
    public = twisted_kex.params_to_json(params)["h"]
    big = tmp_path / "big.json"
    big.write_text(json.dumps({
        "scheme": "twisted",
        "params": twisted_kex.params_to_json(params),
        "alice_public": public,
        "bob_public": public,
        "keys_agree": True,
    }))
    res = run_cli("attack", str(big), cwd=tmp_path, timeout=60)
    assert res.returncode == 2, res.stderr
    assert "exceeds the cap of 4194304 cells" in res.stderr
    assert "malformed" not in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("p,fext,m", [(3, 2, 4), (5, 1, 6), (7, 1, 8)])
def test_twisted_attack_solves_without_the_list_elimination(
    tmp_path, monkeypatch, capsys, p, fext, m
):
    monkeypatch.syspath_prepend(str(SRC))
    from twoside import cli, gf, twisted_kex

    out = tmp_path / "t.json"
    assert cli.main([
        "exchange", "--scheme", "twisted", "--p", str(p), "--fext", str(fext), "--m", str(m),
        "--seed", "3", "--out", str(out), "--insecure-dump",
    ]) == 0
    capsys.readouterr()

    def fail(*args):
        raise AssertionError("the timed attack ran the list elimination")

    # the list elimination is the oracle; the timed path solves on packed lanes
    monkeypatch.setattr(gf, "_row_reduce", fail)
    tr = twisted_kex.transcript_from_json(json.loads(out.read_text()))
    assert twisted_kex.attack(tr.params, tr.alice.pk, tr.bob.pk) == tr.shared_key
    assert cli.main(["attack", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["attack_key_matches"] is True


def test_attack_twisted_builds_system_rows_once(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(SRC))
    from twoside import cli, twisted_kex

    out = tmp_path / "t.json"
    assert cli.main([
        "exchange", "--scheme", "twisted", "--p", "2", "--fext", "2", "--m", "3",
        "--seed", "5", "--out", str(out), "--insecure-dump",
    ]) == 0
    capsys.readouterr()

    calls = {"system_rows": 0, "attack_system": 0}
    for name in calls:
        real = getattr(twisted_kex, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(twisted_kex, name, counted)
    assert cli.main(["attack", str(out)]) == 0
    # both directions solve one system; the paper's system is never built
    assert calls == {"system_rows": 1, "attack_system": 0}
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {
        "scheme", "unknowns", "equations", "solve_ms", "attack_ms",
        "recovered_keys_agree", "reference_key_present", "attack_key_matches",
    }
    # (2, 2, 3): n * m * (m // 2 + 1) unknowns, 2 * m * n equations
    assert (report["unknowns"], report["equations"]) == (12, 12)
    assert report["attack_key_matches"] is True
    # --dump-system builds the paper's system once, on top of the solve's
    calls.update(system_rows=0)
    assert cli.main(["attack", str(out), "--dump-system", str(tmp_path / "system.json")]) == 0
    assert calls == {"system_rows": 1, "attack_system": 1}


def test_attack_dump_system_twisted_is_paper_system(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(SRC))
    from twoside import cli, twisted_kex

    out = tmp_path / "t.json"
    dump = tmp_path / "system.json"
    assert cli.main([
        "exchange", "--scheme", "twisted", "--p", "3", "--fext", "2", "--m", "4",
        "--seed", "8", "--out", str(out),
    ]) == 0
    assert cli.main(["attack", str(out), "--dump-system", str(dump)]) == 0
    capsys.readouterr()
    tr = twisted_kex.transcript_from_json(read_json(out))
    rows, target, _, _ = twisted_kex.attack_system(tr.params, tr.alice.pk)
    assert read_json(dump) == {
        "columns": [[row[c] for row in rows] for c in range(len(rows[0]))],
        "target": list(target),
    }


# SHA-256 of the --dump-system file of `exchange <flags> --seed 1`, recorded
# before the paper's system was built by lane rotation
DUMP_DIGESTS = [
    (["--scheme", "twisted", "--p", "2", "--fext", "4", "--m", "6"],
     "a6db92a9d348070ba559d9ad9badffaa325cf706a661b93757fb9f78b26bc804"),
    (["--scheme", "twisted", "--p", "3", "--fext", "2", "--m", "4"],
     "819cbab151cc1c36d7b9f628c8be6971c0cbb73f7bbea6b7ca3b115d94c51b46"),
    (["--scheme", "twisted", "--p", "5", "--fext", "1", "--m", "6"],
     "7181252c1dcb6cf9ca7641d92f4bb98adb7e2f3eddb36a65ddc1fdb59b41912c"),
    (["--scheme", "digital", "--n", "4"],
     "694294de8e2fe6bfe95f339cd65a9ea7be7607206879019037dbb561ff746d83"),
]


@pytest.mark.parametrize(
    "flags,digest", DUMP_DIGESTS, ids=["twisted-2-4-6", "twisted-3-2-4", "twisted-5-1-6", "digital-4"]
)
def test_attack_dump_system_bytes_are_pinned(tmp_path, monkeypatch, capsys, flags, digest):
    monkeypatch.syspath_prepend(str(SRC))
    from twoside import cli

    out, dump = tmp_path / "t.json", tmp_path / "system.json"
    assert cli.main(["exchange", *flags, "--seed", "1", "--out", str(out)]) == 0
    assert cli.main(["attack", str(out), "--dump-system", str(dump)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == digest


# -- bench ----------------------------------------------------------------------


def test_bench_digital_grid(tmp_path):
    out = tmp_path / "bench.csv"
    res = run_cli(
        "bench", "--scheme", "digital", "--n", "2,4", "--trials", "3",
        "--seed", "17", "--out", str(out), cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert [r["params"] for r in rows] == ["n=2"] * 3 + ["n=4"] * 3
    assert [r["trial"] for r in rows] == ["0", "1", "2"] * 2
    assert all(r["success"] == "true" for r in rows)
    assert all(float(r["solve_ms"]) >= 0 for r in rows)
    assert list(rows[0]) == ["scheme", "params", "trial", "solve_ms", "attack_ms", "success"]


def test_bench_twisted_grid(tmp_path):
    out = tmp_path / "bench.csv"
    res = run_cli(
        "bench", "--scheme", "twisted", "--p", "2,3", "--fext", "1", "--m", "3",
        "--trials", "2", "--seed", "17", "--out", str(out), cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert all(r["scheme"] == "twisted" for r in rows)
    assert all(r["success"] == "true" for r in rows)


def summary_lines(stdout):
    return [l for l in stdout.splitlines() if "median_ms=" in l]


@pytest.mark.parametrize(
    "flags, labels",
    [
        (["--n", "4,2,3"], ["n=2", "n=3", "n=4"]),
        (
            ["--scheme", "twisted", "--p", "3,2", "--fext", "1", "--m", "4,3"],
            ["p=2;fext=1;m=3", "p=2;fext=1;m=4", "p=3;fext=1;m=3", "p=3;fext=1;m=4"],
        ),
    ],
)
def test_bench_prints_one_summary_per_grid_point(tmp_path, flags, labels):
    out = tmp_path / "bench.csv"
    res = run_cli(
        "bench", *flags, "--trials", "4", "--seed", "5", "--out", str(out), cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    lines = summary_lines(res.stdout)
    assert [l.split(": ")[0] for l in lines] == labels
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for label, line in zip(labels, lines):
        stats = dict(kv.split("=") for kv in line.split(": ")[1].split())
        assert list(stats) == ["median_ms", "p90_ms", "max_ms"]
        median, p90, top = (float(stats[k]) for k in stats)
        assert 0 <= median <= p90 <= top
        times = [float(r["attack_ms"]) for r in rows if r["params"] == label]
        assert top == pytest.approx(max(times), abs=1e-3)


def test_bench_failed_solve_is_a_failed_row(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(SRC))
    from twoside import cli, digital_kex

    monkeypatch.setattr(digital_kex, "solve", lambda params, target: None)
    out = tmp_path / "bench.csv"
    assert cli.main(["bench", "--n", "2", "--trials", "2", "--seed", "1", "--out", str(out)]) == 3
    stdout = capsys.readouterr().out
    assert "all_success: false" in stdout
    assert len(summary_lines(stdout)) == 1
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["success"], r["solve_ms"]) for r in rows] == [("false", "nan")] * 2
    assert all(float(r["attack_ms"]) >= 0 for r in rows)


def test_bench_rejects_twisted_combo_over_system_cap(tmp_path):
    res = run_cli(
        "bench", "--scheme", "twisted", "--p", "2", "--fext", "2,8", "--m", "3,64",
        "--trials", "1", cwd=tmp_path, timeout=60,
    )
    assert res.returncode == 2, res.stderr
    assert "135168 unknowns x 1024 equations exceeds the cap" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "bench.csv").exists()


def test_bench_rejects_trials_over_cap(tmp_path):
    res = run_cli(
        "bench", "--scheme", "digital", "--n", "2", "--trials", "10001", cwd=tmp_path,
    )
    assert res.returncode == 2, res.stderr
    assert "--trials must be in 1..10000" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "grid",
    [
        ["--scheme", "digital", "--n", "2,3", "--trials", "5001"],
        ["--scheme", "twisted", "--p", "2,3", "--fext", "1,2", "--m", "3,4,5",
         "--trials", "834"],
        # 10^6 combos of one trial each: rejected before the grid is formed
        ["--scheme", "twisted", "--p", ",".join(map(str, range(100))),
         "--fext", ",".join(map(str, range(100))),
         "--m", ",".join(map(str, range(100))), "--trials", "1"],
    ],
)
def test_bench_rejects_grid_over_trials_cap(tmp_path, grid):
    res = run_cli("bench", *grid, cwd=tmp_path, timeout=60)
    assert res.returncode == 2, res.stderr
    assert "trials exceeds the cap of 10000 trials" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "bench.csv").exists()


def test_bench_deterministic_modulo_timing(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        res = run_cli(
            "bench", "--scheme", "digital", "--n", "2,3", "--trials", "2",
            "--seed", "99", "--out", str(out), cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        with open(out, newline="") as fh:
            outs.append(list(csv.DictReader(fh)))
    stable = [
        [(r["scheme"], r["params"], r["trial"], r["success"]) for r in run]
        for run in outs
    ]
    assert stable[0] == stable[1]


# -- selftest ---------------------------------------------------------------------


def test_selftest_passes(tmp_path):
    res = run_cli("selftest", "--seed", "123", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.count("PASS") == 4
    assert "FAIL" not in res.stdout


def test_selftest_failure_exits_3(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(SRC))
    from twoside import cli, twisted_kex
    from twoside.errors import AttackError

    def fail(*args):
        raise AttackError("forced failure")

    monkeypatch.setattr(twisted_kex, "attack", fail)
    assert cli.main(["selftest", "--seed", "1"]) == cli.EXIT_MISMATCH == 3
    assert "FAIL twisted attack recovers the key" in capsys.readouterr().out


def test_usage_error_on_unknown_command(tmp_path):
    res = run_cli("frobnicate", cwd=tmp_path)
    assert res.returncode == 2, res.stderr


@pytest.mark.parametrize("command", ["exchange", "attack", "selftest", "bench"])
def test_closed_stdout_exits_2_without_a_traceback(tmp_path, command):
    # stdout a pipe whose reader is gone before the command writes a byte
    transcript = tmp_path / "t.json"
    shape = ["--scheme", "twisted", "--p", "3", "--fext", "2", "--m", "4", "--seed", "1"]
    assert run_cli("exchange", *shape, "--out", str(transcript), cwd=tmp_path).returncode == 0
    args = {
        "exchange": ["exchange", *shape, "--out", str(tmp_path / "again.json")],
        "attack": ["attack", str(transcript)],
        "selftest": ["selftest", "--seed", "1"],
        "bench": ["bench", *shape, "--trials", "1", "--out", str(tmp_path / "b.csv")],
    }[command]
    read, write = os.pipe()
    os.close(read)
    try:
        res = subprocess.run(
            [sys.executable, "-m", "twoside", *args], stdout=write, stderr=subprocess.PIPE,
            text=True, cwd=tmp_path, env=child_env(), timeout=120,
        )
    finally:
        os.close(write)
    assert "Traceback" not in res.stderr, res.stderr
    assert res.returncode == 2


# -- public-only transcripts, output paths and the entry-bound cap ----------------


@pytest.mark.parametrize(
    "flags", [["--n", "3"], ["--scheme", "twisted", "--p", "3", "--fext", "2", "--m", "4"]]
)
@pytest.mark.parametrize("secrets", ["absent", "empty"])
def test_attack_on_public_only_transcript_has_no_reference_key(tmp_path, flags, secrets):
    out = tmp_path / "t.json"
    res = run_cli("exchange", *flags, "--seed", "4", "--out", str(out), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    if secrets == "empty":
        obj = read_json(out)
        obj["secrets"] = {}
        out.write_text(json.dumps(obj))
    res = run_cli("attack", str(out), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["reference_key_present"] is False
    assert report["recovered_keys_agree"] is True
    assert report["attack_key_matches"] is True


def assert_unwritable(res, option):
    assert res.returncode == 2, res.stderr
    assert f"cannot write {option}:" in res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("target", ["missing/t.json", "."])
@pytest.mark.parametrize("scheme", ["digital", "twisted"])
def test_exchange_unwritable_out_exits_2(tmp_path, scheme, target):
    res = run_cli("exchange", "--scheme", scheme, "--seed", "1", "--out", target, cwd=tmp_path)
    assert_unwritable(res, "--out")


@pytest.mark.parametrize("target", ["missing/system.json", "."])
@pytest.mark.parametrize(
    "flags", [["--n", "2"], ["--scheme", "twisted", "--p", "2", "--fext", "2", "--m", "3"]]
)
def test_attack_unwritable_dump_system_exits_2(tmp_path, flags, target):
    res = run_cli("exchange", *flags, "--seed", "1", "--out", "t.json", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    res = run_cli("attack", "t.json", "--dump-system", target, cwd=tmp_path)
    assert_unwritable(res, "--dump-system")


@pytest.mark.parametrize("target", ["missing/b.csv", "."])
@pytest.mark.parametrize("scheme", ["digital", "twisted"])
def test_bench_unwritable_out_exits_2(tmp_path, scheme, target):
    res = run_cli(
        "bench", "--scheme", scheme, "--trials", "1", "--seed", "1", "--out", target, cwd=tmp_path
    )
    assert_unwritable(res, "--out")


def test_bench_unwritable_out_fails_before_the_first_trial(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))
    from twoside import cli, digital_kex

    def trial(*args):
        raise AssertionError("a trial ran before --out was checked")

    monkeypatch.setattr(digital_kex, "run_exchange", trial)
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--n", "2", "--trials", "3", "--out", str(tmp_path / "no" / "b.csv")])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command", [["exchange"], ["bench", "--trials", "1"]], ids=["exchange", "bench"]
)
def test_entry_bound_above_the_largest_finite_value_exits_2(tmp_path, command):
    res = run_cli(*command, "--n", "2", "--entry-bound", "100000000000000000000000", cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert "--entry-bound must be in 1..18446744073709551615" in res.stderr
    assert "Traceback" not in res.stderr
    assert not any(tmp_path.iterdir())


def test_entry_bound_at_the_largest_finite_value_is_accepted(tmp_path):
    res = run_cli(
        "exchange", "--n", "2", "--seed", "1", "--entry-bound", "18446744073709551615",
        "--out", "t.json", cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    assert read_json(tmp_path / "t.json")["params"]["entry_bound"] == 2**64 - 1


# -- the timed paths and the reference algebra --------------------------------------


def test_commands_never_reach_a_reference_path(tmp_path, monkeypatch, capsys):
    # every command a user times runs the fast paths; the paper-shaped
    # products, the list elimination and the generic solver are oracles that
    # only tests and --dump-system (left out here: it builds the paper's
    # system on purpose) call
    monkeypatch.syspath_prepend(str(SRC))
    from twoside import cli, digital_kex, gf, matrices, solver, twisted_kex, twisted_ring

    ring, mat = twisted_ring.RingElement, matrices.SemiringMatrix
    oracles = [
        ring.__mul__, ring.__add__, ring.scale, ring.adjoint,
        twisted_kex.attack_system, twisted_kex.recover_shared_key,
        gf._row_reduce, gf.gauss_solve_full, gf.gauss_solve,
        digital_kex.attack_columns, digital_kex.recover_shared_key,
        mat.__matmul__, mat.__add__, mat.scale, matrices.Circulant.expand,
        matrices.circulant_generators, matrices.flatten_two_sided,
    ]
    for space in (vars(solver), vars(solver.LinearSystem)):
        oracles += [
            f for f in (getattr(v, "fget", v) for v in space.values())
            if inspect.isfunction(f) and f.__module__ == solver.__name__
        ]
    # code objects, not names: co_qualname is missing before Python 3.11
    names = {f.__code__: f.__qualname__ for f in oracles}

    digital, twisted = tmp_path / "d.json", tmp_path / "t.json"
    commands = [
        ["exchange", "--n", "4", "--seed", "1", "--insecure-dump", "--out", str(digital)],
        ["exchange", "--scheme", "twisted", "--p", "3", "--fext", "2", "--m", "4", "--seed", "1",
         "--insecure-dump", "--out", str(twisted)],
        ["attack", str(digital)],
        ["attack", str(twisted)],
        ["bench", "--n", "3", "--trials", "2", "--seed", "1", "--out", str(tmp_path / "d.csv")],
        ["bench", "--scheme", "twisted", "--p", "2", "--fext", "2", "--m", "3", "--trials", "2",
         "--seed", "1", "--out", str(tmp_path / "t.csv")],
        ["selftest", "--seed", "1"],
    ]
    calls = []  # the code objects each command ran

    def profile(frame, event, arg):
        if event == "call":
            calls[-1].add(frame.f_code)

    for argv in commands:
        calls.append(set())
        sys.setprofile(profile)
        try:
            code = cli.main(argv)
        finally:
            sys.setprofile(None)
        assert code == 0, argv
    capsys.readouterr()
    called = set().union(*calls)
    assert cli.cmd_attack.__code__ in called  # the profile saw the commands run
    assert sorted(names[c] for c in called & names.keys()) == []
    # the twisted attack parses, builds, solves and replays on the packed
    # halves: it never reads the dense coefficient view
    twisted_attack = calls[commands.index(["attack", str(twisted)])]
    assert twisted_kex.replay.__code__ in twisted_attack
    assert ring.coeffs.fget.__code__ not in twisted_attack
