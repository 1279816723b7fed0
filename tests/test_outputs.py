"""Golden outputs: ``verify --suite all`` report files and ``examples --json`` stdout."""

import hashlib

from leibnizlab.cli import main

ARGV = ("verify", "--suite", "all", "--trials", "40", "--seed", "7")

# sha256 of each suite_*.jsonl written by ``verify --suite all --trials 40
# --seed 7 --out DIR``, recorded with the one-instance majorization suite and
# the recursive report encoder, before either was replaced by its block or
# one-pass form.  A change to any report byte must be deliberate and show here.
GOLDEN_SHA256 = {
    "suite_chain-rule.jsonl": "1bc5217ee7350212b81c04a4e2b35797f048b7b99f40ffec878ad5aa5dd5b068",
    "suite_decomposition.jsonl": "c2cbdc718ac36ef652002198a266308dddb2a215f889a16e31fa05a737f79430",
    "suite_identities.jsonl": "845bd33a82673b3ae8cfdcfb89d117034b22fb1a782646d52619264dcf589f9e",
    "suite_laplacian.jsonl": "0066277ca2643ce8c9524eb3eacb4e3961c63269546cec8586c5efb59a35e61d",
    "suite_leibniz.jsonl": "71538d9ee7d2dab4679c0142d1e45e157277afcea8019f7c4dcbe2d2f328df69",
    "suite_majorization.jsonl": "2ce761417bb273dd50632daa4370682b54e0f6549b2abbcdbcf5fa3eef99c5dc",
    "suite_markov.jsonl": "ae72e2b23eb6963359217dad3f74d4e844639ee394ff58624b28143a06619bc9",
    "suite_square.jsonl": "4552dd975715b23cb0632da03c4121dabd97a6e5be8c44c6eade3b41ce68d03d",
    "suite_strong-leibniz.jsonl": "df748d77422fec035baa40b94f23bcf3d36989a53645181e98a337f263ed94cd",
}

# sha256 of the stdout of ``examples --json``, recorded before the three
# reciprocal-witness reports were built by one shared helper.
EXAMPLES_JSON_SHA256 = "2afaf327853b49e784412780f0e232c3e32fecdf8fcedcf92aacdded7ac2cd58"


def _suite_files(out_dir):
    assert main([*ARGV, "--out", str(out_dir)]) == 0
    return {path.name: path.read_bytes() for path in sorted(out_dir.glob("suite_*.jsonl"))}


def test_verify_all_reports_match_golden_hashes(tmp_path, capsys):
    files = _suite_files(tmp_path / "run")
    capsys.readouterr()
    assert {name: hashlib.sha256(data).hexdigest() for name, data in files.items()} == GOLDEN_SHA256


def test_verify_all_reports_identical_across_reruns(tmp_path, capsys):
    first = _suite_files(tmp_path / "first")
    second = _suite_files(tmp_path / "second")
    capsys.readouterr()
    assert sorted(first) == sorted(GOLDEN_SHA256)
    assert first == second


def test_examples_json_stdout_matches_golden_hash(capsys):
    main(["examples", "--json"])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == EXAMPLES_JSON_SHA256
