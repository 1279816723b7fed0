"""Golden outputs: ``verify`` report files, ``search --out`` files and ``examples --json`` stdout."""

import hashlib
import json
import os

import pytest

from leibnizlab.cli import main
from leibnizlab.suites import SUITES

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


def test_verify_manifest_identical_across_reruns(tmp_path, capsys):
    # the manifest may differ only in its wall time and in where its outputs were written
    manifests = []
    for run in ("first", "second"):
        _suite_files(tmp_path / run)
        manifest = json.loads((tmp_path / run / "manifest.json").read_text())
        del manifest["wall_time_s"]
        manifest["outputs"] = [os.path.basename(path) for path in manifest["outputs"]]
        manifests.append(manifest)
    capsys.readouterr()
    assert manifests[0] == manifests[1]
    assert manifests[0]["outputs"] == [f"suite_{name}.jsonl" for name in SUITES]


def test_examples_json_stdout_matches_golden_hash(capsys):
    main(["examples", "--json"])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == EXAMPLES_JSON_SHA256


# sha256 of the files of ``search --config CFG --out DIR --history-csv``,
# recorded before the search drew its trials through the block seeder and
# before its kernels moved to ``kernels.py``.  The chain-rule search crosses
# two 1024-trial blocks.
SEARCH_SHA256 = {
    "chain_rule": (
        {"target": "chain_rule", "n": 4, "p_grid": [2, 3, "inf"], "trials": 2100,
         "refine_steps": 3, "seed": 12, "monotone": False},
        {"search_result.json": "58d207b52f726c2f447df173647e5dbb3bcf24065697a7a28c9d63ea0c4bee77",
         "per_p.csv": "a247fa262229bac136e7539c9053425c3c6915c76e563568bac08e592f653ce0",
         "history.csv": "af8162a4c55790119759ac78633c576d3e7b083f29e45c6036dbe5d583ab419a"},
    ),
    "leibniz": (
        {"target": "leibniz", "n": 3, "p_grid": [1, 1.5], "trials": 1500,
         "refine_steps": 3, "seed": 5},
        {"search_result.json": "fe8a3c72e998c24e3f4132f4172a946846048927231cd6860a044860a4c1d912",
         "per_p.csv": "a0c9255ffe362e69faff65c03d23f6d51b9c26dec362a5522f8392857a852b95",
         "history.csv": "7ac55b1f5e8a4172da70f61590720aa9aba7477f0847965a2a94d3ace129f097"},
    ),
}


# sha256 of the same files for the two searches of the benchmark's
# ``open_sweep`` workload at seed 7, and for searches that refine 60 leaders
# per exponent for up to 20 sweeps per step size, recorded while each leader
# was still refined alone.
_SWEEP = {"target": "chain_rule", "n": 4, "p_grid": [2, 3, "inf"], "trials": 5000,
          "refine_steps": 10, "seed": 7, "monotone": False}
_TOP60 = {"n": 3, "p_grid": [1, 1.5, "inf"], "trials": 1000, "refine_steps": 20,
          "refine_top": 60, "seed": 3}
REFINED_SEARCH_SHA256 = {
    "open_sweep": (
        _SWEEP,
        {"search_result.json": "555ecfb8975c0fc0a97bb895a379312e5f67f840816dfd13ba1c7a76ed747843",
         "per_p.csv": "a769712f49cd559bd6f4e1769ef90d18a555aa5c8e196c26a226d6c70160278f",
         "history.csv": "a50ae94eac6dfb7bd7c6bec1b6dd44ceba4c949ad85ed14d49a07ff18c218d00"},
    ),
    "open_sweep_control": (
        dict(_SWEEP, p_grid=[1]),
        {"search_result.json": "3b3d3f92d12dcd0055f964087f406bdcc1488d6f26517830262f1678dd76c70a",
         "per_p.csv": "b76f61cb84db79cc3216c03bb0e8b5049de3237e2166559b3f4431e80b7af0cb",
         "history.csv": "b282b82b6ef5b106ac5437c1ea2f32e1fd71a9ff38753b531ead6717f4b50fc5"},
    ),
    "chain_rule_top60": (
        dict(_TOP60, target="chain_rule"),
        {"search_result.json": "3628a445939a4fa1f5acd82c581e8fe440c800a44a3ccd1a5fc8c2853050770e",
         "per_p.csv": "d727a4e3ee7c862d45a03957a5f03b88de25313faea4cbc769a7642af22442c8",
         "history.csv": "6ff7092b93f38b91fe01c1c17335a55ab635b0a5deccb3523f6d7ccb98e8bf82"},
    ),
    "chain_rule_monotone_top60": (
        dict(_TOP60, target="chain_rule", monotone=True),
        {"search_result.json": "a579bea47ab9e7514ff0d5961b82784526d5b7754d1e6294cc849bbdf059aca6",
         "per_p.csv": "047dd2048ac5cf5a2d8aa6d4ece4c46a3e3a60d47a1941d7a18618d4538c3b3f",
         "history.csv": "e01190d438acf684044a666edb1b9108b9b19b9bd504768e63edc6a8682c4317"},
    ),
    "strong_leibniz_top60": (
        dict(_TOP60, target="strong_leibniz"),
        {"search_result.json": "43d94b6309e6dcd78ecfa7634f4725f35e6b2b884d65504e8b153ba114af628a",
         "per_p.csv": "def2b3b199480c53574c2c26015653fed2fff70165cd80ad3f6222873c6c1584",
         "history.csv": "66487b4202a53eefa15d322c6787eefd931486bce9928cb3cf93c73c14b7cb7f"},
    ),
    "leibniz_top60": (
        dict(_TOP60, target="leibniz"),
        {"search_result.json": "87b6ce0b6e7d048eebe58d2c2f74949268bf188089205c90afab146f072256ed",
         "per_p.csv": "386da18d85c04a430f44f9a34706dccfaa28d868c5a6f668d75442c198d25fab",
         "history.csv": "dac65423e53cec3bfbc9582cdbaeddca7ce2fcdedf6cbe6cd39fc55e27395310"},
    ),
    "square_bound_top60": (
        dict(_TOP60, target="square_bound"),
        {"search_result.json": "2a6b1003e0d4b4bfd894b141abcc751df8c6d4a5ac36d66f94e78c6de1caf8fd",
         "per_p.csv": "b06ae28f40f337fdd61474139d22d6dc6bfc7b2ab47042fde5fcb54ff150981a",
         "history.csv": "990b87c77f71740f2b151cd4f8d5e238237ae666ebbd2977686451d69b672519"},
    ),
}


def _search_file_hashes(tmp_path, config, names) -> dict:
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert main(["search", "--config", str(cfg_path), "--out", str(out), "--history-csv"]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


@pytest.mark.parametrize("target", sorted(SEARCH_SHA256))
def test_search_files_match_golden_hashes(tmp_path, capsys, target):
    config, golden = SEARCH_SHA256[target]
    assert _search_file_hashes(tmp_path, config, golden) == golden
    capsys.readouterr()


@pytest.mark.parametrize("name", sorted(REFINED_SEARCH_SHA256))
def test_refined_search_files_match_golden_hashes(tmp_path, capsys, name):
    config, golden = REFINED_SEARCH_SHA256[name]
    assert _search_file_hashes(tmp_path, config, golden) == golden
    capsys.readouterr()


# sha256 of ``verify --suite NAME --trials 1100 --n 12 --seed 11 --out DIR``.
# The five suites that sample a measure were recorded when they still ran the
# scalar checkers one trial at a time; the other four when decomposition,
# laplacian and identities ran their own per-trial loop and majorization drew
# every trial before evaluating any.  1100 trials cross a 1024-trial block and
# n reaches 12.
MEASURE_SUITES_SHA256 = {
    "chain-rule": "b158620f7cc9891ac0e35d401667c046051fe04ad0dde230e67e6e638323b443",
    "leibniz": "2e59322c26a01fbcfe6a8f26cdd984ff05f2114aa9e86935142b37159a1e1738",
    "markov": "10f132e9350ab21929432a93baa1fc5826137da58f94f710bd9508ca023c4ca0",
    "square": "196eb5a17a92aa304d7cf5374d43e8c95464dc3f1e3f96697a941b0c09fb6728",
    "strong-leibniz": "5fda4931367d1aabb307eaf0fbc0770b461e702e6845ae6c1c80e7a2e726f816",
    "majorization": "7ca24614aaf484ff5ad8e76f9a532f2188141f53cf9c21de9bf8fc6aa3175f4d",
    "decomposition": "46f63f45d2af353de216ed9792188bf58ac2124cc0576b5c3330447edfa32ee8",
    "laplacian": "b800bd65c302ab9be74f1414bacb30c3258801c1888ff363422b1ec2a3871c42",
    "identities": "661f2e52d06d0d8977579d84a2270807b2aae2d41d4a446b97e490c366dbe78d",
}


@pytest.mark.parametrize("suite", sorted(MEASURE_SUITES_SHA256))
def test_measure_suite_reports_match_golden_hashes(tmp_path, capsys, suite):
    out = tmp_path / "run"
    assert main(["verify", "--suite", suite, "--trials", "1100", "--n", "12", "--seed", "11",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    data = (out / f"suite_{suite}.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == MEASURE_SUITES_SHA256[suite]


# sha256 of each suite_*.jsonl written by ``verify --suite all --trials 500
# --seed 7 --out DIR``, the benchmark's ``verify_all`` command, recorded while
# every report line was still encoded by ``dumps(report.to_dict())``, before
# lines were formatted from block columns.
BENCH_SHA256 = {
    "suite_chain-rule.jsonl": "f431e038066b0e896e0bd33ef4987447ecce4da9a61357d77734f4d88f4c1a09",
    "suite_decomposition.jsonl": "8f1138df9ed339d5fda2d8b4edda5657d6db08e880a01ad03c2cea6714237c40",
    "suite_identities.jsonl": "e344897320085aeefa8b6519825024daccef8aa758cf72f9b74abe8a4c50527f",
    "suite_laplacian.jsonl": "712243bbed80aab49765774988afd81061b899f8dace622960f6a768500d6b4f",
    "suite_leibniz.jsonl": "85b050dc08572110deecf2a958c254ce8bb76e65043cf8b55155f31cb0db3faa",
    "suite_majorization.jsonl": "a99434f30836c4340729d4657608d26f155fbbd5dd3e4b7dbad8250b0d29dc39",
    "suite_markov.jsonl": "efa481c31dead960166de768afd911e2958afad9e0ec2b6ffaaba9cd3a3d0ec2",
    "suite_square.jsonl": "c6572f828b3441ed7d03eddc05767b53116f2f3b8e56fa1afe547920aba73987",
    "suite_strong-leibniz.jsonl": "09bfdf620535c6485cb88f70493e4456b98bbbd2ce29487a314d8a2858d90b27",
}


def test_benchmark_verify_all_reports_match_golden_hashes(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["verify", "--suite", "all", "--trials", "500", "--seed", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.glob("suite_*.jsonl"))} == BENCH_SHA256
