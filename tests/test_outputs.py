"""Golden outputs: ``verify`` report files, ``search --out`` files and ``examples --json`` stdout."""

import hashlib
import json
import os

import pytest

from leibnizlab.cli import main
from leibnizlab.suites import SUITES

ARGV = ("verify", "--suite", "all", "--trials", "40", "--seed", "7")

# sha256 of each suite_*.jsonl written by ``verify --suite all --trials 40
# --seed 7 --out DIR``.  Every pin in this file was re-recorded when the
# streams moved to Philox words (the v2 stream rule).  The three laplacian pins
# were re-recorded once more when the bound began to echo x as drawn (checking
# it at x - Ex) and the hat-matrix rows took --tol.  A change to any report
# byte must be deliberate and show here.
GOLDEN_SHA256 = {
    "suite_chain-rule.jsonl": "4c95eebfdd314c70d0a10502a479f4f2a9f19f9578390079a7f9be3082dea4ae",
    "suite_decomposition.jsonl": "9f81341b5e7363e20309b9f37a6e2be19949b76ce71adc2a62a27a35d3120def",
    "suite_identities.jsonl": "d6db0a951225053137b67556d6e8787bea831124f9b6318f047e6b4eab0f308b",
    "suite_laplacian.jsonl": "78d3e99c802801d64a1bd747722e08c02c1ebbe07b1ae5198eff5aa1b3f13228",
    "suite_leibniz.jsonl": "2d735c12e00595091a1cd0ce0d44751531604d385f813a635049f8cef0e9426a",
    "suite_majorization.jsonl": "0694467d7e8dd3e8833bde434ac77f1960e2588156942085b42b2b2424d55453",
    "suite_markov.jsonl": "57ef86faf217a800a37c0d6391959314485d306c2e059aff571d544dc137592f",
    "suite_square.jsonl": "b571fefab44805fa536426f354bcd029911cc2704039cb5b1feaadab9a866cd1",
    "suite_strong-leibniz.jsonl": "ec9fea1c17babbb1b8532ee0bf9f694ea38d624eedeb4cb5d827e0bf99f259ab",
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


# sha256 of the files of ``search --config CFG --out DIR --history-csv``.
# The chain-rule search crosses two 1024-trial blocks.
SEARCH_SHA256 = {
    "chain_rule": (
        {"target": "chain_rule", "n": 4, "p_grid": [2, 3, "inf"], "trials": 2100,
         "refine_steps": 3, "seed": 12, "monotone": False},
        {"search_result.json": "f05b9b166f8e76f1180e8706924e2790761f628f873a113a2dab6d55cf8a3977",
         "per_p.csv": "cc51f21e459f73a99f299eddc493f3bfcd5bbf91dae314ef50ee19597f93e075",
         "history.csv": "86ffcd89e0dff7767b2053bd62f9fc05ff6f3106a20c3e5244f742b7cdd55d4f"},
    ),
    "leibniz": (
        {"target": "leibniz", "n": 3, "p_grid": [1, 1.5], "trials": 1500,
         "refine_steps": 3, "seed": 5},
        {"search_result.json": "62a09ecf55b17300eb91013e32ac03069d35ed22020b3e505ff1f7989fe575f5",
         "per_p.csv": "3c6f7192cb07b5d0f205b436eee4d7bc34e698463243727bbc4537e75bfa12c0",
         "history.csv": "4789e6784f24cbf1b8d5f9fa5131c4aa765e129ee26292d71e9421d5d750a85f"},
    ),
}


# sha256 of the same files for the two searches of the benchmark's
# ``open_sweep`` workload at seed 7, and for searches that refine 60 leaders
# per exponent for up to 20 sweeps per step size.
_SWEEP = {"target": "chain_rule", "n": 4, "p_grid": [2, 3, "inf"], "trials": 5000,
          "refine_steps": 10, "seed": 7, "monotone": False}
_TOP60 = {"n": 3, "p_grid": [1, 1.5, "inf"], "trials": 1000, "refine_steps": 20,
          "refine_top": 60, "seed": 3}
# 2 500 trials span three 1024-trial blocks, so each exponent's leaders and
# history are merged across blocks; recorded while the search ranked whole columns
_CROSS = {"n": 3, "p_grid": [1, 1.5, "inf"], "trials": 2500, "refine_top": 30, "seed": 5}
REFINED_SEARCH_SHA256 = {
    "open_sweep": (
        _SWEEP,
        {"search_result.json": "b7720556f401271457a8d54b72e13981df6982f956f897da5e188e84406eb549",
         "per_p.csv": "a247fa262229bac136e7539c9053425c3c6915c76e563568bac08e592f653ce0",
         "history.csv": "3ecbea44a18b7f1c9e477a386707202494cb3e95117556befc3fff3f02ac7c1e"},
    ),
    "open_sweep_control": (
        dict(_SWEEP, p_grid=[1]),
        {"search_result.json": "6b9b79ea53749b3b954d3b816125204916acbd4a0b3096c81413dfb883071ee1",
         "per_p.csv": "286f63ca6b31608b7ba5c90db7063851af76ea55ebe82f2e0e519087d6f1d6fb",
         "history.csv": "806261cd43412ff22471abc76592261d20a6bb66f594fb64fdc641ad9549574e"},
    ),
    "chain_rule_top60": (
        dict(_TOP60, target="chain_rule"),
        {"search_result.json": "7dbaea9352b6dc4f231eedab7eb8e42485b612f4e4f3766207e8f30fdf2ea438",
         "per_p.csv": "6af80f40397318e4f3051abb9643278303ab4c8a18d97273f752e6915d1f0151",
         "history.csv": "528e0a32335773d684c977e2079bda86b90e9003247968c8515fa073b801951d"},
    ),
    "chain_rule_monotone_top60": (
        dict(_TOP60, target="chain_rule", monotone=True),
        {"search_result.json": "958c9eef3b37798b7f3975f603fa005acd7ad9b49b29bcf34d73e9ea8bfef7b7",
         "per_p.csv": "3071d8b534f22d189d323d7ef05e63df1bd042e099295569c5c864a34f4c1e2a",
         "history.csv": "f0384550d90e02afe0af04dcc3e3dbcd447bb620fad978b9a6aef7288f0ce707"},
    ),
    "strong_leibniz_top60": (
        dict(_TOP60, target="strong_leibniz"),
        {"search_result.json": "06e3ac5ee652d730112f05983996f03e6d6a10e37f57a5d763056e6bf8168ec5",
         "per_p.csv": "8a905f53ef16bf605c8bedfae756fed1968925d17c42199b50749703db728c3b",
         "history.csv": "dd37bacfa7706c366d22788bd6eb6fbe0f6e5c2d2ac964e1a8de350910d59e4f"},
    ),
    "leibniz_top60": (
        dict(_TOP60, target="leibniz"),
        {"search_result.json": "8b52c51cd40409213ad5b95f6382259a01054b26742b14f14db81224bb50e1eb",
         "per_p.csv": "17d952ffd9118d3a438e2f033f84e441d33155d075513210ebb48c7deeeb471e",
         "history.csv": "a543cee9256ec757eaa1de73d438ae91d381ca73f8962767d4b62e8fdd1f60a3"},
    ),
    "square_bound_top60": (
        dict(_TOP60, target="square_bound"),
        {"search_result.json": "16a17e77aa19ee43add43e6ac4d3a1051b64a943455e6877f68f370bd3063a5e",
         "per_p.csv": "b4871958a62ca1c34b00bce8731d974a7008e8ac3513db989cd71aac6d2872fb",
         "history.csv": "f2b87ca25c501bbd3813730f1afd9726199e049304c5dac48c29e4979ace519a"},
    ),
    "chain_rule_cross_block": (
        dict(_CROSS, target="chain_rule"),
        {"search_result.json": "34816e59500b791c991867eb061909c1ee35d3c00ac878a57ecc29cbb1f13cf5",
         "per_p.csv": "da4374166b4b5186395cc0f9be85b3a9e34c7d9be1a8f0796f011e6955202612",
         "history.csv": "a369e90889a89af208df3fbaad696c6a6fbfab42e482ebc4dbf915ca4f3932a8"},
    ),
    "leibniz_cross_block": (
        dict(_CROSS, target="leibniz"),
        {"search_result.json": "14f2d473a8ac2f90f2a086fa63fb0de3278b262f6d288e0de86ba03940101685",
         "per_p.csv": "fa5884f65d54c63dc024a88feba59b3b82554fe2b6acb7b64c26488bddff9a64",
         "history.csv": "f140e02874fbe3fdb1ad4177faacea12b91cadd000ff893dd9e3b4217bb5c38b"},
    ),
    "square_bound_cross_block": (
        dict(_CROSS, target="square_bound"),
        {"search_result.json": "40db899ee4993941711c6f33cb54b81e153610bbfe32cc2f89601faef5eaa8c8",
         "per_p.csv": "fa5884f65d54c63dc024a88feba59b3b82554fe2b6acb7b64c26488bddff9a64",
         "history.csv": "a8aa6ca4c5645f7eda53a42e80e93256d016c0838e91c681792ea959c81c2b8d"},
    ),
    "strong_leibniz_cross_block": (
        dict(_CROSS, target="strong_leibniz"),
        {"search_result.json": "9faa0b6941302dc719a19a368b32d9173b37866e0df83d239a230b5571c30eac",
         "per_p.csv": "c505d90d9d0443d9c6467d431a72e3db6873ac70bcdef6ef238658e487b96f84",
         "history.csv": "741f1a30c240e6519def9e9e4ebdc608f8c93545fe2ba8e4371bb23552bc9591"},
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
# 1100 trials cross a 1024-trial block and n reaches 12.
MEASURE_SUITES_SHA256 = {
    "chain-rule": "9329b015fb8abd392422760184e87a7f02eb3f6b0d5b0b1484cf08d5ab7fc97b",
    "leibniz": "245cdfdb1dac4973222c70740d5afe3217c4adddb5e92cd59c99bc95e4e87df0",
    "markov": "acb4544bfcb058a8b9707a0a1d344e1275aa0ff858b674be8e05bf599bfb0ec3",
    "square": "c72c1f9c207783e578883a70cdf39636cbe022811483c4652f2de46772f85c80",
    "strong-leibniz": "958f790addc0bf290ab2bbdb6e6bb826aabbd28f53a11b245cee67f735592b74",
    "majorization": "a63eb5a1c49d795d4c5960dfde718dae36ffd0319459a414614f1f1961a143eb",
    "decomposition": "93516f4da58518f90411aff66d20a71fca0eca5c368157ddccffe483e808db7d",
    "laplacian": "e2c72fb87611a6b518b46edcd089e05226e57a5c813df242bd6c2a4438066278",
    "identities": "7bf30a7ea03316c95c98705abfc51fd9d63433fa2ca6a5d963f6749e85753a0e",
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
# --seed 7 --out DIR``, the benchmark's ``verify_all`` command.
BENCH_SHA256 = {
    "suite_chain-rule.jsonl": "6f2d1ee8fee762f7980742072ba424d88f77f9b9dd171093da120bb82f846dae",
    "suite_decomposition.jsonl": "33c715ec9fa9681f08f0dacb99c20a37a1881254d9c271dff2afb23f7b20bcae",
    "suite_identities.jsonl": "ad87a776026f3e5db8aa1c44ddb6e92ea00511a1a3f2efae634edbf914816671",
    "suite_laplacian.jsonl": "9b730963c6774c6ef84bc32a9e945ea9c36c352e9a83896b64371e43e13fa08e",
    "suite_leibniz.jsonl": "e6ce506a40cf984394b28559abb6f40aa8f20a2baa755d9d5f31b759ee45cd1a",
    "suite_majorization.jsonl": "83548d1a95b881eb38f69d81e680cd86b9729dac962787ca697053fcec037d46",
    "suite_markov.jsonl": "026bee662042dea3cd2c80c188281729084226b520c1d805d6c7692461ceb15d",
    "suite_square.jsonl": "dca24aef52f0c974a3c5dc203851116d5bad94845acc0d5b880d4e1966421302",
    "suite_strong-leibniz.jsonl": "57c3b5beed0c5034fd6584a7a689a8843e5c0de3a409d47ab0abf001a51b4462",
}


def test_benchmark_verify_all_reports_match_golden_hashes(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["verify", "--suite", "all", "--trials", "500", "--seed", "7", "--out", str(out)]) == 0
    capsys.readouterr()
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.glob("suite_*.jsonl"))} == BENCH_SHA256


def test_out_directories_hold_only_the_listed_files(tmp_path, capsys):
    # the benchmark's reproduction check hashes every file under --out, less the
    # manifest's wall_time_s: a new file that holds timings would fail every run of it
    assert main(["verify", "--suite", "all", "--trials", "3", "--out", str(tmp_path / "verify")]) == 0
    assert sorted(os.listdir(tmp_path / "verify")) == sorted(["manifest.json", *(f"suite_{n}.jsonl" for n in SUITES)])
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"target": "chain_rule", "n": 3, "p_grid": [1, 2], "trials": 20,
                                  "refine_steps": 1, "seed": 1}))
    for flags, extra in (((), []), (("--history-csv",), ["history.csv"])):
        out = tmp_path / f"search{len(flags)}"
        assert main(["search", "--config", str(config), "--out", str(out), *flags]) == 0
        assert sorted(os.listdir(out)) == sorted(["manifest.json", "per_p.csv", "search_result.json", *extra])
    capsys.readouterr()
