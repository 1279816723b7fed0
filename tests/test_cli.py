"""Command-line interface: subcommands, exit codes, reproducibility."""

import json
import math
import subprocess
import sys
import warnings
import weakref

import pytest

from leibnizlab.cli import main
from leibnizlab.search import WITNESSES
from leibnizlab.serialize import dumps
from leibnizlab.suites import SUITES


def run_cli(*argv):
    return main(list(argv))


def test_verify_decomposition_suite(capsys):
    code = run_cli("verify", "--suite", "decomposition", "--trials", "300", "--n", "8")
    out = capsys.readouterr().out
    assert code == 0
    assert "suite decomposition" in out and "0 failures" in out


def test_verify_prints_a_suite_note(capsys):
    # a negative tolerance forces inverse-bound failures at p = 2; the
    # evidence suite still passes and notes them under its summary line
    code = run_cli("verify", "--suite", "strong-leibniz", "--p", "2", "--tol", "-0.01", "--trials", "200")
    lines = capsys.readouterr().out.splitlines()
    assert code == 0 and len(lines) == 2
    assert lines[0].startswith("[PASS] suite strong-leibniz (evidence): 201 checks, 2 failures, worst slack -0.0687")
    assert lines[1] == "    UNEXPECTED: 2 violations at p=2.0 (conjectured safe region)"


def test_verify_lines_are_the_reference_encoding(capsys, tmp_path):
    # every line is dumps of its own parse, and of the lazily built report's to_dict()
    out = tmp_path / "reports"
    assert run_cli("verify", "--suite", "all", "--trials", "60", "--n", "12", "--seed", "3", "--out", str(out)) == 0
    capsys.readouterr()
    for name, suite in SUITES.items():
        lines = (out / f"suite_{name}.jsonl").read_text(encoding="utf-8").splitlines()
        assert lines and all(line == dumps(json.loads(line)) for line in lines)
        assert lines == [dumps(r.to_dict()) for r in suite(trials=60, n_max=12, seed=3).reports]


def test_verify_slack_reads_back_with_its_sign(capsys, tmp_path):
    # the majorization sign patterns' slack is -0.0 where both sides are 0:
    # written "-0.0", every slack reads back as its float with its sign (an
    # integral one, such as 1.0, as the integer '%.17g' writes)
    out = tmp_path / "reports"
    assert run_cli("verify", "--suite", "majorization", "--trials", "60", "--n", "12", "--seed", "3",
                   "--out", str(out)) == 0
    capsys.readouterr()
    slacks = [json.loads(line)["slack"] for line in (out / "suite_majorization.jsonl").read_text().splitlines()]
    reports = SUITES["majorization"](trials=60, n_max=12, seed=3).reports
    assert [(v, math.copysign(1.0, v)) for v in slacks] == [(r.slack, math.copysign(1.0, r.slack)) for r in reports]
    zeros = [v for v in slacks if v == 0.0]
    assert zeros and all(type(v) is float and math.copysign(1.0, v) < 0.0 for v in zeros)
    assert all(type(v) is float for v in slacks if v != int(v))


def test_verify_seed_is_one_64_bit_word(capsys, monkeypatch):
    # the seed is a Philox key word: 2**64 - 1 runs, 2**64 is refused before
    # any suite runs, from the flag and from LEIBNIZ_LAB_SEED
    for seed, code in ((2 ** 64 - 1, 0), (2 ** 64, 2)):
        assert run_cli("verify", "--suite", "decomposition", "--trials", "3", "--seed", str(seed)) == code
        monkeypatch.setenv("LEIBNIZ_LAB_SEED", str(seed))
        assert run_cli("verify", "--suite", "decomposition", "--trials", "3") == code
        monkeypatch.delenv("LEIBNIZ_LAB_SEED")
        captured = capsys.readouterr()
        if code:
            assert captured.out == ""
            assert captured.err == "error: bad verify flags: seed must be an integer in [0, 2**64), got "\
                f"{seed}\n" * 2


def test_verify_all_json(capsys, tmp_path):
    code = run_cli("verify", "--suite", "all", "--trials", "50", "--seed", "3",
                   "--out", str(tmp_path / "reports"), "--json")
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    names = {entry["suite"] for entry in payload}
    assert {"leibniz", "decomposition", "majorization", "laplacian",
            "chain-rule", "markov", "square", "identities", "strong-leibniz"} == names
    for entry in payload:
        if entry["theorem_backed"]:
            assert entry["failures"] == 0
    assert (tmp_path / "reports" / "manifest.json").exists()
    assert (tmp_path / "reports" / "suite_leibniz.jsonl").exists()


def test_verify_holds_one_suite_at_a_time(monkeypatch, capsys, tmp_path):
    # when a suite starts, the one before it has its file written and its outcome freed
    finished, seen = [], []
    for name, suite in list(SUITES.items()):
        def run(*args, _name=name, _suite=suite, **kwargs):
            if finished:
                done, outcome = finished[-1]
                seen.append((done, (tmp_path / f"suite_{done}.jsonl").exists(), outcome() is None))
            outcome = _suite(*args, **kwargs)
            finished.append((_name, weakref.ref(outcome)))
            return outcome
        monkeypatch.setitem(SUITES, name, run)
    assert run_cli("verify", "--suite", "all", "--trials", "20", "--seed", "3", "--out", str(tmp_path)) == 0
    capsys.readouterr()
    assert seen == [(name, True, True) for name in list(SUITES)[:-1]]
    assert (tmp_path / "manifest.json").exists()


def test_verify_strong_leibniz_expected_failure_fixture(capsys):
    # the fixed p=1 witness fails its inequality but is marked expected,
    # so the evidence suite still exits 0
    code = run_cli("verify", "--suite", "strong-leibniz", "--trials", "100", "--p", "1")
    out = capsys.readouterr().out
    assert code == 0
    assert "strong-leibniz" in out


def test_verify_bad_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--suite", "no-such-suite")
    assert exc.value.code == 2


def test_verify_suite_failure_exit_1(capsys):
    # a negative tolerance makes every theorem-backed check fail: exit 1
    code = run_cli("verify", "--suite", "decomposition", "--trials", "10", "--tol", "-1")
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("flags", [
    ("--suite", "strong-leibniz", "--p", "abc"),
    ("--suite", "strong-leibniz", "--p", "0.5"),
    ("--suite", "strong-leibniz", "--p", "nan"),
    ("--suite", "leibniz", "--n", "1"),
    ("--suite", "all", "--n", "1"),
    ("--suite", "leibniz", "--tol", "nan"),
    ("--suite", "leibniz", "--tol", "inf"),
    ("--suite", "leibniz", "--trials", "-3"),
    ("--suite", "all", "--trials", "0"),
    ("--suite", "leibniz", "--seed", "-1"),
    ("--suite", "square", "--n", "5000"),
    ("--suite", "all", "--n", "1000"),
    ("--suite", "decomposition", "--n", "1001"),
    ("--suite", "majorization", "--n", "1001"),
    ("--suite", "laplacian", "--n", "1001"),
    ("--suite", "identities", "--n", "1001"),
    ("--suite", "leibniz", "--p", "3"),
    ("--suite", "leibniz", "--tol", "-inf"),
    ("--suite", "strong-leibniz", "--p", "-inf"),
    ("--suite", "strong-leibniz", "--p", "-Infinity"),
    ("--suite", "leibniz", "--tol", "-NaN"),
], ids=["p-abc", "p-half", "p-nan", "n-1", "all-n-1", "tol-nan", "tol-inf",
        "trials-negative", "all-trials-0", "seed-negative", "square-n-5000", "all-n-1000",
        "decomposition-n-1001", "majorization-n-1001", "laplacian-n-1001", "identities-n-1001",
        "leibniz-p-3", "tol-minus-inf", "p-minus-inf", "p-minus-infinity", "tol-minus-nan"])
def test_verify_malformed_flags_exit_2(capsys, flags):
    # refused before any suite runs: nothing on stdout, one line on stderr
    code = run_cli("verify", *flags)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: bad verify flags: ")
    assert captured.err.count("\n") == 1


def test_verify_majorization_accepts_n_1(capsys):
    # majorization draws n from [1, n_max], so --n 1 is a valid size there
    code = run_cli("verify", "--suite", "majorization", "--trials", "5", "--n", "1")
    assert code == 0
    assert "suite majorization" in capsys.readouterr().out


@pytest.mark.parametrize("suite, n", [("leibniz", "999"), ("majorization", "1000")])
def test_verify_accepts_largest_sizes(capsys, suite, n):
    # 999 atoms still fit above the 1e-3 mass floor; majorization samples no measure
    code = run_cli("verify", "--suite", suite, "--n", n, "--trials", "2")
    assert code == 0
    assert f"suite {suite}" in capsys.readouterr().out


def test_verify_laplacian_at_n_1000(capsys):
    # a 1000 x 1000 Laplacian's row sums round far above 1e-12; the validator
    # scales its tolerance with n and the matrix, so no trial is refused
    code = run_cli("verify", "--suite", "laplacian", "--trials", "12", "--n", "1000", "--seed", "1")
    assert code == 0
    assert "suite laplacian" in capsys.readouterr().out


def test_verify_p_inf_accepted(capsys):
    code = run_cli("verify", "--suite", "strong-leibniz", "--trials", "5", "--p", "inf")
    assert code == 0
    assert "strong-leibniz" in capsys.readouterr().out


def test_examples_json_reports(capsys):
    code = run_cli("examples", "--json")
    records = json.loads(capsys.readouterr().out)
    by_name = {r["name"]: r for r in records}
    inv = by_name["strong_leibniz_reciprocal_witness"]
    adj = by_name["strong_leibniz_reciprocal_witness_adjusted"]
    vsh = by_name["chain_rule_vshape_witness"]

    # all three witnesses violate their inequality
    assert all(r["violation_confirmed"] for r in records)
    # the v-shape values land on the quoted references ...
    assert vsh["reference"]["lhs_match"] and vsh["reference"]["rhs_match"]
    # ... the reciprocal witness as stated does not (recomputation gives
    # 0.600982 / 0.532250), while the adjusted instance does
    assert not inv["reference"]["lhs_match"]
    assert inv["lhs"] == pytest.approx(0.6009816207184628, abs=1e-12)
    assert adj["reference"]["lhs_match"] and adj["reference"]["rhs_match"]
    # exit is 1 because one reference comparison fails
    assert code == 1


def test_examples_lists_the_witness_table_in_order(capsys):
    run_cli("examples", "--json")
    assert [r["name"] for r in json.loads(capsys.readouterr().out)] == list(WITNESSES)


def test_examples_tight_tolerance_forces_mismatch(capsys):
    # the quoted references are truncated to 4-5 digits, so a 1e-6
    # tolerance cannot match them
    code = run_cli("examples", "--tol", "1e-6", "--json")
    records = json.loads(capsys.readouterr().out)
    assert code == 1
    adj = next(r for r in records if r["name"].endswith("adjusted"))
    assert not (adj["reference"]["lhs_match"] and adj["reference"]["rhs_match"])


def test_examples_text_and_out_hold_the_json_records(capsys, tmp_path):
    # --out writes the --json records one per line; the text names each
    # witness, and the reference mismatch with its computed and quoted values
    assert run_cli("examples", "--json") == 1
    records = json.loads(capsys.readouterr().out)
    assert run_cli("examples", "--out", str(tmp_path)) == 1
    lines = capsys.readouterr().out.splitlines()
    written = (tmp_path / "examples.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line) for line in written] == records
    assert lines == [
        "strong_leibniz_reciprocal_witness: violation confirmed; reference mismatch "
        "(computed lhs=0.600982 rhs=0.532250, reference lhs=0.57783 rhs=0.5417)",
        "chain_rule_vshape_witness: violation confirmed; matches references",
        "strong_leibniz_reciprocal_witness_adjusted: violation confirmed; matches references",
    ]


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_examples_non_finite_tolerance_exit_2(capsys, tol):
    # nan would read every reference as a mismatch, inf every one as a match
    code = run_cli("examples", "--tol", tol)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: bad examples flags: ")
    assert captured.err.count("\n") == 1


def test_search_finds_p1_violation_and_is_reproducible(tmp_path, capsys):
    config = {"target": "chain_rule", "n": 3, "p_grid": [1], "trials": 400,
              "refine_steps": 5, "seed": 3}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))

    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert run_cli("search", "--config", str(cfg_path), "--out", str(out1),
                   "--history-csv", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["best_violation"] > 0.01
    assert "violation found" in payload["verdict"]
    assert run_cli("search", "--config", str(cfg_path), "--out", str(out2)) == 0
    capsys.readouterr()

    # byte-identical result JSON across runs; manifests differ only in timing
    assert (out1 / "search_result.json").read_bytes() == (out2 / "search_result.json").read_bytes()
    hist = (out1 / "history.csv").read_text().splitlines()
    assert hist[0] == "trial,best_violation"
    assert len(hist) == 401
    per_p = (out1 / "per_p.csv").read_text().splitlines()
    assert per_p[0] == "p,best_violation"
    assert per_p[1].startswith("1.0,")
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["command"] == "search"
    assert str(out1 / "search_result.json") in manifest["outputs"]
    assert str(out1 / "per_p.csv") in manifest["outputs"]


def test_search_monotone_control(tmp_path, capsys):
    config = {"target": "chain_rule", "n": 3, "p_grid": [1, 2, "inf"], "trials": 300,
              "refine_steps": 2, "seed": 5, "monotone": True}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli("search", "--config", str(cfg_path), "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["best_violation"] <= 1e-9
    assert payload["verdict"].startswith("no violation found")
    assert set(payload["per_p"]) == {"1.0", "2.0", "inf"}


def test_search_bad_config_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"target": "chain_rule", "unknown_knob": 1}))
    assert run_cli("search", "--config", str(cfg_path)) == 2
    assert "bad search config" in capsys.readouterr().err
    assert run_cli("search", "--config", str(tmp_path / "missing.json")) == 2
    capsys.readouterr()


@pytest.mark.parametrize("config", [
    # n * mass_floor = 2 > 1 leaves no room for a measure: negative "weights"
    {"target": "chain_rule", "n": 10, "mass_floor": 0.2, "p_grid": [1], "trials": 200,
     "refine_steps": 5, "seed": 0, "monotone": False},
    {"target": "leibniz", "n": 10, "mass_floor": 0.2, "p_grid": [1], "trials": 200,
     "refine_steps": 5, "seed": 0},
    {"target": "chain_rule", "mass_floor": -0.1},
    {"target": "chain_rule", "p_grid": []},
    {"target": "chain_rule", "seed": 1.5},
    {"target": "chain_rule", "refine_top": -1},
    # a string is not a list of exponents (it used to run at p in {1, 2})
    {"target": "chain_rule", "p_grid": "12"},
    {"target": "chain_rule", "p_grid": [True]},
    {"target": "chain_rule", "monotone": "false"},
    # valid JSON that is not an object
    [1, 2],
    "x",
])
def test_search_invalid_config_exit_2(tmp_path, capsys, config):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli("search", "--config", str(cfg_path), "--out", str(tmp_path / "out")) == 2
    captured = capsys.readouterr()
    assert "bad search config" in captured.err
    assert captured.err.startswith("error: bad search config: ")
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_search_seed_is_one_64_bit_word(tmp_path, capsys, monkeypatch):
    # from the config, the --seed override and LEIBNIZ_LAB_SEED (for a config
    # without a seed): 2**64 - 1 runs and prints a verdict, 2**64 exits 2
    config = {"target": "chain_rule", "n": 3, "p_grid": [1], "trials": 20, "refine_steps": 0}
    cfg_path, bare = tmp_path / "cfg.json", tmp_path / "bare.json"
    bare.write_text(json.dumps(config))
    for seed, code in ((2 ** 64 - 1, 0), (2 ** 64, 2)):
        cfg_path.write_text(json.dumps(dict(config, seed=seed)))
        assert run_cli("search", "--config", str(cfg_path)) == code
        assert run_cli("search", "--config", str(bare), "--seed", str(seed)) == code
        monkeypatch.setenv("LEIBNIZ_LAB_SEED", str(seed))
        assert run_cli("search", "--config", str(bare)) == code
        monkeypatch.delenv("LEIBNIZ_LAB_SEED")
        captured = capsys.readouterr()
        if code:
            assert captured.out == ""
            assert captured.err.count("error: bad search config: seed must be an integer in [0, 2**64)") == 3
        else:
            assert captured.out.count("violation found") == 3


def test_search_seed_override_changes_result(tmp_path, capsys):
    config = {"target": "chain_rule", "n": 3, "p_grid": [1], "trials": 100,
              "refine_steps": 0, "seed": 1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli("search", "--config", str(cfg_path), "--json") == 0
    first = json.loads(capsys.readouterr().out)
    assert run_cli("search", "--config", str(cfg_path), "--seed", "2", "--json") == 0
    second = json.loads(capsys.readouterr().out)
    assert first["config"]["seed"] == 1
    assert second["config"]["seed"] == 2
    assert first["best_violation"] != second["best_violation"]


def test_dualnorm_formula_and_oracle(capsys):
    assert run_cli("dualnorm", "--x", "3,1", "--w", "2,1", "--k", "2", "--json") == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["formula"] == pytest.approx(1.5)
    assert rec["oracle"] == pytest.approx(1.5)
    assert rec["difference"] == pytest.approx(0.0, abs=1e-12)


def test_dualnorm_constant_weights_extra_form(capsys):
    assert run_cli("dualnorm", "--x", "[1, -4, 2]", "--w", "[1, 1, 1]", "--k", "2",
                   "--json") == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["constant_weight_form"] == pytest.approx(max(4.0, 7.0 / 2.0))
    assert rec["formula"] == pytest.approx(rec["constant_weight_form"])


def test_dualnorm_zero_vector(capsys):
    assert run_cli("dualnorm", "--x", "0,0,0", "--w", "3,2,1", "--k", "2", "--json") == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["formula"] == 0.0 and rec["oracle"] == 0.0


def test_dualnorm_text_output(capsys):
    # the oracle past ENUMERATION_CAP is skipped, and the constant-weight form
    # is written only for unit weights
    assert run_cli("dualnorm", "--x", "3,1", "--w", "2,1", "--k", "2") == 0
    assert capsys.readouterr().out == "formula=1.5 oracle=1.5 difference=0\n"
    assert run_cli("dualnorm", "--x", "1,-4,2", "--w", "1,1,1", "--k", "2") == 0
    assert capsys.readouterr().out == "formula=4 oracle=4 difference=0 max(linf, l1/k)=4\n"
    assert run_cli("dualnorm", "--x", ",".join(["1"] * 12 + ["-4"]), "--w", ",".join(["1"] * 13), "--k", "2") == 0
    assert capsys.readouterr().out == "formula=8 max(linf, l1/k)=8\n"


@pytest.mark.parametrize("argv", [
    ("--x", "1e308,1e308", "--w", "1,1", "--k", "2", "--json"),
    ("--x", "1e308,1e308", "--w", "2,1", "--k", "1"),
], ids=["unit-weights", "weighted"])
def test_dualnorm_overflow_exit_2(capsys, argv):
    # the true dual norm 1e308 must not print as "inf" beside a finite oracle,
    # nor with numpy's overflow warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("dualnorm", *argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: the formula overflows: it is inf\n"
    assert captured.out == ""


def test_dualnorm_weight_sums_overflow_exit_2(capsys):
    # w_1 + w_2 overflows: the command printed formula=1e-308 oracle=1e-308 and exited 0
    assert run_cli("dualnorm", "--x", "1,1,1", "--w", "1e308,1e308,1e308", "--k", "2") == 2
    captured = capsys.readouterr()
    assert captured.err == "error: the weights' partial sums overflow: w_1 + ... + w_2 is inf\n"
    assert captured.out == ""


def test_dualnorm_malformed_exit_2(capsys):
    assert run_cli("dualnorm", "--x", "3,1", "--w", "1,2", "--k", "2") == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("inspect", "--x", '{"a": 1}'),
    ("dualnorm", "--x", '{"a": 1}', "--w", "1", "--k", "1"),
], ids=["inspect", "dualnorm"])
def test_vector_flag_json_object_exit_2(capsys, argv):
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("x", ["[true, false]", '["1", "2"]', "true", '"1"', "[[1, 2]]", "[]", ""],
                         ids=["bools", "strings", "bool", "string", "nested", "empty-json", "empty"])
def test_vector_flag_non_numeric_exit_2(capsys, x):
    assert run_cli("inspect", "--x", x) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ("inspect", "--x", "[1" + "0" * 400 + "]"),
    ("dualnorm", "--x", "1", "--w", "1" + "0" * 400, "--k", "1"),
], ids=["inspect-x", "dualnorm-w"])
def test_vector_flag_integer_beyond_float_exit_2(capsys, argv):
    # json reads the integer exactly; it has no float, so the flag is refused
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: a number is too large for a float\n"
    assert captured.out == ""


@pytest.mark.parametrize("x", ["1", "1,", "[1]", "1.0"])
def test_vector_flag_lone_number_is_one_element_list(capsys, x):
    assert run_cli("inspect", "--x", x) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["n"] == 1 and rec["entries"] == [0.0]


def test_dualnorm_lone_numbers(capsys):
    assert run_cli("dualnorm", "--x", "3", "--w", "2", "--k", "1", "--json") == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["x"] == [3.0] and rec["w"] == [2.0]
    assert rec["formula"] == 1.5 and rec["oracle"] == 1.5


@pytest.mark.parametrize("argv, option", [
    (("inspect", "--x", "-0.5,1"), "--x"),
    (("dualnorm", "--x", "-1,2", "--w", "2,1", "--k", "1", "--json"), "--x"),
    (("verify", "--suite", "square", "--trials", "2", "--tol", "-1e-9", "--json"), "--tol"),
], ids=["inspect-x", "dualnorm-x", "verify-tol"])
def test_values_may_start_with_a_minus_sign(capsys, argv, option):
    # argparse alone takes "-0.5,1" or "-1e-9" for an option; the value reads as with "="
    i = argv.index(option)
    assert run_cli(*argv[:i], f"{option}={argv[i + 1]}", *argv[i + 2:]) == 0
    joined = capsys.readouterr()
    assert run_cli(*argv) == 0
    assert capsys.readouterr() == joined and joined.err == ""


@pytest.mark.parametrize("argv", [
    ("examples", "--tol", "-inf"),
    ("dualnorm", "--x", "-inf,1", "--w", "1,1", "--k", "1"),
], ids=["examples-tol", "dualnorm-x"])
def test_values_spelled_minus_inf_exit_2(capsys, argv):
    # float() reads "-inf", so the value joins its flag as "-1" does; argparse
    # alone printed its usage and "expected one argument" over several lines
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("x, message", [
    ("-abc", "argument --x: expected one argument"),
    ("-1,abc", "error: could not convert string to float: 'abc'"),
], ids=["not-a-number", "bad-entry"])
def test_malformed_values_with_a_minus_sign_exit_2(capsys, x, message):
    try:
        code = run_cli("inspect", "--x", x)
    except SystemExit as exc:  # argparse's own refusal
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and message in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["verify", "examples", "search"])
def test_out_naming_a_file_exit_2(tmp_path, capsys, command):
    # the output directory is prepared before any work runs
    taken = tmp_path / "afile"
    taken.write_text("kept\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"target": "chain_rule", "trials": 10, "refine_steps": 1}))
    argv = {"verify": ["verify", "--suite", "square", "--trials", "2"], "examples": ["examples"],
            "search": ["search", "--config", str(cfg_path)]}[command]
    assert run_cli(*argv, "--out", str(taken)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert taken.read_text() == "kept\n"


def test_inspect_theta(capsys):
    assert run_cli("inspect", "--x", "1,1", "--matrix", "theta") == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["n"] == 2
    assert rec["entries"] == pytest.approx([-0.5, 0.5, 0.5, -0.5])
    assert rec["symmetric"] is True
    assert rec["row_sum_max_abs"] <= 1e-12


def test_inspect_divided_difference(capsys):
    phi = {"breakpoints": [1 / 15], "slopes": [-1.0, 0.6], "anchor": -0.8}
    assert run_cli("inspect", "--x", "[-0.7333333333333333, 0.06666666666666667, 0.8666666666666667]",
                   "--matrix", "divided", "--phi", json.dumps(phi)) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["n"] == 3
    assert rec["entries"][1] == pytest.approx(-1.0)


def test_inspect_degenerate_exit_2(capsys):
    assert run_cli("inspect", "--x", "1,1", "--matrix", "divided") == 2
    capsys.readouterr()


@pytest.mark.parametrize("phi", ['{"breakpoints": [0]}', "[1, 2]",
                                 '{"breakpoints": [0], "slopes": [1, 1], "anchor": null}',
                                 '{"breakpoints": {"a": 1}, "slopes": [1, 1]}',
                                 # a non-finite anchor would make every divided difference nan
                                 '{"breakpoints": [0], "slopes": [1, 1], "anchor": 1e999}',
                                 '{"breakpoints": [0], "slopes": [1, 1], "anchor": NaN}'])
def test_inspect_malformed_phi_exit_2(capsys, phi):
    assert run_cli("inspect", "--x", "1,2", "--matrix", "divided", "--phi", phi) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: phi ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_env_seed_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LEIBNIZ_LAB_SEED", "31")
    assert run_cli("verify", "--suite", "decomposition", "--trials", "20", "--json") == 0
    env_out = capsys.readouterr().out
    monkeypatch.delenv("LEIBNIZ_LAB_SEED")
    assert run_cli("verify", "--suite", "decomposition", "--trials", "20",
                   "--seed", "31", "--json") == 0
    assert env_out == capsys.readouterr().out


def test_env_seed_malformed_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("LEIBNIZ_LAB_SEED", "abc")
    assert run_cli("verify", "--suite", "decomposition", "--trials", "5") == 2
    assert capsys.readouterr().err.startswith("error: bad verify flags: ")


def test_search_env_seed_read_only_without_config_or_flag_seed(tmp_path, capsys, monkeypatch):
    # a malformed LEIBNIZ_LAB_SEED is never read when the config or --seed
    # gives the seed, as under verify --seed
    config = {"target": "chain_rule", "n": 3, "p_grid": [1], "trials": 20, "refine_steps": 0}
    cfg_path, bare = tmp_path / "cfg.json", tmp_path / "bare.json"
    cfg_path.write_text(json.dumps(dict(config, seed=4)))
    bare.write_text(json.dumps(config))
    monkeypatch.setenv("LEIBNIZ_LAB_SEED", "abc")
    assert run_cli("search", "--config", str(cfg_path), "--json") == 0
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == 4
    for path in (cfg_path, bare):
        assert run_cli("search", "--config", str(path), "--seed", "5", "--json") == 0
        assert json.loads(capsys.readouterr().out)["config"]["seed"] == 5
    assert run_cli("search", "--config", str(bare)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: bad search config: invalid literal for int()")
    assert captured.out == ""


def test_console_module_invocation(child_env):
    # the child imports the package from this checkout's src/, installed or not
    proc = subprocess.run(
        [sys.executable, "-m", "leibnizlab", "dualnorm", "--x", "3,1", "--w", "2,1", "--k", "2"],
        capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0
    assert "formula=1.5" in proc.stdout


@pytest.mark.parametrize("argv", [
    ("--x", "[1e308,-1e308,1e308]", "--matrix", "deflated"),
    ("--matrix", "divided", "--x", "1,2", "--phi", '{"breakpoints": [0], "slopes": [1e308, -1e308]}'),
], ids=["deflated", "divided"])
def test_inspect_overflow_exit_2(capsys, argv):
    # inf - inf in M - M.T would report a symmetric matrix as asymmetric
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("inspect", *argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == "" and caught == []
