"""Command-line interface: subcommands, exit codes, reproducibility."""

import json
import subprocess
import sys

import pytest

from leibnizlab.cli import main


def run_cli(*argv):
    return main(list(argv))


def test_verify_decomposition_suite(capsys):
    code = run_cli("verify", "--suite", "decomposition", "--trials", "300", "--n", "8")
    out = capsys.readouterr().out
    assert code == 0
    assert "suite decomposition" in out and "0 failures" in out


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


def test_examples_tight_tolerance_forces_mismatch(capsys):
    # the quoted references are truncated to 4-5 digits, so a 1e-6
    # tolerance cannot match them
    code = run_cli("examples", "--tol", "1e-6", "--json")
    records = json.loads(capsys.readouterr().out)
    assert code == 1
    adj = next(r for r in records if r["name"].endswith("adjusted"))
    assert not (adj["reference"]["lhs_match"] and adj["reference"]["rhs_match"])


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
])
def test_search_invalid_config_exit_2(tmp_path, capsys, config):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run_cli("search", "--config", str(cfg_path), "--out", str(tmp_path / "out")) == 2
    captured = capsys.readouterr()
    assert "bad search config" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


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


def test_dualnorm_malformed_exit_2(capsys):
    assert run_cli("dualnorm", "--x", "3,1", "--w", "1,2", "--k", "2") == 2
    assert "error" in capsys.readouterr().err


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


def test_env_seed_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LEIBNIZ_LAB_SEED", "31")
    assert run_cli("verify", "--suite", "decomposition", "--trials", "20", "--json") == 0
    env_out = capsys.readouterr().out
    monkeypatch.delenv("LEIBNIZ_LAB_SEED")
    assert run_cli("verify", "--suite", "decomposition", "--trials", "20",
                   "--seed", "31", "--json") == 0
    assert env_out == capsys.readouterr().out


def test_console_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "leibnizlab", "dualnorm", "--x", "3,1", "--w", "2,1", "--k", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "formula=1.5" in proc.stdout
