"""The benchmark's tracer (``perfbench/tracing.py``) still installs on the package.

The tracer finds the modules it wraps as ``leibnizlab.<module>`` in
``sys.modules`` and two methods by class and attribute name
(``PiecewiseLinearFn.__post_init__``, ``VerificationReport.to_dict``).  A
module, class or method renamed or deleted in ``src/`` would break the
benchmark's traced runs; these tests run its two workloads' commands, a
``verify`` and an ``open_sweep``-shaped ``search``, the way
``perfbench/child.py`` does.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import leibnizlab.cli as cli  # imported before the tracer, as perfbench/child.py does
from leibnizlab import reports, suites

search = importlib.import_module("leibnizlab.search")

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_verify_all_and_uninstalls(capsys, tmp_path):
    tracing = _load_tracing()
    originals = (dict(suites.SUITES), reports.VerificationReport.__dict__["to_dict"])
    tracer = tracing.Tracer()
    try:
        tracer.install()
        code = cli.main(["verify", "--suite", "all", "--trials", "20", "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    assert "[PASS] suite leibniz" in capsys.readouterr().out
    called = {tracer.names[i] for i in tracer.name}
    assert {f"suites.suite_{name.replace('-', '_')}" for name in suites.SUITES} <= called
    # suite report lines are formatted from block columns, never through to_dict
    assert {"cli.cmd_verify", "verify.check_strong_leibniz", "serialize.block_lines", "serialize.write_jsonl"} <= called
    assert (dict(suites.SUITES), reports.VerificationReport.__dict__["to_dict"]) == originals


def test_tracer_records_open_sweep_search_and_uninstalls(capsys, tmp_path):
    tracing = _load_tracing()
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"target": "chain_rule", "n": 4, "p_grid": [2, 3, "inf"], "trials": 300,
                                  "refine_steps": 2, "seed": 7, "monotone": False}))
    originals = (cli.cmd_search, cli.run_search, search.search, search.violation)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert cli.run_search is not originals[1]
        code = cli.main(["search", "--config", str(config), "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert "no violation found" in capsys.readouterr().out
    called = {tracer.names[i] for i in tracer.name}
    assert {"cli.cmd_search", "search.search"} <= called
    assert (cli.cmd_search, cli.run_search, search.search, search.violation) == originals
