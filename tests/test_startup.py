"""The package's start-up default of one OpenBLAS thread, each case seen from a
fresh interpreter that imports the package from this checkout's src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(args, threads=None, variable="OPENBLAS_NUM_THREADS"):
    """``python args`` with src/ first on PYTHONPATH and every thread-count
    variable OpenBLAS reads unset, or ``variable`` set to ``threads``; its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(name, None)
    if threads is not None:
        env[variable] = threads
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_defaults_to_one_thread():
    out = _run(["-c", "import os, leibnizlab; print(os.environ['OPENBLAS_NUM_THREADS'])"])
    assert out == "1\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads through Linux's /proc")
def test_import_starts_no_thread_pool():
    out = _run(["-c", "import os, leibnizlab; print(len(os.listdir('/proc/self/task')))"])
    assert out == "1\n"


def test_preset_thread_count_is_kept():
    out = _run(["-c", "import os, leibnizlab; print(os.environ['OPENBLAS_NUM_THREADS'])"], threads="2")
    assert out == "2\n"


@pytest.mark.parametrize("variable", ["GOTO_NUM_THREADS", "OMP_NUM_THREADS"])
def test_count_preset_in_another_openblas_variable_is_kept(variable):
    # OpenBLAS reads these when OPENBLAS_NUM_THREADS is unset, so setting it would override them
    out = _run(["-c", "import os, leibnizlab; print(os.environ.get('OPENBLAS_NUM_THREADS'))"], "2", variable)
    assert out == "None\n"


def test_numpy_imported_first_is_left_alone():
    # numpy has read the environment by then; setting it would only mislead
    out = _run(["-c", "import os, numpy, leibnizlab; print(os.environ.get('OPENBLAS_NUM_THREADS'))"])
    assert out == "None\n"


def test_suite_files_do_not_depend_on_the_thread_count(tmp_path):
    files = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        _run(["-m", "leibnizlab", "verify", "--suite", "laplacian", "--n", "200", "--trials", "4",
              "--seed", "3", "--out", str(out)], threads=threads)
        files[threads] = {p.name: p.read_bytes() for p in out.glob("suite_*.jsonl")}
    assert files["1"] == files["2"] and list(files["1"]) == ["suite_laplacian.jsonl"]


def test_parser_set_up_leaves_numpy_random_unimported():
    # no command imports numpy.random (``kernels`` computes the words), set-up included
    code = "import sys, leibnizlab.cli as cli; cli.build_parser(); print('numpy.random' in sys.modules)"
    assert _run(["-c", code]) == "False\n"


def test_verify_leaves_numpy_ma_and_char_unimported():
    # np.unique imports numpy.ma and np.char.add numpy.char; importing them costs every verify
    code = ("import io, sys, contextlib, leibnizlab.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(['verify', '--suite', 'all', '--trials', '20'])\n"
            "print([m for m in ('numpy.ma', 'numpy.char') if m in sys.modules])")
    assert _run(["-c", code]) == "[]\n"


def test_drawing_commands_leave_numpy_random_unimported(tmp_path):
    # the suites and the search draw their words from ``kernels`` alone, so
    # numpy.random is never loaded, nor ``secrets`` and ``hashlib`` (OpenSSL) with it
    config = tmp_path / "search.json"
    config.write_text('{"target": "chain_rule", "n": 4, "p_grid": [2, 3, "inf"], "trials": 50, "monotone": false}')
    code = ("import io, sys, contextlib, leibnizlab.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['verify', '--suite', 'all', '--trials', '20']) == 0\n"
            f"    assert cli.main(['search', '--config', {str(config)!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
            "print([m for m in ('numpy.random', 'secrets', 'hashlib') if m in sys.modules])")
    assert _run(["-c", code]) == "[]\n"
