"""The package's start-up default of one OpenBLAS thread, each case seen from a
fresh interpreter that imports the package from this checkout's src/."""

import os
import subprocess
import sys

import pytest


def _run(env, args, threads=None, variable="OPENBLAS_NUM_THREADS"):
    """``python args`` in the child environment ``env`` (see ``child_env``)
    with every thread-count variable OpenBLAS reads unset, or ``variable``
    set to ``threads``; its stdout."""
    env = dict(env)
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(name, None)
    if threads is not None:
        env[variable] = threads
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_defaults_to_one_thread(child_env):
    out = _run(child_env, ["-c", "import os, leibnizlab; print(os.environ['OPENBLAS_NUM_THREADS'])"])
    assert out == "1\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads through Linux's /proc")
def test_import_starts_no_thread_pool(child_env):
    out = _run(child_env, ["-c", "import os, leibnizlab; print(len(os.listdir('/proc/self/task')))"])
    assert out == "1\n"


def test_preset_thread_count_is_kept(child_env):
    out = _run(child_env, ["-c", "import os, leibnizlab; print(os.environ['OPENBLAS_NUM_THREADS'])"], threads="2")
    assert out == "2\n"


@pytest.mark.parametrize("variable", ["GOTO_NUM_THREADS", "OMP_NUM_THREADS"])
def test_count_preset_in_another_openblas_variable_is_kept(variable, child_env):
    # OpenBLAS reads these when OPENBLAS_NUM_THREADS is unset, so setting it would override them
    out = _run(child_env, ["-c", "import os, leibnizlab; print(os.environ.get('OPENBLAS_NUM_THREADS'))"], "2", variable)
    assert out == "None\n"


def test_numpy_imported_first_is_left_alone(child_env):
    # numpy has read the environment by then; setting it would only mislead
    out = _run(child_env, ["-c", "import os, numpy, leibnizlab; print(os.environ.get('OPENBLAS_NUM_THREADS'))"])
    assert out == "None\n"


def test_suite_files_do_not_depend_on_the_thread_count(tmp_path, child_env):
    files = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        _run(child_env, ["-m", "leibnizlab", "verify", "--suite", "laplacian", "--n", "200", "--trials", "4",
                         "--seed", "3", "--out", str(out)], threads=threads)
        files[threads] = {p.name: p.read_bytes() for p in out.glob("suite_*.jsonl")}
    assert files["1"] == files["2"] and list(files["1"]) == ["suite_laplacian.jsonl"]


def test_parser_set_up_leaves_numpy_random_unimported(child_env):
    # no command imports numpy.random (``kernels`` computes the words), set-up included
    code = "import sys, leibnizlab.cli as cli; cli.build_parser(); print('numpy.random' in sys.modules)"
    assert _run(child_env, ["-c", code]) == "False\n"


def test_verify_leaves_numpy_ma_and_char_unimported(child_env):
    # np.unique imports numpy.ma and np.char.add numpy.char; importing them costs every verify
    code = ("import io, sys, contextlib, leibnizlab.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(['verify', '--suite', 'all', '--trials', '20'])\n"
            "print([m for m in ('numpy.ma', 'numpy.char') if m in sys.modules])")
    assert _run(child_env, ["-c", code]) == "[]\n"


def test_drawing_commands_leave_numpy_random_unimported(tmp_path, child_env):
    # the suites and the search draw their words from ``kernels`` alone, so
    # numpy.random is never loaded, nor ``secrets`` and ``hashlib`` (OpenSSL) with it
    config = tmp_path / "search.json"
    config.write_text('{"target": "chain_rule", "n": 4, "p_grid": [2, 3, "inf"], "trials": 50, "monotone": false}')
    code = ("import io, sys, contextlib, leibnizlab.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['verify', '--suite', 'all', '--trials', '20']) == 0\n"
            f"    assert cli.main(['search', '--config', {str(config)!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
            "print([m for m in ('numpy.random', 'secrets', 'hashlib') if m in sys.modules])")
    assert _run(child_env, ["-c", code]) == "[]\n"


def test_main_freezes_the_import_time_heap_once(child_env):
    # the heap main finds is kept out of every collection, and a second main
    # does not freeze the objects made since (frozen ones may die: the count only falls)
    code = ("import gc, io, contextlib, leibnizlab.cli as cli\n"
            "argv = ['dualnorm', '--x', '3,1', '--w', '2,1', '--k', '2']\n"
            "before = gc.get_freeze_count()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(argv)\n"
            "    first, made = gc.get_freeze_count(), [{} for _ in range(100)]\n"
            "    cli.main(argv)\n"
            "print(before, first > 0, gc.get_freeze_count() <= first, gc.isenabled())")
    assert _run(child_env, ["-c", code]) == "0 True True True\n"
