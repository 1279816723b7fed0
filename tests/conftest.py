"""The environment of the child interpreters some tests start."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="session")
def child_env(tmp_path_factory) -> dict:
    """This process's environment with src/ first on PYTHONPATH and one
    bytecode cache for the whole session under pytest's tmp dir: the package
    compiles in the first child, not in each, and nothing is written under
    src/.  PYTHONDONTWRITEBYTECODE is dropped for the children only."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
               PYTHONPYCACHEPREFIX=str(tmp_path_factory.mktemp("pycache")))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env
