"""Every name a ``leibnizlab`` module imports at top level is used in its code
(a docstring does not count), or re-exported by ``leibnizlab/__init__.py``
as ``from .module import name``.  The package's ``__init__`` is exempt: its
imports are the public names.  Every private top-level name (one leading
underscore: a function, class or assigned name) is loaded somewhere in the
package, as a name or an attribute, so a deletion leaves no dead helper."""

import ast
from pathlib import Path

import pytest

import leibnizlab

PACKAGE = Path(leibnizlab.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each name bound by a top-level import (``__future__`` aside), with its statement."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node
    return names


def _reexported() -> set[tuple[str, str]]:
    """(module, name) for each ``from .module import name`` in ``__init__.py``."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    reexported = _reexported()
    unused = [name for name in _imported(tree)
              if name not in used and (path.stem, name) not in reexported]
    assert unused == [], f"{path.name} imports {unused} and never uses them"


def _private_definitions(tree: ast.Module) -> list[str]:
    """The top-level functions, classes and assigned names with one leading underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_private_names_are_loaded():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    dead = [f"{name}: {private}" for name, tree in trees.items()
            for private in _private_definitions(tree) if private not in loaded]
    assert dead == [], f"private names defined and never loaded: {dead}"


#: What a second way of drawing random numbers would name: the package draws
#: only through the one stream rule, ``kernels.trial_words``, which computes
#: its words itself; importing numpy.random would load every numpy generator
#: and, through ``secrets`` and ``hashlib``, OpenSSL.
SECOND_STREAM = ("default_rng", "SeedSequence", "PCG64", "bit_generator.state", "np.random", "numpy.random")


def test_one_stream_path():
    found = [f"{path.name}: {word}" for path in sorted(PACKAGE.glob("*.py"))
             for word in SECOND_STREAM if word in path.read_text(encoding="utf-8")]
    assert found == [], f"a second stream path: {found}"


#: The samplers of a statement's instance on a measure.  Only
#: ``verify.Statement.draw`` calls them, so the suites and the search lay out
#: each instance one way; a call anywhere else would be a second layout.
INSTANCE_SAMPLERS = ("measures", "invertible")


def test_one_instance_layout():
    calls = {path.name: [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                         if isinstance(node, ast.Call)
                         and getattr(node.func, "attr", getattr(node.func, "id", None)) in INSTANCE_SAMPLERS]
             for path in sorted(PACKAGE.glob("*.py"))}
    assert len(calls.pop("verify.py")) == len(INSTANCE_SAMPLERS)
    assert [call for found in calls.values() for call in found] == [], "a second layout of an instance"


def test_no_starred_subscripts():
    """``a[:, *b]`` is Python 3.11 syntax (PEP 646); ``pyproject.toml`` declares
    3.10, where importing the module stops with a SyntaxError.  ``ast.parse``
    with ``feature_version=(3, 10)`` does not flag it, so the tree is walked."""
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Subscript)
             and any(isinstance(n, ast.Starred) for n in ast.walk(node.slice))]
    assert found == [], f"starred subscripts (Python 3.11 syntax): {found}"
