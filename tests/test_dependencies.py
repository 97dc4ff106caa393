"""The package runs on numpy alone, and its layers import only downward."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hatalloc


def test_importing_every_module_loads_no_scipy():
    # A fresh interpreter, so that test tooling cannot have loaded scipy.
    code = (
        "import importlib, pkgutil, sys, hatalloc\n"
        "for mod in pkgutil.iter_modules(hatalloc.__path__):\n"
        "    importlib.import_module('hatalloc.' + mod.name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(hatalloc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    assert out.strip() == "[]"


def imported_modules(name: str) -> set[str]:
    """Every module that `hatalloc.<name>` imports, at module or function level."""
    tree = ast.parse(Path(hatalloc.__file__).with_name(f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(["hatalloc"] + ([base] if base else []))
            # `from pkg import name` may name a submodule.
            found |= {base} | {f"{base}.{alias.name}" for alias in node.names}
    return found


@pytest.mark.parametrize("module, above", [
    ("model", "dynamics"), ("oracle", "dynamics"), ("model", "oracle"),
])
def test_lower_layers_do_not_import_higher_ones(module, above):
    assert f"hatalloc.{above}" not in imported_modules(module)


def test_wave_kernel_names_no_stacked_builder():
    """`agents` keeps its own per-block build: its source neither imports
    nor names `FlowEngine`, `reduce_program` or `stack_problem`, so no call
    to them can hide on a path that a run of the kernel does not take."""
    tree = ast.parse(Path(hatalloc.__file__).with_name("agents.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {part for alias in node.names for part in alias.name.split(".")}
    assert not names & {"FlowEngine", "reduce_program", "stack_problem"}


def test_no_module_imports_a_private_name_of_another():
    """A name with a leading underscore stays inside its module: no module
    of the package imports one from another, so each private helper can be
    changed without a caller elsewhere depending on it."""
    package = Path(hatalloc.__file__).parent
    private = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "hatalloc"):
                private += [f"{path.stem}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []
