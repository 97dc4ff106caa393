"""The package runs on numpy alone, and its layers import only downward."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hatalloc
from hatalloc import experiments, runs

from test_readme import quick_start_block


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
    ("experiments", "runs"), ("dynamics", "runs"), ("oracle", "runs"),
])
def test_lower_layers_do_not_import_higher_ones(module, above):
    assert f"hatalloc.{above}" not in imported_modules(module)


# What `runs` moved out of `experiments`, which keeps no second import path.
RUN_DRIVERS = ("ExperimentResult", "PRESETS", "OUTPUT_DIR_ENV", "default_output_dir",
               "outcome", "run_risk_grid", "run_experiment")


def test_the_generator_imports_nothing_from_the_run_path():
    """`experiments` generates instances: it neither integrates nor measures
    a run, and no run driver is importable from it."""
    run_path = {"hatalloc.dynamics.integrate", "hatalloc.dynamics.kkt_residual",
                "hatalloc.dynamics.FlowEngine", "hatalloc.metrics",
                "hatalloc.model.save_scenario", "hatalloc.oracle.load_scenario",
                "hatalloc.oracle.solve_centralized"}
    assert not imported_modules("experiments") & run_path
    assert not [name for name in RUN_DRIVERS if hasattr(experiments, name)]
    assert all(hasattr(runs, name) for name in RUN_DRIVERS)


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


def _referrers(name: str) -> set[str]:
    """`module.Class.function` of every scope in the package that names
    `name`, bare or as an attribute."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if name in (getattr(child, "id", None), getattr(child, "attr", None)):
                found.add(scope)
            visit(child, scope)

    for path in Path(hatalloc.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem)
    return found


@pytest.mark.parametrize("name, only", [
    ("stack_problem", "model.Scenario.stacked"),
    ("kron", "reformulation.DecoupledConstraint.l_bar"),
])
def test_one_place_stacks_the_problem_and_one_builds_the_dense_lift(name, only):
    """Every other consumer reads `Scenario.stacked`, or applies and solves
    the lift on the node Laplacian."""
    assert _referrers(name) == {only}


def test_one_place_reduces_a_scenarios_stack():
    """`oracle.reduction` reduces a scenario's own stack, once, and the
    oracle's solves and the flow's fold read what it holds. The listed
    exception is the generator's `_generate`, which reduces the attitude
    cells of a block of raw draws: no scenario's stack."""
    assert _referrers("reduce_stacked") == {"oracle.reduction", "experiments._generate"}


def test_only_the_stack_and_the_generators_draw_lay_out_raw_parts():
    """`stack_parts` lays out parts it does not validate: only
    `stack_problem`, on a validated scenario, and the generator's block
    layout `_lay_out`, which lays out each raw draw of a block and stacks
    their layouts, call it; a draw's objects are built and validated once
    its offset is tightened."""
    assert _referrers("stack_parts") == {"model.stack_problem", "experiments._lay_out"}


def test_the_package_reads_a_states_w_and_never_restacks_it():
    """No scope of the package calls `FlowEngine.stack_state`, which stays
    for `bench/`, and the per-agent stack and split helpers are gone: none
    of them is defined or named. Only `SystemState` makes per-agent blocks
    from a stacked vector."""
    assert _referrers("stack_state") == set()
    bench = Path(hatalloc.__file__).parents[2] / "bench"
    assert "stack_state" in set().union(*(_names(ast.parse(p.read_text()))
                                          for p in bench.glob("*.py")))
    gone = {"stack_x", "stack_nodes", "unstack_x", "unstack_nodes", "unstack_state"}
    assert not set().union(*map(_referrers, gone))
    defined = {node.name for path in Path(hatalloc.__file__).parent.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert not defined & gone


def test_only_the_screen_inverts_matrices():
    """`np.linalg.inv` is called only in `experiments._inverse`, so every
    inverse the generator's screen reads has passed its SCREEN_MAX_COND
    check."""
    assert _referrers("inv") == {"experiments._inverse"}


# The references that only tests call, each with the reason it stays.
TEST_ONLY = {
    "agents.agent_round": "the per-agent round that the wave kernel is held to, bit for bit",
    "dynamics._step_arrays": "the reference step that every fast path is held to",
}


def _unnamed_functions(named_in) -> set[str]:
    """`module.Class.function` of every function, method or property of the
    package (no dunder) whose name is not in `named_in(tree)`, `tree` being
    its module's syntax tree."""
    unnamed = set()

    def visit(node, scope, named):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualified = f"{scope}.{child.name}"
                if (not isinstance(child, ast.ClassDef) and not child.name.endswith("__")
                        and child.name not in named):
                    unnamed.add(qualified)
                visit(child, qualified, named)
            else:
                visit(child, scope, named)

    for path in Path(hatalloc.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        visit(tree, path.stem, named_in(tree))
    return unnamed


def _private(qualified: str) -> bool:
    return qualified.rsplit(".", 1)[-1].startswith("_")


def _names(tree) -> set[str]:
    """Every name in `tree`, bare or as an attribute."""
    return {getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(tree)}


def test_every_private_function_is_named_in_its_module():
    """A function or method whose name has a leading underscore (and is no
    dunder) is named by code of its own module, bare or as an attribute:
    code that only tests reach lives in the tests, except for `TEST_ONLY`."""
    unnamed = _unnamed_functions(_names)
    assert set(filter(_private, unnamed)) == set(filter(_private, TEST_ONLY))


def test_every_function_is_named_outside_the_tests():
    """Every function, method or property is named by code of the package
    (its re-exports in `__init__` aside), by `bench/` or by README's quick
    start: what only tests reach lives in the tests, except for `TEST_ONLY`."""
    package = Path(hatalloc.__file__).parent
    named = _names(ast.parse(quick_start_block()))
    for path in [*package.glob("*.py"), *(package.parents[1] / "bench").glob("*.py")]:
        if path.name != "__init__.py":
            named |= _names(ast.parse(path.read_text()))
    assert _unnamed_functions(lambda tree: named) == set(TEST_ONLY)
