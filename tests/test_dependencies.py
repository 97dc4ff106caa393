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


def _referrers(name: str, calls: bool = False) -> set[str]:
    """`module.Class.function` of every scope in the package that names
    `name`, bare or as an attribute; with `calls`, every scope that calls
    it."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            named = (child.func if isinstance(child, ast.Call) else None) if calls else child
            if name in (getattr(named, "id", None), getattr(named, "attr", None)):
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
    assert not _defined_functions() & gone


def _defined_functions() -> set[str]:
    """The name of every function and method the package defines."""
    return {node.name for path in Path(hatalloc.__file__).parent.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_one_maker_of_reduced_programs():
    """`oracle.reduce_stacked` makes every reduced program, and
    `ReducedProgram.at` takes one out of a stack: no other scope calls the
    constructor. The partial re-reduction to new bases and the helpers that
    re-stacked a draw's cells are neither defined nor named."""
    assert _referrers("ReducedProgram", calls=True) == {"oracle.reduce_stacked",
                                                         "oracle.ReducedProgram.at"}
    gone = {"with_bases", "_base_terms", "_scaled", "_draw_cells"}
    assert not set().union(*map(_referrers, gone))
    assert not _defined_functions() & gone


def test_the_samples_are_one_table():
    """A record's samples are one record array whose field names are
    `trajectory.csv`'s header: no per-sample class, per-agent workload dict
    or header bookkeeping is defined or named in the package."""
    gone = {"TrajectorySample", "workloads", "agent_order", "has_deviation", "has_saddle"}
    assert not set().union(*map(_referrers, gone))
    defined = {node.name for path in Path(hatalloc.__file__).parent.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & gone


def _derive_calls() -> set[tuple[str, str]]:
    """(`module.Class.function`, key) of every `.derive(key, ...)` call in
    the package."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "derive"):
                found.add((scope, ast.literal_eval(child.args[0])))
            visit(child, scope)

    for path in Path(hatalloc.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def test_one_holder_for_what_a_scenario_derives():
    """What is built once from a scenario is held only by `Scenario.derive`:
    one caller per held key, besides the generator's `_scenario`, which
    gives a draw's scenario its row of the draw block as its stack. No
    other scope names the held dict."""
    assert _derive_calls() == {
        ("model.Scenario.stacked", "stacked"),
        ("experiments._scenario", "stacked"),
        ("oracle.reduction", "reduction"),
        ("reformulation.decoupled_blocks", "decoupled"),
        ("dynamics.FlowEngine.folded", "fold"),
    }
    assert _referrers("derive") == {scope for scope, _ in _derive_calls()}
    assert _referrers("_derived") == {"model.Scenario.with_solver", "model.Scenario.derive"}
    package = Path(hatalloc.__file__).parent  # `__post_init__` sets it by its name
    assert [p.stem for p in package.glob("*.py") if "_derived" in p.read_text()] == ["model"]


def test_one_builder_of_the_flow_operator():
    """Only `dynamics.fold` reads the lift's nonzeros: M has one builder,
    which the flow's engine and the generator's margin checks both read."""
    assert _referrers("lift_entries") == {"dynamics.fold"}


def test_one_decoupled_gap():
    """`reformulation.decoupled_residual` is the one decoupled gap: the flow's
    velocity `rhs` and its Lagrangian call it, as does `hatalloc check`, and
    the engine keeps no second expression of it. `kkt_residual` reads the
    gap and both gradients from `rhs` alone."""
    assert _referrers("decoupled_residual", calls=True) == {
        "dynamics.FlowEngine.rhs", "dynamics.FlowEngine.lagrangian_value", "cli._cmd_check"}
    assert _referrers("constraint_gap") == set()
    assert "dynamics.kkt_residual" in _referrers("rhs", calls=True)
    for name in ("lagrangian_gradient_x", "lift_apply"):
        assert "dynamics.kkt_residual" not in _referrers(name, calls=True)


def test_one_stepper_feeds_one_consumer():
    """A run's steps come from one source, `dynamics._steps`, the only scope
    that attempts chunks, and `_run_flow`'s loop over it is the only
    consumer: it alone tracks, samples and stops. The samples are evaluated
    only from that loop's `keep`."""
    assert _referrers("_chunk") == {"dynamics._steps"}
    assert _referrers("choose") == {"dynamics._steps"}
    assert _referrers("_steps") == {"dynamics._run_flow"}
    assert _referrers("_samples") == {"dynamics._run_flow", "dynamics._run_flow.keep"}


def test_the_writer_streams_through_no_encoder():
    """No module of the package names json's pure-Python streaming encoder
    or a batch size for its pieces: `save_scenario` writes the text that
    `scenario_text` builds."""
    package = Path(hatalloc.__file__).parent
    named = set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        named |= _names(tree) | {alias.name for node in ast.walk(tree)
                                 if isinstance(node, (ast.Import, ast.ImportFrom))
                                 for alias in node.names}
    assert not named & {"iterencode", "JSONEncoder", "SAVE_BATCH"}


# The top-level keys of a scenario document.
DOCUMENT_KEYS = {"agents", "edges", "costs", "constraint", "human_models", "solver",
                 "initial_state"}


def test_one_function_lays_out_the_document():
    """Only `model.scenario_text` pairs a top-level key of the document with
    a value, as a dict display's key or the head of a (key, value) pair:
    the layout has one definition, which `save_scenario` writes and
    `serialize_scenario` parses. The parser only reads the keys."""
    found = set()

    def is_key(node):
        return isinstance(node, ast.Constant) and node.value in DOCUMENT_KEYS

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Dict) and any(map(is_key, child.keys)):
                found.add(scope)
            if (isinstance(child, ast.Tuple) and len(child.elts) == 2 and is_key(child.elts[0])
                    and not isinstance(child.elts[1], ast.Constant)):
                found.add(scope)
            visit(child, scope)

    for path in Path(hatalloc.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem)
    assert found == {"model.scenario_text"}
    assert _referrers("scenario_text") == {"model.serialize_scenario", "model.save_scenario"}


def test_the_wave_kernel_keeps_its_plans_on_its_runner():
    """`agents` keeps no module-level container of arrays and no cache: its
    top level holds only its docstring, imports, classes and functions, and
    nothing in it is cached, so every product plan is built for a runner
    (in `__init__`, its cost batches through `_cost_blocks`) and lives on
    it, and a dropped runner frees its plans."""
    tree = ast.parse(Path(hatalloc.__file__).with_name("agents.py").read_text())
    allowed = (ast.Import, ast.ImportFrom, ast.ClassDef, ast.FunctionDef)
    extra = [ast.dump(node)[:60] for node in tree.body if not isinstance(node, allowed)
             and not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))]
    assert extra == []
    assert not _names(tree) & {"cache", "lru_cache", "WeakKeyDictionary", "WeakValueDictionary"}
    assert _referrers("_Product") == {"agents.DistributedRunner.__init__", "agents._cost_blocks"}


def test_only_the_screen_inverts_matrices():
    """`np.linalg.inv` is called only in `experiments._inverse`, so every
    inverse the generator's screen reads has passed its SCREEN_MAX_COND
    check."""
    assert _referrers("inv") == {"experiments._inverse"}


def test_the_parser_checks_only_json_types():
    """Scenario documents are read by one number reader, `_as_array`, and no
    function of the parser (`_as_*`, `_parse_*`, `scenario_from_document`)
    calls `np.isfinite`: each object built from the numbers refuses a
    non-finite one itself. The two readers it replaced are neither defined
    nor named."""
    tree = ast.parse(Path(hatalloc.__file__).with_name("model.py").read_text())
    parser = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
              and (node.name.startswith(("_as_", "_parse_"))
                   or node.name == "scenario_from_document")}
    assert {"_as_array", "_parse_model", "scenario_from_document"} <= set(parser)
    assert [name for name, node in parser.items() if "isfinite" in _names(node)] == []
    gone = {"_as_matrix", "_as_vector"}
    assert not gone & set(parser) and not set().union(*map(_referrers, gone))


def test_one_per_matrix_fallback():
    """Only `oracle.per_matrix` retries a failing stack of matrices one at a
    time: `experiments` handles no `LinAlgError` itself."""
    assert _referrers("LinAlgError") == {"oracle.per_matrix"}


# The references that only tests call, each with the reason it stays.
TEST_ONLY = {
    "agents.agent_round": "the per-agent round that the wave kernel is held to, bit for bit",
    "dynamics._step_arrays": "the reference step that every fast path is held to",
    "model.serialize_scenario": "the document's tree, whose `json.dumps(tree, indent=2)` "
                                "the bytes of `scenario_text` are held to",
}


def _unnamed_functions(named_in) -> set[str]:
    """`module.Class.function` of every function, method or property of the
    package (no dunder) whose name is not among those `named_in(tree)` gives
    for it, `tree` being its module's syntax tree: `named_in` returns (the
    names that count for a function, those that count for a method)."""
    unnamed = set()

    def visit(node, scope, named):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualified = f"{scope}.{child.name}"
                if (not isinstance(child, ast.ClassDef) and not child.name.endswith("__")
                        and child.name not in named[isinstance(node, ast.ClassDef)]):
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


def _attributes(tree) -> set[str]:
    """Every name in `tree` that is reached as an attribute (`.name`)."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_every_private_function_is_named_in_its_module():
    """A function or method whose name has a leading underscore (and is no
    dunder) is named by code of its own module, bare or as an attribute:
    code that only tests reach lives in the tests, except for `TEST_ONLY`."""
    unnamed = _unnamed_functions(lambda tree: (_names(tree),) * 2)
    assert set(filter(_private, unnamed)) == set(filter(_private, TEST_ONLY))


def test_every_function_is_named_outside_the_tests():
    """Every function is named, and every method or property reached as an
    attribute (`.name`), by code of the package (its re-exports in
    `__init__` aside), by `bench/` or by README's quick start: what only
    tests reach lives in the tests, except for `TEST_ONLY`."""
    package = Path(hatalloc.__file__).parent
    trees = [ast.parse(quick_start_block())]
    for path in [*package.glob("*.py"), *(package.parents[1] / "bench").glob("*.py")]:
        if path.name != "__init__.py":
            trees.append(ast.parse(path.read_text()))
    named = set().union(*map(_names, trees)), set().union(*map(_attributes, trees))
    assert _unnamed_functions(lambda tree: named) == set(TEST_ONLY)
