"""The package runs on numpy alone, and its layers import only downward.
The structure guards read one parse of it, node by node with their scopes."""

import ast
import os
import subprocess
import sys
from collections import defaultdict
from functools import cache
from pathlib import Path

import pytest

import hatalloc
from hatalloc import experiments, runs

from test_readme import quick_start_block

PACKAGE = Path(hatalloc.__file__).parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


@cache
def _trees() -> dict[str, ast.Module]:
    """The syntax tree of each module of the package, by module name."""
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


@cache
def _nodes() -> tuple[tuple[str, ast.AST], ...]:
    """(scope, node) of every node of the package, `scope` being
    `module.Class.function` of the innermost function or class around the
    node. A function's decorators and arguments are inside its scope; its
    own node is in the scope around it."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            found.append((scope, child))
            inner = isinstance(child, (*FUNCTIONS, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if inner else scope)

    for module, tree in _trees().items():
        visit(tree, module)
    return tuple(found)


def _name(node) -> str | None:
    """The name `node` reads, bare or as an attribute (`.name`)."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


@cache
def _index() -> tuple[dict[str, set[str]], dict[str, set[str]]]:
    """Name -> the scopes that name it, bare or as an attribute; and name ->
    the scopes that call it by that name."""
    named, called = defaultdict(set), defaultdict(set)
    for scope, node in _nodes():
        named[_name(node)].add(scope)
        if isinstance(node, ast.Call):
            called[_name(node.func)].add(scope)
    return dict(named), dict(called)


def _referrers(name: str, calls: bool = False) -> set[str]:
    """`module.Class.function` of every scope in the package that names
    `name`, bare or as an attribute; with `calls`, every scope that calls
    it."""
    return set(_index()[calls].get(name, ()))


def _names_in(scope: str) -> set[str]:
    """Every name, bare or as an attribute, in `scope` (a module or a
    `module.Class.function`) and in the scopes inside it."""
    return {name for name, scopes in _index()[0].items()
            if any(s == scope or s.startswith(f"{scope}.") for s in scopes)}


def _module_nodes(module: str) -> list[ast.AST]:
    """Every node of `hatalloc.<module>`."""
    return [node for scope, node in _nodes() if scope.split(".")[0] == module]


def _defined_functions() -> set[str]:
    """The name of every function and method the package defines."""
    return {node.name for _, node in _nodes() if isinstance(node, FUNCTIONS)}


@cache
def _callers() -> dict[str, ast.Module]:
    """The syntax trees of the code outside the package that calls it:
    README's quick start, and each file of `bench/` by its path."""
    bench = sorted((PACKAGE.parents[1] / "bench").glob("*.py"))
    return {"quick start": ast.parse(quick_start_block()),
            **{f"bench/{path.name}": ast.parse(path.read_text()) for path in bench}}


def _attributes(nodes) -> set[str]:
    """Every name among `nodes` that is reached as an attribute (`.name`)."""
    return {node.attr for node in nodes if isinstance(node, ast.Attribute)}


def test_the_guards_share_one_parse():
    """The index helpers read `_trees`, which parses the package once."""
    _referrers("derive")
    _defined_functions()
    assert _trees.cache_info().misses == 1


def test_importing_every_module_loads_no_scipy():
    # A fresh interpreter, so that test tooling cannot have loaded scipy.
    code = (
        "import importlib, pkgutil, sys, hatalloc\n"
        "for mod in pkgutil.iter_modules(hatalloc.__path__):\n"
        "    importlib.import_module('hatalloc.' + mod.name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(PACKAGE.resolve().parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    assert out.strip() == "[]"


def imported_modules(name: str) -> set[str]:
    """Every module that `hatalloc.<name>` imports, at module or function level."""
    found = set()
    for node in _module_nodes(name):
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
    names = _names_in("agents") | {
        part for node in _module_nodes("agents") if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names for part in alias.name.split(".")}
    assert not names & {"FlowEngine", "reduce_program", "stack_problem"}


def test_no_module_imports_a_private_name_of_another():
    """A name with a leading underscore stays inside its module: no module
    of the package imports one from another, so each private helper can be
    changed without a caller elsewhere depending on it."""
    private = [f"{scope.split('.')[0]}: {alias.name}" for scope, node in _nodes()
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").split(".")[0] == "hatalloc")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


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
    assert "stack_state" in {_name(node) for path, tree in _callers().items()
                             if path.startswith("bench/") for node in ast.walk(tree)}
    gone = {"stack_x", "stack_nodes", "unstack_x", "unstack_nodes", "unstack_state"}
    assert not set().union(*map(_referrers, gone))
    assert not _defined_functions() & gone


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
    defined = {node.name for _, node in _nodes()
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & gone


def _derive_calls() -> set[tuple[str, str]]:
    """(`module.Class.function`, key) of every `.derive(key, ...)` call in
    the package."""
    return {(scope, ast.literal_eval(node.args[0])) for scope, node in _nodes()
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "derive"}


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
    # `__post_init__` sets it by its name
    assert [p.stem for p in PACKAGE.glob("*.py") if "_derived" in p.read_text()] == ["model"]


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


def test_the_single_caller_conveniences_are_gone():
    """`ScenarioLayout.stack_y` and `DistributedRunner.run` are neither
    defined nor named in the package or README's quick start, which steps
    `sweep` itself."""
    quick_start = list(ast.walk(_callers()["quick start"]))
    assert "stack_y" not in map(_name, quick_start) and not _referrers("stack_y")
    assert "run" not in _attributes(quick_start) | _attributes(node for _, node in _nodes())
    assert not _defined_functions() & {"stack_y", "run"}


def test_one_record_of_a_diverged_run():
    """Exactly one scope of `runs` names, and so catches, `DivergenceError`:
    `_integrate`, which records both attempts and writes the summary so
    far, for a run and for a grid cell alike."""
    assert {scope for scope in _referrers("DivergenceError")
            if scope.split(".")[0] == "runs"} == {"runs._integrate"}


def test_the_saddle_distance_reads_no_offsets():
    """`metrics.saddle_distance` takes one dot product over the stacked w,
    as the run does: it reads no layout offset to split w."""
    assert "saddle_distance" in {node.name for node in _trees()["metrics"].body
                                 if isinstance(node, ast.FunctionDef)}
    assert not _names_in("metrics.saddle_distance") & {"x_dim", "block_dim"}


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
    named = set(_index()[0]) | {alias.name for _, node in _nodes()
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
    def is_key(node):
        return isinstance(node, ast.Constant) and node.value in DOCUMENT_KEYS

    found = {scope for scope, node in _nodes()
             if isinstance(node, ast.Dict) and any(map(is_key, node.keys))
             or (isinstance(node, ast.Tuple) and len(node.elts) == 2 and is_key(node.elts[0])
                 and not isinstance(node.elts[1], ast.Constant))}
    assert found == {"model.scenario_text"}
    assert _referrers("scenario_text") == {"model.serialize_scenario", "model.save_scenario"}


def test_the_wave_kernel_keeps_its_plans_on_its_runner():
    """`agents` keeps no module-level container of arrays and no cache: its
    top level holds only its docstring, imports, classes and functions, and
    nothing in it is cached, so every product plan is built for a runner
    (in `__init__`, its cost batches through `_cost_blocks`) and lives on
    it, and a dropped runner frees its plans."""
    allowed = (ast.Import, ast.ImportFrom, ast.ClassDef, ast.FunctionDef)
    extra = [ast.dump(node)[:60] for node in _trees()["agents"].body
             if not isinstance(node, allowed)
             and not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))]
    assert extra == []
    assert not _names_in("agents") & {"cache", "lru_cache", "WeakKeyDictionary",
                                      "WeakValueDictionary"}
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
    parser = {node.name for node in _trees()["model"].body if isinstance(node, ast.FunctionDef)
              and (node.name.startswith(("_as_", "_parse_"))
                   or node.name == "scenario_from_document")}
    assert {"_as_array", "_parse_model", "scenario_from_document"} <= parser
    assert [name for name in parser if "isfinite" in _names_in(f"model.{name}")] == []
    gone = {"_as_matrix", "_as_vector"}
    assert not gone & parser and not set().union(*map(_referrers, gone))


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
    package (no dunder) whose name is not among those `named_in(module)`
    gives for its module: (the names that count for a function, those that
    count for a method)."""
    classes = {f"{scope}.{node.name}" for scope, node in _nodes()
               if isinstance(node, ast.ClassDef)}
    named = {module: named_in(module) for module in _trees()}
    return {f"{scope}.{node.name}" for scope, node in _nodes()
            if isinstance(node, FUNCTIONS) and not node.name.endswith("__")
            and node.name not in named[scope.split(".")[0]][scope in classes]}


def _private(qualified: str) -> bool:
    return qualified.rsplit(".", 1)[-1].startswith("_")


def test_every_private_function_is_named_in_its_module():
    """A function or method whose name has a leading underscore (and is no
    dunder) is named by code of its own module, bare or as an attribute:
    code that only tests reach lives in the tests, except for `TEST_ONLY`."""
    unnamed = _unnamed_functions(lambda module: (_names_in(module),) * 2)
    assert set(filter(_private, unnamed)) == set(filter(_private, TEST_ONLY))


def test_every_function_is_named_outside_the_tests():
    """Every function is named, and every method or property reached as an
    attribute (`.name`), by code of the package (its re-exports in
    `__init__` aside), by `bench/` or by README's quick start: what only
    tests reach lives in the tests, except for `TEST_ONLY`."""
    nodes = [node for scope, node in _nodes() if scope.split(".")[0] != "__init__"]
    nodes += [node for tree in _callers().values() for node in ast.walk(tree)]
    named = set(map(_name, nodes)), _attributes(nodes)
    assert _unnamed_functions(lambda module: named) == set(TEST_ONLY)
