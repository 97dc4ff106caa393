"""README kept true to the code: its "Library quick start" block runs as
written, every name its map gives imports and every acceptance test is in
the map, its CLI synopsis is the parser's, and its output keys are those of
real runs."""

import argparse
import ast
import pkgutil
import re
from pathlib import Path

import pytest

from hatalloc import runs
from hatalloc.cli import _build_parser
from hatalloc.experiments import team_scenario
from hatalloc.metrics import TrajectoryRecord
from hatalloc.model import save_scenario

from conftest import path_scenario

README = Path(__file__).resolve().parent.parent / "README.md"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def section(title: str) -> str:
    """The text of README's `## title` section, up to the next `## `."""
    text = README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1]
    return text.split("\n## ", 1)[0]


def quick_start_block() -> str:
    return re.search(r"```python\n(.*?)```", section("Library quick start"), re.S).group(1)


def test_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    scenario = team_scenario(1)
    save_scenario(scenario, tmp_path / "scenario.json")
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(compile(quick_start_block(), str(README), "exec"), names)
    assert names["record"].termination == "converged"
    assert capsys.readouterr().out.startswith("converged")
    # `runner.sweep` stepped 1000 times from the initial state
    assert names["state"].t == pytest.approx(1000 * scenario.solver.dt)
    assert names["state"].x.keys() == set(scenario.layout.autonomous_ids)


def test_the_map_names_code_that_imports():
    """Each row of the map names its code by `hatalloc` dotted names, and
    each of them resolves by import."""
    rows = [line for line in section("Map").splitlines() if line.startswith("| ")][1:]
    implemented_by = [row.split(" | ")[1] for row in rows]
    names = [re.findall(r"`(hatalloc(?:\.\w+)+)`", cell) for cell in implemented_by]
    assert rows and all(names)
    unresolved = []
    for name in sum(names, []):
        try:
            pkgutil.resolve_name(name)
        except (ImportError, AttributeError):
            unresolved.append(name)
    assert unresolved == []


def test_the_map_names_every_acceptance_test():
    tests = [node.name for node in ast.parse(ACCEPTANCE.read_text()).body
             if isinstance(node, ast.FunctionDef) and node.name.startswith("test_criterion_")]
    assert len(tests) == 9
    assert [name for name in tests if f"`{name}`" not in section("Map")] == []


def _synopsis() -> dict[str, set[str]]:
    """Each subcommand of README's CLI block with the options it lists."""
    block = re.search(r"```\n(.*?)```", section("CLI"), re.S).group(1)
    options = {}
    for line in block.splitlines():
        line = line.split("#", 1)[0]
        if line.startswith("hatalloc "):
            command = line.split()[1]
            options[command] = set()
        options[command] |= set(re.findall(r"--[\w-]+", line))
    return options


def test_the_cli_synopsis_is_the_parsers():
    """README's CLI block lists every subcommand and every long option of
    each, and nothing the parser does not take."""
    commands = next(action.choices for action in _build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert _synopsis() == {
        name: {option for action in parser._actions for option in action.option_strings
               if option.startswith("--") and option != "--help"}
        for name, parser in commands.items()}


def test_the_output_keys_name_every_summary_key(tmp_path):
    """README's `summary.json` list names every key that two real short runs
    write: a preset run with the oracle reference (`runs.outcome`'s keys,
    the ones tracking adds, `kkt`'s), and a file run that the oracle cannot
    solve, which adds `scenario` and `oracle`."""
    keys = section("CLI").split("### Output keys", 1)[1].split("`risk_grid_summary.json`", 1)[0]
    preset = runs.run_experiment("fig4_convergence", out_dir=str(tmp_path / "preset"),
                                 opts={"max_time": 0.05})
    path = tmp_path / "softplus.json"
    save_scenario(path_scenario(family="softplus_affine").with_solver(max_time=0.05), path)
    unsolved = runs.run_experiment(str(path), out_dir=str(tmp_path / "file"))
    assert unsolved.summary["oracle"].startswith("unavailable: ")
    written = {*preset.summary, *unsolved.summary, *preset.summary["kkt"]}
    assert {"final_deviation", "oracle_value", "saddle_dist_final"} <= written
    assert [key for key in sorted(written) if f"`{key}`" not in keys] == []


def test_the_grid_keys_name_every_grid_summary_key(tmp_path):
    """README's `risk_grid_summary.json` paragraph names every top-level key
    and every cell key that a real short grid writes; of `runs.outcome`'s
    keys, which it cites as `termination` through `failed_attempt`, those
    two ends."""
    keys = section("CLI").split("### Output keys", 1)[1].split(
        "`risk_grid_summary.json`", 1)[1].split("\n\n", 1)[0]
    grid = runs.run_risk_grid(team_scenario(1).with_solver(max_time=0.05), 1, str(tmp_path))
    cells = grid.summary["cells"].values()
    outcome = [*runs.outcome(TrajectoryRecord(None, "max_time", 0.0, 0, 0.0), 0.0)]
    assert outcome[0] == "termination" and outcome[-1] == "failed_attempt"
    written = {*grid.summary, *(key for cell in cells for key in cell)} - {*outcome[1:-1]}
    assert {"cells", "contrast_unconverged_cells", "oracle_cost", "termination"} <= written
    assert [key for key in sorted(written) if f"`{key}`" not in keys] == []
