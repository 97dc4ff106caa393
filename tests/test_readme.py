"""README's "Library quick start" block, run as written."""

import re
from pathlib import Path

import pytest

from hatalloc.experiments import team_scenario
from hatalloc.model import save_scenario

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


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
