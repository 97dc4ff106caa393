"""The suite's own pytest settings (`pyproject.toml`) let a failing
hypothesis test fail on its own: the session goes on and reports it. Its
property tests draw the same examples on every run. The test files keep the
generators' caches, so a session generates each seed once."""

import ast
import subprocess
import sys
from pathlib import Path

from hypothesis import settings

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out


def test_property_tests_draw_the_same_examples_every_run():
    """`conftest` loads hypothesis's `ci` profile: examples are derived from
    each test, not drawn at random, and no database replays earlier ones."""
    assert settings.default.derandomize
    assert settings.default.database is None


TESTS = Path(__file__).resolve().parent

# The functions of the test files that call a generator's `__wrapped__`, and
# so generate a seed again uncached, each with the reason it does.
UNCACHED_GENERATION = {
    ("conftest.py", "_recorded_generation"):
        "it records a seed that an earlier test module cached",
    ("test_experiments_cli.py", "test_team_scenario_deterministic"):
        "it compares a true regeneration with the cached instance",
    ("test_experiments_cli.py", "test_generator_builds_no_engine"):
        "it generates while `FlowEngine` is refused",
}


def test_tests_generate_each_seed_once():
    """The generators' caches hold for the whole session: no test calls
    `cache_clear`, and only `UNCACHED_GENERATION` calls `__wrapped__`."""
    cleared, uncached = [], set()

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == "cache_clear":
                cleared.append((path.name, child.lineno))
            elif isinstance(child, ast.Attribute) and child.attr == "__wrapped__":
                uncached.add((path.name, scope))
            visit(child, path, scope)

    for path in sorted(TESTS.glob("*.py")):
        visit(ast.parse(path.read_text()), path, None)
    assert cleared == []
    assert uncached == set(UNCACHED_GENERATION)
