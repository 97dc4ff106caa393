"""Perturbed scenario files end in a typed outcome.

Each example multiplies one to three numbers of fig4's file, and of a small
`random_scenario` file, by one of `FACTORS`, and runs `run` (to a short
`max_time`), `oracle` and `check` on both files in one fresh interpreter
with numpy's default warnings (`-W default`), not the suite's, which turn
them into errors. Every outcome must be a summary or a typed error with its
documented exit code, every JSON it prints must parse strictly, and its
stderr must hold no `RuntimeWarning` and no traceback. The fixed examples
are files that once printed a warning or a non-JSON value: a stiff cost, an
overflowing gain block, and three entries set to +-1e308.
"""

import json
import subprocess
import sys
from functools import cache

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hatalloc.experiments import random_scenario, team_scenario
from hatalloc.model import serialize_scenario

from test_experiments_cli import _checkout_env, _refuse

FACTORS = (0.0, -1.0, 1e-9, 1e9, 1e150, -1e150, 3.0)

# Runs each command of `COMMANDS` on each file named in argv, in this one
# interpreter, and prints [argv, exit code or None, stdout, stderr] of each
# as JSON; an exception that escapes `main` is a traceback on its stderr.
CHILD = """
import contextlib, io, json, sys, traceback
from hatalloc.cli import main
outcomes = []
for path in sys.argv[1:]:
    for argv in (["run", path, "--max-time", "0.5", "--out", path + ".out"],
                 ["oracle", path], ["check", path, "--samples", "5"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except BaseException:
                traceback.print_exc()
                code = None
        outcomes.append([argv, code, out.getvalue(), err.getvalue()])
print(json.dumps(outcomes))
"""

# The lines a typed error starts its stderr with, by exit code.
ERROR_LINES = {1: ("error:",), 2: ("numerical failure:", "error:", "FAIL:"), 3: ("infeasible:",)}


@cache
def _document(source) -> str:
    """The saved text of fig4's scenario ("fig4") or of `random_scenario`
    of a seed."""
    scenario = team_scenario(1) if source == "fig4" else random_scenario(source)
    return json.dumps(serialize_scenario(scenario))


@cache
def _number_places(source) -> tuple:
    """The keys of every float of a document outside its solver options."""
    places = []

    def visit(node, keys):
        if isinstance(node, (dict, list)):
            for key, item in node.items() if isinstance(node, dict) else enumerate(node):
                visit(item, keys + (key,))
        elif isinstance(node, float):
            places.append(keys)

    for key, node in json.loads(_document(source)).items():
        if key != "solver":
            visit(node, (key,))
    return tuple(places)


def _edited(node, op, number):
    """Every number at or under `node` multiplied by `number` ("*") or
    replaced by it ("=")."""
    if isinstance(node, list):
        return [_edited(item, op, number) for item in node]
    return node * number if op == "*" else number


@st.composite
def perturbed_files(draw):
    """fig4's file and a small `random_scenario` file, each with one to
    three numbers multiplied by one of `FACTORS`: (source, edits) pairs,
    an edit being (keys, "*", factor)."""
    files = []
    for source in ("fig4", draw(st.integers(0, 40))):
        edit = st.tuples(st.sampled_from(_number_places(source)), st.just("*"),
                         st.sampled_from(FACTORS))
        files.append((source, draw(st.lists(edit, min_size=1, max_size=3))))
    return files


def _check_outcome(argv, code, out, err):
    """A summary or a typed error with its documented exit code, strict
    JSON wherever JSON is printed, and no warning or traceback."""
    command = argv[0]
    assert "RuntimeWarning" not in err and "Traceback" not in err, (argv, err)
    assert code in (0, 1, 2, 3), (argv, code)
    if command in ("run", "oracle") and out:
        printed = json.loads(out, parse_constant=_refuse)
        assert "termination" in printed if command == "run" else "value" in printed
    if code == 0:
        assert out, argv
        assert command != "check" or out.endswith("all checks passed\n"), out
    else:
        lines = err.splitlines()
        assert any(line.startswith(ERROR_LINES[code]) for line in lines), (argv, code, err)


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(files=[("fig4", [(("costs", "r1", "weight", 0, 0), "*", 1e9)])])
@example(files=[("fig4", [(("human_models", "h1", "gains", "r1"), "*", 1e160)])])
@example(files=[("fig4", [(("constraint", "a_blocks", "r4", 1, 0), "=", -1e308)])])
@example(files=[("fig4", [(("constraint", "b_blocks", "h2", 0, 0), "=", -1e308)])])
@example(files=[("fig4", [(("costs", "r3", "weight", 0, 0), "=", 1e308)])])
@given(files=perturbed_files())
def test_perturbed_files_end_in_typed_outcomes(tmp_path, files):
    paths = []
    for index, (source, edits) in enumerate(files):
        doc = json.loads(_document(source))
        for (*outer, last), op, number in edits:
            node = doc
            for key in outer:
                node = node[key]
            node[last] = _edited(node[last], op, number)
        path = tmp_path / f"{index}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    done = subprocess.run([sys.executable, "-W", "default", "-c", CHILD, *paths],
                          env=_checkout_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and not done.stderr, done.stderr
    for outcome in json.loads(done.stdout):
        _check_outcome(*outcome)
