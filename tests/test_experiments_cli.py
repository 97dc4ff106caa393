import hashlib
import io
import json
import logging
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import fields, replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hatalloc import cli, dynamics, experiments, load_scenario, model, oracle, reformulation, \
    runs, save_scenario, serialize_scenario
from hatalloc.cli import main
from hatalloc.errors import (
    CertificateError,
    DivergenceError,
    NoAdmissibleInstanceError,
    ScenarioFormatError,
)
from hatalloc.experiments import (
    ATTITUDE_KINDS,
    GRID_CONTRASTS,
    REJECTIONS,
    TEAM_DIMS,
    TEAM_HUMAN_DIMS,
    _generate,
    random_scenario,
    team_scenario,
    with_attitudes,
)
from hatalloc.runs import _unconverged_cells, run_experiment, run_risk_grid

from conftest import (
    free_multiplier_scenario,
    path_scenario,
    record_calls,
    single_agent_scenario,
)


class TestGenerators:
    def test_team_scenario_reference_dimensions(self):
        scenario = team_scenario(1)
        lay = scenario.layout
        assert [scenario.dims[i] for i in lay.autonomous_ids] == [3, 5, 4, 2, 1]
        assert [scenario.dims[k] for k in lay.human_ids] == [3, 5]
        assert scenario.constraint.rows == 2
        assert scenario.constraint.c[0] < 0  # budget
        assert scenario.constraint.c[1] > 0  # demand

    def test_team_scenario_deterministic(self):
        a = serialize_scenario(team_scenario(1))
        b = serialize_scenario(team_scenario.__wrapped__(1))  # a true regeneration
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_team_scenario_default_attitudes(self):
        scenario = team_scenario(1)
        assert scenario.human_models["h1"].attitude == -1.0
        assert scenario.human_models["h2"].attitude == 1.0

    def test_with_attitudes_relabels(self):
        scenario = team_scenario(1)
        flipped = with_attitudes(scenario, {"h1": ("risk_averse", 1.0)})
        assert flipped.human_models["h1"].attitude == 1.0
        np.testing.assert_array_equal(
            flipped.human_models["h1"].base, scenario.human_models["h1"].base
        )

    def test_generator_counts_rejections_by_reason(self):
        attitudes = {"h1": ("risk_seeking", 1.0), "h2": ("risk_averse", 1.0)}
        with pytest.raises(NoAdmissibleInstanceError) as info:
            _generate(1, TEAM_DIMS, TEAM_HUMAN_DIMS, attitudes, abscissa_bar=-1e9,
                      check_grid=False, stream=40, max_attempts=3)
        rejected = info.value.rejected
        assert list(rejected) == list(REJECTIONS)
        assert sum(rejected.values()) == 3
        assert "rejected by: tighten" in str(info.value)

    def test_generator_logs_accepted_draw(self, generation):
        """Team seed 7's generation logs one DEBUG record (the recording
        holds exactly one per generator call)."""
        record = generation.team[7].record
        assert record.name == "hatalloc.experiments"
        assert record.levelno == logging.DEBUG
        seed, draw, rejected, screened, solves, built = record.args
        assert seed == 7 and draw > 0
        assert list(rejected) == list(REJECTIONS)
        assert sum(rejected.values()) == draw
        assert f"accepted draw {draw}" in record.getMessage()
        # Seed 7's five tighten rejections are all decided by the offset
        # screen; only the draws it lets through are solved exactly, and
        # only the draws it tightens (here the accepted one and one the
        # grid rejects) are built as objects.
        assert screened == rejected["tighten"] == 5
        assert solves > 0
        assert built == draw + 1 - rejected["tighten"] == 2
        assert (f"screen rejected {screened} draws whole, {solves} exact offset solves ran, "
                f"{built} draws were built as objects") in record.getMessage()

    def test_generator_builds_no_engine(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the generator built a FlowEngine")

        monkeypatch.setattr(dynamics, "FlowEngine", refuse)
        fresh = team_scenario.__wrapped__(1)
        monkeypatch.undo()
        assert serialize_scenario(fresh) == serialize_scenario(team_scenario(1))

    def test_generator_stacks_each_draw_once(self, generation):
        """Over team seeds 1-9, generation lays out each draw once
        (`stack_parts`), which the tightened draw's `Scenario` holds for the
        scale step's lift, and calls no `stack_problem` or `reduce_program`.
        The 1,142 attempts up to the accepted ones, and 17 drawn past them in
        the accepted draws' blocks, are laid out in 164 blocks, each reduced
        once. Only the 256 draws the screen keeps reach the exact search,
        which tightens each of them. It decouples each tightened draw once,
        and builds the validated objects only for the tightened draws: seven
        `QuadraticCost`s each, and a `Scenario` for each and for each
        accepted draw."""
        team = generation.team.values()
        calls = sum((run.calls for run in team), Counter())
        built = sum((run.built for run in team), Counter())
        assert sum(run.accepted + 1 for run in team) == 1142
        assert sum(len(run.draws) - run.accepted - 1 for run in team) == 17
        assert calls["_raw_draw"] == calls["stack_parts"] == 1142 + 17
        reductions = sum(len(run.reductions) for run in team)
        assert calls["_lay_out"] == calls["_screen"] == reductions == 164
        offsets = [c for run in team for c in run.offsets]
        tightened = sum(c is not None for c in offsets)
        assert len(offsets) == tightened == 256
        assert calls["stack_problem"] == calls["reduce_program"] == 0
        assert calls["build_decoupled"] == calls["_scenario"] == tightened
        assert built["QuadraticCost"] == 7 * tightened == 1792
        assert built["Scenario"] == tightened + 9 == 265
        # The recorded run generates the real instances.
        for seed, run in generation.team.items():
            assert serialize_scenario(run.scenario) == serialize_scenario(team_scenario(seed))

    def test_skipped_validation_hides_no_error(self, generation):
        """Every draw of team seeds 1-9 that the offset screen rejected
        builds its validated objects (topology, costs, constraint, models,
        `Scenario`) without an error. Every tightened draw's `Scenario`
        holds the draw's row of its block, and it is, byte for byte, the
        stack that `stack_problem` lays out from the validated objects."""
        team = generation.team.values()
        rejected = [draw for run in team
                    for draw, grid in zip(run.draws[:run.accepted + 1], run.grids)
                    if not grid.any()]
        assert len(rejected) == 886
        for draw, row in rejected:
            experiments._scenario(draw, row, np.zeros(2))
        tightened = [entry for run in team for entry in run.tightened]
        assert len(tightened) == 256
        for draw, row, scenario in tightened:
            assert scenario.stacked is row
            fresh = model.stack_problem(scenario)
            for f in fields(model.StackedProblem):
                assert getattr(fresh, f.name).tobytes() == getattr(row, f.name).tobytes()

    def test_debug_records_are_the_one_draw_loops(self, generation):
        """Each team seed's DEBUG record (accepted draw, rejections by
        reason, draws screened out, exact solves, draws built): the counts
        of the loop that screened one draw at a time."""
        expected = {  # seed: draw, tighten, stability, grid, screened, exact solves, built
            1: (94, 79, 11, 4, 79, 192, 16), 2: (253, 190, 43, 20, 190, 768, 64),
            3: (99, 80, 12, 7, 80, 240, 20), 4: (21, 20, 0, 1, 20, 24, 2),
            5: (22, 13, 6, 3, 13, 120, 10), 6: (216, 180, 24, 12, 180, 444, 37),
            7: (6, 5, 0, 1, 5, 24, 2), 8: (37, 32, 3, 2, 32, 72, 6),
            9: (385, 287, 77, 21, 287, 1188, 99),
        }
        for seed, draw, rejected, screened, solves, built in (
                run.record.args for run in generation.team.values()):
            tighten, stability, grid = (rejected[k] for k in ("tighten", "stability", "grid"))
            assert rejected == {**dict.fromkeys(REJECTIONS, 0), "tighten": tighten,
                                "stability": stability, "grid": grid}
            assert (draw, tighten, stability, grid, screened, solves, built) == expected[seed]

    def test_seed_10_finds_no_admissible_draw(self):
        """team seed 10 rejects all 400 draws, by these checks."""
        with pytest.raises(NoAdmissibleInstanceError) as info:
            team_scenario(10)  # an error: lru_cache keeps none
        assert info.value.rejected == {**dict.fromkeys(REJECTIONS, 0),
                                       "tighten": 327, "stability": 55, "grid": 18}

    def test_scale_and_rejection_assemble_nothing(self, generation):
        """On every draw that team 1-9 and crosscheck 1-30 tighten, the scale
        step and the rejection (from the return of the draw's
        `build_decoupled` to the return of its `_rejection`) call no
        `build_decoupled`, `reduce_program`, `stack_problem` or
        `stack_parts` and build no `Scenario` or cost: they call
        `_normalize_scale` and then `reduce_stacked` once, on the draw's row
        of its block's cell stack, every array of it a view of that row but
        d, which is the row's d times s, and `_rejection` reads that
        reduction."""
        fields_but_d = [name for name in experiments._BLOCK_FIELDS if name != "d"]
        spans = 0
        for run in [*generation.team.values(), *generation.crosscheck.values()]:
            log = run.log
            names = [name for name, _, _ in log]
            opens = [i for i, name in enumerate(names) if name == "build_decoupled"]
            closes = [i for i, name in enumerate(names) if name == "_rejection"]
            assert len(opens) == len(closes) and log[closes[-1]][2] is None
            for start, end in zip(opens, closes):
                assert names[start + 1:end] == ["_normalize_scale", "reduce_stacked"]
                s = log[start + 1][2]
                (operand, _), scaled = log[start + 2][1:]
                assert log[end][1][1] is scaled
                cell_stack = next(args[0] for name, args, _ in reversed(log[:start])
                                  if name == "reduce_stacked" and args[0].S.ndim == 4)
                [i] = [i for i in range(len(cell_stack.S))
                       if np.shares_memory(operand.S, cell_stack.S[i])]
                for name in fields_but_d:
                    got, row = getattr(operand, name), getattr(cell_stack, name)[i]
                    assert got.shape == row.shape and np.shares_memory(got, row), name
                assert operand.d.tobytes() == (cell_stack.d[i] * s).tobytes()
                spans += 1
        assert spans == 256 + 78

    def test_random_scenario_round_trips(self):
        for seed in range(5):
            scenario = random_scenario(seed)
            doc = json.dumps(serialize_scenario(scenario))
            from hatalloc import load_scenario

            again = load_scenario(io.StringIO(doc))
            assert again.dims == scenario.dims

    def test_a_scenario_loads_from_an_open_file(self, tmp_path):
        """`load_scenario` reads a file object as it reads the file's path."""
        path = tmp_path / "fig4.json"
        save_scenario(team_scenario(1), path)
        with open(path, encoding="utf-8") as handle:
            loaded = load_scenario(handle)
        assert serialize_scenario(loaded) == serialize_scenario(load_scenario(str(path)))


class TestRunExperiment:
    def test_scenario_file_run(self, tmp_path):
        scenario = single_agent_scenario().with_solver(max_time=30.0)
        path = tmp_path / "scenario.json"
        save_scenario(scenario, path)
        result = run_experiment(str(path), out_dir=str(tmp_path / "out"))
        assert result.exit_code == 0
        assert os.path.exists(result.artifacts["trajectory"])
        assert os.path.exists(result.artifacts["summary"])
        assert result.summary["kkt"]["primal"] <= 1e-6

    def test_run_with_the_oracle_reduces_once(self, tmp_path, monkeypatch):
        """A run with the oracle reference makes one stack, the scenario's,
        which the oracle's reduction, the lift, the flow's engine and the KKT
        residuals' engine all read, one `reduce_program`, the solve's, and
        one `reduce_stacked`, which the solve checks and the flow folds.
        The cached `team_scenario(1)` may hold its stack already, which a
        `with_solver` copy would share, so the run is on a fresh copy."""
        scenario = replace(team_scenario(1)).with_solver(max_time=0.5)
        log = []
        record_calls(monkeypatch, log, model.stack_problem, oracle.reduce_program,
                     oracle.reduce_stacked, dynamics.fold)
        result = runs._run_scenario(scenario, str(tmp_path), {}, oracle=True)
        assert Counter(name for name, _, _ in log) == {
            "stack_problem": 1, "reduce_program": 1, "reduce_stacked": 1, "fold": 1}
        assert "oracle_value" in result.summary

    def test_an_instance_reduces_and_folds_once(self, monkeypatch):
        """The benchmark's pipeline on one instance (the oracle's solve, the
        flow, the reference run of a `with_solver` copy and the KKT
        residuals) reduces the scenario once and folds M once: the flow folds
        the oracle's reduction, and the reference run's engine reads the
        same reduction and M, with its own b."""
        scenario = replace(team_scenario(1)).with_solver(max_time=0.5)
        log = []
        record_calls(monkeypatch, log, oracle.reduce_stacked, dynamics.fold,
                     dynamics.folded_offset)
        dc = reformulation.build_decoupled(scenario)
        oracle.solve_centralized(scenario)
        final, _ = dynamics.integrate(scenario, dc=dc)
        dynamics.integrate(scenario.with_solver(tolerance=0.0, max_time=0.2), dc=dc)
        dynamics.kkt_residual(scenario, dc, final)
        assert [name for name, _, _ in log] == [
            "reduce_stacked", "fold", "folded_offset", "folded_offset"]

    def test_risk_grid_stacks_each_cell_once(self, tmp_path, monkeypatch):
        """Each attitude cell of the grid is stacked, decoupled and reduced
        once: its flow, its cost, its oracle solve and its KKT residuals read
        the cell's one stack, and its flow folds the reduction its oracle
        solve reads."""
        base = team_scenario(1).with_solver(max_time=0.5)
        log = []
        record_calls(monkeypatch, log, model.stack_problem, reformulation.build_decoupled,
                     oracle.reduce_stacked)
        run_risk_grid(base, 1, str(tmp_path))
        assert Counter(name for name, _, _ in log) == {
            "stack_problem": 4, "build_decoupled": 4, "reduce_stacked": 4}
        stacked = [args[0] for name, args, _ in log if name == "stack_problem"]
        assert len({id(cell) for cell in stacked}) == 4

    def test_short_run_builds_no_propagator(self, tmp_path, capsys):
        """A horizon shorter than one chunk builds no propagator; one chunk
        long, the same file builds the unclamped one."""
        path = tmp_path / "s.json"
        save_scenario(random_scenario(3, n_autonomous=3, n_human=1, rows=13), path)
        builds = []
        for max_time in ("0.05", "0.064"):
            argv = ["run", str(path), "--max-time", max_time, "--out", str(tmp_path / max_time)]
            assert main(argv) == 0
            summary = json.loads(capsys.readouterr().out)
            builds.append((summary["steps"], summary["propagator_builds"]))
        assert builds == [(50, 0), (64, 1)]

    @pytest.mark.parametrize("scenario, reason", [
        (random_scenario(3, n_autonomous=3, n_human=1, rows=13),
         "13 constraint rows exceed the enumeration bound 12"),
        (path_scenario(family="softplus_affine"),
         "human 'k1' uses family 'softplus_affine'"),
    ])
    def test_run_outside_the_oracle_scope_runs_without_it(self, tmp_path, capsys,
                                                          scenario, reason):
        """A file the oracle cannot solve still runs, without the reference,
        and its summary says why; `hatalloc oracle` on it still fails."""
        path = tmp_path / "s.json"
        save_scenario(scenario, path)
        assert main(["run", str(path), "--max-time", "0.05", "--out", str(tmp_path / "o")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["oracle"].startswith(f"unavailable: {reason}")
        assert "final_deviation" not in summary
        assert main(["oracle", str(path)]) == 2

    def test_unknown_preset_is_usage_error(self, tmp_path):
        code = main(["run", "no_such_preset", "--out", str(tmp_path)])
        assert code == 1


class TestCli:
    def test_oracle_prints_solution(self, tmp_path, capsys):
        scenario = single_agent_scenario(c=(1.0,))
        path = tmp_path / "s.json"
        save_scenario(scenario, path)
        assert main(["oracle", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["x"]["a1"] == [pytest.approx(-1.0)]
        assert payload["mu"] == [pytest.approx(2.0)]
        assert payload["value"] == pytest.approx(1.0)

    def test_oracle_reads_a_file_whose_name_starts_with_a_brace(self, tmp_path, monkeypatch,
                                                                capsys):
        """A path is a file path whatever its first character."""
        save_scenario(team_scenario(1), tmp_path / "{team}.json")
        monkeypatch.chdir(tmp_path)
        assert main(["oracle", "{team}.json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == oracle.solve_centralized(team_scenario(1))[3]

    def test_oracle_infeasible_exit_code(self, tmp_path):
        doc = serialize_scenario(single_agent_scenario())
        doc["constraint"] = {
            "rows": 2,
            "a_blocks": {"a1": [[1.0], [-1.0]]},
            "b_blocks": {},
            "c": [1.0, 1.0],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["oracle", str(path)]) == 3

    def test_check_passes_on_sound_instance(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        save_scenario(path_scenario(), path)
        assert main(["check", str(path), "--samples", "25"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out

    def test_run_writes_artifacts(self, tmp_path, capsys):
        scenario = single_agent_scenario().with_solver(max_time=30.0)
        path = tmp_path / "s.json"
        save_scenario(scenario, path)
        out_dir = tmp_path / "artifacts"
        assert main(["run", str(path), "--out", str(out_dir)]) == 0
        assert (out_dir / "trajectory.csv").exists()
        assert (out_dir / "summary.json").exists()
        summary = json.loads(capsys.readouterr().out)
        assert summary["termination"] == "converged"
        assert summary["final_update_norm"] <= summary["tolerance"] == 1e-6
        assert summary["failed_attempt"] is None

    def test_run_runs_the_risk_grid(self, tmp_path, capsys):
        """`run fig5_risk_grid` writes a four-row grid table and a summary of
        four cells, and prints the summary it wrote."""
        out = tmp_path / "grid"
        assert main(["run", "fig5_risk_grid", "--max-time", "0.5", "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == ["risk_grid.csv", "risk_grid_summary.json"]
        lines = (out / "risk_grid.csv").read_text().splitlines()
        assert len(lines) == 1 + 4
        text = (out / "risk_grid_summary.json").read_text()
        assert len(json.loads(text)["cells"]) == 4
        assert capsys.readouterr().out == text

    def test_run_option_overrides(self, tmp_path, capsys):
        scenario = single_agent_scenario()
        path = tmp_path / "s.json"
        save_scenario(scenario, path)
        out_dir = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out_dir),
                     "--dt", "5e-4", "--tol", "1e-7", "--max-time", "20"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["dt"] == pytest.approx(5e-4)

    @pytest.mark.parametrize("argv", [
        ["preset", "fig4_convergence", "--seed", "-1"],
        ["run", "fig5_risk_grid", "--seed", "-3"],
        ["check", "f.json", "--seed", "-1"],
    ])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, argv):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "must be a non-negative integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["run", "f.json", "--dt", "0"], "must be a finite positive number"),
        (["run", "f.json", "--dt", "nan"], "must be a finite positive number"),
        (["run", "f.json", "--dt", "abc"], "must be a finite positive number"),
        (["run", "f.json", "--max-time", "inf"], "must be a finite positive number"),
        (["run", "f.json", "--tol", "-1"], "must be a finite non-negative number"),
        (["check", "f.json", "--samples", "0"], "must be a positive integer"),
    ], ids=["zero-dt", "nan-dt", "text-dt", "infinite-max-time", "negative-tol",
            "zero-samples"])
    def test_bad_override_value_is_usage_error(self, capsys, argv, message):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "usage:" in err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["preset", "run"])
    def test_seed_without_instance_is_usage_error(self, tmp_path, capsys,
                                                  monkeypatch, command):
        rejected = dict.fromkeys(REJECTIONS, 0)
        rejected.update(tighten=327, stability=55, grid=18)

        def no_instance(seed, attitudes=None):
            raise NoAdmissibleInstanceError(seed, rejected)

        monkeypatch.setattr(experiments, "team_scenario", no_instance)
        assert main([command, "fig4_convergence", "--seed", "10",
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "seed 10 after 400 draws" in err
        assert "tighten 327" in err and "stability 55" in err and "grid 18" in err

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["run", str(tmp_path / "missing.json")]) == 1

    @pytest.mark.parametrize("make", [
        lambda path: path.mkdir(),
        lambda path: path.write_bytes(b'{"agents": "\xff"}'),
    ], ids=["directory", "not-utf8"])
    def test_unreadable_path_is_usage_error(self, tmp_path, capsys, make):
        path = tmp_path / "s.json"
        make(path)
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_preset_writes_scenarios(self, tmp_path, capsys):
        assert main(["preset", "fig4_convergence", "--seed", "1",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1 and out[0].endswith(".json")
        from hatalloc import load_scenario

        scenario = load_scenario(out[0])
        assert len(scenario.topology.autonomous_ids) == 5

    def test_preset_unknown_name(self, tmp_path):
        assert main(["preset", "fig9", "--out", str(tmp_path)]) == 1

    def test_preset_grid_writes_four_files(self, tmp_path, capsys):
        assert main(["preset", "fig5_risk_grid", "--seed", "1",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 4

    def test_env_var_default_output(self, tmp_path, monkeypatch):
        from hatalloc.runs import default_output_dir

        monkeypatch.setenv("HATALLOC_OUT_DIR", str(tmp_path / "env-out"))
        assert default_output_dir() == str(tmp_path / "env-out")


# The number arrays of fig4's document, once `_malformed_number` has added a
# schedule to h1 and a start to r1: (the keys to each, what names its place).
NUMBER_PLACES = {
    "cost-weight": (("costs", "r1", "weight"), ["cost for 'r1'"]),
    "a-block": (("constraint", "a_blocks", "r1"), ["constraint block for 'r1'"]),
    "offset-c": (("constraint", "c"), ["constraint offset c"]),
    "gain": (("human_models", "h1", "gains", "r1"), ["model 'h1'", "gain for 'r1'"]),
    "base": (("human_models", "h1", "base"), ["model 'h1'", "base"]),
    "schedule-delta": (("human_models", "h1", "schedule", "delta", "gains", "r1"),
                       ["schedule 'h1'", "delta for 'r1'"]),
    "initial-x": (("initial_state", "x", "r1"), ["initial_state.x['r1']"]),
}
# (a malformed value, whether it takes the place of the whole array or of its
# first entry, what the message says of it)
MALFORMED = {
    "nan": (math.nan, False, "finite"),
    "infinity": (math.inf, False, "finite"),
    "string": ("0.5", False, "not a numeric"),
    "huge-integer": (10**400, False, "an integer too large for a float"),
    "rank-3": ([[[1.0]]], True, "not a numeric"),
}


def _malformed_number(keys, bad, whole):
    """An edit of fig4's document that gives h1 a zero schedule and r1 a
    zero start, and then puts `bad` at `keys`."""
    def edit(doc):
        doc["human_models"]["h1"]["schedule"] = {
            "delta": {"gains": {"r1": np.zeros((3, 3)).tolist()}}, "settle_time": 1.0}
        doc["initial_state"] = {"x": {"r1": [0.0, 0.0, 0.0]}}
        *outer, last = keys
        for key in outer:
            doc = doc[key]
        if whole:
            doc[last] = bad
            return
        entries = doc[last]
        while isinstance(entries[0], list):
            entries = entries[0]
        entries[0] = bad
    return edit


class TestScenarioFormatErrors:
    @pytest.mark.parametrize("start, message", [
        ({"x": {"r9": [0.0]}}, "unknown agent 'r9'"),
        ({"x": {"a1": [0.0, 1.0]}}, "has shape (2,), expected (1,)"),
        ({"lambda": {"a1": [-0.5]}}, "initial multiplier for 'a1' is negative"),
        ({"lam": {"a1": [0.5]}}, "initial_state must map"),
    ])
    def test_bad_initial_state_is_usage_error(self, tmp_path, capsys, start, message):
        doc = serialize_scenario(single_agent_scenario())
        doc["initial_state"] = start
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        with pytest.raises(ScenarioFormatError):
            load_scenario(str(path))

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["edges"][0].append("a2"), "expected a pair of agent ids"),
        (lambda d: d["agents"][0].update(dim="x"), "dim 'x' is not an integer"),
        (lambda d: d["solver"].update(dt=-1e-3), "dt must be positive"),
        (lambda d: d["solver"].update(offset_split="sideways"),
         "unknown offset split policy 'sideways'"),
        (lambda d: d["human_models"]["k1"].update(family="cubic"),
         "unknown response family 'cubic'"),
        (lambda d: d.update(agents=5), "'agents' must be a list"),
        (lambda d: d["human_models"]["k1"].update(attitude={"alpha": 2}),
         "attitude must lie in [-1, 1]"),
        (lambda d: d["solver"].update(dt=math.nan), "dt must be positive and finite"),
        (lambda d: d["solver"].update(tolerance="x"),
         "tolerance must be nonnegative and finite"),
        (lambda d: d["human_models"]["k1"].update(schedule={"settle_time": math.nan}),
         "settle_time must be nonnegative and finite"),
        (lambda d: d["solver"].update(record_stride=2.5),
         "record_stride must be an integer >= 1"),
        (lambda d: d["solver"].update(max_time=True), "max_time must be positive and finite"),
        (lambda d: d["human_models"]["k1"].update(family="softplus_affine", beta=math.nan),
         "sharpness must be positive and finite"),
        (lambda d: d.update(edges=[["a1", "k1"]]), "graph is not connected"),
        (lambda d: d["edges"].append(["a1", "a1"]), "self loop on 'a1'"),
        (lambda d: d["costs"]["a1"].update(weight=[[1.0, 0.0], [0.0, -1.0]]),
         "cost weight is not positive definite"),
        (lambda d: d["constraint"]["a_blocks"].update(a1=[[1.0], [1.0]]),
         "has 1 columns, agent dim is 2"),
        (lambda d: d["human_models"].pop("k1"), "human 'k1' has no response model"),
        (lambda d: d.update(constraint=[1]), "'constraint' must be an object"),
        (lambda d: d["constraint"].update(rows="x"), "constraint rows 'x' is not an integer"),
        (lambda d: d["agents"][0].update(dim=1.7), "dim 1.7 is not an integer"),
        (lambda d: d["agents"][0].update(dim=True), "dim True is not an integer"),
        (lambda d: d["human_models"]["k1"].update(schedule=[1]),
         "schedule 'k1': expected an object"),
        (lambda d: d["human_models"]["k1"].update(schedule={"delta": [1]}),
         "schedule 'k1': delta must be an object"),
        (lambda d: d["human_models"]["k1"].update(schedule={"delta": {"gains": [1]}}),
         "schedule 'k1': gain deltas must be a map"),
        (lambda d: d["human_models"]["k1"].update(
            schedule={"delta": {"base": [0.1, 0.2, 0.3]}, "settle_time": 1.0}),
         "base delta has 3 entries, the human's dim is 2"),
        (lambda d: d["human_models"]["k1"].update(
            schedule={"delta": {"gains": {"zz": [[0.1, 0.0], [0.0, 0.1]]}},
                      "settle_time": 1.0}),
         "gain delta for 'zz', which is not an autonomous neighbor"),
        (lambda d: d["human_models"]["k1"].update(
            schedule={"delta": {"gains": {"a1": [[0.1]]}}, "settle_time": 1.0}),
         "gain delta for 'a1' has shape (1, 1), the gain has (2, 2)"),
        (lambda d: d["constraint"].update(a_blocks=[]), "constraint 'a_blocks' must be a map"),
        (lambda d: d["constraint"].update(b_blocks=[]), "constraint 'b_blocks' must be a map"),
        (lambda d: d.update(human_models=[]), "'human_models' must be a map"),
        (lambda d: d["costs"].update(zz={"type": "quadratic", "weight": [[1.0]]}),
         "costs declared for unknown agents ['zz']"),
        (lambda d: d["human_models"]["k1"].update(attitude={"alpha": True}),
         "model 'k1': alpha True is not a number"),
        (lambda d: d["human_models"]["k1"].update(attitude={"alpha": "0.5"}),
         "model 'k1': alpha '0.5' is not a number"),
        (lambda d: d["human_models"]["k1"].update(
            attitude={"kind": "risk_averse", "magnitude": "1"}),
         "model 'k1': magnitude '1' is not a number"),
        (lambda d: d["human_models"]["k1"].update(family="softplus_affine", beta="6"),
         "model 'k1': beta '6' is not a number"),
        (lambda d: d["human_models"]["k1"].update(schedule={"settle_time": "5"}),
         "schedule 'k1': settle_time '5' is not a number"),
        (lambda d: d["solver"].update(check_slater="false"),
         "check_slater must be a boolean: 'false'"),
        (lambda d: d["solver"].update(check_slater=1), "check_slater must be a boolean: 1"),
    ], ids=["three-element-edge", "dim-not-integer", "negative-dt",
            "unknown-offset-split", "unknown-family", "agents-not-a-list",
            "alpha-out-of-range", "nan-dt", "non-numeric-tolerance", "nan-settle-time",
            "fractional-record-stride", "boolean-max-time", "nan-softplus-beta",
            "disconnected-graph", "self-loop", "weight-not-pd", "block-dim-mismatch",
            "missing-response-model", "constraint-not-an-object", "rows-not-integer",
            "fractional-dim", "boolean-dim", "schedule-not-an-object",
            "schedule-delta-not-an-object", "schedule-gains-not-a-map",
            "schedule-base-wrong-dim", "schedule-gain-unknown-neighbor",
            "schedule-gain-wrong-shape", "a-blocks-not-a-map", "b-blocks-not-a-map",
            "human-models-not-a-map", "cost-for-unknown-agent", "boolean-alpha",
            "string-alpha", "string-magnitude", "string-beta", "string-settle-time",
            "string-check-slater", "integer-check-slater"])
    def test_malformed_file_is_usage_error(self, tmp_path, capsys, edit, message):
        doc = serialize_scenario(path_scenario())
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["oracle", str(path)]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        with pytest.raises(ScenarioFormatError):
            load_scenario(str(path))

    @pytest.mark.parametrize("edit", [
        lambda d: d["solver"].update(dt=10**400),
        lambda d: d["constraint"]["c"].__setitem__(0, 10**400),
        lambda d: d["costs"]["a1"]["weight"][0].__setitem__(0, 10**400),
        lambda d: d.update(initial_state={"x": {"a1": [10**400, 0.0]}}),
        lambda d: d["human_models"]["k1"].update(beta=10**400),
        lambda d: d["human_models"]["k1"].update(attitude={"alpha": 10**400}),
    ], ids=["solver-dt", "constraint-c", "cost-weight", "initial-x", "beta", "alpha"])
    def test_integer_too_large_for_a_float_is_usage_error(self, tmp_path, capsys, edit):
        """A JSON integer that no float holds is a format error (exit 1),
        not a raw `OverflowError`."""
        doc = serialize_scenario(path_scenario())
        edit(doc)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main(["oracle", str(path)]) == 1
        err = capsys.readouterr().err
        assert "too large for a float" in err
        assert "Traceback" not in err and "OverflowError" not in err
        with pytest.raises(ScenarioFormatError):
            load_scenario(str(path))

    @pytest.mark.parametrize("solver, flags", [
        ({"dt": 1e-320}, []),
        ({}, ["--max-time", "1e300", "--dt", "1e-300"]),
    ], ids=["file", "flags"])
    def test_a_horizon_of_infinitely_many_steps_is_usage_error(self, tmp_path, capsys,
                                                                solver, flags):
        """A max_time / dt that no float holds, in the file or from the
        flags, exits 1 with an error line, not an `OverflowError`."""
        doc = serialize_scenario(path_scenario())
        doc["solver"].update(solver)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out", str(tmp_path / "o"), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: solver options: max_time / dt must be finite")
        assert "Traceback" not in err and "OverflowError" not in err

    def test_schedule_without_base_delta_runs(self, tmp_path, capsys):
        doc = serialize_scenario(path_scenario())
        doc["human_models"]["k1"]["schedule"] = {
            "delta": {"gains": {"a1": [[0.1, 0.0], [0.0, 0.1]]}}, "settle_time": 1.0,
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        np.testing.assert_array_equal(load_scenario(str(path)).schedules["k1"].base_delta,
                                      [0.0, 0.0])
        assert main(["run", str(path), "--max-time", "2", "--reference", "none",
                     "--out", str(tmp_path / "o")]) == 0
        assert json.loads(capsys.readouterr().out)["steps"] == 2000

    def test_non_json_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"agents": [')
        assert main(["oracle", str(path)]) == 1
        assert "scenario is not valid JSON" in capsys.readouterr().err

    def test_missing_cost_is_usage_error(self, tmp_path, capsys):
        doc = serialize_scenario(single_agent_scenario())
        del doc["costs"]["a1"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["oracle", str(path)]) == 1
        assert "agent 'a1' has no cost" in capsys.readouterr().err

    @pytest.mark.parametrize("malformed", MALFORMED)
    @pytest.mark.parametrize("place", NUMBER_PLACES)
    def test_a_malformed_number_names_its_place_once(self, tmp_path, capsys, place, malformed):
        """A malformed number at any place of fig4's document fails to load
        with one message, from the parser (its JSON type) or from the object
        built there (its value), which names the place exactly once."""
        keys, names = NUMBER_PLACES[place]
        bad, whole, says = MALFORMED[malformed]
        path = _edited_team_file(tmp_path, _malformed_number(keys, bad, whole))
        with pytest.raises(ScenarioFormatError) as info:
            load_scenario(str(path))
        message = str(info.value)
        assert says in message
        assert [message.count(name) for name in names] == [1] * len(names), message
        assert main(["oracle", str(path)]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["human_models"]["h1"].update(gains={}),
         "model 'h1': gain blocks [] do not match neighbor list ['r1', 'r2', 'r5']"),
        (lambda d: d["human_models"]["h1"]["gains"]["r1"].pop(),
         "model 'h1': gain block for 'r1' has 2 rows, base has 3"),
        (lambda d: d["human_models"].update(zz=d["human_models"]["h1"]),
         "response models for unknown humans ['zz']"),
        (lambda d: d["human_models"].update(r1=d["human_models"]["h1"]),
         "response models for unknown humans ['r1']"),
    ], ids=["no-gains", "gain-row-count", "unknown-id", "autonomous-id"])
    def test_a_model_fault_has_one_message(self, tmp_path, capsys, edit, message):
        """A model's own fault names the model once, and a model of an id
        that is no human meets `Scenario`'s rule for unknown humans."""
        path = _edited_team_file(tmp_path, edit)
        with pytest.raises(ScenarioFormatError) as info:
            load_scenario(str(path))
        assert str(info.value) == message
        assert main(["oracle", str(path)]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


def _stiff_cost(doc):
    doc["costs"]["r1"]["weight"][0][0] *= 1e9


def _overflowing_gains(doc):
    block = next(iter(doc["human_models"]["h1"]["gains"].values()))
    block[:] = [[v * 1e160 for v in row] for row in block]


def _scaled_row_r3(doc):
    doc["constraint"]["a_blocks"]["r3"] = [[v * 1e9 for v in row]
                                           for row in doc["constraint"]["a_blocks"]["r3"]]
    doc["solver"]["max_time"] = 0.05


def _huge_start(doc):
    doc["initial_state"] = {"x": {"r1": [1e308, 1e308, 1e308]}}


def _refuse(token):
    raise AssertionError(f"{token} is not strict JSON")


def _agent(doc, agent_id):
    """The entry of `agent_id` in a document's agent list."""
    return next(entry for entry in doc["agents"] if entry["id"] == agent_id)


def _edited_team_file(tmp_path, edit):
    """`team_scenario(1)` saved with `edit` applied to its document."""
    path = tmp_path / f"{edit.__name__}.json"
    doc = serialize_scenario(team_scenario(1))
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


def _moved_off(z):
    """A certificate z moved far off the decoupled solution, along its first
    unit vector."""
    return z + 1e3 * np.eye(z.size)[0]


def _pushed_out(scenario, a_pinv, rng, sample):
    """`sample`'s feasible pair with x shifted so that every coupled row
    exceeds its bound by about 1e3."""
    x, y = sample(scenario, a_pinv, rng)
    return x + a_pinv @ np.full(scenario.layout.rows, 1e3), y


def _refuse_certificate(*args):
    raise CertificateError("the Laplacian solve broke")


def _checkout_env():
    """The environment with `PYTHONPATH` set to the `src` directory of this
    checkout, so a child interpreter imports the package under test."""
    return {**os.environ, "PYTHONPATH": str(Path(dynamics.__file__).resolve().parent.parent)}


class TestRunOutputs:
    def test_summary_records_halved_dt(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        save_scenario(free_multiplier_scenario(1.2), path)
        assert main(["run", str(path), "--out", str(tmp_path / "o"),
                     "--reference", "none"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["dt"] == 0.6
        assert summary["failed_attempt"]["dt"] == 1.2
        assert summary["failed_attempt"]["t"] > 0
        # the update norm overflowed while every entry was finite, so the
        # largest entry, |dx|, is reported
        assert summary["failed_attempt"]["max_entry"] > math.sqrt(sys.float_info.max)

    @staticmethod
    def _run_fresh(path, tmp_path, reference="none"):
        """`hatalloc run` of a saved file in a fresh interpreter with numpy's
        default warnings, not the suite's."""
        return subprocess.run(
            [sys.executable, "-W", "default", "-m", "hatalloc.cli", "run", str(path),
             "--out", str(tmp_path / "o"), "--reference", reference],
            env=_checkout_env(), capture_output=True, text=True,
        )

    def test_handled_divergence_prints_no_numpy_warning(self, tmp_path):
        path = tmp_path / "s.json"
        save_scenario(free_multiplier_scenario(1.2), path)
        done = self._run_fresh(path, tmp_path)
        assert done.returncode == 0
        assert json.loads(done.stdout)["failed_attempt"]["dt"] == 1.2
        assert "RuntimeWarning" not in done.stderr

    def test_overflowing_propagator_prints_no_numpy_warning(self, tmp_path):
        """A cost weight scaled by 1e9: the chunk propagator's powers
        overflow before any step, so it is dropped, and single steps diverge
        at both step sizes. h1's gains scaled by 1e160: the fold's reduction
        overflows as well."""
        for edit in (_stiff_cost, _overflowing_gains):
            done = self._run_fresh(_edited_team_file(tmp_path, edit), tmp_path)
            assert done.returncode == 2
            assert "flow diverged" in done.stderr
            assert "RuntimeWarning" not in done.stderr

    @pytest.mark.parametrize("reference", ["oracle", "none"])
    def test_a_huge_start_prints_no_numpy_warning(self, tmp_path, reference):
        """r1 starts at 1e308 in every entry: its distance to the saddle,
        tracked under `--reference oracle`, overflows to inf, and the flow
        diverges at t = 0 at both step sizes, with no numpy warning."""
        done = self._run_fresh(_edited_team_file(tmp_path, _huge_start), tmp_path, reference)
        assert done.returncode == 2
        assert "flow diverged at t=0" in done.stderr
        assert "RuntimeWarning" not in done.stderr

    def test_overflowing_reduction_is_a_numerical_failure(self, tmp_path, capsys):
        """h1's gains scaled by 1e160 overflow the reduced program: `oracle`
        refuses it, and `run` goes on without the oracle until the flow
        diverges. The suite turns numpy warnings into errors, so neither
        lets one out."""
        path = str(_edited_team_file(tmp_path, _overflowing_gains))
        assert main(["oracle", path]) == 2
        assert "the reduced program is not finite" in capsys.readouterr().err
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
        assert "flow diverged" in capsys.readouterr().err

    def test_overflowing_reduction_is_reduced_once(self, tmp_path, monkeypatch):
        """The run of h1's gains scaled by 1e160 reduces its scenario once:
        the oracle refuses that reduction as not finite, and the flow folds
        it as it is, with no `UnsupportedByOracleError`, and diverges."""
        scenario = load_scenario(str(_edited_team_file(tmp_path, _overflowing_gains)))
        log, summary = [], {}
        record_calls(monkeypatch, log, oracle.reduce_stacked, dynamics.fold)
        with pytest.raises(DivergenceError):
            runs._run_scenario(scenario, str(tmp_path / "o"), summary, oracle=True)
        assert summary["oracle"] == "unavailable: the reduced program is not finite"
        assert summary["termination"] == "diverged"
        assert Counter(name for name, _, _ in log) == {"reduce_stacked": 1, "fold": 1}

    def test_diverged_run_writes_its_summary(self, tmp_path, capsys):
        """r1's cost weight scaled by 1e9 diverges at both step sizes: `run`
        exits 2 as before and writes `summary.json`, with both attempts,
        and no trajectory."""
        out = tmp_path / "o"
        assert main(["run", str(_edited_team_file(tmp_path, _stiff_cost)),
                     "--out", str(out)]) == 2
        assert "flow diverged" in capsys.readouterr().err
        assert os.listdir(out) == ["summary.json"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination"] == "diverged"
        assert [attempt["dt"] for attempt in summary["attempts"]] == [1e-3, 5e-4]
        for attempt in summary["attempts"]:
            assert attempt["t"] > 0 and attempt["max_entry"] > 0

    @pytest.mark.parametrize("reference", ["oracle", "none"])
    def test_summary_of_an_overflowing_run_is_strict_json(self, tmp_path, capsys, reference):
        """r3's constraint row scaled by 1e9 overflows the flow's update norm
        within 0.05 time units while every entry stays finite: the flow
        diverges at both step sizes, and the run exits 2 and writes a
        strict-JSON diverged summary, whose attempts report their largest
        entries."""
        out = tmp_path / "o"
        assert main(["run", str(_edited_team_file(tmp_path, _scaled_row_r3)), "--out", str(out),
                     "--reference", reference]) == 2
        assert "flow diverged" in capsys.readouterr().err
        assert os.listdir(out) == ["summary.json"]
        summary = json.loads((out / "summary.json").read_text(), parse_constant=_refuse)
        assert summary["termination"] == "diverged"
        assert [attempt["dt"] for attempt in summary["attempts"]] == [1e-3, 5e-4]
        for attempt in summary["attempts"]:
            assert attempt["max_entry"] > math.sqrt(sys.float_info.max)

    def test_summary_writes_each_non_finite_float_as_null(self, tmp_path):
        """`_write_summary` writes an infinity or a NaN, at any depth, as
        null, and returns what it wrote."""
        summary = {"final_update_norm": math.inf, "steps": 3, "kkt": {"comp_slack": math.nan},
                   "attempts": [{"dt": 1e-3, "max_entry": -math.inf}], "termination": "max_time"}
        path = tmp_path / "summary.json"
        written = runs._write_summary(str(path), summary)
        assert written == {"final_update_norm": None, "steps": 3, "kkt": {"comp_slack": None},
                           "attempts": [{"dt": 1e-3, "max_entry": None}],
                           "termination": "max_time"}
        text = path.read_text()
        assert json.loads(text, parse_constant=_refuse) == written
        assert text == json.dumps(written, indent=2) + "\n"

    def test_grid_cells_report_how_each_run_ended(self, tmp_path):
        run_risk_grid(team_scenario(1).with_solver(max_time=0.5), 1, str(tmp_path))
        saved = json.loads((tmp_path / "risk_grid_summary.json").read_text(),
                           parse_constant=_refuse)
        assert len(saved["cells"]) == 4
        for cell in saved["cells"].values():
            assert (cell["termination"], cell["steps"]) == ("max_time", 500)
            assert cell["final_update_norm"] > 0
            # 500 steps stop far from the optimum, and the gap says how far.
            oracle = cell["oracle_cost"]
            assert cell["value_gap"] == pytest.approx(
                abs(cell["cost"] - oracle) / max(1.0, abs(oracle)), rel=1e-12
            )
            assert cell["value_gap"] > 1e-6
            kkt = cell["kkt"]
            assert set(kkt) == {"stationarity", "primal", "dual_min", "comp_slack"}
            assert kkt["stationarity"] > 1e-6
            assert kkt["dual_min"] >= 0.0


    def test_a_diverged_grid_cell_writes_the_grid_summary(self, tmp_path, capsys):
        """At dt 5 the first cell diverges, and again at dt 2.5 (t = 217.5,
        after 87 steps): `run` exits 2 and writes only the grid's summary,
        with that cell's record of its attempts and no contrasts."""
        out = tmp_path / "grid"
        assert main(["run", "fig5_risk_grid", "--dt", "5", "--max-time", "20000",
                     "--out", str(out)]) == 2
        assert "flow diverged" in capsys.readouterr().err
        assert os.listdir(out) == ["risk_grid_summary.json"]
        saved = json.loads((out / "risk_grid_summary.json").read_text(), parse_constant=_refuse)
        assert list(saved) == ["preset", "seed", "cells"]
        assert (saved["preset"], saved["seed"]) == ("fig5_risk_grid", 1)
        [(key, cell)] = saved["cells"].items()
        assert key == "risk_seeking|risk_seeking" and cell["termination"] == "diverged"
        assert [(a["dt"], a["t"]) for a in cell["attempts"]][1] == (2.5, 217.5)
        assert [a["dt"] for a in cell["attempts"]] == [5.0, 2.5]
        assert all(a["max_entry"] > 0 for a in cell["attempts"])

    def test_a_diverged_grid_cell_keeps_the_cells_before_it(self, tmp_path, monkeypatch):
        """The third cell diverging at both step sizes: the grid's summary
        holds the two cells before it as the whole grid writes them, then
        the diverged one."""
        base = team_scenario(1).with_solver(max_time=0.5)
        whole = run_risk_grid(base, 1, str(tmp_path / "whole")).summary["cells"]
        real, cells = runs.integrate, []

        def integrate(cell, **kwargs):
            cells.append(cell)
            if len(cells) == 3:
                cell = cell.with_solver(dt=5.0, max_time=20000.0)
            return real(cell, **kwargs)

        monkeypatch.setattr(runs, "integrate", integrate)
        with pytest.raises(DivergenceError):
            run_risk_grid(base, 1, str(tmp_path / "cut"))
        saved = json.loads((tmp_path / "cut" / "risk_grid_summary.json").read_text())
        first, second, third = list(whole)[:3]
        assert list(saved) == ["preset", "seed", "cells"]
        assert list(saved["cells"]) == [first, second, third]
        assert saved["cells"][first] == whole[first] and saved["cells"][second] == whole[second]
        assert saved["cells"][third]["termination"] == "diverged"
        assert [a["dt"] for a in saved["cells"][third]["attempts"]] == [5.0, 2.5]

    @pytest.mark.parametrize("target, written", [
        (lambda tmp_path: [str(_edited_team_file(tmp_path, _stiff_cost))], "summary.json"),
        (lambda tmp_path: ["fig5_risk_grid", "--dt", "5", "--max-time", "20000"],
         "risk_grid_summary.json"),
    ], ids=["stiff-cost-run", "grid-cell"])
    def test_a_diverged_run_prints_the_summary_it_wrote(self, tmp_path, capsys, target,
                                                        written):
        """r1's cost weight scaled by 1e9, and the grid's first cell at dt 5,
        diverge at both step sizes: `run` prints the bytes of the summary it
        wrote, as a finished run does, exits 2 and says why on stderr."""
        out = tmp_path / "o"
        assert main(["run", *target(tmp_path), "--out", str(out)]) == 2
        printed = capsys.readouterr()
        assert "numerical failure: flow diverged" in printed.err
        assert printed.out == (out / written).read_text()

    def test_grid_flags_contrasts_read_from_unconverged_cells(self, tmp_path):
        run_risk_grid(team_scenario(1).with_solver(max_time=0.5), 1, str(tmp_path))
        saved = json.loads((tmp_path / "risk_grid_summary.json").read_text())
        # Every cell stops at max_time, so every contrast names both its cells.
        assert saved["contrast_unconverged_cells"] == {
            "autonomous_workload_seeking_minus_averse":
                ["risk_seeking|risk_seeking", "risk_averse|risk_averse"],
            "cost_drop_h1_averse_h2_seeking":
                ["risk_seeking|risk_seeking", "risk_averse|risk_seeking"],
            "cost_drop_h1_averse_h2_averse":
                ["risk_seeking|risk_averse", "risk_averse|risk_averse"],
        }
        assert list(saved["contrast_unconverged_cells"]) == list(GRID_CONTRASTS)

    def test_unconverged_cells_name_only_the_cells_a_contrast_reads(self):
        # Seed 1's grid: only risk_averse|risk_seeking ends at max_time.
        terminations = {cell: "converged" for cell in product(ATTITUDE_KINDS, repeat=2)}
        terminations[("risk_averse", "risk_seeking")] = "max_time"
        assert _unconverged_cells(terminations) == {
            "autonomous_workload_seeking_minus_averse": [],
            "cost_drop_h1_averse_h2_seeking": ["risk_averse|risk_seeking"],
            "cost_drop_h1_averse_h2_averse": [],
        }

    def test_grid_cells_report_a_halved_dt(self, tmp_path):
        # At dt = 0.15 every cell diverges, then reruns at 0.075.
        base = team_scenario(1).with_solver(dt=0.15, max_time=300.0)
        result = run_risk_grid(base, 1, str(tmp_path))
        cells = result.summary["cells"]
        assert len(cells) == 4
        for cell in cells.values():
            assert cell["failed_attempt"]["dt"] == 0.15
            assert cell["dt"] == 0.075
            assert cell["steps"] == cell["chunked_steps"] + cell["single_steps"]
            assert cell["propagator_builds"] >= 1 and cell["rejected_chunks"] >= 0
            assert cell["tolerance"] == base.solver.tolerance
        saved = json.loads((tmp_path / "risk_grid_summary.json").read_text())
        assert saved["cells"] == cells


class TestPresetRun:
    def test_run_preset_by_name(self, tmp_path, capsys):
        code = main(["run", "fig4_convergence", "--seed", "1",
                     "--out", str(tmp_path)])
        assert code == 0
        printed = capsys.readouterr().out
        # `run` prints the bytes it writes.
        assert printed == (tmp_path / "summary.json").read_text()
        summary = json.loads(printed, parse_constant=_refuse)
        assert summary["final_deviation"] <= 1e-6
        # After the clamp pattern settles, the run goes in propagated chunks.
        steps = summary["steps"]
        assert summary["chunked_steps"] + summary["single_steps"] == steps == 186015
        assert summary["chunked_steps"] > 0.9 * steps
        # Each rejected chunk is followed by CHUNK single steps; the
        # unclamped propagator and those of clamp sets that held are built.
        assert 0 < summary["rejected_chunks"] * dynamics.CHUNK <= summary["single_steps"]
        assert summary["propagator_builds"] > 1
        assert (tmp_path / "scenario.json").exists()
        assert (tmp_path / "trajectory.csv").exists()

    def test_unconverged_run_says_why_it_exits_2(self, tmp_path, capsys):
        """A run with the oracle reference whose final deviation is above
        `runs.DEVIATION_BOUND` exits 2 and says why on stderr, after its
        artifact lines. What it prints and writes is pinned by sha256."""
        assert main(["run", "fig4_convergence", "--max-time", "0.5",
                     "--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert err.splitlines()[-1] == "numerical failure: final deviation 0.00972 above 1e-06"
        assert len(err.splitlines()) == 4
        assert out == (tmp_path / "summary.json").read_text()
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "51a53411a2bb97829e640f85b5dd587223c1fd860534193e430bc0ada2073685")

    def test_preset_run_without_reference_skips_oracle(self, tmp_path, capsys):
        assert main(["run", "fig4_convergence", "--seed", "1", "--reference", "none",
                     "--max-time", "0.5", "--out", str(tmp_path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert "final_deviation" not in summary
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert "deviation" not in header

    def test_run_without_reference_skips_oracle(self, tmp_path, capsys):
        scenario = single_agent_scenario().with_solver(max_time=30.0)
        path = tmp_path / "s.json"
        save_scenario(scenario, path)
        out_dir = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out_dir),
                     "--reference", "none"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert "final_deviation" not in summary
        header = (out_dir / "trajectory.csv").read_text().splitlines()[0]
        assert "deviation" not in header


class TestReproducibility:
    def test_identical_runs_write_identical_tables(self, tmp_path):
        scenario = single_agent_scenario().with_solver(max_time=10.0)
        path = tmp_path / "s.json"
        save_scenario(scenario, path)
        outs = []
        for name in ("one", "two"):
            out_dir = tmp_path / name
            done = subprocess.run(
                [sys.executable, "-m", "hatalloc.cli", "run", str(path),
                 "--out", str(out_dir)],
                env=_checkout_env(), capture_output=True, text=True,
            )
            assert done.returncode == 0, done.stderr
            outs.append((out_dir / "trajectory.csv").read_bytes())
        assert outs[0] == outs[1]


class TestCheckCommand:
    def test_check_stacks_once(self, tmp_path, capsys, monkeypatch):
        """`hatalloc check` reads the loaded scenario's one stack for its
        pseudo-inverse, its gradient checks and its tolerance."""
        path = tmp_path / "fig4.json"
        save_scenario(team_scenario(1), path)
        log = []
        record_calls(monkeypatch, log, model.stack_problem)
        assert main(["check", str(path)]) == 0
        assert [name for name, _, _ in log] == ["stack_problem"]
        assert "all checks passed" in capsys.readouterr().out

    @pytest.mark.parametrize("edit, message", [
        (lambda d: _agent(d, "r5").update(dim=0), "agent 'r5' has dim < 1"),
        (lambda d: d["costs"]["r5"].update(weight=[[1.0, 0.0], [0.0, 1.0]]),
         "cost for 'r5' has dim 2, agent dim is 1"),
        (lambda d: d["constraint"]["a_blocks"].pop("r5"),
         "constraint a_blocks must cover exactly the autonomous agents"),
        (lambda d: d["constraint"]["b_blocks"].pop("h2"),
         "constraint b_blocks must cover exactly the human agents"),
        (lambda d: d["human_models"]["h1"].update(
            base=d["human_models"]["h1"]["base"][:-1],
            gains={j: g[:-1] for j, g in d["human_models"]["h1"]["gains"].items()}),
         "model for 'h1' outputs dim 2, agent dim is 3"),
        (lambda d: d["human_models"]["h1"]["gains"].update(
            r1=[row[:-1] for row in d["human_models"]["h1"]["gains"]["r1"]]),
         "model for 'h1': gain block for 'r1' has 2 columns, agent dim is 3"),
        (lambda d: _agent(d, "r1").update(kind="robot"), "agent 'r1': unknown kind 'robot'"),
        (lambda d: d["constraint"].update(rows=3),
         "declared 3 constraint rows, offset c has 2"),
        (lambda d: d["human_models"]["h1"].update(
            attitude={"kind": "reckless", "magnitude": 1.0}),
         "model 'h1': unknown attitude kind 'reckless'"),
        (lambda d: d.update(agents=[]), "topology needs at least one agent"),
    ], ids=["dim-0", "weight-size", "a-blocks", "b-blocks", "model-rows", "gain-columns",
            "agent-kind", "declared-rows", "attitude-kind", "no-agents"])
    def test_check_refuses_a_malformed_document(self, tmp_path, capsys, edit, message):
        """fig4's document with one part malformed: `check` exits 1 with the
        refusal, which names the agent or the option, and no traceback."""
        assert main(["check", str(_edited_team_file(tmp_path, edit)), "--samples", "1"]) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "Traceback" not in err

    def test_check_reads_a_matrix_written_as_one_row(self, tmp_path, capsys):
        """r5 has dim 1, so its weight [[w]] may be written as the row [w]."""
        def one_row(doc):
            doc["costs"]["r5"]["weight"] = doc["costs"]["r5"]["weight"][0]

        path = _edited_team_file(tmp_path, one_row)
        assert main(["check", str(path), "--samples", "1"]) == 0
        assert "all checks passed" in capsys.readouterr().out
        assert load_scenario(str(path)).costs["r5"].weight.shape == (1, 1)

    def test_check_fails_a_gradient_it_cannot_difference(self, tmp_path, capsys):
        """h1's gains scaled by 1e160 overflow the Lagrangian and its
        gradient: the gradient check fails as an infinite error, and no
        numpy warning (an error in this suite) gets out."""
        path = str(_edited_team_file(tmp_path, _overflowing_gains))
        assert main(["check", path]) == 2
        captured = capsys.readouterr()
        assert "finite differences: inf" in captured.out
        assert "FAIL: gradient mismatch inf" in captured.err

    def test_check_passes_exact_costs_at_any_scale(self, tmp_path, capsys):
        """r1's cost weight scaled by 1e9: the costs are exact, and the
        central differences' roundoff, not counted, is all that is off."""
        path = str(_edited_team_file(tmp_path, _stiff_cost))
        assert main(["check", path]) == 0
        assert "gradient" not in capsys.readouterr().err

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(agent="r1", k=30)
    @example(agent="h1", k=24)  # one eps |f| of roundoff per value falls short here
    @given(agent=st.sampled_from(["r1", "r2", "r3", "r4", "r5", "h1", "h2"]),
           k=st.integers(0, 30))
    def test_check_finds_no_gradient_fail_when_a_weight_is_scaled(self, tmp_path, capsys,
                                                                   agent, k):
        """One agent's quadratic weight times 2^k keeps every cost exact, so
        no gradient check fails."""
        def scaled(doc):
            doc["costs"][agent]["weight"] = [[w * 2.0 ** k for w in row]
                                             for row in doc["costs"][agent]["weight"]]

        main(["check", str(_edited_team_file(tmp_path, scaled)), "--samples", "1"])
        assert "gradient" not in capsys.readouterr().err

    @pytest.mark.parametrize("target, name, message", [
        (dynamics.FlowEngine, "lagrangian_gradient_x", "FAIL: gradient mismatch"),
        (model.QuadraticCost, "gradient", "FAIL: cost gradient for"),
    ])
    def test_check_fails_a_perturbed_gradient(self, tmp_path, capsys, monkeypatch,
                                              target, name, message):
        """On fig4, the Lagrangian's or a cost's gradient off by a factor
        1 + 1e-3 fails its check."""
        real = getattr(target, name)

        def perturbed(self, *args):
            grad = real(self, *args)
            if isinstance(grad, tuple):
                return ((1 + 1e-3) * grad[0], *grad[1:])
            return (1 + 1e-3) * grad

        path = tmp_path / "fig4.json"
        save_scenario(team_scenario(1), path)
        monkeypatch.setattr(target, name, perturbed)
        assert main(["check", str(path), "--samples", "1"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("fakes, message", [
        ({"find_certificate_z": lambda real: lambda *args: None},
         "FAIL: no certificate for a feasible point"),
        ({"find_certificate_z": lambda real: lambda *args: _moved_off(real(*args))},
         "FAIL: certificate violates the decoupled form"),
        ({"_sample_feasible_pair": lambda real: lambda *args: _pushed_out(*args, real),
          "find_certificate_z": lambda real: lambda dc, *args: np.zeros(dc.block_dim)},
         "FAIL: certificate produced for an infeasible point"),
        ({"midpoint_convexity_gap": lambda real: lambda *args, **kwargs: 1.0},
         "FAIL: cost for 'r1' fails midpoint convexity"),
        ({"find_certificate_z": lambda real: _refuse_certificate},
         "error: the Laplacian solve broke"),
    ], ids=["no-certificate", "off-solution", "infeasible-certified", "nonconvex",
            "certificate-error"])
    def test_check_fails_a_wrong_decoupling_or_convexity_answer(self, tmp_path, capsys,
                                                               monkeypatch, fakes, message):
        """On fig4, each name of `fakes` in `cli` replaced by its fake (made
        from the real function): `check` exits 2 with the failed check's
        line on stderr, or, for a `CertificateError`, with `error:` and no
        traceback."""
        path = tmp_path / "fig4.json"
        save_scenario(team_scenario(1), path)
        for name, fake in fakes.items():
            monkeypatch.setattr(cli, name, fake(getattr(cli, name)))
        assert main(["check", str(path), "--samples", "1"]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_check_softplus_instance(self, tmp_path, capsys):
        scenario = path_scenario(attitude=-0.6, family="softplus_affine", beta=4.0)
        path = tmp_path / "soft.json"
        save_scenario(scenario, path)
        assert main(["check", str(path), "--samples", "20"]) == 0
        assert "all checks passed" in capsys.readouterr().out
