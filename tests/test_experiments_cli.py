import json
import logging
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from hatalloc import dynamics, experiments, load_scenario, model, oracle, reformulation, \
    save_scenario, serialize_scenario
from hatalloc.cli import main
from hatalloc.errors import NoAdmissibleInstanceError, ScenarioFormatError
from hatalloc.experiments import (
    ATTITUDE_KINDS,
    GRID_CONTRASTS,
    REJECTIONS,
    TEAM_DIMS,
    TEAM_HUMAN_DIMS,
    _generate,
    _normalize_scale,
    _rejection,
    _unconverged_cells,
    random_scenario,
    run_experiment,
    run_risk_grid,
    team_scenario,
    with_attitudes,
)

from conftest import (
    free_multiplier_scenario,
    generator_stages,
    path_scenario,
    record_calls,
    single_agent_scenario,
    team_draw,
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
        team_scenario.cache_clear()  # force a true regeneration
        b = serialize_scenario(team_scenario(1))
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

    def test_generator_logs_accepted_draw(self, caplog):
        attitudes = {"h1": ("risk_seeking", 1.0), "h2": ("risk_averse", 1.0)}
        with caplog.at_level(logging.DEBUG, logger="hatalloc.experiments"):
            _generate(7, TEAM_DIMS, TEAM_HUMAN_DIMS, attitudes, abscissa_bar=-0.08,
                      check_grid=True, stream=40)
        [record] = [r for r in caplog.records if r.name == "hatalloc.experiments"]
        assert record.levelno == logging.DEBUG
        seed, draw, rejected, screened, solves = record.args
        assert seed == 7 and draw > 0
        assert list(rejected) == list(REJECTIONS)
        assert sum(rejected.values()) == draw
        assert f"accepted draw {draw}" in record.getMessage()
        # Seed 7's five tighten rejections are all decided by the offset
        # screen; only the draws it lets through are solved exactly.
        assert screened == rejected["tighten"] == 5
        assert solves > 0
        assert f"screen rejected {screened} draws whole, {solves} exact" in record.getMessage()

    def test_generator_builds_no_engine(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the generator built a FlowEngine")

        monkeypatch.setattr(experiments, "FlowEngine", refuse)
        monkeypatch.setattr(dynamics, "FlowEngine", refuse)
        fresh = team_scenario.__wrapped__(1)
        monkeypatch.undo()
        assert serialize_scenario(fresh) == serialize_scenario(team_scenario(1))

    def test_generator_stacks_each_draw_once(self, monkeypatch):
        """Generation makes one `stack_problem` per draw, plus one per
        tightened draw, whose stack the scale step's lift reads, and no
        `reduce_program`; it decouples each tightened draw once, and builds a
        `Scenario` only for each draw, each tightened offset and the
        accepted draw."""
        log, built = [], []
        record_calls(monkeypatch, log, model.stack_problem, oracle.reduce_program,
                     reformulation.build_decoupled, experiments._offset_search)
        real_init = model.Scenario.__post_init__
        monkeypatch.setattr(model.Scenario, "__post_init__",
                            lambda self: built.append(self) or real_init(self))
        fresh = team_scenario.__wrapped__(1)
        monkeypatch.undo()
        calls = Counter(name for name, _, _ in log)
        offsets = [c for name, _, c in log if name == "_offset_search"]
        tightened = sum(c is not None for c in offsets)
        assert len(offsets) == 95 and tightened == 16  # seed 1 accepts draw 94
        assert calls["stack_problem"] == len(offsets) + tightened  # 111
        assert calls["reduce_program"] == 0
        assert calls["build_decoupled"] == tightened
        assert len(built) == len(offsets) + tightened + 1
        assert serialize_scenario(fresh) == serialize_scenario(team_scenario(1))

    def test_scale_and_rejection_assemble_nothing(self, monkeypatch):
        """The scale step and `_rejection` read the draw's cell stacks and
        its one decoupled constraint: they call no `build_decoupled` or
        `reduce_program` and build no `Scenario`. The one stack they make
        is the tightened scenario's, for the scale step's lift."""
        tightened, stacks, own, s, dc = generator_stages(team_draw(94))
        tightened = replace(tightened)  # a copy whose stack is not yet built
        own_cell = oracle.reduce_stacked(stacks[own], tightened.constraint.c)

        def refuse(*args, **kwargs):
            raise AssertionError("assembled during the scale step or the rejection")

        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "hatalloc"]
        for module in modules:
            for name in ("build_decoupled", "reduce_program"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        monkeypatch.setattr(model.Scenario, "__post_init__", refuse)
        log = []
        record_calls(monkeypatch, log, model.stack_problem)
        assert _normalize_scale(tightened, own_cell, dc) == s
        assert [(name, args) for name, args, _ in log] == [("stack_problem", (tightened,))]
        assert _rejection(tightened, stacks, own, s, dc, abscissa_bar=-0.08,
                          check_grid=True) is None
        assert len(log) == 1

    def test_random_scenario_round_trips(self):
        for seed in range(5):
            scenario = random_scenario(seed)
            doc = json.dumps(serialize_scenario(scenario))
            from hatalloc import load_scenario

            again = load_scenario(doc)
            assert again.dims == scenario.dims


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
        residuals' engine all read, and one `reduce_program`, the solve's."""
        scenario = team_scenario(1).with_solver(max_time=0.5)
        log = []
        record_calls(monkeypatch, log, model.stack_problem, oracle.reduce_program)
        result = experiments._run_scenario(scenario, str(tmp_path), {}, oracle=True)
        assert Counter(name for name, _, _ in log) == {"stack_problem": 1, "reduce_program": 1}
        assert "oracle_value" in result.summary

    def test_risk_grid_stacks_each_cell_once(self, tmp_path, monkeypatch):
        """Each attitude cell of the grid is stacked once and decoupled once:
        its flow, its cost, its oracle solve and its KKT residuals read the
        cell's one stack."""
        base = team_scenario(1).with_solver(max_time=0.5)
        log = []
        record_calls(monkeypatch, log, model.stack_problem, reformulation.build_decoupled)
        run_risk_grid(base, 1, str(tmp_path))
        assert Counter(name for name, _, _ in log) == {"stack_problem": 4, "build_decoupled": 4}
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
        (["run", "f.json", "--max-time", "inf"], "must be a finite positive number"),
        (["run", "f.json", "--tol", "-1"], "must be a finite non-negative number"),
        (["check", "f.json", "--samples", "0"], "must be a positive integer"),
    ], ids=["zero-dt", "nan-dt", "infinite-max-time", "negative-tol", "zero-samples"])
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
        from hatalloc.experiments import default_output_dir

        monkeypatch.setenv("HATALLOC_OUT_DIR", str(tmp_path / "env-out"))
        assert default_output_dir() == str(tmp_path / "env-out")


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
            "human-models-not-a-map", "cost-for-unknown-agent"])
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
        # dx = -2 x overflowed whole, so no finite entry is left to report
        assert summary["failed_attempt"]["max_entry"] is None

    def test_handled_divergence_prints_no_numpy_warning(self, tmp_path):
        # A fresh interpreter with numpy's default warnings, not the suite's.
        path = tmp_path / "s.json"
        save_scenario(free_multiplier_scenario(1.2), path)
        src = str(Path(dynamics.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-W", "default", "-m", "hatalloc.cli", "run", str(path),
             "--out", str(tmp_path / "o"), "--reference", "none"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        )
        assert done.returncode == 0
        assert json.loads(done.stdout)["failed_attempt"]["dt"] == 1.2
        assert "RuntimeWarning" not in done.stderr

    def test_grid_cells_report_how_each_run_ended(self, tmp_path):
        run_risk_grid(team_scenario(1).with_solver(max_time=0.5), 1, str(tmp_path))
        saved = json.loads((tmp_path / "risk_grid_summary.json").read_text())
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
        summary = json.loads(capsys.readouterr().out)
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
        import subprocess
        import sys

        scenario = single_agent_scenario().with_solver(max_time=10.0)
        path = tmp_path / "s.json"
        save_scenario(scenario, path)
        outs = []
        for name in ("one", "two"):
            out_dir = tmp_path / name
            code = subprocess.run(
                [sys.executable, "-m", "hatalloc.cli", "run", str(path),
                 "--out", str(out_dir)],
                capture_output=True,
            ).returncode
            assert code == 0
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

    def test_check_softplus_instance(self, tmp_path, capsys):
        scenario = path_scenario(attitude=-0.6, family="softplus_affine", beta=4.0)
        path = tmp_path / "soft.json"
        save_scenario(scenario, path)
        assert main(["check", str(path), "--samples", "20"]) == 0
        assert "all checks passed" in capsys.readouterr().out
