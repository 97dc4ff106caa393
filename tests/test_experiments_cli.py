import json
import os

import numpy as np
import pytest

from hatalloc import load_scenario, save_scenario, serialize_scenario
from hatalloc.cli import main
from hatalloc.errors import ScenarioFormatError
from hatalloc.experiments import (
    random_scenario,
    run_experiment,
    run_risk_grid,
    team_scenario,
    with_attitudes,
)

from conftest import free_multiplier_scenario, path_scenario, single_agent_scenario


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
        from hatalloc.experiments import _team_scenario_cached

        a = serialize_scenario(team_scenario(1))
        _team_scenario_cached.cache_clear()  # force a true regeneration
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

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["run", str(tmp_path / "missing.json")]) == 1

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

    def test_missing_cost_is_usage_error(self, tmp_path, capsys):
        doc = serialize_scenario(single_agent_scenario())
        del doc["costs"]["a1"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["oracle", str(path)]) == 1
        assert "agent 'a1' has no cost" in capsys.readouterr().err


class TestRunOutputs:
    @pytest.mark.filterwarnings("ignore:overflow")
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

    def test_grid_cells_report_how_each_run_ended(self, tmp_path):
        run_risk_grid(1, str(tmp_path), opts={"max_time": 0.5})
        saved = json.loads((tmp_path / "risk_grid_summary.json").read_text())
        assert len(saved["cells"]) == 4
        for cell in saved["cells"].values():
            assert (cell["termination"], cell["steps"]) == ("max_time", 500)
            assert cell["final_update_norm"] > 0


class TestPresetRun:
    def test_run_preset_by_name(self, tmp_path, capsys):
        code = main(["run", "fig4_convergence", "--seed", "1",
                     "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["final_deviation"] <= 1e-6
        assert (tmp_path / "scenario.json").exists()
        assert (tmp_path / "trajectory.csv").exists()

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
    def test_check_softplus_instance(self, tmp_path, capsys):
        scenario = path_scenario(attitude=-0.6, family="softplus_affine", beta=4.0)
        path = tmp_path / "soft.json"
        save_scenario(scenario, path)
        assert main(["check", str(path), "--samples", "20"]) == 0
        assert "all checks passed" in capsys.readouterr().out
