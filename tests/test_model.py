import io
import json
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hatalloc import (
    load_scenario,
    save_scenario,
    scenario_from_document,
    serialize_scenario,
)
from hatalloc.errors import (
    DimensionMismatchError,
    MissingHumanModelError,
    NotPositiveDefiniteError,
    ScenarioFormatError,
    TopologyError,
)
from hatalloc.dynamics import initial_state
from hatalloc.experiments import crosscheck_scenario, random_scenario, team_scenario
from hatalloc.human import ApproximationSchedule
from hatalloc.model import (
    CouplingConstraint,
    CustomCost,
    QuadraticCost,
    SolverOptions,
    block_diagonal,
    gradient_consistency_error,
    midpoint_convexity_gap,
)
from hatalloc.topology import NetworkTopology

from conftest import path_scenario, single_agent_scenario, with_schedules

MINIMAL_DOC = {
    "agents": [{"id": "a1", "kind": "autonomous", "dim": 1}],
    "edges": [],
    "costs": {"a1": {"type": "quadratic", "weight": [[1.0]]}},
    "constraint": {"rows": 1, "a_blocks": {"a1": [[1.0]]}, "b_blocks": {}, "c": [-1.0]},
}


def reference_dims_doc():
    """m=5, h=2 with the reference dimensions, on a star-ish connected graph."""
    dims = {"r1": 3, "r2": 5, "r3": 4, "r4": 2, "r5": 1, "h1": 3, "h2": 5}
    agents = [
        {"id": a, "kind": "human" if a.startswith("h") else "autonomous", "dim": d}
        for a, d in dims.items()
    ]
    edges = [["r1", "r2"], ["r2", "r3"], ["r3", "r4"], ["r4", "r5"],
             ["r1", "h1"], ["r2", "h2"]]
    rng = np.random.default_rng(0)
    costs = {
        a: {"type": "quadratic", "weight": np.diag(rng.uniform(1, 4, d)).tolist()}
        for a, d in dims.items()
    }
    constraint = {
        "rows": 2,
        "a_blocks": {a: rng.uniform(0, 1, (2, dims[a])).tolist() for a in
                     ("r1", "r2", "r3", "r4", "r5")},
        "b_blocks": {k: rng.uniform(0, 1, (2, dims[k])).tolist() for k in ("h1", "h2")},
        "c": [-1.0, 0.5],
    }
    human_models = {
        "h1": {
            "family": "affine",
            "base": [0.1, 0.2, 0.3],
            "gains": {"r1": rng.uniform(0, 0.2, (3, 3)).tolist()},
            "attitude": {"kind": "risk_seeking", "magnitude": 1.0},
        },
        "h2": {
            "family": "affine",
            "base": [0.1] * 5,
            "gains": {"r2": rng.uniform(0, 0.2, (5, 5)).tolist()},
            "attitude": {"kind": "risk_averse", "magnitude": 1.0},
        },
    }
    return {
        "agents": agents,
        "edges": edges,
        "costs": costs,
        "constraint": constraint,
        "human_models": human_models,
        "solver": {"dt": 1e-3, "tolerance": 1e-6, "max_time": 200.0},
    }


class TestLoad:
    def test_minimal_document(self):
        lay = scenario_from_document(MINIMAL_DOC).layout
        assert (lay.x_dim, lay.y_dim, lay.rows) == (1, 0, 1)
        assert (len(lay.autonomous_ids), len(lay.human_ids)) == (1, 0)

    def test_reference_dimensions(self):
        lay = scenario_from_document(reference_dims_doc()).layout
        assert (lay.x_dim, lay.y_dim, lay.rows) == (15, 8, 2)
        assert (len(lay.autonomous_ids), len(lay.human_ids)) == (5, 2)

    def test_load_from_json_text(self):
        scenario = load_scenario(io.StringIO(json.dumps(MINIMAL_DOC)))
        assert scenario.dims["a1"] == 1

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(MINIMAL_DOC))
        scenario = load_scenario(str(path))
        assert scenario.constraint.rows == 1

    def test_dimension_mismatch_names_agent(self):
        doc = reference_dims_doc()
        doc["constraint"]["a_blocks"]["r2"] = np.zeros((2, 4)).tolist()
        with pytest.raises(DimensionMismatchError, match="r2"):
            scenario_from_document(doc)

    def test_non_pd_cost_names_agent(self):
        doc = reference_dims_doc()
        doc["costs"]["r3"] = {"type": "quadratic", "weight": np.zeros((4, 4)).tolist()}
        with pytest.raises(NotPositiveDefiniteError, match="r3"):
            scenario_from_document(doc)

    def test_missing_human_model_names_agent(self):
        doc = reference_dims_doc()
        del doc["human_models"]["h2"]
        with pytest.raises(MissingHumanModelError, match="h2"):
            scenario_from_document(doc)

    def test_schema_violation(self):
        with pytest.raises(ScenarioFormatError):
            scenario_from_document({"agents": []})

    def test_nonfinite_entries_rejected(self):
        doc = reference_dims_doc()
        doc["constraint"]["c"] = [float("nan"), 0.5]
        with pytest.raises(ScenarioFormatError, match="finite"):
            scenario_from_document(doc)

    def test_model_neighbor_list_must_match_topology(self):
        doc = reference_dims_doc()
        doc["human_models"]["h1"]["gains"] = {"r2": np.zeros((3, 5)).tolist()}
        with pytest.raises(Exception, match="h1"):
            scenario_from_document(doc)


def _schedule_fault(delta, message):
    """A schedule fault made in code and in a document, and its message."""
    gains = {j: np.array(g) for j, g in delta.get("gains", {}).items()}
    schedule = ApproximationSchedule(gains, np.array(delta.get("base", [0.0, 0.0])), 1.0)
    return (lambda s: replace(s, schedules={"k1": schedule}),
            lambda d: d["human_models"]["k1"].update(
                schedule={"delta": delta, "settle_time": 1.0}),
            message)


UNKNOWN_START = {"x": {"zz": [1.0]}}
# (edit of a scenario, the same edit of its document, the message of both)
CONSTRUCTION_FAULTS = {
    "schedule-unknown-neighbor": _schedule_fault(
        {"gains": {"zz": [[0.1, 0.0], [0.0, 0.1]]}}, "schedule 'k1': gain delta for "
        "'zz', which is not an autonomous neighbor (neighbors ['a1', 'a2'])"),
    "schedule-base-wrong-dim": _schedule_fault(
        {"base": [0.1, 0.2, 0.3]},
        "schedule 'k1' base delta has 3 entries, the human's dim is 2"),
    "schedule-gain-wrong-shape": _schedule_fault(
        {"gains": {"a1": [[0.1]]}},
        "schedule 'k1' gain delta for 'a1' has shape (1, 1), the gain has (2, 2)"),
    "cost-for-unknown-agent": (
        lambda s: replace(s, costs={**s.costs, "zz": QuadraticCost(np.eye(1))}),
        lambda d: d["costs"].update(zz={"type": "quadratic", "weight": [[1.0]]}),
        "costs declared for unknown agents ['zz']"),
    "initial-state-unknown-agent": (
        lambda s: replace(s, initial_state=UNKNOWN_START),
        lambda d: d.update(initial_state=UNKNOWN_START),
        "initial_state.x: unknown agent 'zz'"),
    "constraint-block-wrong-rows": (
        lambda s: replace(s, constraint=replace(
            s.constraint, a_blocks={**s.constraint.a_blocks, "a1": np.ones((3, 2))})),
        lambda d: d["constraint"]["a_blocks"].update(a1=[[1.0, 1.0]] * 3),
        "constraint block for 'a1' has 3 rows, expected 2"),
}

# Faults that no document can hold, since its parser builds the dims and
# the models' neighbor lists itself: (edit of a scenario, its message).
CODE_ONLY_FAULTS = {
    "agent-without-dim": (lambda s: replace(s, dims={"a2": 2, "k1": 2}),
                          "agent 'a1' has no declared dim"),
    "model-neighbors-differ": (
        lambda s: replace(s, human_models={"k1": replace(
            s.human_models["k1"], neighbor_ids=("a1",),
            gains={"a1": s.human_models["k1"].gains["a1"]})}),
        "model for 'k1' lists neighbors ['a1'], topology says ['a1', 'a2']"),
}


class TestConstruction:
    """A `Scenario` built in code is checked as a document is."""

    @pytest.mark.parametrize("edit_scenario, edit_doc, message",
                             CONSTRUCTION_FAULTS.values(), ids=CONSTRUCTION_FAULTS)
    def test_replace_is_checked_as_a_document_is(self, edit_scenario, edit_doc, message):
        with pytest.raises(ScenarioFormatError) as from_code:
            edit_scenario(path_scenario())
        doc = serialize_scenario(path_scenario())
        edit_doc(doc)
        with pytest.raises(ScenarioFormatError) as from_file:
            scenario_from_document(doc)
        assert str(from_code.value) == str(from_file.value) == message

    @pytest.mark.parametrize("edit_scenario, message", CODE_ONLY_FAULTS.values(),
                             ids=CODE_ONLY_FAULTS)
    def test_faults_no_document_can_hold_are_refused(self, edit_scenario, message):
        with pytest.raises(ScenarioFormatError) as from_code:
            edit_scenario(path_scenario())
        assert str(from_code.value) == message

    def test_schedule_for_unknown_human_is_rejected(self):
        schedule = ApproximationSchedule({}, np.zeros(2), 1.0)
        for agent_id in ("zz", "a1"):
            with pytest.raises(ScenarioFormatError,
                               match=rf"schedules for unknown humans \['{agent_id}'\]"):
                replace(path_scenario(), schedules={agent_id: schedule})

    @pytest.mark.parametrize("field, value", [
        ("initial_state", {"x": {"a1": [0.7, 0.0]}}),
        ("solver", SolverOptions(dt=1e-2)),
    ])
    def test_fields_cannot_be_reassigned(self, field, value):
        scenario = path_scenario()
        with pytest.raises(FrozenInstanceError):
            setattr(scenario, field, value)


NAN, INF = float("nan"), float("inf")


def _constraint(edit):
    con = path_scenario().constraint
    parts = {"a_blocks": dict(con.a_blocks), "b_blocks": dict(con.b_blocks), "c": con.c}
    edit(parts)
    return CouplingConstraint(**parts)


NONFINITE_FIELDS = {
    "cost-weight": (lambda: QuadraticCost([[NAN]]), NotPositiveDefiniteError,
                    "cost weight entries must be finite"),
    "constraint-c": (lambda: _constraint(lambda p: p.update(c=[INF, 1.0])),
                     DimensionMismatchError, "offset c entries must be finite"),
    "constraint-a-block": (lambda: _constraint(lambda p: p["a_blocks"].update(
        a1=np.full((2, 2), NAN))), DimensionMismatchError, "block for 'a1' must be finite"),
    "constraint-b-block": (lambda: _constraint(lambda p: p["b_blocks"].update(
        k1=np.full((2, 2), -INF))), DimensionMismatchError, "block for 'k1' must be finite"),
    "model-base": (lambda: replace(path_scenario().human_models["k1"], base=[NAN, 1.0]),
                   ValueError, "base entries must be finite"),
    "model-gains": (lambda: replace(path_scenario().human_models["k1"], gains={
        "a1": np.full((2, 2), NAN), "a2": np.eye(2)}), ValueError,
        "gain for 'a1' must be finite"),
    "schedule-gain-delta": (lambda: ApproximationSchedule(
        {"a1": np.full((2, 2), NAN)}, np.zeros(2), 1.0), ValueError,
        "delta for 'a1' must be finite"),
    "schedule-base-delta": (lambda: ApproximationSchedule({}, [INF, 0.0], 1.0), ValueError,
                            "delta for 'base' must be finite"),
}


class TestNonFiniteParameters:
    """Every value object refuses non-finite entries when built, with the
    error type it raises for its other faults."""

    @pytest.mark.parametrize("build, error, message", NONFINITE_FIELDS.values(),
                             ids=NONFINITE_FIELDS)
    def test_rejected_at_construction(self, build, error, message):
        with pytest.raises(error, match=message):
            build()

    def test_blocks_are_stored_c_contiguous(self):
        f_order = np.asfortranarray([[2.0, 0.5], [0.5, 1.0]])
        assert QuadraticCost(f_order).weight.flags.c_contiguous
        con = CouplingConstraint({"a1": f_order}, {"k1": f_order.T}, [1.0, 0.0])
        assert all(m.flags.c_contiguous for m in (*con.a_blocks.values(), *con.b_blocks.values()))


def _model(**changes):
    return replace(path_scenario().human_models["k1"], **changes)


# Values of the right type but the wrong rank or kind, which a document's
# parser refuses before any object is built: (build, error, message).
SHAPE_FAULTS = {
    "cost-weight-empty": (lambda: QuadraticCost(np.zeros((0, 0))), DimensionMismatchError,
                          "cost weight must not be empty"),
    "cost-weight-3d": (lambda: QuadraticCost(np.ones((1, 1, 1))), DimensionMismatchError,
                       r"cost weight must be a matrix, got shape \(1, 1, 1\)"),
    "constraint-c-matrix": (lambda: _constraint(lambda p: p.update(c=[[-1.0], [1.0]])),
                            DimensionMismatchError, "offset c must be a vector"),
    "constraint-c-scalar": (lambda: _constraint(lambda p: p.update(c=-1.0)),
                            DimensionMismatchError, "offset c must be a vector"),
    "constraint-block-3d": (lambda: _constraint(lambda p: p["a_blocks"].update(
        a1=np.ones((2, 2, 1)))), DimensionMismatchError, "block for 'a1' must be a matrix"),
    "model-base-matrix": (lambda: _model(base=[[1.0], [0.8]]), ValueError,
                          "model 'k1': base must be a vector"),
    "model-gain-3d": (lambda: _model(gains={"a1": np.ones((2, 2, 1)), "a2": np.eye(2)}),
                      ValueError, "model 'k1': gain for 'a1' must be a matrix"),
    "schedule-base-delta-matrix": (lambda: ApproximationSchedule({}, np.zeros((2, 1)), 1.0),
                                   ValueError, "base delta must be a vector"),
    "schedule-gain-delta-3d": (lambda: ApproximationSchedule(
        {"a1": np.zeros((2, 2, 1))}, np.zeros(2), 1.0), ValueError,
        "gain delta for 'a1' must be a matrix"),
    "dim-float": (lambda: replace(path_scenario(), dims={"a1": 2.0, "a2": 2, "k1": 2}),
                  DimensionMismatchError, "agent 'a1' has dim 2.0, not an integer"),
    "dim-bool": (lambda: replace(single_agent_scenario(), dims={"a1": True}),
                 DimensionMismatchError, "agent 'a1' has dim True, not an integer"),
    "edge-triple": (lambda: NetworkTopology(("a1", "a2"), (), frozenset({("a1", "a2", "a1")})),
                    TopologyError, "expected a pair of agent ids"),
}


class TestShapes:
    """An object built in code refuses a value of the wrong rank or kind,
    as a document with it is refused, with the error type it raises for its
    other faults."""

    @pytest.mark.parametrize("build, error, message", SHAPE_FAULTS.values(), ids=SHAPE_FAULTS)
    def test_rejected_at_construction(self, build, error, message):
        with pytest.raises(error, match=message):
            build()


class TestStackDimensions:
    def test_offsets_increase_to_total(self):
        scenario = scenario_from_document(reference_dims_doc())
        lay = scenario.layout
        offsets = [lay.x_offsets[i] for i in lay.autonomous_ids]
        assert offsets == sorted(offsets)
        total = offsets[-1] + scenario.dims[lay.autonomous_ids[-1]]
        assert total == lay.x_dim == 15
        assert sum(scenario.dims[k] for k in lay.human_ids) == lay.y_dim == 8

    def test_block_diagonal_places_each_block_and_zeros_elsewhere(self):
        rng = np.random.default_rng(0)
        blocks = [rng.normal(size=shape) for shape in [(2, 3), (1, 1), (3, 2)]]
        expected = np.block([[b if i == j else np.zeros((b.shape[0], c.shape[1]))
                              for j, c in enumerate(blocks)] for i, b in enumerate(blocks)])
        assert block_diagonal(blocks).tobytes() == expected.tobytes()
        assert block_diagonal([]).shape == (0, 0)


class TestCosts:
    def test_quadratic_requires_symmetry(self):
        with pytest.raises(NotPositiveDefiniteError, match="symmetric"):
            QuadraticCost(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_quadratic_requires_square(self):
        with pytest.raises(DimensionMismatchError, match=r"square, got \(2, 3\)"):
            QuadraticCost(np.ones((2, 3)))

    def test_quadratic_requires_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            QuadraticCost(np.array([[1.0, 0.0], [0.0, -0.1]]))

    def test_midpoint_convexity_sampling(self):
        rng = np.random.default_rng(1)
        cost = QuadraticCost(np.diag([1.0, 3.0]))
        assert midpoint_convexity_gap(cost, rng, samples=200) <= 1e-9

    def test_gradient_consistency(self):
        rng = np.random.default_rng(2)
        weight = np.array([[2.0, 0.3], [0.3, 1.0]])
        cost = QuadraticCost(weight)
        assert gradient_consistency_error(cost, rng, points=50) <= 1e-5

    def test_custom_cost_callbacks(self):
        cost = CustomCost(
            dim=2,
            value_fn=lambda v: float(np.sum(v ** 4)),
            gradient_fn=lambda v: 4.0 * v ** 3,
        )
        rng = np.random.default_rng(3)
        assert gradient_consistency_error(cost, rng, points=30) <= 1e-5
        assert midpoint_convexity_gap(cost, rng, samples=100) <= 1e-9


@st.composite
def scenarios(draw):
    """A `random_scenario` of either response family, with a schedule on its
    first human (if it has one) and an `initial_state`. The offset c takes
    any finite floats, subnormal and huge ones included."""
    families = draw(st.sampled_from(
        [("affine",), ("softplus_affine",), ("affine", "softplus_affine")]
    ))
    scenario = random_scenario(draw(st.integers(0, 10_000)), families=families)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lay = scenario.layout
    c = draw(arrays(float, lay.rows, elements=st.floats(allow_nan=False, allow_infinity=False)))
    schedules = {}
    for k in lay.human_ids[:1]:
        model = scenario.human_models[k]
        schedules[k] = ApproximationSchedule(
            gain_deltas={j: rng.normal(size=g.shape) for j, g in model.gains.items()},
            base_delta=rng.normal(size=model.dim),
            settle_time=float(rng.uniform(0.0, 5.0)),
        )
    start = {
        "x": {i: rng.normal(size=scenario.dims[i]).tolist() for i in lay.autonomous_ids},
        "z": {a: rng.normal(size=lay.rows).tolist() for a in lay.node_order},
        "lambda": {a: rng.uniform(0.0, 1.0, lay.rows).tolist() for a in lay.node_order},
    }
    return replace(
        scenario,
        constraint=replace(scenario.constraint, c=c),
        schedules=schedules,
        initial_state=start,
    )


WRITER_CASES = {
    "team": lambda: [team_scenario(seed) for seed in range(1, 10)],
    "crosscheck": lambda: [crosscheck_scenario(seed) for seed in range(1, 31)],
    "random": lambda: [random_scenario(seed) for seed in range(40)],
    "large_team": lambda: [random_scenario(seed, n_autonomous=200, n_human=50, rows=3)
                           for seed in range(1, 4)],
    "scheduled": lambda: [with_schedules(team_scenario(1), np.random.default_rng(3))],
    "initial_state": lambda: [replace(team_scenario(1), initial_state={
        "x": {"r1": np.array([0.1, -0.0, 1e-300]), "r4": [1, 2]},
        "lambda": {"h1": np.array([0.5, 2.0])}})],
}


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(scenario=scenarios())
    @example(scenario=scenario_from_document(reference_dims_doc()))
    def test_serialize_load_is_bit_exact(self, scenario):
        doc = serialize_scenario(scenario)
        text = json.dumps(doc)
        again = load_scenario(io.StringIO(text))
        assert serialize_scenario(again) == doc
        assert json.dumps(serialize_scenario(again)) == text  # -0.0 stays -0.0
        # and nothing was lost on the way into the document
        for agent_id, cost in scenario.costs.items():
            np.testing.assert_array_equal(cost.weight, again.costs[agent_id].weight)
        for agent_id, block in scenario.constraint.a_blocks.items():
            np.testing.assert_array_equal(block, again.constraint.a_blocks[agent_id])
        for agent_id, block in scenario.constraint.b_blocks.items():
            np.testing.assert_array_equal(block, again.constraint.b_blocks[agent_id])
        np.testing.assert_array_equal(scenario.constraint.c, again.constraint.c)
        for k, model in scenario.human_models.items():
            other = again.human_models[k]
            np.testing.assert_array_equal(model.base, other.base)
            assert (model.family, model.attitude) == (other.family, other.attitude)
            assert model.sharpness == other.sharpness
            for j, gain in model.gains.items():
                np.testing.assert_array_equal(gain, other.gains[j])
        for k, sched in scenario.schedules.items():
            other = again.schedules[k]
            np.testing.assert_array_equal(sched.base_delta, other.base_delta)
            assert sched.settle_time == other.settle_time
            for j, delta in sched.gain_deltas.items():
                np.testing.assert_array_equal(delta, other.gain_deltas[j])
        assert again.initial_state == scenario.initial_state

    def test_saved_file_is_the_indented_document(self, tmp_path):
        """`save_scenario` writes the document as `json.dumps(doc, indent=2)`
        and a newline, here for humans of both families, all scheduled."""
        scenario = with_schedules(
            random_scenario(4, n_human=3, families=("affine", "softplus_affine")),
            np.random.default_rng(4),
        )
        assert {m.family for m in scenario.human_models.values()} == {
            "affine", "softplus_affine"}
        assert set(scenario.schedules) == set(scenario.human_models)
        path = tmp_path / "scenario.json"
        save_scenario(scenario, path)
        text = json.dumps(serialize_scenario(scenario), indent=2) + "\n"
        assert path.read_bytes() == text.encode("utf-8")

    @pytest.mark.parametrize("kind", WRITER_CASES)
    def test_writer_bytes_are_the_indented_tree(self, tmp_path, kind):
        """The text `save_scenario` writes directly is, byte for byte,
        `json.dumps(tree, indent=2)` and a newline, `tree` being the text
        parsed, so the writer lays every value out as json does; the pinned
        digests of the generators' trees (`test_offset_search`) hold the
        values."""
        path = tmp_path / "scenario.json"
        for scenario in WRITER_CASES[kind]():
            save_scenario(scenario, path)
            text = path.read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), indent=2) + "\n"
            assert json.loads(text) == serialize_scenario(scenario)

    def test_callback_cost_is_not_serializable(self, tmp_path):
        """A callback cost cannot be written, and no file is started."""
        base = path_scenario()
        scenario = replace(base, costs={**base.costs, "a1": CustomCost(
            2, lambda v: float(v @ v), lambda v: 2.0 * v)})
        path = tmp_path / "scenario.json"
        with pytest.raises(ScenarioFormatError,
                           match=r"^cost for 'a1' is not serializable \(callback cost\)$"):
            save_scenario(scenario, path)
        assert not path.exists()

    def test_numpy_initial_state_saves_as_lists_of_floats(self, tmp_path):
        """A scenario built in code with numpy vectors (and an integer list)
        in `initial_state` saves each vector as a list of floats, and the
        loaded copy starts from the same w, byte for byte."""
        start = {"x": {"a1": np.array([0.7, -0.0]), "a2": [1, 2]},
                 "z": {"k1": np.array([1e-300, -2.5])},
                 "lambda": {"a2": np.array([0.2, 0.0])}}
        scenario = replace(path_scenario(), initial_state=start)
        path = tmp_path / "scenario.json"
        save_scenario(scenario, path)
        saved = json.loads(path.read_text())["initial_state"]
        assert saved["x"] == {"a1": [0.7, -0.0], "a2": [1.0, 2.0]}
        assert all(type(v) is float for blocks in saved.values()
                   for vec in blocks.values() for v in vec)
        again = load_scenario(str(path))
        assert initial_state(again).w.tobytes() == initial_state(scenario).w.tobytes()


class TestSolverOptions:
    def test_defaults(self):
        opts = SolverOptions()
        assert opts.dt == 1e-3
        assert opts.tolerance == 1e-6
        assert opts.max_time == 200.0

    def test_rejects_bad_policy(self):
        with pytest.raises(ValueError):
            SolverOptions(offset_split="sideways")

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            SolverOptions(dt=0.0)

    @pytest.mark.parametrize("opts", [
        dict(dt=1e-320), dict(max_time=1e300, dt=1e-300),
        dict(max_time=1e300, dt=1e-8),  # finite at dt, not at the retry's dt / 2
        dict(max_time=1e-320, dt=5e-324),  # dt / 2 rounds to zero
    ])
    def test_rejects_a_horizon_of_infinitely_many_steps(self, opts):
        with pytest.raises(ValueError, match="max_time / dt must be finite"):
            SolverOptions(**opts)

    def test_unknown_solver_key_in_document(self):
        doc = dict(MINIMAL_DOC)
        doc["solver"] = {"dtt": 1e-3}
        with pytest.raises(ScenarioFormatError, match="solver"):
            scenario_from_document(doc)


class TestSlaterFlag:
    def test_load_with_check_slater_passes_on_interior(self):
        doc = dict(MINIMAL_DOC)
        doc["solver"] = {"check_slater": True}
        scenario = load_scenario(io.StringIO(json.dumps(doc)))
        assert scenario.solver.check_slater

    def test_load_with_check_slater_rejects_pinched_interior(self):
        doc = dict(MINIMAL_DOC)
        doc["constraint"] = {
            "rows": 2,
            "a_blocks": {"a1": [[1.0], [-1.0]]},
            "b_blocks": {},
            "c": [0.0, 0.0],
        }
        doc["solver"] = {"check_slater": True}
        from hatalloc.errors import SlaterConditionError

        with pytest.raises(SlaterConditionError):
            load_scenario(io.StringIO(json.dumps(doc)))


class TestOffsets:
    def test_random_scenarios_have_consistent_offsets(self):
        for seed in range(6):
            scenario = random_scenario(seed)
            lay = scenario.layout
            running = 0
            for i in lay.autonomous_ids:
                assert lay.x_offsets[i] == running
                running += scenario.dims[i]
            assert running == lay.x_dim
            running = 0
            for k in lay.human_ids:
                assert lay.y_offsets[k] == running
                running += scenario.dims[k]
            assert running == lay.y_dim
