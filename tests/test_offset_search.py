"""The generator's offset search against a per-offset reference.

The generator reduces every attitude cell of a draw from the draw's one
stack, `Scenario.stacked`, and `_offset_search` screens all probed offsets with the
cells' affine KKT maps and solves the probes the screen keeps exactly,
re-targeting the reduced cells with `ReducedProgram.with_offset`. The
reference below is the per-offset search it replaced: a new scenario for
every probe, solved and checked with the scenario-level oracle functions.
Both must pick the same offset bit for bit, because the generator's accepted
draws (and so every seeded benchmark instance) depend on it. After the
search, the generator scales the draw's cell stacks instead of rebuilding
the scaled scenario; they must reduce to the same floats.
"""

import hashlib
import json
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hatalloc import experiments, model, oracle
from hatalloc.dynamics import FlowEngine
from hatalloc.errors import HatallocError, UnsupportedByOracleError
from hatalloc.experiments import (
    BUDGET_FRACTIONS,
    DEMAND_MARGINS,
    INITIAL_SPEED_CAP,
    TEAM_DIMS,
    TEAM_HUMAN_DIMS,
    attitude_cells,
    _draw_instance,
    _cell_admissible,
    _cell_stacks,
    _generate,
    _offset_search,
    _scaled,
    _screen,
    _stability_margins,
    _with_offsets,
    crosscheck_scenario,
    team_scenario,
)
from hatalloc.model import Scenario, serialize_scenario
from hatalloc.oracle import (
    ReducedProgram,
    reduce_program,
    reduce_stacked,
    solve_centralized,
    solve_program,
    strictly_feasible_point,
)
from hatalloc.reformulation import build_decoupled

from conftest import (
    TEAM_ATTITUDES,
    generator_stages,
    path_scenario,
    record_calls,
    scaled_scenario,
    team_draw,
)

# Team seed 1, stream 40: draws 5, 12, 14 and 15 are tightened, the other
# eight are rejected.
DRAWS = range(4, 16)


def _cells(scenario):
    """The attitude cells' reduced programs, as the generator builds them."""
    stacks = _cell_stacks(scenario)
    return [reduce_stacked(sp, scenario.constraint.c) for sp in stacks.values()]


def _tighten(scenario, tally=None):
    """The offset the generator's search takes for a raw draw, or None."""
    return _offset_search(_cells(scenario), Counter() if tally is None else tally)


def _reference_row_levels(scenario, c, x):
    rp = reduce_program(_with_offsets(scenario, c))
    return rp.G_c @ x + rp.h_c - c


def _reference_cell_admissible(cell):
    try:
        _, y, mu, _ = solve_centralized(cell)
    except HatallocError:
        return False
    return (
        bool(np.all(mu > 1e-2))
        and bool(np.all(y >= 0.0))
        and strictly_feasible_point(cell) is not None
    )


def _reference_tighten(scenario):
    """The offset the search takes, with one new scenario per probed offset."""
    cells = list(attitude_cells(scenario).values())
    slack_c = np.array([-1e6, -1e6])
    productions = []
    for cell in cells:
        try:
            x0, _, _, _ = solve_centralized(_with_offsets(cell, slack_c))
        except HatallocError:
            return None
        productions.append(-_reference_row_levels(cell, slack_c, x0)[1])
    production0 = max(productions)

    for margin in (1.0, 1.8, 2.8):
        demand = production0 + margin * (0.5 + 0.5 * abs(production0))
        c_demand = np.array([-1e6, demand])
        usages = []
        for cell in cells:
            try:
                x1, _, mu1, _ = solve_centralized(_with_offsets(cell, c_demand))
            except HatallocError:
                usages = None
                break
            if mu1[1] <= 1e-2:
                usages = None
                break
            usages.append(_reference_row_levels(cell, c_demand, x1)[0])
        if usages is None or min(usages) <= 0.05:
            continue
        for theta in (0.85, 0.7, 0.55):
            c_try = np.array([-theta * min(usages), demand])
            if all(_reference_cell_admissible(_with_offsets(cell, c_try))
                   for cell in cells):
                return c_try
    return None


@pytest.mark.parametrize("attempt", DRAWS)
def test_tighten_matches_per_offset_reference(attempt):
    draw = team_draw(attempt)
    got = _tighten(draw)
    expected = _reference_tighten(draw)
    assert (got is None) == (expected is None)
    if expected is not None:
        assert np.array_equal(got, expected)


def test_draws_cover_accepted_and_rejected():
    outcomes = {_tighten(team_draw(attempt)) is None for attempt in DRAWS}
    assert outcomes == {True, False}


def test_tighten_reduces_each_cell_once(monkeypatch):
    """`_generate` stacks each draw once, then reduces each attitude cell of
    that stack once, and those reductions are the cells its offset search
    reads. No `Scenario` is built between the draw and its search, and no
    scenario is reduced. The only other stacks are those of the tightened
    scenarios, one each, which the scale step's lift reads."""
    log = []
    record_calls(monkeypatch, log, model.stack_problem, oracle.reduce_stacked,
                 oracle.reduce_program, experiments._offset_search)
    real_init = Scenario.__post_init__
    monkeypatch.setattr(Scenario, "__post_init__",
                        lambda self: log.append(("Scenario", (self,), None)) or real_init(self))
    with pytest.raises(HatallocError):  # draws 0-15 of seed 1 hold no admissible one
        _generate(1, TEAM_DIMS, TEAM_HUMAN_DIMS, TEAM_ATTITUDES, abscissa_bar=-0.08,
                  check_grid=True, stream=40, max_attempts=16)
    assert "reduce_program" not in {name for name, _, _ in log}
    stacks = [i for i, (name, _, _) in enumerate(log) if name == "stack_problem"]
    searches = [i for i, (name, _, _) in enumerate(log) if name == "_offset_search"]
    starts = [search - 5 for search in searches]
    assert len(searches) == 16 and set(starts) <= set(stacks)
    offsets = [log[search][2] for search in searches if log[search][2] is not None]
    assert len(offsets) == 4  # draws 5, 12, 14 and 15
    tightened = [log[i][1][0] for i in stacks if i not in starts]
    assert len(tightened) == len(offsets)
    for scenario, c in zip(tightened, offsets):
        assert np.array_equal(scenario.constraint.c, c)
    for start, search in zip(starts, searches):
        sp, cells = log[start][2], log[search][1][0]
        between = log[start + 1:search]
        assert [name for name, _, _ in between] == ["reduce_stacked"] * 4  # two humans
        assert [result for _, _, result in between] == cells
        assert any(args[0] is sp for _, args, _ in between)


def test_cell_stacks_reduce_like_relabeled_scenarios():
    """A cell's sign-flipped stack reduces to the same floats as the
    relabeled scenario, signed zeros included."""
    for scenario in (team_draw(5), team_draw(6), crosscheck_scenario(2)):
        for got, cell in zip(_cells(scenario), attitude_cells(scenario).values()):
            expected = reduce_program(cell)
            for name in ("H", "g", "G_c", "h_c", "S", "d", "b_d"):
                a, b = getattr(got, name), getattr(expected, name)
                assert a.tobytes() == b.tobytes(), name
            assert got.const == expected.const


def test_cell_stacks_need_unit_attitudes():
    """Negating gain blocks relabels only a unit attitude."""
    scenario = path_scenario(attitude=0.5)
    with pytest.raises(ValueError, match="unit attitudes"):
        _cell_stacks(scenario)


@pytest.mark.parametrize("attempt", DRAWS)
def test_screened_draws_make_no_exact_solve(attempt, monkeypatch):
    """A draw the screen rejects is decided without `solve_program`: no slack
    or demand probe and no `_cell_admissible`. Every draw the search rejects
    here is rejected by the screen, and `tally` counts the solves made."""
    solves, admissible = [], []
    real_solve, real_admissible = experiments.solve_program, experiments._cell_admissible
    monkeypatch.setattr(experiments, "solve_program",
                        lambda rp: solves.append(rp) or real_solve(rp))
    monkeypatch.setattr(experiments, "_cell_admissible",
                        lambda rp: admissible.append(rp) or real_admissible(rp))
    tally = Counter()
    tightened = _tighten(team_draw(attempt), tally)
    assert tally["exact_solves"] == len(solves)
    if tightened is None:
        assert tally["screened"] == 1
        assert solves == [] and admissible == []
    else:
        assert tally["screened"] == 0
        assert len(admissible) >= 4


def test_singular_kkt_system_passes_every_probe():
    """Two equal constraint rows make a cell's KKT matrix, and its Schur
    complement M, singular: that cell turns the screen off."""
    cells = _cells(team_draw(4))
    assert not _screen(cells).any()  # draw 4 is screened out
    twin_rows = replace(cells[2], G_c=cells[2].G_c[[1, 1]])
    assert _screen(cells[:2] + [twin_rows] + cells[3:]).all()


def _unscreened(cells):
    """`_offset_search` with a screen that passes every probe."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "_screen", lambda cells: np.ones(
            (len(DEMAND_MARGINS), len(BUDGET_FRACTIONS)), dtype=bool))
        return _offset_search(cells, Counter())


def _assert_screen_keeps_zero_responses(cells, c, index):
    """Shift cell `index`'s responses so that, at the offset c the search
    takes, its smallest response is 1e-12. The probe stays admissible, so
    the screen must keep it and the search must still take c."""
    cell = cells[index]
    y = solve_program(cell.with_offset(c))[1]
    edge = replace(cell, d=cell.d - (y.min() - 1e-12))
    assert 0.0 <= solve_program(edge.with_offset(c))[1].min() < 1e-11
    assert _cell_admissible(edge.with_offset(c))
    shifted = cells[:index] + [edge] + cells[index + 1:]
    assert np.array_equal(_unscreened(shifted), c)
    assert np.array_equal(_offset_search(shifted, Counter()), c)


@pytest.mark.parametrize("attempt", (5, 12, 14, 15))
def test_screen_keeps_a_probe_with_a_response_at_zero(attempt):
    cells = _cells(team_draw(attempt))
    c = _offset_search(cells, Counter())
    for index in range(len(cells)):
        _assert_screen_keeps_zero_responses(cells, c, index)


@st.composite
def draw_shapes(draw):
    """`_draw_instance`'s (autonomous dims, human dims, attitudes), shaped as
    `team_scenario`'s or as `crosscheck_scenario`'s."""
    if draw(st.booleans()):
        return TEAM_DIMS, TEAM_HUMAN_DIMS, TEAM_ATTITUDES
    auto_dims = tuple(draw(st.lists(st.integers(3, 5), min_size=3, max_size=4)))
    human_dims = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=2)))
    return auto_dims, human_dims, dict(list(TEAM_ATTITUDES.items())[:len(human_dims)])


@st.composite
def raw_draws(draw):
    """An unscreened generator draw of either shape."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _draw_instance(rng, *draw(draw_shapes()))


@settings(max_examples=50, deadline=None)
@given(scenario=raw_draws(), data=st.data())
def test_screened_search_matches_reference_on_raw_draws(scenario, data):
    """The screened search takes the reference's offset bit for bit, and
    still does when a cell's smallest response sits at zero there."""
    got, expected = _tighten(scenario), _reference_tighten(scenario)
    assert (got is None) == (expected is None)
    if expected is not None:
        assert got.tobytes() == expected.tobytes()
        cells = _cells(scenario)
        index = data.draw(st.integers(0, len(cells) - 1))
        _assert_screen_keeps_zero_responses(cells, got, index)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=draw_shapes())
def test_scaled_cells_reduce_like_the_rebuilt_scaled_scenario(seed, shape):
    """On the first of up to 40 raw draws from one seed that the offset
    search tightens: `_rejection` reads each attitude cell as `_scaled` of
    the draw's cell stack. Every field of it is byte-equal to
    `reduce_program` of the same cell of the scenario rebuilt with scaled
    offsets and bases, and the tightened decoupled constraint gives the
    rebuilt scenario's stability margins."""
    rng = np.random.default_rng(seed)
    draws = (generator_stages(_draw_instance(rng, *shape)) for _ in range(40))
    stages = next((stages for stages in draws if stages is not None), None)
    assume(stages is not None)
    tightened, stacks, _, s, dc = stages
    scaled = scaled_scenario(tightened, s)
    scaled_dc, dt = build_decoupled(scaled), tightened.solver.dt
    cells = attitude_cells(scaled)
    assert list(cells) == list(stacks)
    for key, cell in cells.items():
        got, expected = _scaled(stacks[key], s, tightened.constraint.c), reduce_program(cell)
        for f in fields(ReducedProgram):
            if f.init:
                a, b = getattr(got, f.name), getattr(expected, f.name)
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name
        assert _stability_margins(got, dc, dt) == _stability_margins(got, scaled_dc, dt)


# sha256 of `json.dumps(serialize_scenario(s), indent=2)`, the text that
# `save_scenario` writes, recorded before the offset screen was added.
PINNED_SHA256 = {
    ("crosscheck", 1): "644b781bbd24c0cb5dcb8cc4834a5c3b39ce78e73eb7a87d88b4194aaad364f9",
    ("crosscheck", 2): "12c98713af2fd80020da2b363f0ab411972fe64a3557c1c5cb2050dfc9637820",
    ("crosscheck", 3): "1e65edc3ffe272756189bbdb2494bdeb6853a53829a7d044ff03c6a24f2ca576",
    ("crosscheck", 4): "803a6a63c38806e3c00a0b7a1b8cfd005a8abca6b548cc0d37d00995e606fb9a",
    ("crosscheck", 5): "d8a4b774253b94e1dffca29dd280acc8d03b77620c0b9bfe0ea833d56237dbd2",
    ("crosscheck", 6): "81748625212f626dccbefe2e33ad26c9a364f5e01aa916844bb5f3e3f57dccfd",
    ("crosscheck", 7): "a7217dc6572b9ec6ee2dde1e308b1860c6e6c3f4118eb79d5522a450105039fd",
    ("crosscheck", 8): "0cda4e26f2fa413bc63c87b63d4066ef49e106a4e658c1ed5599a89bc0bae570",
    ("crosscheck", 9): "3d1ab1e8c29f0dac934708f744dd9c8a3f778cd9663403cf826015de0b864fc4",
    ("crosscheck", 10): "a31b627bdbedd8344127e82a1fc250648cee89c7590805759fdb413199c74cfa",
    ("crosscheck", 11): "cc0bbb3b8a8b3eb46124d794ae3c07a0651e874574096694a957274582ab5642",
    ("crosscheck", 12): "74a397345ca675fd8127de1709629cd0e24fc3d775d41a37f5466a2b40dcf748",
    ("crosscheck", 13): "263a36c4c1794f246354ba9e52f82c6462f40d69704db24c50fca762db6d9069",
    ("crosscheck", 14): "fb123105b6deac758ddec231df69194bae1ff6050109e55a15a76ded31dba535",
    ("crosscheck", 15): "4de5ea4a20607f6cbe321c161f471d00585fb7f8032ce30cacfc76a3d7eaf5ee",
    ("crosscheck", 16): "63a5e0bc36d9bae75f03da44dc23b166179e5c50b1bee7f6685f9004ca678896",
    ("crosscheck", 17): "436eceece14e7ef6c202d4da04654b1c2588f3a628fbff5e62d26aedf9484cd0",
    ("crosscheck", 18): "234c42b53ed06e6512ed4e44760a9e5a72de07f05623563015d2fe34f7d10775",
    ("crosscheck", 19): "8e4caded1a552a518804dd04b1a1f33584a45ad6dd91b98e110c67dcc6afc3e0",
    ("crosscheck", 20): "e471dedbc889e63dc5fb0a27da4873b2d675954b8051d9e4b25fafe0eff948c1",
    ("crosscheck", 21): "a34eb24579fcaa4c6474e4b120c754fdd08a55e786f267e71d60a61d99d21e9e",
    ("crosscheck", 22): "cb27ffc829548772cc655093457962cbfd0594e83339d490a98f521a9285f574",
    ("crosscheck", 23): "bce45c56411c03b2653ad9ea128571075a15e0a3b5f770197749a036e73a6f6d",
    ("crosscheck", 24): "205324bbbc93e5484344f46060294cfd8b91f39715089e286f8cd68892c62c83",
    ("crosscheck", 25): "1a742a51ecb766c794c30e74714cb3378e847e30073a1eaddba3f871a92bce45",
    ("crosscheck", 26): "674c19eac79109e09008dab93328f03be830cd7efe231c360277932ed9855157",
    ("crosscheck", 27): "6737887ced9cf7f4a6c33da35e5d07ba1b08327e8cc747230e5d8ea09a7dd48e",
    ("crosscheck", 28): "dffd1eb4deeaa97a413f5f30186d008379768db6e54555e1ae9e5ad1fc539213",
    ("crosscheck", 29): "9313c1bd193d7a32247d3e4d13e05fda7dfcd8f790a311096805b08497b6a964",
    ("crosscheck", 30): "f57e08198ad7e5a86145ca0f445dc9e2e511a124d08fc103755c32d64a2abdb8",
    ("team", 4): "988e6034f61f1d4e3af61dd2da490c99439917c7df60b4653e52999a8ba565fc",
    ("team", 5): "fa2b6327751ffa53e3cb1b467555a241843746c2e8af2b0894ceaafe9e51d2f0",
    ("team", 7): "973b1543714e0df8d2cefd43a1c474dac9bd93c00aedb5c630858cc4f9134717",
}


@pytest.mark.parametrize("kind, seed", sorted(PINNED_SHA256))
def test_generator_outputs_are_pinned(kind, seed):
    generate = team_scenario if kind == "team" else crosscheck_scenario
    text = json.dumps(serialize_scenario(generate(seed)), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SHA256[(kind, seed)]


def _zero_start_speed(scenario):
    """|velocity| at w = 0, with the multiplier part clamped at the bound."""
    engine = FlowEngine(scenario)
    w = np.zeros(scenario.layout.x_dim + 2 * engine.dc.block_dim)
    v = np.empty_like(w)
    engine.velocity(w, 0.0, v)
    lam = slice(scenario.layout.x_dim + engine.dc.block_dim, None)
    v[lam] = np.maximum(v[lam], 0.0)
    return float(np.linalg.norm(v))


def test_scaled_draws_start_within_the_speed_cap():
    """`_normalize_scale`'s factor bounds the zero-start speed of every
    tightened draw, so the generator needs no admission check on it."""
    speeds = {}
    for attempt in range(60):
        stages = generator_stages(team_draw(attempt))
        if stages is not None:
            tightened, _, _, s, _ = stages
            speeds[attempt] = _zero_start_speed(scaled_scenario(tightened, s))
    assert max(speeds.values()) <= INITIAL_SPEED_CAP * (1 + 1e-12)
    # Draw 5 is one where the cap, not the saddle-norm target, sets the scale.
    assert speeds[5] == pytest.approx(INITIAL_SPEED_CAP, abs=1e-12)


def _outcome(solve):
    """The solution, or the type of the package error it raised."""
    try:
        return solve()
    except HatallocError as exc:
        return type(exc)


OFFSET_SCENARIOS = [crosscheck_scenario(seed) for seed in (1, 2, 3)] + [team_draw(5)]
offsets = st.floats(-50.0, 50.0, allow_nan=False) | st.just(-1e6)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_program_at_offset_equals_scenario_at_offset(data):
    scenario = data.draw(st.sampled_from(OFFSET_SCENARIOS))
    c = data.draw(arrays(float, scenario.constraint.rows, elements=offsets))
    got = _outcome(lambda: solve_program(reduce_program(scenario).with_offset(c)))
    expected = _outcome(lambda: solve_centralized(_with_offsets(scenario, c)))
    if isinstance(expected, type):
        assert got is expected
        return
    for a, b in zip(got[:3], expected[:3]):
        assert np.array_equal(a, b)
    assert got[3] == expected[3]


def test_convexity_verdict_follows_the_hessian():
    scenario = crosscheck_scenario(1)
    rp = reduce_program(scenario)
    x_star = solve_program(rp)[0]  # records the verdict for rp and its offset copies
    flat = replace(rp, H=np.zeros_like(rp.H))
    for program in (flat, flat.with_offset(np.array([-1e6, -1e6]))):
        with pytest.raises(UnsupportedByOracleError):
            solve_program(program)
    assert np.array_equal(solve_program(rp.with_offset(scenario.constraint.c))[0], x_star)
