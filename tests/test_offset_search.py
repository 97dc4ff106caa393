"""The generator's offset search against a per-offset reference.

The generator reduces every attitude cell of a draw in one pass from the
draw's one stack, and `_offset_search` screens all probed offsets with the
cells' affine KKT maps and solves the probes the screen keeps exactly,
re-targeting the reduced cells with `ReducedProgram.with_offset`. The
reference below is the per-offset search it replaced: a new scenario for
every probe, solved and checked with the scenario-level oracle functions.
Both must pick the same offset bit for bit, because the generator's accepted
draws (and so every seeded benchmark instance) depend on it. After the
search, the generator reduces the draw's cell stacks with scaled bases
instead of rebuilding the scaled scenario; they must reduce to the same
floats.
"""

import hashlib
import json
import logging
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hatalloc import experiments, model, oracle
from hatalloc.dynamics import FlowEngine
from hatalloc.errors import HatallocError, NoAdmissibleInstanceError, UnsupportedByOracleError
from hatalloc.experiments import (
    BUDGET_FRACTIONS,
    DEMAND_MARGINS,
    INITIAL_SPEED_CAP,
    TEAM_DIMS,
    TEAM_HUMAN_DIMS,
    attitude_cells,
    _cell_stacks,
    _generate,
    _lay_out,
    _layout,
    _offset_search,
    _raw_draw,
    _rejection,
    _screen,
    crosscheck_scenario,
    random_scenario,
    team_scenario,
)
from hatalloc.model import Scenario, serialize_scenario
from hatalloc.oracle import (
    ReducedProgram,
    interior_point,
    reduce_program,
    reduce_stacked,
    solve_centralized,
    solve_program,
)
from hatalloc.reformulation import build_decoupled

from conftest import (
    TEAM_ATTITUDES,
    all_active_spectrum,
    at_offset,
    block_of_one,
    cell_programs,
    draw_instance,
    generator_stages,
    path_scenario,
    record_calls,
    reference_cell_admissible,
    reference_fold,
    reference_generate,
    reference_offset_search,
    reference_rejection,
    scaled_scenario,
    screened_cells,
    team_draw,
)

# Team seed 1, stream 40: draws 5, 12, 14 and 15 are tightened, the other
# eight are rejected.
DRAWS = range(4, 16)


def _reduced_cells(scenario):
    """The attitude cells of the scenario as a block of one draw, reduced in
    one pass as the generator reduces a block: a draw axis of one, then the
    cell axis."""
    _, _, cells = _cell_stacks(block_of_one(scenario), scenario.layout,
                               [scenario.human_models])
    return reduce_stacked(cells, scenario.constraint.c)


def _cells(scenario):
    """The attitude cells' reduced programs, one per cell."""
    return cell_programs(_reduced_cells(scenario).at(0))


def _restacked(cells):
    """Reduced programs stacked as a block of one draw, each cell with its
    own h_c, d and b_d, as `_screen` and `_offset_search` read them."""
    return ReducedProgram(
        **{name: np.stack([getattr(cell, name) for cell in cells])[None]
           for name in ("H", "g", "G_c", "h_c", "S", "d", "b_d")},
        const=np.array([cells[0].const]),
    )


def _search(cells, tally=None):
    """The offset the generator's screen and exact search take for one
    draw's cells, reduced as a block of one, or None."""
    [passes] = _screen(cells)
    if not passes.any():
        return None
    found = _offset_search(cells.at(0), passes, Counter() if tally is None else tally)
    return None if found is None else found[0]


def _tighten(scenario, tally=None):
    """The offset the generator's search takes for a raw draw, or None."""
    return _search(_reduced_cells(scenario), tally)


def _reference_row_levels(scenario, c, x):
    rp = reduce_program(at_offset(scenario, c))
    return rp.G_c @ x + rp.h_c - c


def _reference_cell_admissible(cell):
    try:
        _, y, mu, _ = solve_centralized(cell)
    except HatallocError:
        return False
    return (
        bool(np.all(mu > 1e-2))
        and bool(np.all(y >= 0.0))
        and interior_point(reduce_program(cell)) is not None
    )


def _reference_tighten(scenario):
    """The offset the search takes, with one new scenario per probed offset."""
    cells = list(attitude_cells(scenario).values())
    slack_c = np.array([-1e6, -1e6])
    productions = []
    for cell in cells:
        try:
            x0, _, _, _ = solve_centralized(at_offset(cell, slack_c))
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
                x1, _, mu1, _ = solve_centralized(at_offset(cell, c_demand))
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
            if all(_reference_cell_admissible(at_offset(cell, c_try))
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


def _is_row(sp, block, i, names=experiments._BLOCK_FIELDS):
    """Whether each operator `names` of a block that `sp` holds is a view of
    that operator's row i in `block`, not a copy of it."""
    return all(getattr(sp, name).shape == getattr(block, name).shape[1:]
               and np.shares_memory(getattr(sp, name), getattr(block, name)[i])
               for name in names)


def test_tighten_reduces_each_block_once_and_each_scaled_draw_once(monkeypatch):
    """`_generate` lays out each draw's raw arrays once (`stack_parts`),
    stacks a block of draws, reduces all their attitude cells in one pass,
    and the offset search of a draw the screen keeps reads its row of that
    reduction. No `Scenario` is built between the draws and their searches,
    and nothing is stacked or reduced from a scenario. The tightened
    scenario, built right after its search, holds the draw's row of the
    block, which the scale step's lift reads, and the scale step reads the
    search's own cell, a view. Every other `reduce_stacked` call is one per
    tightened draw, between its scale step and its `_rejection`, which reads
    it: the draw's row of the block's cell stack, views of it but for d,
    which is that row's d times s, reduced at the search's offset times s."""
    log = []
    record_calls(monkeypatch, log, model.stack_parts, model.stack_problem,
                 oracle.reduce_stacked, oracle.reduce_program, experiments._lay_out,
                 experiments._offset_search, experiments._normalize_scale,
                 experiments._rejection)
    real_init = Scenario.__post_init__
    monkeypatch.setattr(Scenario, "__post_init__",
                        lambda self: log.append(("Scenario", (self,), None)) or real_init(self))
    with pytest.raises(HatallocError):  # draws 0-15 of seed 1 hold no admissible one
        _generate(1, TEAM_DIMS, TEAM_HUMAN_DIMS, TEAM_ATTITUDES, abscissa_bar=-0.08,
                  check_grid=True, stream=40, max_attempts=16)
    assert not {"stack_problem", "reduce_program"} & {name for name, _, _ in log}
    reductions = [i for i, (name, _, _) in enumerate(log) if name == "reduce_stacked"]
    # Blocks of 1, 2, 4 and 8 attempts, and the last one cut at max_attempts.
    blocks = [i for i in reductions if log[i][1][0].S.ndim == 4]
    scalings = [i for i in reductions if log[i][1][0].S.ndim == 3]
    assert [log[i][1][0].S.shape[:2] for i in blocks] == [(n, 4) for n in (1, 2, 4, 8, 1)]
    assert len(blocks) + len(scalings) == len(reductions)
    layouts = [i for i, (name, _, _) in enumerate(log) if name == "stack_parts"]
    assert len(layouts) == 16
    searches = [i for i, (name, _, _) in enumerate(log) if name == "_offset_search"]
    assert [log[i][2] is not None for i in searches] == [True] * 4  # draws 5, 12, 14, 15
    drawn = 0
    for block in blocks:
        # The block's draws are laid out just before `_lay_out` stacks them
        # and the block is reduced.
        cell_stack, _ = log[block][1]
        size = cell_stack.S.shape[0]
        assert log[block - 1][0] == "_lay_out"
        assert layouts[drawn:drawn + size] == list(range(block - 1 - size, block - 1))
        for i, layout in enumerate(range(block - 1 - size, block - 1)):
            assert cell_stack.d[i, 0].tobytes() == log[layout][2].d.tobytes()
        drawn += size
    scales = [i for i, (name, _, _) in enumerate(log) if name == "_normalize_scale"]
    rejections = [i for i, (name, _, _) in enumerate(log) if name == "_rejection"]
    assert len(scales) == len(scalings) == len(rejections) == len(searches)
    for search, scale, scaling, rejection in zip(searches, scales, scalings, rejections):
        block = max(b for b in blocks if b < search)
        laid_out, (cell_stack, _) = log[block - 1][2], log[block][1]
        size = cell_stack.S.shape[0]
        cells = log[search][1][0]
        assert cells.H.shape[0] == 4 and np.shares_memory(cells.H, log[block][2].H)
        name, (scenario,), _ = log[search + 1]
        c = log[search][2][0]
        assert name == "Scenario" and np.array_equal(scenario.constraint.c, c)
        [i] = [i for i in range(size) if _is_row(scenario.stacked, laid_out, i)]
        layout = log[block - 1 - size + i][2]
        assert scenario.stacked.S.tobytes() == layout.S.tobytes()
        assert search < scale < scaling < rejection
        own_cell, s = log[scale][1][1], log[scale][2]
        assert own_cell.H.ndim == 2 and np.shares_memory(own_cell.H, cells.H)
        operand, scaled_c = log[scaling][1]
        assert _is_row(operand, cell_stack, i, [n for n in experiments._BLOCK_FIELDS if n != "d"])
        assert operand.d.tobytes() == (cell_stack.d[i] * s).tobytes()
        assert scaled_c.tobytes() == (c * s).tobytes()
        assert log[rejection][1][0] is scenario and log[rejection][1][1] is log[scaling][2]


def test_cell_stacks_reduce_like_relabeled_scenarios():
    """A cell's sign-flipped stack reduces to the same floats as the
    relabeled scenario, signed zeros included, whether the draw is reduced
    alone or in a block of draws (team seed 1, attempts 4-11)."""
    _, block = _block(1, range(4, 12))
    alone = [(scenario, _cells(scenario))
             for scenario in (team_draw(5), team_draw(6), crosscheck_scenario(2))]
    in_block = [(team_draw(attempt), cell_programs(block.at(i)))
                for i, attempt in enumerate(range(4, 12))]
    for scenario, reduced in alone + in_block:
        cells = attitude_cells(scenario)
        keys, own, _ = _cell_stacks(block_of_one(scenario), scenario.layout,
                                    [scenario.human_models])
        assert keys == list(cells)
        attitudes = [m.attitude for m in scenario.human_models.values()]
        assert [m.attitude for m in cells[keys[own]].human_models.values()] == attitudes
        for got, cell in zip(reduced, cells.values()):
            expected = reduce_program(cell)
            for name in ("H", "g", "G_c", "h_c", "S", "d", "b_d"):
                a, b = getattr(got, name), getattr(expected, name)
                assert a.tobytes() == b.tobytes(), name
            assert got.const == expected.const


def test_cell_stacks_need_unit_attitudes():
    """Negating gain blocks relabels only a unit attitude."""
    scenario = path_scenario(attitude=0.5)
    with pytest.raises(ValueError, match="unit attitudes"):
        _cell_stacks(block_of_one(scenario), scenario.layout, [scenario.human_models])


@pytest.mark.parametrize("attempt", DRAWS)
def test_screened_draws_make_no_exact_solve(attempt, monkeypatch):
    """A draw the screen rejects never reaches the exact search, so it makes
    no stacked solve (`solve_programs`): no slack or demand probe and no
    admissibility check (`interior_points`). Every draw the search rejects
    here is rejected by the screen, and `tally` counts the solves of the
    loop that solves one cell at a time and stops at the first that fails
    (`reference_offset_search`)."""
    solves, admissible = [], []
    real_solve, real_interior = experiments.solve_programs, experiments.interior_points
    monkeypatch.setattr(experiments, "solve_programs",
                        lambda rp: solves.append(rp) or real_solve(rp))
    monkeypatch.setattr(experiments, "interior_points",
                        lambda rp: admissible.extend(cell_programs(rp)) or real_interior(rp))
    tally, one_cell = Counter(), Counter()
    reduced = _reduced_cells(team_draw(attempt))
    [passes] = _screen(reduced)
    screened_out = not passes.any()
    tightened = _tighten(team_draw(attempt), tally)
    if not screened_out:
        reference_offset_search(cell_programs(reduced.at(0)), passes, one_cell)
    assert tally["exact_solves"] == one_cell["exact_solves"]
    assert screened_out == (tightened is None)
    if screened_out:
        assert solves == [] and admissible == []
    else:
        assert len(admissible) >= 4


def test_the_offset_screen_only_saves_exact_solves(generation, monkeypatch, caplog):
    """Team seed 1 generated with `_screen` passing every probe, so that the
    exact search decides every draw and rejects the ones the screen would:
    the same scenario, byte for byte, with the same rejections by check.
    Only the screen's own counts differ: it rejects no draw whole, and more
    exact solves run."""
    monkeypatch.setattr(experiments, "_screen", lambda reduced: np.ones(
        (len(reduced.H), len(DEMAND_MARGINS), len(BUDGET_FRACTIONS)), dtype=bool))
    caplog.set_level(logging.DEBUG, logger="hatalloc.experiments")
    unscreened = _generate(1, TEAM_DIMS, TEAM_HUMAN_DIMS, TEAM_ATTITUDES,
                           abscissa_bar=-0.08, check_grid=True, stream=40)
    [record] = caplog.records
    _, draw, rejected, screened, solves, built = record.args
    _, draw_at, rejected_at, screened_at, solves_at, built_at = generation.team[1].record.args

    def text(scenario):
        return json.dumps(serialize_scenario(scenario), indent=2)

    assert text(unscreened) == text(team_scenario(1))
    assert (draw, rejected, built) == (draw_at, rejected_at, built_at)
    assert {k: n for k, n in rejected.items() if n} == {"tighten": 79, "stability": 11, "grid": 4}
    assert screened == 0 < screened_at == rejected["tighten"]
    assert solves > solves_at


def test_singular_kkt_system_passes_every_probe():
    """Two equal constraint rows make a cell's KKT matrix, and its Schur
    complement M, singular: that cell turns the screen off."""
    cells = _cells(team_draw(4))
    assert not _screen(_restacked(cells)).any()  # draw 4 is screened out
    twin_rows = replace(cells[2], G_c=cells[2].G_c[[1, 1]])
    assert _screen(_restacked(cells[:2] + [twin_rows] + cells[3:])).all()


def _block(seed, attempts, stream=40, shape=(TEAM_DIMS, TEAM_HUMAN_DIMS, TEAM_ATTITUDES)):
    """Attempts `attempts` of a generator call laid out as one block, as
    `_generate` draws them, and the block's cell stack reduced at offset 0."""
    auto_dims, human_dims, attitudes = shape
    lay = _layout(auto_dims, human_dims)
    draws = [_raw_draw(np.random.default_rng(np.random.SeedSequence([stream, seed, attempt])),
                       auto_dims, human_dims, attitudes, lay)
             for attempt in attempts]
    _, _, cells = _cell_stacks(_lay_out(draws), lay, [draw.models for draw in draws])
    return draws, reduce_stacked(cells, np.zeros(lay.rows))


@pytest.mark.parametrize("spoil", ["twin rows", "singular H", "ill-conditioned H"])
def test_a_singular_draw_turns_off_only_its_own_screen(spoil):
    """A singular or ill-conditioned H, or a singular M (two equal
    constraint rows in one cell), passes every probe of its own draw; the
    other draws of its block keep the grids they get alone."""
    _, reduced = _block(1, range(4, 12))
    alone = _screen(reduced)
    assert not alone[0].any()  # draw 4 is screened out, and so are others
    assert sum(not grid.any() for grid in alone[1:]) >= 4
    H, G_c = reduced.H.copy(), reduced.G_c.copy()
    if spoil == "twin rows":
        G_c[0, 2] = G_c[0, 2, [1, 1]]
    elif spoil == "singular H":
        H[0] = 0.0
    else:
        H[0, :, 0] *= 1e-5
        H[0, :, :, 0] *= 1e-5
    spoiled = _screen(replace(reduced, H=H, G_c=G_c))
    assert spoiled[0].all()
    assert np.array_equal(spoiled[1:], alone[1:])


def test_block_screen_matches_the_one_draw_screen(generation):
    """Every attempt that team 1-9 and crosscheck 1-30 draw gets, in its
    block, the verdict grid that the screen of that draw alone gives."""
    drawn = 0
    for run in [*generation.team.values(), *generation.crosscheck.values()]:
        for (draw, _), grid in zip(run.draws, run.grids, strict=True):
            alone = screened_cells(_lay_out([draw]), draw.layout, draw.models)[-1]
            assert np.array_equal(grid, alone)
        drawn += len(run.grids)
    assert drawn == 1159 + 280  # team draws, crosscheck draws


def test_the_cells_of_a_draw_share_their_hessian(generation):
    """`_screen` inverts each draw's first cell's H for all its cells: every
    cell of every drawn attempt of team 1-9 and crosscheck 1-30 has that H
    bit for bit."""
    for run in [*generation.team.values(), *generation.crosscheck.values()]:
        for reduced in run.reductions:
            bits = reduced.H.view(np.int64)
            assert np.array_equal(bits, np.broadcast_to(bits[:, :1], bits.shape))


def test_stacked_generation_matches_the_one_cell_references(generation):
    """On every draw that team 1-9 and crosscheck 1-30 search exactly, the
    stacked search takes the offset of the loop that solves one cell at a
    time (`reference_offset_search`), byte for byte, and counts the exact
    solves that loop makes. Every tightened draw is reduced once more,
    scaled: the search's cells with d scaled by s, at the search's offset
    times s, and `_rejection` reads that reduction and gives the reason of
    the loop in the order it replaced (`reference_rejection`)."""
    searched, tightened = Counter(), Counter()
    for kind, runs in (("team", generation.team), ("crosscheck", generation.crosscheck)):
        for run in runs.values():
            for search in run.searches:
                tally = Counter()
                expected = reference_offset_search(cell_programs(search.cells), search.passes,
                                                   tally)
                assert (search.found is None) == (expected is None)
                if expected is not None:
                    assert search.found[0].tobytes() == expected.tobytes()
                assert search.solves == tally["exact_solves"]
                searched[kind] += 1
            found = [search for search in run.searches if search.found is not None]
            assert len(run.scales) == len(run.scaled) == len(run.rejections) == len(found)
            for search, s, scaled, (args, reason) in zip(found, run.scales, run.scaled,
                                                         run.rejections, strict=True):
                scenario, cells, keys, own, dc, abscissa_bar, check_grid = args
                assert cells is scaled.cells
                assert np.shares_memory(scaled.operand.S, search.cells.S)
                assert scaled.operand.d.tobytes() == (search.cells.d * s).tobytes()
                assert scaled.c.tobytes() == (search.found[0] * s).tobytes()
                assert reference_rejection(scenario, cell_programs(cells), keys, own, dc,
                                           abscissa_bar, check_grid) == reason
                tightened[kind] += 1
    assert searched == tightened == {"team": 256, "crosscheck": 78}


# Edits of an accepted draw's scaled cells, keyed by the reason `_rejection`
# gives the edited cells: each fails a check that no generated draw fails.
UNREACHED_REJECTIONS = {
    "oracle": lambda cells: replace(cells, H=-cells.H),
    "multipliers/responses": lambda cells: cells.with_offset(np.full(cells.h_c.shape[-1], -1e6)),
}


@pytest.mark.parametrize("reason", UNREACHED_REJECTIONS)
def test_rejection_reasons_no_generated_draw_reaches(generation, reason):
    """Team 1's accepted draw is rejected with "oracle" once its own cell
    has no solution (H negated, so not convex), and with
    "multipliers/responses" once no row binds (every offset -1e6, so every
    multiplier is 0)."""
    [args] = [args for args, verdict in generation.team[1].rejections if verdict is None]
    scenario, cells, *rest = args
    assert _rejection(scenario, cells, *rest) is None
    assert _rejection(scenario, UNREACHED_REJECTIONS[reason](cells), *rest) == reason


@pytest.mark.parametrize("max_attempts", [1, 2, 3, 4, 7, 8, 9, 17])
def test_block_loop_stops_where_the_one_draw_loop_stops(max_attempts, monkeypatch):
    """Cut at `max_attempts` inside or at the end of a block, the block loop
    draws exactly that many attempts and raises with the one-draw loop's
    counts of rejections by reason (team seed 1 accepts draw 94)."""
    args = (1, TEAM_DIMS, TEAM_HUMAN_DIMS, TEAM_ATTITUDES)
    options = dict(abscissa_bar=-0.08, check_grid=True, stream=40, max_attempts=max_attempts)
    reference = reference_generate(*args, **options)
    assert reference.scenario is None
    log = []
    record_calls(monkeypatch, log, experiments._raw_draw)
    with pytest.raises(NoAdmissibleInstanceError) as info:
        _generate(*args, **options)
    assert info.value.rejected == reference.rejected
    assert len(log) == sum(info.value.rejected.values()) == max_attempts


def test_offset_probes_solve_the_free_minimizer_once(monkeypatch):
    """A cell solves its free minimizer (the empty active set, which reads
    no offset) once, at its first probe, and its `with_offset` probes share
    it: each later probe makes one LAPACK solve fewer, and a slack probe,
    where no row binds, makes none."""
    cell = _cells(team_draw(5))[0]
    c = _tighten(team_draw(5))
    calls = []
    real_solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *args: calls.append(1) or real_solve(*args))
    counts = []
    for offset in ([-1e6, -1e6], [-1e6, -1e6], [-1e6, c[1]], c):
        calls.clear()
        got = solve_program(cell.with_offset(np.asarray(offset)))
        counts.append(len(calls))
        expected = solve_program(replace(cell, h_c=np.asarray(offset) + cell.b_d))
        for a, b in zip(got, expected):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    # Slack: the free minimizer, first solved then shared; demand: the budget
    # row, then the demand row alone; admissible: each row alone, then both.
    assert counts == [1, 0, 2, 3]


def _unscreened(cells):
    """`_offset_search` with a screen that passes every probe."""
    every_probe = np.ones((len(DEMAND_MARGINS), len(BUDGET_FRACTIONS)), dtype=bool)
    found = _offset_search(cells.at(0), every_probe, Counter())
    return None if found is None else found[0]


def _assert_screen_keeps_zero_responses(cells, c, index):
    """Shift cell `index`'s responses so that, at the offset c the search
    takes, its smallest response is 1e-12. The probe stays admissible, so
    the screen must keep it and the search must still take c."""
    cell = cells[index]
    y = solve_program(cell.with_offset(c))[1]
    edge = replace(cell, d=cell.d - (y.min() - 1e-12))
    assert 0.0 <= solve_program(edge.with_offset(c))[1].min() < 1e-11
    assert reference_cell_admissible(edge.with_offset(c))
    shifted = _restacked(cells[:index] + [edge] + cells[index + 1:])
    assert np.array_equal(_unscreened(shifted), c)
    assert np.array_equal(_search(shifted), c)


@pytest.mark.parametrize("attempt", (5, 12, 14, 15))
def test_screen_keeps_a_probe_with_a_response_at_zero(attempt):
    cells = _cells(team_draw(attempt))
    c = _tighten(team_draw(attempt))
    for index in range(len(cells)):
        _assert_screen_keeps_zero_responses(cells, c, index)


@st.composite
def draw_shapes(draw):
    """`draw_instance`'s (autonomous dims, human dims, attitudes), shaped as
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
    return draw_instance(rng, *draw(draw_shapes()))


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
    search tightens: `_rejection` reads each attitude cell as the draw's
    cell stack reduced with scaled bases and offset. Every field of it is
    byte-equal to
    `reduce_program` of the same cell of the scenario rebuilt with scaled
    offsets and bases, and the tightened decoupled constraint gives the
    rebuilt scenario's stability margins."""
    rng = np.random.default_rng(seed)
    draws = (generator_stages(draw_instance(rng, *shape)) for _ in range(40))
    stages = next((stages for stages in draws if stages is not None), None)
    assume(stages is not None)
    tightened, s, dc = stages.tightened, stages.s, stages.dc
    scaled = scaled_scenario(tightened, s)
    scaled_dc, dt = build_decoupled(scaled), tightened.solver.dt
    cells = attitude_cells(scaled)
    assert list(cells) == stages.keys
    for got, cell in zip(cell_programs(stages.scaled), cells.values(), strict=True):
        expected = reduce_program(cell)
        for f in fields(ReducedProgram):
            if f.init:
                a, b = getattr(got, f.name), getattr(expected, f.name)
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name
        assert all_active_spectrum(got, dc, dt) == all_active_spectrum(got, scaled_dc, dt)


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


# The same digest of `random_scenario(seed)` ("random") and of
# `random_scenario(seed, n_autonomous=200, n_human=50, rows=3)` ("random_large"),
# recorded before `_graph_edges` kept its set of linked humans.
RANDOM_SHA256 = {
    ("random", 0): "ead18a9a87c7bd3b42de50750e806e8402e6ef11a43bec94ede2b2311d5074ee",
    ("random", 1): "cd836c4e7107019539a562d0ee21ddff045bb347254fd0688b99a1e288b3955c",
    ("random", 2): "0c85e6777a1432681c944b5aa27f0e5c59b5f2f4fa06454185eea70af5eea5aa",
    ("random", 3): "70df53f776c253ec88d2ef1ce692a01800014f2e39a9b82c9d9af2a030836edb",
    ("random", 4): "f948d90e3c9c9b4ec6818119bafe03ec014025b645e83ffa115b59bb28fc31de",
    ("random", 5): "dfcb230bfb4bdec6b4f08c87087a69522d8ebef9f049b48b29f58ca69b3e84f2",
    ("random", 6): "faab082e7326d3f714b913605d4819892e9583efe9c1af31beda41568de638d4",
    ("random", 7): "c26855b1d126f577cbda3af8909a15a5e75719e8c03c95c93201d53ab757bdc4",
    ("random", 8): "baad564bdc8a1dc6b1efd04235f677a165e507349e108f75ce4ed1e8a0a1e3c3",
    ("random", 9): "7d9237ec6f5cb370adfdde9611b7095d14af1eedf820801bdfec4f05bedaa695",
    ("random", 10): "e9b1a8d1f4dabdbb2b424c8d6161933ee7a7f84790ac07f87933227fe9ad01a9",
    ("random", 11): "9b649ba455deac0ba0c9ca0706221dc76ea1d868e553aafd0bbf89745223f446",
    ("random", 12): "f82d15c5ff3ff3c2ad2d205bf9843e2e7bb40a5c4d48015b4f92301401add1ef",
    ("random", 13): "d90da8099629ca14043d8573975e6adb24c8ad48cc70b3f770e3a81f909e3619",
    ("random", 14): "34eb3a4207f1fa2936f210b51084149cf045951c4f5a1c65001108a910c71356",
    ("random", 15): "9e23615a451f737d42ac89f25c807f588c9f490290c30caf1970185862e6d5bf",
    ("random", 16): "461bac6c41eb3ae64e568fd6bccc092cc117ed2d5a894530bde9ec9a179b6282",
    ("random", 17): "d6e0584cf3e2bacae69d32fe546f4ece1ac3bc86cea875c66e0569ebced62529",
    ("random", 18): "172400d55d7fe4b19bed50551b36a3515b414ace6be5913bc1343aa6ef49792c",
    ("random", 19): "236065f7f1b25256af83af25a372323d6774f50eb46b0931ef1f8a8c40bbb1a8",
    ("random", 20): "df1ba73434ad6d7ad1e0fc532ed3f5607e8c82d41a854a17104d65e2d59ef154",
    ("random", 21): "b04adba132c4715e62700a1bdad1eda07474d4f7dd7ae3ef37d2cadbc054317b",
    ("random", 22): "4f6c7165b60d449e242e171bdf42dd4c0bcc7c067726fa0f0526b11cbb969717",
    ("random", 23): "faeadfffbe94e5eb9c90e09a984c415d5346128014be5c8c9b3151d8208f1abb",
    ("random", 24): "bb95a2c4356721f64b8d9ecb66ef37c49256a0b66fce1f93a5913228f5427736",
    ("random", 25): "ace7b7de096e871ec38395ba82d9104a2ec1ec993ff7af77a7a67f09c315cc04",
    ("random", 26): "7fd7371b08c73e39114fe14c5e609edc08e13693dccee657a862f2d3699500b6",
    ("random", 27): "14ebf304fdfc0b2474aeb01a1c112e13a9aaa62fbd4ed3e3a9d9674f94fc3b9b",
    ("random", 28): "2b684fc636d253e08167ac7bf6b6755835eeae4b89e26631219c2d4eda5cef1f",
    ("random", 29): "eaa25828d5f9c0d9d75a3f7b04aa91172c7af77ac47b273cd5ccc9b1f3248369",
    ("random", 30): "472de579f0d6e7649ed7d4b216e130d2ac3b23b7dcd09961bb6d6f369f8c7e7d",
    ("random", 31): "bd6a19216372aa8bdc9d6b9e77594c48922a197815ca645b19793f48aa4b64fc",
    ("random", 32): "891d885a172dc23e75985388ecdec622fe0638fd9094d3948e2a2e50f33f5f3a",
    ("random", 33): "49d898308bf05f84e7d87f1bf71ccd9ea3bd73c66d68e87e699d7b690a23176f",
    ("random", 34): "7f661c8c05a104ccd024789312f1f5ab17b934694d370f12d561a9b5cde23de2",
    ("random", 35): "b1800f64e55b8300f79b4c803d837563c4ff8161b555b985d4b4be4cd5fc14d9",
    ("random", 36): "47a3a9368313cac06d04d93bf5c25f69e60e78ade6773319a0efed646b12fcd4",
    ("random", 37): "dddfc3de834b1b5a523cfbf771ca1c7edf69cab7e56940af79163d7cfe9888c2",
    ("random", 38): "52eea3c792c5188678377af370d885bcca3a329d6e196bac536b1f1938fe67be",
    ("random", 39): "0bd86f886ccb7065ed0351262d2352e9fd2834e93de026245eced60711c2fabe",
    ("random", 40): "fe8fb07dc023fd994ffa4c82d8680a7f8288f87381c1fc396b8fd8eedf2ebef4",
    ("random", 41): "e207e3434adabd4b3d36921c2751de2eb83642385a9a7065f9baeb5a845e2559",
    ("random", 42): "4b25a3b97ad9ca121d22584d393f7290a10d02863b05adfee99fde47a088b925",
    ("random", 43): "8b6ba3441c547896346425b3bb1517e33f1e5829df0627d023b7906ab397afd7",
    ("random", 44): "41fbeb58d3bbd66714db6d4af5105d268fcda5ec239c764ec1c5cb8a45225dbb",
    ("random", 45): "ac213dfe3a8b1d340bce22f17ead3840240057e266aa6c5601203b6a14c5ebb0",
    ("random", 46): "e63f550152f97d7e832ebbf40069ba4f321a2817c3380c1119128dff5192a94e",
    ("random", 47): "000883af1c3f67ee49dca0895d80e043b9bb5048198c2d232cd4cf9c8a741a05",
    ("random", 48): "3573fcde9daed0991c3c917e7dfaadab5b27aa14ac22eb0610bf2ae509c85dba",
    ("random", 49): "a82f0909b181bb74c63343c3ed4d5a0730067feb0fa3db8a198a87620b524b03",
    ("random_large", 1): "dbec8a51dd1d2d061b1eaf5ae76c7886c3877faa335bac965661db31ef70a276",
    ("random_large", 2): "93104656e1c49ab5640c306792b093ffc16226ce83abc251008c714b62ad4a9a",
    ("random_large", 3): "89f40ddfc0e2103f47f7a7775eec7b54b5d9df7fff5c8e4927f10340ff9b27bc",
}


@pytest.mark.parametrize("kind, seed", sorted(RANDOM_SHA256))
def test_random_scenarios_are_pinned(kind, seed):
    large = dict(n_autonomous=200, n_human=50, rows=3) if kind == "random_large" else {}
    text = json.dumps(serialize_scenario(random_scenario(seed, **large)), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == RANDOM_SHA256[(kind, seed)]


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
            speeds[attempt] = _zero_start_speed(scaled_scenario(stages.tightened, stages.s))
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
    expected = _outcome(lambda: solve_centralized(at_offset(scenario, c)))
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
