"""Release acceptance suite.

One test per criterion; each prints a `[PASS]`/`[FAIL]` line with the
measured quantity next to its bound (run with `pytest -s` to see the lines
for passing tests too). Quantitative targets are verified against the
independent centralized solver on seeded generated instances.
"""

import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from hatalloc import (
    build_decoupled,
    coupled_residual,
    decoupled_residual,
    find_certificate_z,
    gradient_check,
    initial_state,
    integrate,
    kkt_residual,
    lift_to_saddle,
    solve_centralized,
)
from hatalloc.agents import DistributedRunner, Message, agent_round
from hatalloc.dynamics import FlowEngine, SystemState, _step_arrays
from hatalloc.experiments import (
    crosscheck_scenario,
    random_scenario,
    team_scenario,
)
from hatalloc.human import ApproximationSchedule
from hatalloc.runs import run_risk_grid

from conftest import ReferenceRunner, path_scenario
from test_reformulation import feasible_pair


def report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def fig4():
    scenario = team_scenario(1)
    dc = build_decoupled(scenario)
    x_star, y_star, mu_star, value = solve_centralized(scenario)
    z_star, lam_star, eta_star = lift_to_saddle(scenario, dc, x_star, mu_star)
    t0 = time.perf_counter()
    final, record = integrate(
        scenario, dc=dc, reference=(x_star, y_star), saddle=(eta_star, lam_star)
    )
    wall = time.perf_counter() - t0
    return SimpleNamespace(
        scenario=scenario, dc=dc, x_star=x_star, y_star=y_star,
        mu_star=mu_star, value=value, eta_star=eta_star, lam_star=lam_star,
        final=final, record=record, wall=wall,
    )


def test_criterion_1_convergence(fig4):
    """Distributed flow reaches the centralized optimum on the benchmark."""
    deviation = fig4.record.samples[-1].deviation
    ok = (
        deviation is not None and deviation <= 1e-6
        and fig4.record.final_t <= 200.0 + 1e-9
        and fig4.record.dt == pytest.approx(1e-3)
        and fig4.wall <= 60.0
    )
    report(
        "criterion 1 (convergence)",
        ok,
        f"deviation={deviation:.3e} (<=1e-6), t={fig4.record.final_t:.1f}s "
        f"(<=200), wall={fig4.wall:.1f}s (<=60)",
    )


def test_criterion_2_decoupling_equivalence():
    """Coupled and decoupled feasibility transfer both ways, zero failures."""
    configs = [
        (2, 1, 1), (3, 2, 2), (5, 3, 3), (4, 2, 1), (6, 3, 2),
    ]  # (autonomous, humans, rows): 3..9 vertices, r in {1,2,3}
    triples = 0
    interior_checked = 0
    forward_bad = backward_bad = 0
    from hatalloc.reformulation import stacked_terms

    for idx, (m, h, r) in enumerate(configs):
        scenario = random_scenario(1000 + idx, n_autonomous=m, n_human=h, rows=r)
        dc = build_decoupled(scenario)
        rng = np.random.default_rng(idx)
        n_nodes = len(scenario.layout.node_order)
        for _ in range(100):
            x, y = feasible_pair(scenario, rng, boundary=bool(rng.integers(0, 2)))
            s = coupled_residual(scenario, x, y)
            z = find_certificate_z(dc, x, y, s)
            triples += 1
            if np.max(s) <= 0:
                if z is None or np.max(decoupled_residual(dc, x, y, z)) > 1e-8:
                    forward_bad += 1
                    continue
                # backward: a decoupled-feasible point (interior construction
                # plus a kernel wander) must certify the coupled form through
                # the independently assembled evaluator
                terms = stacked_terms(dc, x, y)
                target = np.kron(np.ones(n_nodes), s / n_nodes)
                z2, _, _, _ = np.linalg.lstsq(dc.l_bar, target - terms, rcond=None)
                z2 = z2 + np.kron(np.ones(n_nodes), rng.normal(size=r))
                if np.max(decoupled_residual(dc, x, y, z2)) <= 0:
                    interior_checked += 1
                    if np.max(coupled_residual(scenario, x, y)) > 1e-8:
                        backward_bad += 1
            else:
                if z is not None:
                    forward_bad += 1
    ok = (
        triples >= 500 and interior_checked >= 100
        and forward_bad == 0 and backward_bad == 0
    )
    report(
        "criterion 2 (decoupling equivalence)",
        ok,
        f"{triples} triples ({interior_checked} interior back-checks), "
        f"forward failures={forward_bad}, backward failures={backward_bad}",
    )


def test_criterion_3_gradient_fidelity(fig4):
    """Analytic Lagrangian x-gradient matches central finite differences."""
    rng = np.random.default_rng(42)

    def sample_states(scenario, count):
        for _ in range(count):
            state = initial_state(scenario)
            for i in scenario.topology.autonomous_ids:
                state.x[i] = rng.normal(size=scenario.dims[i])
            for a in scenario.topology.node_order:
                state.z[a] = rng.normal(size=scenario.constraint.rows)
                state.lam[a] = rng.uniform(0, 1, size=scenario.constraint.rows)
            yield state

    quad_worst = 0.0
    dc4 = fig4.dc
    for state in sample_states(fig4.scenario, 25):
        quad_worst = max(quad_worst, gradient_check(fig4.scenario, dc4, state))
    affine_small = random_scenario(500, n_autonomous=3, n_human=2, rows=2)
    dc_small = build_decoupled(affine_small)
    for state in sample_states(affine_small, 25):
        quad_worst = max(quad_worst, gradient_check(affine_small, dc_small, state))

    soft = path_scenario(attitude=-0.8, family="softplus_affine", beta=6.0)
    dc_soft = build_decoupled(soft)
    soft_worst = 0.0
    for state in sample_states(soft, 25):
        soft_worst = max(soft_worst, gradient_check(soft, dc_soft, state))
    soft_rand = random_scenario(
        501, n_autonomous=3, n_human=2, rows=2, families=("softplus_affine",)
    )
    dc_soft2 = build_decoupled(soft_rand)
    for state in sample_states(soft_rand, 25):
        soft_worst = max(soft_worst, gradient_check(soft_rand, dc_soft2, state))

    ok = quad_worst <= 1e-5 and soft_worst <= 1e-4
    report(
        "criterion 3 (gradient fidelity)",
        ok,
        f"quadratic/affine worst={quad_worst:.3e} (<=1e-5), "
        f"softplus worst={soft_worst:.3e} (<=1e-4)",
    )


def test_criterion_4_lyapunov_descent(fig4):
    """Distance to the lifted saddle decreases along the whole run."""
    rec = fig4.record
    budget = 10.0 * rec.dt ** 2
    ratio = rec.v_final / rec.v_initial
    ok = rec.v_max_step_increase <= budget and ratio <= 1e-4
    report(
        "criterion 4 (saddle-distance descent)",
        ok,
        f"max step increase={rec.v_max_step_increase:.3e} (<={budget:.1e}), "
        f"final/initial={ratio:.3e} (<=1e-4)",
    )


def test_criterion_5_kkt_at_equilibrium(fig4):
    res = kkt_residual(fig4.scenario, fig4.dc, fig4.final)
    ok = (
        res.stationarity <= 1e-5
        and res.primal <= 1e-6
        and res.dual_min >= -1e-15
        and res.comp_slack <= 1e-6
    )
    report(
        "criterion 5 (KKT at equilibrium)",
        ok,
        f"stationarity={res.stationarity:.3e} (<=1e-5), "
        f"primal={res.primal:.3e} (<=1e-6), dual_min={res.dual_min:.3e} "
        f"(>=-1e-15), comp_slack={res.comp_slack:.3e} (<=1e-6)",
    )


def test_criterion_6_compact_equals_distributed(fig4):
    scenario, dc = fig4.scenario, fig4.dc
    dt = scenario.solver.dt
    state0 = initial_state(scenario)

    runner = DistributedRunner(scenario, dc, state=state0)
    engine = FlowEngine(scenario, dc)
    x, z, lam = engine.stack_state(state0)
    t = 0.0
    for _ in range(1000):
        runner.sweep(dt)
        x, z, lam, _, _ = _step_arrays(engine, x, z, lam, t, dt)
        t += dt
    compact = SystemState(scenario.layout, np.concatenate([x, z, lam]), t)
    dist = runner.state()
    worst = 0.0
    for i in scenario.topology.autonomous_ids:
        worst = max(worst, float(np.max(np.abs(dist.x[i] - compact.x[i]))))
    for a in scenario.topology.node_order:
        worst = max(worst, float(np.max(np.abs(dist.z[a] - compact.z[a]))))
        worst = max(worst, float(np.max(np.abs(dist.lam[a] - compact.lam[a]))))

    # locality: non-neighbor garbage cannot change any round, bit for bit
    fresh = ReferenceRunner(scenario, dc, state=initial_state(scenario))
    for _ in range(3):
        fresh.sweep(dt)
    rng = np.random.default_rng(0)
    locality_ok = True
    for agent_id, view in fresh.views.items():
        inbox = fresh.inbox(agent_id)
        clean_view, clean_out = agent_round(view, list(inbox), dt)
        neighbor_set = set(view.auto_neighbors) | set(view.human_neighbors)
        garbage = [
            Message(sender=s, receiver=agent_id,
                    z=rng.normal(size=dc.rows) * 1e9,
                    lam=np.abs(rng.normal(size=dc.rows)) * 1e9,
                    x=rng.normal(size=4) * 1e9,
                    coupling=rng.normal(size=4) * 1e9)
            for s in scenario.topology.node_order
            if s != agent_id and s not in neighbor_set
        ]
        dirty_view, dirty_out = agent_round(view, list(inbox) + garbage, dt)
        same = (
            dirty_view.z.tobytes() == clean_view.z.tobytes()
            and dirty_view.lam.tobytes() == clean_view.lam.tobytes()
            and all(a.z.tobytes() == b.z.tobytes()
                    and a.lam.tobytes() == b.lam.tobytes()
                    for a, b in zip(clean_out, dirty_out))
        )
        if hasattr(clean_view, "x"):
            same = same and dirty_view.x.tobytes() == clean_view.x.tobytes()
        locality_ok = locality_ok and same

    ok = worst <= 1e-10 and locality_ok
    report(
        "criterion 6 (compact = distributed)",
        ok,
        f"1000-step max entry error={worst:.3e} (<=1e-10), "
        f"locality bitwise={'yes' if locality_ok else 'no'}",
    )


def test_criterion_7_settling_approximation(fig4):
    scenario = fig4.scenario
    schedules = {
        k: ApproximationSchedule(
            gain_deltas={j: 0.5 * g for j, g in model.gains.items()},
            base_delta=np.zeros(model.dim),
            settle_time=5.0,
        )
        for k, model in scenario.human_models.items()
    }
    perturbed_final, perturbed_rec = integrate(
        replace(scenario, schedules=schedules), dc=fig4.dc
    )
    exact_final, exact_rec = fig4.final, fig4.record

    bound = 10.0 * exact_rec.state_sup_norm
    worst = 0.0
    for i in scenario.topology.autonomous_ids:
        worst = max(worst, float(np.max(np.abs(
            perturbed_final.x[i] - exact_final.x[i]))))
    for a in scenario.topology.node_order:
        worst = max(worst, float(np.max(np.abs(
            perturbed_final.z[a] - exact_final.z[a]))))
        worst = max(worst, float(np.max(np.abs(
            perturbed_final.lam[a] - exact_final.lam[a]))))

    ok = perturbed_rec.state_sup_norm <= bound and worst <= 1e-4
    report(
        "criterion 7 (settling approximation)",
        ok,
        f"sup-norm={perturbed_rec.state_sup_norm:.3f} (<= {bound:.3f}), "
        f"final diff={worst:.3e} (<=1e-4)",
    )


def test_criterion_8_risk_attitude_directions(tmp_path):
    result = run_risk_grid(team_scenario(1), 1, str(tmp_path))
    workload_margin = result.summary["autonomous_workload_seeking_minus_averse"]
    cost_drop_seeking = result.summary["cost_drop_h1_averse_h2_seeking"]
    cost_drop_averse = result.summary["cost_drop_h1_averse_h2_averse"]
    ok = (
        workload_margin >= 1e-6
        and cost_drop_seeking >= 1e-6
        and cost_drop_averse >= 1e-6
    )
    report(
        "criterion 8 (risk-attitude directions)",
        ok,
        f"autonomous workload margin={workload_margin:.4f} (>=1e-6), "
        f"cost drop when human 1 turns risk-averse: "
        f"{cost_drop_seeking:.5f} / {cost_drop_averse:.5f} (>=1e-6)",
    )


def test_criterion_9_oracle_cross_validation():
    worst = 0.0
    for seed in range(1, 11):
        scenario = crosscheck_scenario(seed)
        _, _, _, oracle_value = solve_centralized(scenario)
        tight = scenario.with_solver(tolerance=1e-10, max_time=600.0)
        dc = build_decoupled(tight)
        final, record = integrate(tight, dc=dc)
        engine = FlowEngine(tight, dc)
        x, _, _ = engine.stack_state(final)
        y, _ = engine.response(x, final.t)
        flow_value = engine.objective_value(x, y)
        rel = abs(flow_value - oracle_value) / max(1.0, abs(oracle_value))
        worst = max(worst, rel)
    ok = worst <= 1e-5
    report(
        "criterion 9 (oracle cross-validation)",
        ok,
        f"worst relative value gap over 10 seeds={worst:.3e} (<=1e-5)",
    )
