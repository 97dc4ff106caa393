"""Command line interface.

Subcommands:

* ``run``     -- integrate a scenario file or a named preset; writes a
                 trajectory table and a JSON summary.
* ``oracle``  -- print the centralized solution of a scenario as JSON.
* ``check``   -- randomized decoupling-equivalence and gradient checks on an
                 instance.
* ``preset``  -- write the generated scenario file(s) of a named preset.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 infeasible.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import experiments, runs
from .dynamics import gradient_check, initial_state
from .errors import (
    DivergenceError,
    HatallocError,
    InfeasibleProblemError,
    NoAdmissibleInstanceError,
    ScenarioFormatError,
    UnsupportedByOracleError,
)
from .model import (
    gradient_consistency_error,
    midpoint_convexity_gap,
    save_scenario,
)
from .oracle import load_scenario, solve_centralized
from .reformulation import (
    build_decoupled,
    coupled_residual,
    decoupled_residual,
    find_certificate_z,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_INFEASIBLE = 3


def _bounded(convert, strict: bool, what: str):
    """An argparse type: `convert(text)`, finite and > 0 (`strict`) or >= 0."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan  # NaN fails both comparisons below
        if not (value > 0 if strict else value >= 0) or value == math.inf:
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    return parse


non_negative_int = _bounded(int, False, "a non-negative integer")
positive_int = _bounded(int, True, "a positive integer")
positive_float = _bounded(float, True, "a finite positive number")
non_negative_float = _bounded(float, False, "a finite non-negative number")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hatalloc",
        description="Distributed resource allocation for human/autonomous teams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="integrate a scenario file or preset")
    run.add_argument("scenario", help="scenario file path or preset name")
    run.add_argument("--dt", type=positive_float, default=None)
    run.add_argument("--tol", type=non_negative_float, default=None)
    run.add_argument("--max-time", type=positive_float, default=None)
    run.add_argument("--seed", type=non_negative_int, default=1)
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument(
        "--reference", choices=["oracle", "none"], default="oracle",
        help="record deviation/saddle metrics against the centralized solution",
    )

    oracle = sub.add_parser("oracle", help="print the centralized solution")
    oracle.add_argument("scenario")

    check = sub.add_parser("check", help="equivalence and gradient checks")
    check.add_argument("scenario")
    check.add_argument("--samples", type=positive_int, default=100)
    check.add_argument("--seed", type=non_negative_int, default=0)

    preset = sub.add_parser("preset", help="write a preset's scenario file(s)")
    preset.add_argument("name", help="|".join(runs.PRESETS))
    preset.add_argument("--seed", type=non_negative_int, default=1)
    preset.add_argument("--out", default=None)
    return parser


def _cmd_run(args) -> int:
    opts = {}
    if args.dt is not None:
        opts["dt"] = args.dt
    if args.tol is not None:
        opts["tolerance"] = args.tol
    if args.max_time is not None:
        opts["max_time"] = args.max_time
    is_preset = args.scenario in runs.PRESETS
    if not is_preset and not os.path.exists(args.scenario):
        print(f"error: no such scenario file or preset '{args.scenario}'",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        result = runs.run_experiment(
            args.scenario, seed=args.seed, out_dir=args.out, opts=opts or None,
            reference=args.reference == "oracle",
        )
    except DivergenceError as exc:
        # `run` prints the summary it writes, a diverged run's too.
        print(json.dumps(exc.summary, indent=2, allow_nan=False))
        raise
    print(json.dumps(result.summary, indent=2, allow_nan=False))
    for name, path in result.artifacts.items():
        print(f"{name}: {path}", file=sys.stderr)
    return result.exit_code


def _cmd_oracle(args) -> int:
    scenario = load_scenario(args.scenario)
    x, y, mu, value = solve_centralized(scenario)
    lay = scenario.layout
    payload = {
        "x": {i: x[lay.x_slice(i)].tolist() for i in lay.autonomous_ids},
        "y": {k: y[lay.y_slice(k)].tolist() for k in lay.human_ids},
        "mu": mu.tolist(),
        "value": value,
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _sample_feasible_pair(scenario, a_pinv, rng):
    """Random (x, y) made coupled-feasible by a least-squares shift, with
    `a_pinv` the pseudo-inverse of the stacked autonomous blocks `a_cat`."""
    lay = scenario.layout
    x = rng.normal(size=lay.x_dim)
    y = rng.normal(size=lay.y_dim)
    resid = coupled_residual(scenario, x, y)
    margin = rng.uniform(0.0, 1.0, size=lay.rows)
    return x - a_pinv @ (resid + margin), y


def _cmd_check(args) -> int:
    scenario = load_scenario(args.scenario)
    rng = np.random.default_rng(args.seed)
    dc = build_decoupled(scenario)
    a_pinv = np.linalg.pinv(scenario.stacked.a_cat)
    failures = []

    certified = skipped = 0
    for _ in range(args.samples):
        x, y = _sample_feasible_pair(scenario, a_pinv, rng)
        coupled = coupled_residual(scenario, x, y)
        z = find_certificate_z(dc, x, y, coupled)
        if np.max(coupled) > 0:
            if z is not None:
                failures.append("certificate produced for an infeasible point")
            skipped += 1
            continue
        if z is None:
            failures.append("no certificate for a feasible point")
            continue
        gap = np.max(decoupled_residual(dc, x, y, z))
        if gap > 1e-8:
            failures.append(f"certificate violates the decoupled form by {gap:.3g}")
        certified += 1
    print(f"decoupling: {certified} certified, {skipped} infeasible draws")

    worst_grad = 0.0
    for _ in range(10):
        state = initial_state(scenario)
        for i in scenario.layout.autonomous_ids:
            state.x[i] = rng.normal(size=scenario.dims[i])
        for a in scenario.layout.node_order:
            state.z[a] = rng.normal(size=dc.rows)
            state.lam[a] = rng.uniform(0.0, 1.0, size=dc.rows)
        worst_grad = max(worst_grad, gradient_check(scenario, dc, state))
    grad_tol = 1e-4 if scenario.stacked.soft.size else 1e-5
    print(f"lagrangian x-gradient vs finite differences: {worst_grad:.3g} "
          f"(tolerance {grad_tol:g})")
    if worst_grad > grad_tol:
        failures.append(f"gradient mismatch {worst_grad:.3g}")

    for agent_id, cost in scenario.costs.items():
        gap = midpoint_convexity_gap(cost, rng, samples=50)
        if gap > 1e-9:
            failures.append(f"cost for '{agent_id}' fails midpoint convexity")
        err = gradient_consistency_error(cost, rng, points=10)
        if err > 1e-5:
            failures.append(f"cost gradient for '{agent_id}' off by {err:.3g}")
    print(f"cost convexity/gradients: {len(scenario.costs)} checked")

    if failures:
        for line in failures:
            print(f"FAIL: {line}", file=sys.stderr)
        return EXIT_NUMERICAL
    print("all checks passed")
    return EXIT_OK


def _cmd_preset(args) -> int:
    if args.name not in runs.PRESETS:
        print(f"error: unknown preset '{args.name}' "
              f"(available: {', '.join(runs.PRESETS)})", file=sys.stderr)
        return EXIT_USAGE
    out_dir = args.out or runs.default_output_dir()
    os.makedirs(out_dir, exist_ok=True)
    base = experiments.team_scenario(args.seed)
    written = []
    if args.name == "fig4_convergence":
        path = os.path.join(out_dir, f"fig4_convergence_seed{args.seed}.json")
        save_scenario(base, path)
        written.append(path)
    else:
        for (k1, k2), cell in experiments.attitude_cells(base).items():
            path = os.path.join(out_dir, f"fig5_{k1}_{k2}_seed{args.seed}.json")
            save_scenario(cell, path)
            written.append(path)
    for path in written:
        print(path)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    commands = {"run": _cmd_run, "oracle": _cmd_oracle, "check": _cmd_check,
                "preset": _cmd_preset}
    try:
        return commands[args.command](args)
    except (OSError, ScenarioFormatError, NoAdmissibleInstanceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleProblemError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (DivergenceError, UnsupportedByOracleError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except HatallocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
