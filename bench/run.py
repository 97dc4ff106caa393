"""Benchmark runner: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload fig4 --seed 1 --seconds 40 --trace 0

Runs a fixed set of instances of the workload, chosen by the seed, one after
another in this process (a closed loop: the next instance starts when the
previous one has finished), checks every instance's outputs, and prints as
the last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Some instances are only set up, so that set-up time is a mean over several
set-ups. The measuring time is a guard: once it is used up and one instance
has run every phase, no further instance starts.

`attempted` counts instances and `failed` those with a failed output check;
a halved `dt` and a `HatallocError` are failed checks too (the report counts
the halvings).
With `--trace 0` the metrics are the end-to-end ones:

    setup_s            mean set-up time of an instance (generate,
                       build_decoupled, oracle solve and lift, runner); a
                       mean, because the set-ups of one run are of different
                       instances whose costs differ up to 50x, and a median
                       would jump between them
    solve_us_per_step  time of `integrate` per Euler step, all instances
    total_us_per_step  time after set-up (flow, sweeps, checks, output files)
                       per Euler step, all instances
    peak_rss_mb        peak resident memory of the process

Step counts differ between instances and are pinned by the output checks, so
times per step are the seed-independent form of solve and run time. Every
time is normalized for the machine's drifting speed by `speed.SpeedMeter`,
each phase by the calibration kernel that resembles it (see workloads.py).
With `--trace 1` spans are recorded around every call into a layer and
the metrics are the per-layer ones. The line before the result is a JSON
report with the machine, the settings and every instance's figures. Outputs,
the report and the spans go to `.bench_out/` at the root of the checkout.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads, so that a 2-core shared machine
# measures the program and not the BLAS thread pool.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import fmean, median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import hatalloc  # noqa: E402
from speed import SpeedMeter  # noqa: E402
from tracing import NullTracer, Tracer, span_cost_s  # noqa: E402
from workloads import WORKLOADS, run_instance, workload  # noqa: E402

OUT_DIR = ROOT / ".bench_out"

# Spans whose summed duration per instance is a per-layer metric `<span>_s`.
TIMED_SPANS = (
    "experiments.generate", "model.save", "reformulation.build_decoupled",
    "oracle.solve", "oracle.lift", "oracle.kkt", "metrics.write", "agents.runner_init",
)
# Per-layer self time summed over all of a layer's spans.
LAYER_SELF = ("model", "oracle", "dynamics", "metrics", "agents", "harness")
# Per-layer figures measured per instance (median over instances), and units.
PROBES = {
    "dynamics.step_us": "us",
    "dynamics.rhs_us": "us",
    "dynamics.overhead_us": "us",
    "dynamics.rhs_flops": "flop",
    "topology.l_bar_bytes": "bytes",
    "topology.l_bar_nnz_frac": "ratio",
    "agents.messages_per_sweep": "count",
    "agents.bytes_per_sweep": "bytes",
}


def machine() -> dict:
    """The machine and the numeric stack a result was measured on."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle
                 if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {var: os.environ[var] for var in THREAD_VARS},
    }


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, when it exports one."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def run(name: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> tuple[dict, dict, Tracer | NullTracer]:
    """Run a workload; returns (result line, report, tracer)."""
    wl = workload(name, tiny)
    tracer = Tracer() if trace else NullTracer()
    out_dir = OUT_DIR / name
    seeds = wl.instance_seeds(seed)
    # Set-up-only instances first, so that the guard below can cut only flows.
    plan = [(s, True) for s in seeds[wl.flows:]] + [(s, False) for s in seeds[:wl.flows]]
    results = []
    with SpeedMeter(sorted(set(wl.kernels.values()))) as meter:
        start = time.perf_counter()
        for iid, (instance_seed, setup_only) in enumerate(plan):
            # Guard: the instance set is fixed, but once the measuring time is
            # used up and one flow has run, no further instance starts.
            if any("post_s" in r for r in results) and time.perf_counter() - start > seconds:
                break
            results.append(run_instance(
                wl, instance_seed, iid, tracer, meter.duration, str(out_dir), setup_only))
        wall_s = time.perf_counter() - start

    failed = sum(1 for r in results if r["failures"])
    done = [r for r in results if "post_s" in r]
    if not done:
        metrics = {}
    elif trace:
        metrics = _layer_metrics(done, tracer, meter.duration, wl.kernels["flow"])
    else:
        metrics = _end_to_end(results, done)
    line = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "tiny": tiny, "wall_s": wall_s, "machine": machine(), "kernels": wl.kernels,
        "planned": len(plan), "dt_halvings": sum(r.get("dt_halvings", 0) for r in results),
        "instances": results,
    }
    return line, report, tracer


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(results: list[dict], done: list[dict]) -> dict:
    steps = sum(r["steps"] for r in done)
    return {
        "setup_s": metric(fmean(r["setup_s"] for r in results if "setup_s" in r), "s"),
        "solve_us_per_step": metric(sum(r["flow_s"] for r in done) / steps * 1e6, "us"),
        "total_us_per_step": metric(
            sum(r["post_s"] for r in done) / steps * 1e6, "us"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _layer_metrics(done: list[dict], tracer: Tracer, duration, kernel: str) -> dict:
    """Per-layer figures over the instances that ran every phase. Span times
    are normalized by the kernel of the workload's flow."""
    def elapsed(start: float, end: float) -> float:
        return duration(start, end, kernel)

    by_name: dict[tuple[int, str], float] = defaultdict(float)
    for span in tracer.spans:
        by_name[span.instance, span.name] += elapsed(span.start, span.end)
    self_times = tracer.self_times(elapsed)
    iids = [r["iid"] for r in done]
    out = {}
    for name in TIMED_SPANS:
        out[f"{name}_s"] = metric(median(by_name[i, name] for i in iids), "s")
    for layer in LAYER_SELF:
        out[f"{layer}.self_s"] = metric(median(self_times[i][layer] for i in iids), "s")
    for name, unit in PROBES.items():
        out[name] = metric(median(r[name] for r in done), unit)
    out["dynamics.steps"] = metric(median(r["steps"] for r in done), "count")
    out["dynamics.samples"] = metric(median(r["samples"] for r in done), "count")
    out["agents.sweep_us"] = metric(
        median(r["sweep_s"] / r["sweeps"] * 1e6 for r in done), "us")
    out["trace.spans"] = metric(len(tracer.spans), "count")
    out["trace.overhead_s"] = metric(len(tracer.spans) * span_cost_s(), "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = Path(hatalloc.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"hatalloc imported from {source}, not from this checkout", file=sys.stderr)
        return 2

    line, report, tracer = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({**report, "result": line}, handle, indent=2)
        handle.write("\n")
    if args.trace:
        tracer.write(f"{stem}-spans.json")
    print(json.dumps(report))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
