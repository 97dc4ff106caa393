"""Self-test of the benchmark harness at tiny size.

    python -m pytest bench

Runs every workload once with tiny instances, traced and untraced, and checks
that the result line carries exactly the metrics BENCHMARK.json names, and
that a changed flow is counted as a failure.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (pins BLAS threads and puts src/ on the path)
from tracing import Span, Tracer  # noqa: E402
from workloads import WORKLOADS, run_instance, workload  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_reports_every_metric(name, trace):
    line, report, _ = run.run(name, seed=1, seconds=0.0, trace=trace, tiny=True)
    assert (line["correct"], line["attempted"], line["failed"]) == (True, 1, 0)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert report["machine"]["blas_thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
    json.dumps(line)


def test_benchmark_workloads_match_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_instance_set_is_fixed_and_never_repeats_a_seed(name):
    wl = workload(name)
    for seed in (1, 2, 9, 30, 1000):
        seeds = wl.instance_seeds(seed)
        assert seeds == wl.instance_seeds(seed)
        assert len(set(seeds)) == len(seeds) >= wl.flows


def test_changed_step_count_is_a_failure(tmp_path):
    wl = replace(workload("fig4", tiny=True), expect=lambda seed: (299, "max_time"))
    res = run_instance(wl, 1, 0, Tracer(), lambda start, end, kernel: end - start,
                       str(tmp_path))
    assert any("recorded 299" in f for f in res["failures"])


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("instance", 0) as root:
        with tracer.span("dynamics.integrate", 0) as child:
            pass
    times = tracer.self_times(lambda start, end: end - start)[0]
    assert times["dynamics"] == pytest.approx(child.end - child.start)
    assert times["harness"] == pytest.approx(
        (root.end - root.start) - (child.end - child.start)
    )


def test_self_time_measures_uncovered_parts():
    # A parent 0..10 s with a child 1..9 s: its self time is the parts 0..1
    # and 9..10, however differently `elapsed` scales the whole span.
    tracer = Tracer()
    tracer.spans = [Span(0, "instance", None, 0, 0.0, 10.0),
                    Span(1, "dynamics.integrate", 0, 0, 1.0, 9.0)]
    def elapsed(start, end):
        return (end - start) * (0.5 if end - start > 9 else 1.0)

    times = tracer.self_times(elapsed)[0]
    assert times["harness"] == pytest.approx(2.0)
    assert times["dynamics"] == pytest.approx(8.0)
