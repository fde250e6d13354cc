"""Every workload runs through the harness, on tiny grids.

Checks that the emitted metric names and units match BENCHMARK.json, that
traced spans nest inside their parents with nonnegative self time, and
that a diverging solve or a missed reference value counts as a failure.
"""
import json
from pathlib import Path

import pytest

import harness
import tracer

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# appended to each workload's own overrides: same code paths, tiny sizes
TINY = {
    "theta-2d-n128": ["grid.N=16", "integrator.T=0.01"],
    "prop-3d-n16": ["grid.N=10", "integrator.T=0.02", "integrator.record_every=1"],
    "galerkin-2d-n32": ["grid.N=16", "integrator.T=0.02"],
}


def tiny(name, *extra):
    return [(exp, list(ov) + TINY[name] + list(extra)) for exp, ov in harness.WORKLOADS[name]]


def units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_workloads_match_benchmark_json():
    assert sorted(harness.WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])
    assert sorted(TINY) == sorted(harness.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_through_harness(name):
    plain = harness.run_workload(ROOT, tiny(name), seed=1, seconds=0, trace=False,
                                 setup_spawns=1)
    result = plain["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced = harness.run_workload(ROOT, tiny(name), seed=1, seconds=0, trace=True)
    result = traced["result"]
    assert result["correct"] and result["attempted"] == 2
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units("per_layer")
    assert result["metrics"]["timestep.steps"]["value"] > 0
    assert result["metrics"]["cli.run.self_s"]["value"] > 0
    (data,) = traced["spans"]
    spans = data["spans"]
    assert spans
    for _name, start, end, parent in spans:
        assert start <= end
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]
    assert min(tracer.self_times(spans)) >= 0.0


def test_solver_divergence_counts_as_failure():
    diverging = tiny("theta-2d-n128", "integrator.T=0.5", "constraint.kind=none",
                     "initial.amplitude=100", "integrator.dt=0.05")
    record = harness.run_workload(ROOT, diverging, seed=1, seconds=0, trace=False,
                                  setup_spawns=0)
    assert record["failed_ratio"] == 1.0
    assert not record["result"]["correct"]
    assert record["reps"][0]["problems"][0][0].startswith("SolverDivergence")


def test_reference_miss_counts_as_failure():
    exps = tiny("galerkin-2d-n32")
    first = harness.run_workload(ROOT, exps, seed=1, seconds=0, trace=False, setup_spawns=0)
    reference = first["reps"][0]["outputs"]
    again = harness.run_workload(ROOT, exps, seed=1, seconds=0, trace=False,
                                 setup_spawns=0, reference=reference)
    assert again["failed_ratio"] == 0.0
    off = [dict(out, norm_H=[x * (1 + 1e-6) for x in out["norm_H"]]) for out in reference]
    missed = harness.run_workload(ROOT, exps, seed=1, seconds=0, trace=False,
                                  setup_spawns=0, reference=off)
    assert missed["failed_ratio"] == 1.0
    assert "reference.norm_H" in missed["reps"][0]["problems"][0][0]
