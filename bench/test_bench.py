"""Tests of the benchmark harness: seeding, tracing, oracles, tiny runs."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads
from workloads import Job

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


def tiny_jobs(workload):
    """The cheapest jobs of each class of the workload's first round."""
    if workload == "lattice-ladder":
        return [Job("central1d", (80,)), Job("closure2d", (8,)), Job("closure2d", (12,))]
    if workload == "plate-motion":
        return [Job("evolve", (1, 2.0, 0.0)), Job("evolve", (2, 2.0, 3.0)),
                Job("sudden", (5, 3.0)), Job("casimir", (0.5,))]
    if workload == "cli-cold":
        return [Job("cli", ("casimir", "--L", "1")), Job("cli", workloads.CLI_COMMANDS[2])]
    jobs = workloads.make_round(workload, 0, 0)
    kept = [j for j in jobs if j.kind != "h2_abelian" or j.params[0] <= 6]
    return [j for j in kept if j.kind != "coboundary_batch"] + \
        [j for j in kept if j.kind == "coboundary_batch"][:1]


def context(workload, tmp_path):
    return workloads.setup(workload, 0, ROOT, tmp_path)[0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_job_list(workload):
    for index in (0, 3):
        assert workloads.make_round(workload, 11, index) == workloads.make_round(workload, 11, index)
    # every round holds the same mix of job classes, whatever the seed
    kinds = sorted(j.kind for j in workloads.make_round(workload, 11, 0))
    assert kinds == sorted(j.kind for j in workloads.make_round(workload, 12, 5))


def test_seed_changes_inputs():
    assert workloads.make_round("exact-cohomology", 1, 0) != workloads.make_round(
        "exact-cohomology", 2, 0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_of_every_workload(workload, tmp_path):
    ctx = context(workload, tmp_path)
    records = [run.run_one(ctx, job) for job in tiny_jobs(workload)]
    assert all(r.ok for r in records), [(r.kind, r.error) for r in records]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_results_identical(workload, tmp_path):
    ctx = context(workload, tmp_path)
    out = run.measure(ctx, tiny_jobs(workload), 0.0, trace=True)
    assert out["rounds"] == 1
    assert all(r.ok for r in out["records"] + out["traced_records"]), out["errors"]
    assert [r.digest for r in out["records"]] == [r.digest for r in out["traced_records"]]
    metrics = run.per_layer_metrics(out, [0.5])
    assert set(metrics) == set(run.PER_LAYER)
    layer_of = {"lattice-ladder": "lattice.commutator_calls",
                "exact-cohomology": "exactlin.rref_calls",
                "plate-motion": "adiabatic.nfev",
                "cli-cold": "cli.main_s"}
    assert metrics[layer_of[workload]] > 0


def test_tracer_restores_the_layers(tmp_path):
    ctx = context("lattice-ladder", tmp_path)
    lat = ctx.mods["lattice"]
    import numpy

    before = (lat.commutator, numpy.linalg.norm)
    with tracer.Tracer().installed():
        assert lat.commutator is not before[0]
    assert (lat.commutator, numpy.linalg.norm) == before


def test_self_times_partition_the_layers():
    # job [0, 10] > main [1, 9] > rref [2, 5]; oracle [9, 10]
    spans = [["bench.job", 0.0, 10.0, None, 0], ["cli.main", 1.0, 9.0, 0, 0],
             ["exactlin.rref", 2.0, 5.0, 1, 0], ["bench.oracle", 9.0, 10.0, 0, 0]]
    assert tracer.self_times(spans) == [1.0, 5.0, 3.0, 1.0]
    metrics = tracer.layer_metrics(spans, tracer.Counter(), rounds=1)
    assert metrics["cli.self_s"] == 5.0 and metrics["exactlin.rref_s"] == 3.0
    assert metrics["cli.main_s"] == 8.0
    assert tracer.layer_time(spans) == 8.0


def test_perturbed_oracle_counts_as_failure(tmp_path, monkeypatch):
    ctx = context("lattice-ladder", tmp_path)
    exact = workloads.free_end_ground_energy
    monkeypatch.setattr(workloads, "free_end_ground_energy",
                        lambda n, a, m: exact(n, a, m) * (1.0 + 1e-6))
    out = run.measure(ctx, [Job("central1d", (80,)), Job("closure2d", (8,))], 0.0, trace=False)
    report = run.job_report(out["records"])
    assert report["fail_ratio"] == 0.5
    assert report["errors_by_type"] == {"OracleMismatch": 1}


def test_exception_counts_as_failure(tmp_path):
    ctx = context("exact-cohomology", tmp_path)
    record = run.run_one(ctx, Job("h2_abelian", (0,)))  # abelian_algebra(0) raises
    assert not record.ok and record.error == "ValueError"


def test_benchmark_json_names_match_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_command_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "exact-cohomology",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_command_fails_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "plate-motion", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
