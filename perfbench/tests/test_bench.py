"""The benchmark's traced run and correctness check, at smoke scale.

Run with ``python -m pytest perfbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from perfbench import run, tracing, workloads

SEED = 3


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def smoke(request):
    """(workload, jobs, untraced digests, tracer after one traced pass)."""
    jobs = workloads.setup(request.param, SEED, smoke=True)
    _, plain = run.run_pass(jobs)
    digests, failures = run.verify(plain, None)
    assert failures == []
    tracer = tracing.Tracer()
    with tracer.region("pass"):
        _, traced = run.run_pass(jobs, tracer)
    return request.param, jobs, digests, tracer, traced


def test_tracing_leaves_modelled_outputs_unchanged(smoke):
    _, jobs, digests, _, traced = smoke
    traced_digests, failures = run.verify(traced, digests)
    assert failures == []
    assert traced_digests == digests
    assert len(digests) == len(jobs)


def test_spans_nest(smoke):
    _, jobs, _, tracer, _ = smoke
    spans = {span["id"]: span for span in tracer.spans}
    assert len(spans) == len(tracer.spans)
    roots = [span for span in tracer.spans if span["parent"] is None]
    assert [span["name"] for span in roots] == ["region.pass"]
    for span in tracer.spans:
        assert span["start"] <= span["end"]
        if span["parent"] is None:
            continue
        parent = spans[span["parent"]]
        assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
        if parent["name"] != "region.pass":
            assert span["sim"] == parent["sim"]
    job_spans = [span for span in tracer.spans if span["name"] == "job"]
    assert [span["sim"] for span in job_spans] == [job.name for job in jobs]
    assert all(spans[span["parent"]]["name"] == "region.pass"
               for span in job_spans)
    for parent, _ in tracer.leaves:
        assert parent in spans


def test_self_times_and_unattributed_sum_to_wall(smoke):
    _, _, _, tracer, _ = smoke
    assert all(value >= -1e-9 for value in tracer.self_s.values())
    assert tracer.unattributed_s >= 0
    total = sum(tracer.self_s.values()) + tracer.unattributed_s
    assert total == pytest.approx(tracer.wall_s, rel=1e-9, abs=1e-9)


def test_layer_split(smoke):
    workload, _, _, tracer, _ = smoke
    share = {layer: tracer.self_s[layer] / tracer.wall_s
             for layer in tracing.LAYERS}
    if workload == "serve_open_loop":
        assert share["sim"] > 0.5 and share["mem"] < 0.05
    else:
        assert tracer.calls["sim.run"] > 0 and share["mem"] > 0


def test_wrappers_are_removed_after_the_region(smoke):
    from repro.cluster import fabric, placement, template
    from repro.mem.hierarchy import MemoryHierarchy
    from repro.sim.core import Environment

    assert not hasattr(MemoryHierarchy.load, "__wrapped__")
    assert not hasattr(Environment.run, "__wrapped__")
    assert not hasattr(Environment.__init__, "__wrapped__")
    assert not hasattr(fabric.build_fabric, "__wrapped__")
    assert not hasattr(template.placement_plan, "__wrapped__")
    assert not hasattr(placement.plan_placement, "__wrapped__")
    assert not hasattr(workloads.fabric_mod.build_fabric, "__wrapped__")


def test_perturbed_digest_is_caught(smoke):
    _, jobs, digests, _, traced = smoke
    name = jobs[len(jobs) // 2].name
    perturbed = dict(digests, **{name: "0" * 16})
    _, failures = run.verify(traced, perturbed)
    assert [failure["job"] for failure in failures] == [name]


def test_raising_simulation_counts_as_failed():
    jobs = workloads.setup("serve_open_loop", SEED, smoke=True)

    def boom():
        raise RuntimeError("simulated crash")

    jobs[1] = replace(jobs[1], run=boom)
    passes = run.Passes(None)
    passes.record(*run.run_pass(jobs))
    assert passes.attempted == len(jobs)
    assert [failure["job"] for failure in passes.failures] == [jobs[1].name]
    assert "simulated crash" in passes.failures[0]["error"]


def test_wrong_reduction_result_fails_the_oracle_check():
    jobs = workloads.setup("collectives", SEED, smoke=True)
    for job in jobs:
        output = job.run()
        output["result"] = [value + 1 for value in output["result"]]
        with pytest.raises(workloads.CheckFailed):
            job.check(output)


def test_seed_generates_the_inputs():
    def digests(seed):
        jobs = workloads.setup("collectives", seed, smoke=True)
        return run.verify(run.run_pass(jobs[:4])[1], None)[0]

    assert digests(SEED) == digests(SEED)
    assert digests(SEED) != digests(SEED + 1)


def test_pin_environment_clears_sim_path_switches(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_FLUID", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "4096")
    cleared = run.pin_environment()
    assert cleared == {"REPRO_SIM_FLUID": "1"}
    assert "REPRO_SIM_FLUID" not in os.environ
    assert 1 <= int(os.environ["OMP_NUM_THREADS"]) <= os.cpu_count()


def test_references_cover_every_job():
    for workload in workloads.WORKLOADS:
        names = {job.name for job in workloads.setup(workload, SEED)}
        with open(run.REFERENCES / f"{workload}.json") as fh:
            seeds = json.load(fh)["seeds"]
        assert seeds
        for digests in seeds.values():
            assert set(digests) == names


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "collectives",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_probe_measures_without_garbage():
    import gc

    from perfbench.calibration import SHARE, SpeedProbe

    probe = SpeedProbe()
    gc.disable()
    try:
        before = gc.get_count()[0]
        probe.sample(0.05)
        allocated = gc.get_count()[0] - before
    finally:
        gc.enable()
    assert allocated <= 2
    assert probe.seconds >= SHARE * 0.05 and probe.ops > 0
    assert probe.factor() > 0
