"""Smoke tests: every example script runs end to end (small inputs)."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, argv):
    old_argv = sys.argv
    sys.argv = [name] + argv
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


def test_quickstart_runs(capsys):
    run_example("quickstart.py", [])
    out = capsys.readouterr().out
    assert "summary delivered" in out


def test_custom_handler_runs(capsys):
    run_example("custom_handler.py", [])
    out = capsys.readouterr().out
    assert "matches the oracle" in out


def test_video_filter_pipeline_runs(capsys):
    run_example("video_filter_pipeline.py", ["0.1"])
    out = capsys.readouterr().out
    assert "active vs normal speedup" in out


def test_database_offload_runs(capsys):
    run_example("database_offload.py", ["0.005"])
    out = capsys.readouterr().out
    assert "HashJoin" in out
    assert "host cache-stall share" in out


def test_cluster_reduction_runs(capsys):
    run_example("cluster_reduction.py", ["8"])
    out = capsys.readouterr().out
    assert "reduce-to-one" in out
    assert "distributed" in out


def test_device_bypass_copy_runs(capsys):
    run_example("device_bypass_copy.py", ["2"])
    out = capsys.readouterr().out
    assert "host traffic" in out
    assert "switch-directed copy" in out


def test_technology_trends_runs(capsys):
    run_example("technology_trends.py", ["0.1"])
    out = capsys.readouterr().out
    assert "fast_storage" in out
    assert "paper_2003" in out


def test_fault_injection_runs(capsys):
    run_example("fault_injection.py", ["11"])
    out = capsys.readouterr().out
    assert "result byte-correct" in out
    assert "reproduces the run: True" in out
    injected = [line.split() for line in out.splitlines()
                if line.strip().startswith("injected_")]
    assert injected and sum(float(value) for _, value in injected) >= 1
