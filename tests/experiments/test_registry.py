"""Tests for the experiment registry and the per-figure definitions."""

import pytest

import repro.experiments as experiments
from repro.experiments import all_experiments, compare, get
from repro.experiments.registry import Experiment, register


EXPECTED_IDS = {
    "table1",
    "table2",
    "fig03_04_mpeg",
    "fig05_06_hashjoin",
    "fig07_08_select",
    "fig09_10_grep",
    "fig11_12_tar",
    "fig13_14_sort",
    "fig15_reduce_to_one",
    "fig16_distributed_reduce",
    "fig17_md5_multicpu",
    "ext_two_level",
    "ext_multiprogramming",
    "ext_fabric_scale",
    "ext_fabric_availability",
    "ext_service_slo",
}


def test_every_paper_artifact_is_registered():
    assert {e.experiment_id for e in all_experiments()} == EXPECTED_IDS


def test_get_unknown_raises():
    with pytest.raises(KeyError):
        get("fig99")


def test_duplicate_registration_rejected():
    exp = get("table1")
    with pytest.raises(ValueError):
        register(Experiment(
            experiment_id="table1", title="dup", paper={}, run=lambda s: None,
            measured=lambda r: {}))


def test_table1_lists_paper_sizes():
    rows = get("table1").run()
    names = [row[0] for row in rows]
    assert "MPEG filter" in names
    assert "Collective Reduction" in names
    sizes = dict(rows)
    assert sizes["Grep"] == 1_146_880
    assert sizes["MPEG filter"] == 2_202_640
    assert sizes["MD5"] == 256 * 1024


def test_compare_aligns_measured_with_paper():
    exp = get("table1")
    rows = compare(exp, exp.run())
    metrics = {row[0]: row for row in rows}
    assert metrics["applications"][1] == 8
    assert metrics["applications"][2] == 8


def test_grep_experiment_end_to_end():
    exp = get("fig09_10_grep")
    result = exp.run(scale=0.25)
    rows = compare(exp, result)
    by_metric = {r[0]: r for r in rows}
    measured_speedup = by_metric["active speedup (vs normal)"][1]
    assert 1.0 < measured_speedup < 1.6
    assert by_metric["host util active"][1] < 0.05


def test_table2_verifies_both_modes():
    exp = get("table2")
    result = exp.run()
    assert exp.measured(result)["modes verified"] == 2.0


def test_experiments_have_paper_expectations():
    for exp in all_experiments():
        assert exp.paper, f"{exp.experiment_id} has no paper values"
        assert exp.title


def test_main_module_runs_single_experiment(capsys):
    from repro.experiments.__main__ import main
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "paper vs measured" in out


def test_main_json_output(tmp_path, capsys):
    import json
    from repro.experiments.__main__ import main
    out_path = tmp_path / "results.json"
    assert main(["table1", "--json", str(out_path)]) == 0
    capsys.readouterr()
    data = json.loads(out_path.read_text())
    assert data["table1"]["measured"]["applications"] == 8
    assert data["table1"]["paper"]["applications"] == 8


def test_main_ablations_flag(capsys):
    from repro.experiments.__main__ import main
    assert main(["--ablations"]) == 0
    out = capsys.readouterr().out
    assert "Ablation studies" in out
    assert "non-interference" in out


def test_markdown_report_generator(tmp_path):
    from repro.experiments.report_generator import write_report
    out = tmp_path / "report.md"
    write_report(str(out), experiment_ids=["table1", "fig09_10_grep"],
                 scale=0.25)
    text = out.read_text()
    assert "# Generated results report" in text
    assert "Grep" in text
    assert "paper vs measured" in text
    assert "####" in text  # bar charts present


def test_main_markdown_flag(tmp_path, capsys):
    from repro.experiments.__main__ import main
    out = tmp_path / "report.md"
    assert main(["table1", "--markdown", str(out)]) == 0
    assert out.exists()


def test_row_table_renders_none_cells_as_dash():
    # ext_fabric_availability rows carry None where a kill missed the
    # collective; the bare CLI used to crash formatting them.
    from repro.experiments.__main__ import run_one
    rows = [{"kill_us": 10.0, "attempts": 2, "recovery_us": None}]
    stub = Experiment(experiment_id="stub_rows", title="Stub rows",
                      paper={}, run=lambda scale: rows,
                      measured=lambda result: {})
    text = run_one(stub, scale=1.0)
    assert f"{10.0:12.3f}  {2:>12}  {'-':>12}" in text


@pytest.mark.parametrize("experiment_id", sorted(EXPECTED_IDS))
def test_every_experiment_runs_through_the_cli(experiment_id):
    """Each registered experiment renders at smoke scale via ``run_one``."""
    from repro.experiments.__main__ import run_one
    experiment = get(experiment_id)
    scale = min(experiment.default_scale, 0.01)
    collect = {}
    text = run_one(experiment, scale=scale, collect=collect)
    assert text.startswith(f"== {experiment.title} (scale={scale:g}, ")
    assert isinstance(collect[experiment_id]["measured"], dict)
