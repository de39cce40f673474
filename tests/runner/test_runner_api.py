"""The repro.run() front door: paths, defaults, and reports."""

import pytest

import repro
from repro.apps.grep import GrepApp
from repro.runner.api import RunResult, configure, run, run_many
from repro.runner.cache import encode_case


@pytest.fixture(autouse=True)
def restore_defaults():
    saved = configure()
    yield
    configure(**saved)


def test_registry_path_returns_run_result():
    result = run("grep", scale=0.05)
    assert isinstance(result, RunResult)
    assert result.name == "grep"
    assert set(result.cases) == {"normal", "normal+pref", "active",
                                 "active+pref"}
    assert result.stats["parallel"] == 1
    assert result.stats["cache_dir"] is None


def test_factory_path_matches_registry_path():
    by_name = run("grep", scale=0.05)
    by_factory = run(lambda: GrepApp(scale=0.05))
    assert by_factory.name == "grep"
    for label, case in by_name.cases.items():
        assert encode_case(by_factory.case(label)) == encode_case(case)


def test_factory_path_rejects_spec_parameters():
    with pytest.raises(TypeError):
        run(lambda: GrepApp(scale=0.05), scale=0.05)


def test_case_subset():
    result = run("grep", cases=("normal", "active"), scale=0.05)
    assert tuple(result.cases) == ("normal", "active")


def test_cache_round_trip_through_run(tmp_path):
    cold = run("grep", scale=0.05, cache=tmp_path / "c")
    warm = run("grep", scale=0.05, cache=tmp_path / "c")
    assert warm.stats["cache_hits"] == 4
    for label in cold.cases:
        assert encode_case(warm.case(label)) == encode_case(cold.case(label))


def test_configure_sets_process_defaults(tmp_path):
    configure(cache=str(tmp_path / "d"))
    result = run("grep", scale=0.05)
    assert result.stats["cache_dir"] == str(tmp_path / "d")


def test_configure_rejects_unknown_keys():
    with pytest.raises(TypeError):
        configure(workers=4)


def test_run_many_shared_pool():
    results = run_many(["grep"], cases=("normal",))
    # Registered names pass through make_spec with default parameters
    # (scale=1.0), so keep this to one cheap case.
    assert set(results) == {"grep"}
    assert isinstance(results["grep"], RunResult)


def test_report_accessor():
    result = run("grep", scale=0.05)
    report = result.report()
    assert "grep" in report.performance()
    assert "n-HP" in report.breakdown()
    assert str(report) == report.render()


def test_top_level_exports():
    assert repro.run is run
    assert repro.configure is configure
    for case_name in ("ResultCache", "paper_grid", "RunResult"):
        assert hasattr(repro, case_name)


def test_profile_run_dumps_pstats(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    plain = run("grep", scale=0.05, cases=["normal", "active"])
    result = run("grep", scale=0.05, cases=["normal", "active"],
                 profile=True)
    # Profiling never perturbs the measurement.
    assert result.cases == plain.cases
    profiles = result.stats["profiles"]
    assert set(profiles) == {"normal", "active"}
    for label, path in profiles.items():
        assert (tmp_path / "cache" / "profiles").samefile(
            __import__("pathlib").Path(path).parent)
        assert path.endswith(f"grep-{label}.pstats")
    rendered = result.report().profile(top=5)
    assert "grep [normal]: profile" in rendered
    assert "run_case" in rendered
    # Single-case rendering and the unprofiled empty string.
    assert "active" in result.report().profile(case="active")
    assert plain.report().profile() == ""


def test_profile_and_trace_are_exclusive():
    with pytest.raises(ValueError):
        run("grep", scale=0.05, profile=True, trace=True)
