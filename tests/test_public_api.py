"""The public API surface: everything advertised imports and works."""

import importlib

import pytest

import repro

PACKAGES = [
    "repro.sim",
    "repro.mem",
    "repro.cpu",
    "repro.net",
    "repro.switch",
    "repro.io",
    "repro.cluster",
    "repro.apps",
    "repro.workloads",
    "repro.metrics",
    "repro.experiments",
    "repro.faults",
    "repro.runner",
    "repro.obs",
]


def test_version():
    assert repro.__version__ == "1.7.1"


@pytest.mark.parametrize("package", PACKAGES)
def test_subpackage_imports(package):
    module = importlib.import_module(package)
    assert module is not None


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{package}.{name} missing"


def test_top_level_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name)


def test_every_module_has_a_docstring():
    import pathlib
    root = pathlib.Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        source = path.read_text()
        if not source.strip():
            continue
        first = source.lstrip()
        assert first.startswith('"""') or first.startswith("'''"), (
            f"{path} lacks a module docstring")


def test_public_classes_have_docstrings():
    from repro.cluster import ClusterConfig, ReadStream, System
    from repro.switch import ActiveSwitch, HandlerContext
    for cls in (ClusterConfig, ReadStream, System, ActiveSwitch,
                HandlerContext):
        assert cls.__doc__


def test_quickstart_snippet_from_readme():
    """The README's Python snippet must actually run."""
    result = repro.run("grep", scale=0.1)
    report = result.report()
    assert "grep" in report.performance()
    assert "n-HP" in report.breakdown()
    assert result.active_speedup > 0


def test_four_cases_shim_warns_and_forwards():
    from repro.cluster import ClusterConfig, case_configs, four_cases

    base = ClusterConfig()
    with pytest.warns(DeprecationWarning, match="four_cases"):
        legacy = four_cases(base)
    assert legacy == case_configs(base)


def test_run_four_cases_shim_warns_and_forwards():
    from repro.apps import GrepApp, run_four_cases

    with pytest.warns(DeprecationWarning, match="run_four_cases"):
        legacy = run_four_cases(lambda: GrepApp(scale=0.05))
    direct = repro.run(lambda: GrepApp(scale=0.05))
    assert legacy.name == "grep"
    assert set(legacy.cases) == set(direct.cases)
    for label, case in direct.cases.items():
        assert legacy.case(label) == case


def test_runner_exports_are_authoritative():
    for name in ("run", "run_many", "configure", "paper_grid", "make_spec",
                 "AppSpec", "ExperimentRunner", "ResultCache", "RunResult",
                 "Tracer", "Report"):
        assert name in repro.__all__, name
        assert hasattr(repro, name)
