"""Golden-stats equivalence: burst vs per-block transport/dispatch path.

The burst engine (:mod:`repro.sim.burst`) claims bit-identity with the
per-block reference path (``REPRO_SIM_PERBLOCK=1``): one event per
stream burst for disk service, link occupancy, and handler dispatch,
with the interior pipeline computed analytically.  These tests prove it
the strong way: every paper application, all four configurations, run
once per path, comparing the full :class:`CaseResult` and the full
metrics snapshot for exact equality.  ``sim.event_count`` is the one
excluded key — shrinking it is the feature — and is separately
asserted to shrink.  A fault-free chaos-preset cell checks the same
through the recovery-capable configuration; a faulted cell checks the
automatic fallback to the reference path.
"""

from dataclasses import replace

import pytest

from repro.cluster.config import case_configs
from repro.cluster.presets import chaos_2003
from repro.faults.plan import FaultPlan
from repro.runner.harness import CASE_LABELS, Cell, cell_config
from repro.runner.spec import paper_grid

#: Same scale factor as the memory-path golden grid: enough work to
#: exercise prefetch overlap, pool contention, and multi-node transfers
#: while keeping the double grid fast.
SCALE_FACTOR = 0.05

_GRID = {spec.label: spec for spec in paper_grid(scale=SCALE_FACTOR)}


def _run_case(app, config, perblock, monkeypatch):
    """One simulation; returns (CaseResult, metrics snapshot)."""
    if perblock:
        monkeypatch.setenv("REPRO_SIM_PERBLOCK", "1")
    else:
        monkeypatch.delenv("REPRO_SIM_PERBLOCK", raising=False)
    monkeypatch.delenv("REPRO_SIM_FLUID", raising=False)
    sink = {}
    result = app.run_case(config, metrics_sink=sink)
    return result, sink


def _assert_identical(label, burst, perblock, expect_fewer_events=True):
    result_b, sink_b = burst
    result_p, sink_p = perblock
    diff = {k: (sink_p.get(k), sink_b.get(k))
            for k in set(sink_p) | set(sink_b)
            if k != "sim.event_count" and sink_p.get(k) != sink_b.get(k)}
    assert diff == {}, f"{label}: counters diverge: {diff}"
    assert result_b == result_p, f"{label}: CaseResult diverges"
    if expect_fewer_events:
        assert sink_b["sim.event_count"] < sink_p["sim.event_count"], (
            f"{label}: burst path scheduled no fewer events "
            f"({sink_b['sim.event_count']:.0f} vs "
            f"{sink_p['sim.event_count']:.0f})")


@pytest.mark.parametrize("label", sorted(_GRID))
def test_burst_path_is_bit_identical(label, monkeypatch):
    spec = _GRID[label]
    app = spec.build()
    for case in CASE_LABELS:
        config = cell_config(Cell(spec=spec, case=case, seed=None), app)
        burst = _run_case(app, config, False, monkeypatch)
        perblock = _run_case(app, config, True, monkeypatch)
        _assert_identical(f"{label}/{case}", burst, perblock)


def test_chaos_preset_fault_free_is_bit_identical(monkeypatch):
    """Same equivalence through the chaos preset (faults zeroed)."""
    from repro.apps.grep import GrepApp

    app = GrepApp(scale=SCALE_FACTOR)
    base = app.cluster_config()
    config = replace(
        chaos_2003(seed=0, faults=FaultPlan()),
        num_hosts=base.num_hosts,
        num_storage=base.num_storage,
        num_switch_cpus=base.num_switch_cpus,
        database_scaled_caches=base.database_scaled_caches,
        cache_scale_divisor=base.cache_scale_divisor,
    )
    for label, case_config in case_configs(config):
        burst = _run_case(app, case_config, False, monkeypatch)
        perblock = _run_case(app, case_config, True, monkeypatch)
        _assert_identical(f"chaos/{label}", burst, perblock)


def test_faulted_run_falls_back_to_per_block_path(monkeypatch):
    """With an injector attached the burst gate opens: both flag
    settings run the event-driven reference path (faults need the real
    retry loops), so even the event counts agree."""
    from repro.apps.grep import GrepApp

    app = GrepApp(scale=SCALE_FACTOR)
    base = app.cluster_config()
    config = replace(
        chaos_2003(seed=0),
        num_hosts=base.num_hosts,
        num_storage=base.num_storage,
        num_switch_cpus=base.num_switch_cpus,
        database_scaled_caches=base.database_scaled_caches,
        cache_scale_divisor=base.cache_scale_divisor,
    ).with_case(active=True, prefetch=True)
    burst = _run_case(app, config, False, monkeypatch)
    perblock = _run_case(app, config, True, monkeypatch)
    _assert_identical("chaos-faulted", burst, perblock,
                      expect_fewer_events=False)
    assert (burst[1]["sim.event_count"]
            == perblock[1]["sim.event_count"])


def test_service_layer_is_bit_identical(monkeypatch):
    """Open-loop serving through the burst worker fast path.

    Besides the :class:`ServiceResult`, every probe of the run's
    ``System`` metrics registry (each ``disk.*`` counter and
    utilization included) must match; only ``sim.event_count`` may
    differ.  The third spec is the benchmarked service configuration:
    the 16-spindle ``service_2003`` stripe, past the knee so the drop
    path runs too.
    """
    import repro.cluster.system as system_module
    from repro.traffic.service import ServiceSpec, _simulate

    built = []
    build_system = system_module.System

    def capture(*args, **kwargs):
        system = build_system(*args, **kwargs)
        built.append(system)
        return system

    monkeypatch.setattr(system_module, "System", capture)

    def run(spec):
        result = _simulate(spec)
        snapshot = built[-1].metrics.snapshot()
        snapshot.pop("sim.event_count")
        return result, snapshot

    for spec in (
        ServiceSpec(app="grep", case="normal", topology="single"),
        ServiceSpec(app="grep", case="active", topology="fat_tree",
                    hosts=16),
        ServiceSpec(app="grep", case="active", rate_rps=32000.0,
                    duration_s=0.05, depth=128, workers=32,
                    preset="service_2003",
                    overrides=(("num_switch_cpus", 4),), seed=7),
    ):
        monkeypatch.delenv("REPRO_SIM_PERBLOCK", raising=False)
        monkeypatch.delenv("REPRO_SIM_FLUID", raising=False)
        result_b, sink_b = run(spec)
        monkeypatch.setenv("REPRO_SIM_PERBLOCK", "1")
        result_p, sink_p = run(spec)
        assert result_b == result_p, f"{spec.label}: results diverge"
        diff = {k: (sink_p.get(k), sink_b.get(k))
                for k in set(sink_p) | set(sink_b)
                if sink_p.get(k) != sink_b.get(k)}
        assert diff == {}, f"{spec.label}: counters diverge: {diff}"
    assert result_b.dropped > 0, "the past-knee spec never dropped"
    assert sum(v for k, v in sink_b.items()
               if k.startswith("disk.") and k.endswith(".requests")) > 0


def test_perblock_flag_controls_path(monkeypatch):
    """The debug flag actually selects the per-block reference path."""
    from repro.apps.grep import GrepApp
    from repro.cluster.system import System

    app = GrepApp(scale=SCALE_FACTOR)
    monkeypatch.delenv("REPRO_SIM_PERBLOCK", raising=False)
    assert System(app.cluster_config()).burst_ok()
    monkeypatch.setenv("REPRO_SIM_PERBLOCK", "1")
    assert not System(app.cluster_config()).burst_ok()
