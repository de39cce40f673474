"""Unit tests for fault plans and the deterministic injector."""

import pytest

from repro.faults import (
    DiskFaults,
    FaultInjector,
    FaultPlan,
    HandlerFaults,
    LinkFaults,
    ScsiFaults,
)


# ----------------------------------------------------------------------
# Plan validation
# ----------------------------------------------------------------------
def test_default_plan_injects_nothing():
    assert not FaultPlan().enabled
    assert not LinkFaults().enabled
    assert not DiskFaults().enabled
    assert not ScsiFaults().enabled
    assert not HandlerFaults().enabled


def test_any_knob_enables_the_plan():
    assert FaultPlan(link=LinkFaults(drop_rate=0.1)).enabled
    assert FaultPlan(disk=DiskFaults(error_requests=(0,))).enabled
    assert FaultPlan(scsi=ScsiFaults(error_rate=0.1)).enabled
    assert FaultPlan(handler=HandlerFaults(crash_invocations=((1, 0),))).enabled


def test_rate_validation():
    with pytest.raises(ValueError):
        LinkFaults(drop_rate=1.5)
    with pytest.raises(ValueError):
        LinkFaults(drop_rate=0.7, bit_error_rate=0.7)
    with pytest.raises(ValueError):
        LinkFaults(backoff_factor=0.5)
    with pytest.raises(ValueError):
        DiskFaults(read_error_rate=-0.1)
    with pytest.raises(ValueError):
        ScsiFaults(error_rate=2.0)
    with pytest.raises(ValueError):
        HandlerFaults(quarantine_threshold=0)
    with pytest.raises(ValueError):
        HandlerFaults(crash_invocations=((1, -1),))


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def _chatter(injector, n=40):
    """A fixed interaction script touching every fault family."""
    outcomes = []
    for i in range(n):
        outcomes.append(injector.link_outcome("a->b"))
        outcomes.append(injector.link_outcome("b->a"))
        outcomes.append(injector.disk_error("d0"))
        outcomes.append(injector.scsi_error("bus"))
        outcomes.append(injector.handler_crash("sw0", 1, i))
        outcomes.append(injector.atb_corruption("sw0"))
    return outcomes


def _noisy_plan():
    return FaultPlan(
        link=LinkFaults(drop_rate=0.2, bit_error_rate=0.1),
        disk=DiskFaults(read_error_rate=0.3),
        scsi=ScsiFaults(error_rate=0.2),
        handler=HandlerFaults(crash_rate=0.2, atb_corruption_rate=0.1),
    )


def test_same_seed_reproduces_schedule_and_fingerprint():
    a = FaultInjector(_noisy_plan(), seed=11)
    b = FaultInjector(_noisy_plan(), seed=11)
    assert _chatter(a) == _chatter(b)
    assert a.fingerprint() == b.fingerprint()
    assert a.injected == b.injected


def test_different_seeds_differ():
    a = FaultInjector(_noisy_plan(), seed=11)
    b = FaultInjector(_noisy_plan(), seed=12)
    assert _chatter(a) != _chatter(b)
    assert a.fingerprint() != b.fingerprint()


def test_component_streams_are_independent():
    """Interleaving another component's draws must not perturb a stream."""
    alone = FaultInjector(_noisy_plan(), seed=5)
    outcomes_alone = [alone.link_outcome("a->b") for _ in range(30)]

    mixed = FaultInjector(_noisy_plan(), seed=5)
    outcomes_mixed = []
    for i in range(30):
        # Other components drawing in between must not matter.
        mixed.disk_error("d0")
        mixed.scsi_error("bus")
        outcomes_mixed.append(mixed.link_outcome("a->b"))
        mixed.atb_corruption("sw0")
    assert outcomes_alone == outcomes_mixed


def test_plan_seed_overrides_constructor_seed():
    plan = FaultPlan(link=LinkFaults(drop_rate=0.5), seed=99)
    injector = FaultInjector(plan, seed=1)
    assert injector.seed == 99
    reference = FaultInjector(
        FaultPlan(link=LinkFaults(drop_rate=0.5)), seed=99)
    assert ([injector.link_outcome("l") for _ in range(20)]
            == [reference.link_outcome("l") for _ in range(20)])


# ----------------------------------------------------------------------
# Scripted (deterministic) faults
# ----------------------------------------------------------------------
def test_scripted_link_attempts():
    plan = FaultPlan(link=LinkFaults(drop_attempts=(0, 2),
                                     corrupt_attempts=(1,)))
    injector = FaultInjector(plan, seed=0)
    assert [injector.link_outcome("l") for _ in range(4)] == [
        "drop", "corrupt", "drop", "ok"]
    assert injector.injected["link_drops"] == 2
    assert injector.injected["link_corruptions"] == 1


def test_scripted_attempts_are_per_link():
    plan = FaultPlan(link=LinkFaults(drop_attempts=(0,)))
    injector = FaultInjector(plan, seed=0)
    assert injector.link_outcome("x") == "drop"
    assert injector.link_outcome("y") == "drop"
    assert injector.link_outcome("x") == "ok"


def test_scripted_disk_requests():
    plan = FaultPlan(disk=DiskFaults(error_requests=(1,)))
    injector = FaultInjector(plan, seed=0)
    assert [injector.disk_error("d") for _ in range(3)] == [
        False, True, False]


def test_scripted_handler_crashes():
    plan = FaultPlan(handler=HandlerFaults(crash_invocations=((7, 1),)))
    injector = FaultInjector(plan, seed=0)
    assert not injector.handler_crash("sw0", 7, 0)
    assert injector.handler_crash("sw0", 7, 1)
    assert not injector.handler_crash("sw0", 8, 1)
    assert injector.injected["handler_crashes"] == 1


# ----------------------------------------------------------------------
# Accounting and context
# ----------------------------------------------------------------------
def test_snapshot_reports_only_nonzero_counters():
    plan = FaultPlan(link=LinkFaults(drop_attempts=(0,)))
    injector = FaultInjector(plan, seed=0)
    assert injector.snapshot() == {}
    injector.link_outcome("l")
    assert injector.snapshot() == {"injected_link_drops": 1.0}
    assert injector.total_injected == 1


def test_failure_context_mentions_seed_and_injections():
    injector = FaultInjector(
        FaultPlan(link=LinkFaults(drop_attempts=(0,))), seed=42)
    context = injector.failure_context()
    assert "seed=42" in context["fault-injector"]
    assert "nothing" in context["fault-injector"]
    injector.link_outcome("l")
    assert "link_drops" in injector.failure_context()["fault-injector"]


def test_fingerprint_ignores_ok_decisions():
    a = FaultInjector(FaultPlan(link=LinkFaults(drop_attempts=(5,))), seed=0)
    b = FaultInjector(FaultPlan(link=LinkFaults(drop_attempts=(5,))), seed=0)
    for _ in range(6):
        a.link_outcome("l")
    for _ in range(3):
        b.link_outcome("l")
    assert a.fingerprint() != b.fingerprint()  # a reached the scripted drop
    for _ in range(3):
        b.link_outcome("l")
    assert a.fingerprint() == b.fingerprint()
