"""Regression tests for the kernel bugs fixed in the hardening pass.

Each test here fails on the pre-fix kernel:

1. ``Resource.cancel()`` raised / leaked on a request granted in the
   same timestep (cancel-after-grant race).
2. ``Process.interrupt()`` left the dead waiter's Request in
   ``Resource.queue``, so a later grant went to a process that would
   never release it.
3. ``Container.put(amount > capacity)`` was accepted and deadlocked the
   putter forever instead of failing fast.
4. ``TimeWeighted.mean(until_ps)`` with ``until_ps`` before the last
   change computed a negative-width open segment and corrupted the mean.
"""

import pytest

from repro.metrics.sampling import TimeWeighted
from repro.sim import (
    Container,
    Environment,
    Interrupt,
    Resource,
)


# ----------------------------------------------------------------------
# 1. cancel-after-grant race
# ----------------------------------------------------------------------
def test_cancel_after_grant_releases_the_unit():
    env = Environment()
    res = Resource(env, capacity=1)
    req = res.request()
    assert req.triggered  # granted immediately
    res.cancel(req)  # old kernel: SimulationError / leaked unit
    assert res.count == 0

    # The released unit is immediately grantable to someone else.
    again = res.request()
    assert again.triggered


def test_cancel_after_grant_hands_the_unit_to_the_next_waiter():
    env = Environment()
    res = Resource(env, capacity=1)
    first = res.request()
    second = res.request()
    assert first.triggered and not second.triggered
    res.cancel(first)
    assert second.triggered  # promoted, not starved


def test_cancel_is_idempotent():
    env = Environment()
    res = Resource(env, capacity=1)
    req = res.request()
    res.cancel(req)
    res.cancel(req)  # with-block exit after an explicit cancel: no-op
    assert res.count == 0


def test_interrupt_races_with_grant_in_same_timestep():
    """The full race: the grant and the interrupt land at the same
    simulated instant; the interrupted process never sees the grant, so
    the kernel must roll it back."""
    env = Environment()
    res = Resource(env, capacity=1)

    def holder(env):
        with res.request() as req:
            yield req
            yield env.timeout(10)

    def waiter(env):
        try:
            with res.request() as req:
                yield req
                pytest.fail("waiter should have been interrupted")
        except Interrupt:
            yield env.timeout(1)

    env.process(holder(env))
    victim = env.process(waiter(env), name="victim")

    def interrupter(env):
        # t=10: the holder releases AND we interrupt — same timestep.
        # Interrupts are urgent, so the victim sees the Interrupt while
        # its freshly-granted request sits unconsumed.
        yield env.timeout(10)
        victim.interrupt()

    env.process(interrupter(env))
    env.run()
    assert res.count == 0 and len(res.queue) == 0


# ----------------------------------------------------------------------
# 2. interrupt leaves the waiter queued
# ----------------------------------------------------------------------
def test_interrupt_withdraws_queued_request_capacity_conserved():
    env = Environment()
    res = Resource(env, capacity=1)
    entered = []

    def holder(env):
        with res.request() as req:
            yield req
            yield env.timeout(100)

    def doomed(env):
        req = res.request()
        try:
            yield req
            pytest.fail("doomed should never be granted")
        except Interrupt:
            return  # walks away WITHOUT cancelling explicitly

    def third(env):
        yield env.timeout(1)
        with res.request() as req:
            yield req
            entered.append(env.now)

    env.process(holder(env))
    victim = env.process(doomed(env), name="doomed")
    env.process(third(env), name="third")

    def interrupter(env):
        yield env.timeout(10)
        victim.interrupt()

    env.process(interrupter(env))
    env.run()
    # Old kernel: the grant at t=100 went to the dead 'doomed' waiter
    # and 'third' starved forever.  Now 'doomed' left the queue.
    assert entered == [100]
    assert res.count == 0 and len(res.queue) == 0


# ----------------------------------------------------------------------
# 3. Container.put over capacity
# ----------------------------------------------------------------------
def test_container_put_over_capacity_raises():
    env = Environment()
    pool = Container(env, capacity=8, init=0)
    with pytest.raises(ValueError):
        pool.put(9)
    assert pool.level == 0
    assert len(pool._putters) == 0  # nothing enqueued by the failure


def test_container_put_at_exact_capacity_is_fine():
    env = Environment()
    pool = Container(env, capacity=8, init=0)
    event = pool.put(8)
    assert event.triggered
    assert pool.level == 8


# ----------------------------------------------------------------------
# 4. TimeWeighted.mean(until_ps) before the last change
# ----------------------------------------------------------------------
def test_time_weighted_mean_rejects_until_before_last_change():
    env = Environment()
    series = TimeWeighted(env, initial=10)

    def advance(env):
        yield env.timeout(100)
        series.set(20)

    env.process(advance(env))
    env.run()
    # Old kernel: integrated a negative-width open segment and returned
    # a silently wrong mean.  Now it refuses.
    with pytest.raises(ValueError):
        series.mean(until_ps=50)  # predates the change at t=100


def test_time_weighted_mean_still_extrapolates_forward():
    env = Environment()
    series = TimeWeighted(env, initial=10)

    def advance(env):
        yield env.timeout(100)
        series.set(30)

    env.process(advance(env))
    env.run()
    # 10 for [0,100) then 30 for [100,200): mean 20.
    assert series.mean(until_ps=200) == pytest.approx(20.0)

