"""The striped burst path's lockstep ledger is exact.

:meth:`DiskArray.read_burst`/``write_burst`` run an equal stripe over
spindles in lockstep on the lead spindle only, and hand the followers
their identical deltas lazily.  These properties drive a ``DiskArray``
and a reference — plain spindles, one :meth:`Disk.access_burst` each
per stripe — through the same mixed operation sequences, and require
every spindle's stats, busy utilization and every returned
``(started, done)`` pair to match at every read.
"""

from dataclasses import astuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.presets import service_2003
from repro.cluster.system import System
from repro.io import Disk, DiskArray
from repro.sim import Environment

_SIZES = st.one_of(
    st.integers(1, 20),                                # below the width
    st.integers(1, 64).map(lambda k: k * 16 * 512),    # every width divides
    st.integers(1, 64 * 1024),                         # anything
)
_GAP_PS = st.one_of(st.just(0), st.integers(1, 10**6), st.integers(1, 10**10))

_OPS = st.lists(st.one_of(
    st.tuples(st.just("burst"), _GAP_PS, st.booleans(),
              st.integers(0, 10**8), _SIZES, st.booleans()),
    st.tuples(st.just("position"), st.integers(0, 10**6)),
    st.tuples(st.just("check")),
    st.tuples(st.just("direct"), st.integers(0, 15), _GAP_PS,
              st.integers(0, 10**6), st.integers(1, 4096), st.booleans()),
    st.tuples(st.just("head"), st.integers(0, 15), st.integers(0, 10**6)),
), max_size=60)


def _reference_burst(disks, at_ps, offset, nbytes, write):
    """One ``Disk.access_burst`` per spindle holding a share."""
    share = -(-nbytes // len(disks))
    remaining = nbytes
    started = done = None
    for index, disk in enumerate(disks):
        chunk = min(share, remaining)
        if chunk <= 0:
            break
        data_start, disk_done = disk.access_burst(
            at_ps, offset // len(disks), chunk, write)
        if index == 0:
            started = data_start
        if done is None or disk_done > done:
            done = disk_done
        remaining -= chunk
    return started, done


def _assert_same(array, reference, horizon_ps):
    for disk, ref in zip(array.disks, reference):
        assert disk.stats == ref.stats, disk.name
        assert (disk.busy.utilization(horizon_ps)
                == ref.busy.utilization(horizon_ps)), disk.name


@settings(max_examples=150, deadline=None)
@given(num_disks=st.sampled_from([1, 2, 3, 4, 16]), ops=_OPS)
def test_array_matches_per_spindle_reference(num_disks, ops):
    env = Environment()
    array = DiskArray(env, "array", num_disks=num_disks)
    reference = [Disk(env, f"ref-{i}") for i in range(num_disks)]
    horizon_ps = 10**15
    now = 0
    offset = 0
    for op in ops:
        kind = op[0]
        if kind == "burst":
            _, gap, sequential, jump, nbytes, write = op
            now += gap
            if not sequential:
                offset = jump
            got = (array.write_burst if write else array.read_burst)(
                now, offset, nbytes)
            assert got == _reference_burst(reference, now, offset, nbytes,
                                           write)
            offset += nbytes
        elif kind == "position":
            array.position_heads(op[1])
            for ref in reference:
                ref.position_head(op[1] // num_disks)
        elif kind == "check":
            _assert_same(array, reference, horizon_ps)
        elif kind == "direct":
            _, index, gap, at_offset, nbytes, write = op
            now += gap
            index %= num_disks
            assert (array.disks[index].access_burst(now, at_offset, nbytes,
                                                    write)
                    == reference[index].access_burst(now, at_offset, nbytes,
                                                     write))
        else:
            _, index, at_offset = op
            array.disks[index % num_disks].position_head(at_offset)
            reference[index % num_disks].position_head(at_offset)
    _assert_same(array, reference, horizon_ps)
    env.run(until=now + 1)
    assert array.utilization() == (
        sum(ref.busy.utilization() for ref in reference) / num_disks)
    assert array.bytes_read == sum(ref.stats.bytes_read for ref in reference)
    assert array.bytes_written == sum(ref.stats.bytes_written
                                      for ref in reference)


def test_lockstep_stripe_runs_on_the_lead_spindle_only():
    """The followers' stats stay behind until something reads them."""
    array = DiskArray(Environment(), num_disks=4)
    array.position_heads(0)
    for i in range(3):
        array.read_burst(i * 10**9, i * 4096, 4096)
    lead, follower = array.disks[0], array.disks[1]
    assert lead._stats.requests == 3
    assert follower._stats.requests == 0
    assert follower.stats.requests == 3
    assert astuple(follower._stats) == astuple(lead._stats)


def test_system_disk_probes_read_fresh_values_mid_run():
    """``disk.*`` metrics see every stripe served so far, at any time."""
    system = System(service_2003())
    env = system.env
    storage = system.storage
    storage.disks.position_heads(0)
    reference = [Disk(Environment(), f"ref-{i}")
                 for i in range(len(storage.disks.disks))]
    for ref in reference:
        ref.position_head(0)
    seen = []

    def client(env):
        offset = 0
        for nbytes in (24 * 1024, 32 * 1024, 24 * 1024, 1000, 32 * 1024):
            storage.disks.read_burst(env.now, offset, nbytes)
            _reference_burst(reference, env.now, offset, nbytes, False)
            offset += nbytes
            snapshot = system.metrics.snapshot("disk")
            for disk, ref in zip(storage.disks.disks, reference):
                assert snapshot[f"disk.{disk.name}.requests"] == \
                    ref.stats.requests
                assert snapshot[f"disk.{disk.name}.bytes_read"] == \
                    ref.stats.bytes_read
                assert snapshot[f"disk.{disk.name}.transfer_ps_total"] == \
                    ref.stats.transfer_ps_total
                assert snapshot[f"disk.{disk.name}.utilization"] == \
                    ref.busy.utilization(env.now)
            seen.append(snapshot)
            yield env.timeout(10**8)

    env.process(client(env))
    env.run()
    assert len(seen) == 5
    follower = f"disk.{storage.disks.disks[-1].name}"
    assert seen[-1][f"{follower}.utilization"] > 0
    assert [s[f"{follower}.requests"] for s in seen] == [1, 2, 3, 4, 5]
