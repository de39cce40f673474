"""Unit tests for active storage devices and the two-level experiment."""

import pytest

from repro.cluster import ClusterConfig, StorageNode
from repro.experiments.two_level import compare_filter_placement
from repro.io.active_storage import ActiveStorageConfig, ActiveStorageNode
from repro.sim import Environment
from repro.sim.units import ms


def make_node(**kwargs):
    env = Environment()
    node = ActiveStorageNode(env, "astor0", ClusterConfig(),
                             ActiveStorageConfig(**kwargs))
    return env, node


def test_device_cpu_is_drive_class():
    env, node = make_node()
    assert node.cpu.clock.freq_hz == 200e6


def test_filtered_read_ships_only_survivors():
    env, node = make_node()

    def reader(env):
        yield from node.serve_filtered_read(0, 65536, filter_cycles=5000,
                                            out_bytes=16384)

    env.process(reader(env))
    env.run()
    assert node.unfiltered_bytes_read == 65536
    assert node.filtered_bytes_out == 16384
    assert node.tca.traffic.bytes_out == 16384
    assert node.disks.bytes_read == 65536


def test_filter_overlaps_disk_stream():
    """Cheap filtering adds (almost) nothing over a plain read."""
    env1, node1 = make_node()

    def plain(env):
        yield from node1.serve_read(0, 1_000_000)
        return env.now

    proc = env1.process(plain(env1))
    plain_time = env1.run(until=proc)

    env2, node2 = make_node()

    def filtered(env):
        yield from node2.serve_filtered_read(0, 1_000_000,
                                             filter_cycles=1000,
                                             out_bytes=250_000)
        return env.now

    proc = env2.process(filtered(env2))
    filtered_time = env2.run(until=proc)
    assert filtered_time - plain_time < ms(0.1)


def test_slow_filter_becomes_the_bottleneck():
    """A heavy filter on the 200 MHz core dominates the disk stream."""
    env, node = make_node()
    heavy_cycles = 10_000_000  # 50 ms at 200 MHz >> 10 ms disk transfer

    def reader(env):
        yield from node.serve_filtered_read(0, 1_000_000,
                                            filter_cycles=heavy_cycles,
                                            out_bytes=1000)
        return env.now

    proc = env.process(reader(env))
    elapsed = env.run(until=proc)
    assert elapsed >= ms(50)
    assert node.cpu.accounting.busy_ps >= ms(50)


def test_filtered_read_validates_output_size():
    env, node = make_node()
    with pytest.raises(ValueError):
        list(node.serve_filtered_read(0, 1000, filter_cycles=1,
                                      out_bytes=1001))


def test_config_validation():
    with pytest.raises(ValueError):
        ActiveStorageConfig(cpu_freq_hz=0)
    with pytest.raises(ValueError):
        ActiveStorageConfig(filter_setup_ps=-1)


def test_plain_read_matches_passive_interface():
    env, node = make_node()
    assert isinstance(node, StorageNode)

    def worker(env):
        yield from node.serve_read(0, 4096)

    env.process(worker(env))
    env.run()
    assert node.tca.traffic.bytes_out == 4096
    assert node.disks.bytes_read == 4096
    assert node.scsi.stats.transactions == 1


# ----------------------------------------------------------------------
# The placement comparison
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def placement_rows():
    return compare_filter_placement(scale=1 / 256)


def test_all_placements_disk_bound(placement_rows):
    times = [row["exec_ms"] for row in placement_rows]
    assert max(times) / min(times) < 1.10


def test_device_minimizes_fabric_bytes(placement_rows):
    by = {row["placement"]: row for row in placement_rows}
    assert by["device"]["fabric_bytes"] < by["two-level"]["fabric_bytes"]
    assert by["two-level"]["fabric_bytes"] < by["switch"]["fabric_bytes"]
    assert by["switch"]["fabric_bytes"] == by["host"]["fabric_bytes"]


def test_all_active_placements_cut_host_traffic(placement_rows):
    by = {row["placement"]: row for row in placement_rows}
    for placement in ("switch", "device", "two-level"):
        assert by[placement]["host_in_bytes"] < by["host"]["host_in_bytes"]


def test_host_filter_costs_host_cycles(placement_rows):
    by = {row["placement"]: row for row in placement_rows}
    assert by["host"]["host_busy_frac"] > 3 * by["switch"]["host_busy_frac"]
