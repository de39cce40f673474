"""Micro-benchmarks for the simulator's hot paths.

Times each layer in isolation so a change too small to move grid cells
is still measurable.  The memory hierarchy: scalar cache access,
batched range walks, strided record scans, hashjoin-style random
probes, hierarchy construction, and the per-line reference path.  The
disk model: a striped burst-path read stream over the service preset's
16 spindles.  Standalone (no pytest-benchmark dependency)::

    PYTHONPATH=src python benchmarks/perf/bench_cache_hotpath.py

Deterministic work, wall-clock measured with ``time.perf_counter``;
compare runs on the same machine only.
"""

from __future__ import annotations

import random
import time

from repro.io.disk import DiskArray
from repro.mem import Cache, CacheConfig
from repro.mem.hierarchy import build_host_hierarchy
from repro.sim.core import Environment
from repro.sim.units import Clock

#: Bytes of sequential scan per measurement (64 K lines at 32 B).
SCAN_BYTES = 2 * 1024 * 1024
#: Records per strided measurement (the select/hashjoin pattern).
RECORDS = 20_000
RECORD_BYTES = 100
#: Random scalar probes per measurement, and the span they land in.
PROBES = 50_000
PROBE_SPAN = 4 * 1024 * 1024
#: Host hierarchies built per construction measurement.
BUILDS = 200
#: Striped reads per disk measurement (one serve_open_loop pass), the
#: stripe width of the ``service_2003`` preset, and the read sizes.
DISK_READS = 41_761
SPINDLES = 16
READ_SIZES = (24 * 1024, 32 * 1024)


def _timed(label: str, fn, repeat: int = 3) -> float:
    best = min(_once(fn) for _ in range(repeat))
    print(f"{label:<44} {best * 1e3:8.2f} ms")
    return best


def _once(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def bench_cache_scalar_access():
    cache = Cache(CacheConfig("bench-l1", 32 * 1024, 32, 2))
    access = cache.access

    def run():
        for addr in range(0, SCAN_BYTES, 32):
            access(addr)
    return run


def bench_cache_access_range():
    cache = Cache(CacheConfig("bench-l1", 32 * 1024, 32, 2))

    def run():
        for base in range(0, SCAN_BYTES, 64 * 1024):
            cache.access_range(base, 64 * 1024)
    return run


def bench_hierarchy_load_range(batched: bool):
    hier = build_host_hierarchy(Clock(2e9), batched=batched)

    def run():
        for base in range(0, SCAN_BYTES, 64 * 1024):
            hier.load_range(base, 64 * 1024)
    return run


def bench_hierarchy_load_stride(batched: bool):
    hier = build_host_hierarchy(Clock(2e9), batched=batched)

    def run():
        hier.load_stride(0, RECORD_BYTES, RECORDS)
    return run


def bench_hierarchy_random_probe():
    """Hashjoin's pattern: a record load, then random hash-table stores."""
    rng = random.Random(14)
    slots = [rng.randrange(PROBE_SPAN) for _ in range(PROBES)]
    hier = build_host_hierarchy(Clock(2e9), scaled_for_database=True)

    def run():
        load, store = hier.load, hier.store
        for i, slot in enumerate(slots):
            load(PROBE_SPAN + i * 128)
            store(slot)
    return run


def bench_build_host_hierarchy():
    clock = Clock(2e9)

    def run():
        for _ in range(BUILDS):
            build_host_hierarchy(clock)
    return run


def bench_disk_array_read_burst():
    """Sequential burst-path reads striped over every spindle."""
    def run():
        disks = DiskArray(Environment(), num_disks=SPINDLES)
        disks.position_heads(0)
        offset = 0
        for i in range(DISK_READS):
            nbytes = READ_SIZES[i & 1]
            disks.read_burst(i * 1_000_000, offset, nbytes)
            offset += nbytes
        disks.utilization()
    return run


def main() -> None:
    print(f"scan = {SCAN_BYTES // 1024} KB sequential, "
          f"stride = {RECORDS} x {RECORD_BYTES} B records\n")
    _timed("Cache.access (public, per line)", bench_cache_scalar_access())
    _timed("Cache.access_range (batched)", bench_cache_access_range())
    perline = _timed("hierarchy load_range (per-line path)",
                     bench_hierarchy_load_range(batched=False))
    batched = _timed("hierarchy load_range (batched path)",
                     bench_hierarchy_load_range(batched=True))
    print(f"{'-> load_range speedup':<44} {perline / batched:7.2f} x")
    perline = _timed("hierarchy load_stride (per-line path)",
                     bench_hierarchy_load_stride(batched=False))
    batched = _timed("hierarchy load_stride (batched path)",
                     bench_hierarchy_load_stride(batched=True))
    print(f"{'-> load_stride speedup':<44} {perline / batched:7.2f} x")
    _timed(f"hierarchy random load+store x {PROBES}",
           bench_hierarchy_random_probe())
    _timed(f"build_host_hierarchy x {BUILDS}", bench_build_host_hierarchy())
    _timed(f"DiskArray.read_burst x {DISK_READS} ({SPINDLES} disks)",
           bench_disk_array_read_burst())


if __name__ == "__main__":
    main()
