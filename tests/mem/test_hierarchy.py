"""Unit tests for the memory hierarchy's stall-time accounting."""

import pytest

from repro.mem import (
    MemoryHierarchy,
    build_host_hierarchy,
    build_switch_hierarchy,
)
from repro.sim import Clock

from cache_state import lru_sets

HOST_CLOCK = Clock(2_000_000_000)
SWITCH_CLOCK = Clock(500_000_000)


def test_host_hierarchy_geometry():
    hier = build_host_hierarchy(HOST_CLOCK)
    assert hier.l1d.config.size_bytes == 32 * 1024
    assert hier.l2.config.size_bytes == 512 * 1024
    assert hier.l2.config.line_size == 128
    assert hier.dtlb.config.entries == 64


def test_database_scaled_hierarchy():
    hier = build_host_hierarchy(HOST_CLOCK, scaled_for_database=True)
    assert hier.l1d.config.size_bytes == 8 * 1024
    assert hier.l2.config.size_bytes == 64 * 1024


def test_switch_hierarchy_geometry():
    hier = build_switch_hierarchy(SWITCH_CLOCK)
    assert hier.l1d.config.size_bytes == 1024
    assert hier.l1i.config.size_bytes == 4096
    assert hier.l2 is None
    assert hier.dtlb is None


def test_l1_hit_has_no_stall():
    hier = build_host_hierarchy(HOST_CLOCK)
    hier.load(0x1000)  # warm
    assert hier.load(0x1000) == 0


def test_l2_hit_stall_is_cheaper_than_memory():
    hier = build_host_hierarchy(HOST_CLOCK)
    hier.load(0x1000)          # fills L1 and L2 (cold: memory latency)
    # Evict from tiny L1 set by touching conflicting lines, keep L2 warm.
    cold = hier.load(0x1000 + hier.l1d.config.size_bytes)
    hier.load(0x1000 + 2 * hier.l1d.config.size_bytes)
    l2_hit = hier.load(0x1000)
    assert 0 < l2_hit < cold


def test_load_miss_charges_memory_latency():
    hier = build_host_hierarchy(HOST_CLOCK)
    stall = hier.load(0x5000)
    # At least the RDRAM page-miss latency.
    assert stall >= hier.memory.config.page_hit_ps


def test_store_miss_partially_overlapped():
    hier = build_host_hierarchy(HOST_CLOCK)
    load_stall = hier.load(0x10000)
    store_stall = hier.store(0x20000)
    assert store_stall < load_stall


def test_switch_store_miss_blocks_fully():
    hier = build_switch_hierarchy(SWITCH_CLOCK)
    load_stall = hier.load(0x10000)
    store_stall = hier.store(0x20000)
    # One outstanding request: stores stall like loads (same cold path).
    assert store_stall == pytest.approx(load_stall, rel=0.2)


def test_prefetch_never_stalls_but_warms():
    hier = build_host_hierarchy(HOST_CLOCK)
    hier.prefetch(0x9000)
    assert hier.total_stall_ps == 0
    assert hier.load(0x9000) == 0


def test_tlb_miss_adds_stall():
    hier = build_host_hierarchy(HOST_CLOCK)
    hier.load(0x0)
    base_tlb_stall = hier.tlb_stall_ps
    assert base_tlb_stall > 0  # cold TLB miss walked the page table
    hier.load(0x20)  # same page: no new TLB stall
    assert hier.tlb_stall_ps == base_tlb_stall


def test_ifetch_uses_instruction_cache():
    hier = build_host_hierarchy(HOST_CLOCK)
    hier.ifetch(0x40_0000)
    assert hier.l1i.stats.accesses == 1
    assert hier.l1d.stats.accesses >= 0  # page walk may touch L1D


def test_load_range_walks_lines():
    hier = build_host_hierarchy(HOST_CLOCK)
    hier.load_range(0, 256)
    assert hier.l1d.stats.accesses >= 8  # 256/32 lines


def test_total_stall_sums_components():
    hier = build_host_hierarchy(HOST_CLOCK)
    hier.load(0x0)
    hier.store(0x100000)
    hier.ifetch(0x200000)
    assert hier.total_stall_ps == (hier.load_stall_ps + hier.store_stall_ps
                                   + hier.ifetch_stall_ps + hier.tlb_stall_ps)


def test_reset_stats_clears_counters_keeps_contents():
    hier = build_host_hierarchy(HOST_CLOCK)
    hier.load(0x1000)
    hier.reset_stats()
    assert hier.total_stall_ps == 0
    assert hier.l1d.stats.accesses == 0
    assert hier.load(0x1000) == 0  # still cached


def test_sequential_scan_misses_at_line_granularity():
    hier = build_host_hierarchy(HOST_CLOCK)
    hier.load_range(0x100000, 4096)
    # 4 KB / 32 B L1 lines = 128 scan misses, plus one miss from the
    # page-table walk of the single TLB miss (its second ref hits).
    assert hier.l1d.stats.misses == 129
    # L2 fetches 128 B lines: 32 scan misses + 1 page-walk miss.
    assert hier.l2.stats.misses == 33


# ----------------------------------------------------------------------
# Batched fast path vs scalar reference path
# ----------------------------------------------------------------------
def _state(hier):
    """Every observable counter and the full cache/TLB/memory state."""
    state = {
        "load": hier.load_stall_ps, "store": hier.store_stall_ps,
        "ifetch": hier.ifetch_stall_ps, "tlb": hier.tlb_stall_ps,
    }
    for name in ("l1d", "l1i", "l2"):
        cache = getattr(hier, name)
        if cache is not None:
            state[name] = (vars(cache.stats), lru_sets(cache))
    for name in ("dtlb", "itlb"):
        tlb = getattr(hier, name)
        if tlb is not None:
            state[name] = (vars(tlb.stats), list(tlb._pages))
    state["mem"] = (vars(hier.memory.stats), hier.memory._open_pages)
    return state


@pytest.mark.parametrize("build", [build_host_hierarchy,
                                   build_switch_hierarchy])
@pytest.mark.parametrize("write", [False, True])
def test_batched_range_matches_scalar(build, write):
    clock = HOST_CLOCK if build is build_host_hierarchy else SWITCH_CLOCK
    fast = build(clock)
    ref = build(clock)
    ref.batched = False
    op_fast = fast.store_range if write else fast.load_range
    op_ref = ref.store_range if write else ref.load_range
    # Unaligned starts, page-boundary straddles, re-scans, empty ranges.
    spans = [(0x100010, 5000), (0x100010, 5000), (0x200000, 32),
             (0x0FF0, 64), (0x300007, 0), (0x7FFE0, 100000)]
    for addr, nbytes in spans:
        assert op_fast(addr, nbytes) == op_ref(addr, nbytes)
        assert _state(fast) == _state(ref)


@pytest.mark.parametrize("stride", [4, 32, 100, 4096, 5000])
def test_batched_stride_matches_scalar(stride):
    fast = build_host_hierarchy(HOST_CLOCK)
    ref = build_host_hierarchy(HOST_CLOCK)
    ref.batched = False
    for addr, count in [(0x100013, 700), (0x100013, 700), (0x5000, 1)]:
        assert (fast.load_stride(addr, stride, count)
                == ref.load_stride(addr, stride, count))
        assert (fast.store_stride(addr, stride, count)
                == ref.store_stride(addr, stride, count))
        assert _state(fast) == _state(ref)


def test_stride_zero_count_is_noop():
    hier = build_host_hierarchy(HOST_CLOCK)
    assert hier.load_stride(0x1000, 100, 0) == 0
    assert hier.l1d.stats.accesses == 0


# ----------------------------------------------------------------------
# Zero-byte ranges touch nothing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("build", [build_host_hierarchy,
                                   build_switch_hierarchy])
@pytest.mark.parametrize("batched", [True, False])
@pytest.mark.parametrize("write", [False, True])
@pytest.mark.parametrize("addr", [0x300000, 0x300007])
def test_zero_byte_range_touches_nothing(build, batched, write, addr):
    clock = HOST_CLOCK if build is build_host_hierarchy else SWITCH_CLOCK
    hier = build(clock, batched=batched)
    before = _state(hier)
    op = hier.store_range if write else hier.load_range
    assert op(addr, 0) == 0
    assert _state(hier) == before
    assert hier.l1d.stats.accesses == 0
    assert hier.memory.stats.accesses == 0
