"""Differential property test: batched vs per-line memory hierarchy.

Random geometries (L2/L1 line ratios of 1, 2 and 4, associativities of
1, 2 and 4, with and without an L2 or TLBs, RDRAM and TLB pages down
to half an L1 line, plus the switch hierarchy) are driven by random
interleavings of every access point — scalar, range and strided, at
unaligned addresses, with runs longer than the number of sets and
crossing TLB and RDRAM pages.  After every operation the batched path
(``batched=True``) and the per-line reference (``batched=False``) must
agree on the returned stall, every statistics field, every stall
bucket, and the full cache, TLB and open-page state, LRU order
included.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import (
    TLB,
    Cache,
    CacheConfig,
    HierarchyTiming,
    MemoryHierarchy,
    Rdram,
    RdramConfig,
    TLBConfig,
    build_switch_hierarchy,
)
from repro.sim import Clock

from cache_state import lru_sets

CLOCK = Clock(2_000_000_000)

#: Addresses stay inside a few KB so operations revisit each other's
#: lines and pages; the page-table walks add a second, distant region.
ADDR_SPACE = 6144


def _cache(name, line, assoc, sets):
    return Cache(CacheConfig(name, line * assoc * sets, line, assoc))


@st.composite
def geometries(draw):
    """One hierarchy's geometry, or ``None`` for the switch hierarchy."""
    if draw(st.integers(0, 5)) == 0:
        return None
    l1_line = draw(st.sampled_from([16, 32]))
    geometry = {
        "l1d": (l1_line, draw(st.sampled_from([1, 2, 4])),
                draw(st.sampled_from([1, 2, 4, 8, 16]))),
        "l1i": (draw(st.sampled_from([16, 32, 64])), 2, 4),
        "memory": RdramConfig(
            num_banks=draw(st.sampled_from([1, 2, 4])),
            page_size=draw(st.sampled_from([16, 64, 128, 256, 512]))),
        "timing": HierarchyTiming(
            l2_hit_stall_cycles=draw(st.sampled_from([0, 7, 10])),
            store_overlap_factor=draw(st.sampled_from([0.25, 0.3, 1.0])),
            tlb_walk_refs=draw(st.integers(0, 2)),
            tlb_refill_cycles=draw(st.sampled_from([0, 20]))),
        "l2": None,
        "tlb": None,
    }
    if draw(st.booleans()):
        geometry["l2"] = (l1_line * draw(st.sampled_from([1, 2, 4])),
                          draw(st.sampled_from([1, 2, 4])),
                          draw(st.sampled_from([2, 4, 8, 32])))
    if draw(st.booleans()):
        geometry["tlb"] = (draw(st.sampled_from([1, 2, 4, 8])),
                           draw(st.sampled_from([16, 64, 128, 256, 1024])))
    return geometry


def _build(geometry, batched):
    if geometry is None:
        return build_switch_hierarchy(Clock(500_000_000), batched=batched)
    tlbs = {}
    if geometry["tlb"] is not None:
        entries, page = geometry["tlb"]
        tlbs = {name: TLB(TLBConfig(name, entries=entries, page_size=page))
                for name in ("dtlb", "itlb")}
    l2 = geometry["l2"]
    return MemoryHierarchy(
        l1d=_cache("L1D", *geometry["l1d"]),
        l1i=_cache("L1I", *geometry["l1i"]),
        l2=_cache("L2", *l2) if l2 is not None else None,
        memory=Rdram(geometry["memory"]),
        clock=CLOCK,
        timing=geometry["timing"],
        batched=batched,
        **tlbs)


addrs = st.integers(0, ADDR_SPACE)
operations = st.one_of(
    st.tuples(st.sampled_from(["load", "store", "prefetch", "ifetch"]),
              addrs),
    st.tuples(st.sampled_from(["load_range", "store_range"]), addrs,
              st.one_of(st.integers(0, 48), st.integers(0, 3000))),
    st.tuples(st.sampled_from(["load_stride", "store_stride"]), addrs,
              st.one_of(st.sampled_from([4, 16, 32, 64, 100, 128, 512]),
                        st.integers(0, 700)),
              st.integers(0, 40)),
)


def _state(hier):
    """Every observable counter and the full cache/TLB/memory state."""
    state = {"stall": (hier.load_stall_ps, hier.store_stall_ps,
                       hier.ifetch_stall_ps, hier.tlb_stall_ps),
             "memory": (vars(hier.memory.stats),
                        list(hier.memory._open_pages))}
    for name in ("l1d", "l1i", "l2"):
        cache = getattr(hier, name)
        if cache is not None:
            # Ordered pair lists: the LRU order must match too.
            state[name] = (vars(cache.stats), lru_sets(cache))
    for name in ("dtlb", "itlb"):
        tlb = getattr(hier, name)
        if tlb is not None:
            state[name] = (vars(tlb.stats), list(tlb._pages))
    return state


@given(geometry=geometries(),
       ops=st.lists(operations, min_size=1, max_size=25))
@settings(max_examples=300, deadline=None)
def test_batched_path_matches_perline_reference(geometry, ops):
    batched = _build(geometry, batched=True)
    perline = _build(geometry, batched=False)
    for op in ops:
        name, *args = op
        assert (getattr(batched, name)(*args)
                == getattr(perline, name)(*args)), op
        assert _state(batched) == _state(perline), op


# ----------------------------------------------------------------------
# Wide and fully associative caches, wrapping runs, re-scans, flushes
# ----------------------------------------------------------------------
#: ``(associativity, sets)`` with eight ways or a single set.
WIDE_SHAPES = [(8, 1), (8, 2), (8, 4), (2, 1), (4, 1), (16, 1)]


@st.composite
def wide_geometries(draw):
    """A random hierarchy whose L1D (and any L2) is 8-way or one set."""
    geometry = draw(geometries().filter(lambda g: g is not None))
    geometry["l1d"] = (geometry["l1d"][0], *draw(st.sampled_from(WIDE_SHAPES)))
    if geometry["l2"] is not None:
        geometry["l2"] = (geometry["l2"][0],
                          *draw(st.sampled_from(WIDE_SHAPES)))
    return geometry


wide_operations = st.one_of(
    operations,
    # Runs several times the largest cache: the set table wraps.
    st.tuples(st.sampled_from(["load_range", "store_range"]), addrs,
              st.integers(4096, 20000)),
    # Scan, evict part of it, scan again: stretches mix hits and misses.
    st.tuples(st.just("rescan"), addrs, st.integers(1, 3000), addrs,
              st.integers(1, 1500)),
    st.tuples(st.just("flush"), st.sampled_from(["l1d", "l1i", "l2"])),
)


def _apply(hier, op):
    name, *args = op
    if name == "flush":
        cache = getattr(hier, args[0])
        return None if cache is None else cache.flush()
    if name == "rescan":
        addr, nbytes, evict_addr, evict_nbytes = args
        return (hier.load_range(addr, nbytes),
                hier.store_range(evict_addr, evict_nbytes),
                hier.store_range(addr, nbytes))
    return getattr(hier, name)(*args)


@given(geometry=wide_geometries(),
       ops=st.lists(wide_operations, min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_wide_geometries_match_perline_reference(geometry, ops):
    batched = _build(geometry, batched=True)
    perline = _build(geometry, batched=False)
    for op in ops:
        assert _apply(batched, op) == _apply(perline, op), op
        assert _state(batched) == _state(perline), op


cache_operations = st.one_of(
    st.tuples(st.just("range"), addrs, st.integers(0, 20000),
              st.booleans()),
    st.tuples(st.just("line"), addrs, st.booleans()),
    st.tuples(st.just("flush")),
)


@given(shape=st.sampled_from(WIDE_SHAPES + [(1, 4), (2, 16)]),
       line=st.sampled_from([16, 32, 64]),
       ops=st.lists(cache_operations, min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_cache_range_matches_per_line_accesses(shape, line, ops):
    """``access_range`` against one ``access`` per line, flushes between."""
    batched = _cache("batched", line, *shape)
    scalar = _cache("scalar", line, *shape)
    for op in ops:
        if op[0] == "flush":
            assert batched.flush() == scalar.flush()
        elif op[0] == "line":
            _, addr, write = op
            assert batched.access(addr, write) == scalar.access(addr, write)
        else:
            _, addr, nbytes, write = op
            misses = writebacks = 0
            first = addr - addr % line
            end = addr + nbytes if nbytes > 0 else first
            for line_addr in range(first, end, line):
                result = scalar.access(line_addr, write)
                misses += not result.hit
                writebacks += result.writeback
            assert batched.access_range(addr, nbytes, write) == (
                misses, writebacks), op
        assert vars(batched.stats) == vars(scalar.stats), op
        assert lru_sets(batched) == lru_sets(scalar), op
