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
            # Item lists, not dicts: the LRU order must match too.
            state[name] = (vars(cache.stats),
                           [list(lines.items()) for lines in cache._sets])
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
