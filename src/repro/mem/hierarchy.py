"""Cache/TLB/memory hierarchy that turns address streams into stall time.

The hierarchy is a *functional* model: each ``load`` / ``store`` /
``ifetch`` walks the cache levels, updates their state, and returns the
stall time in picoseconds.  The CPU models accumulate those stalls into
the "cache stall" component of the paper's execution-time breakdowns.

Stall semantics follow Section 4 of the paper:

* a load miss stalls the processor until the first double-word returns;
* store (and prefetch) misses do not stall unless too many references
  are outstanding — we approximate this with a configurable overlap
  factor applied to store-miss latency;
* TLB misses cost a page-table walk whose references go *through the
  cache hierarchy* (the "cache effects of TLB misses").

The embedded switch processor uses the same machinery with no L2 and no
overlap (its caches support only one outstanding request).

Range and strided accesses (``load_range`` / ``load_stride`` and their
store twins) have a batched path: the scan is chunked per TLB page (one
real TLB access per chunk — the re-hits only bump the access counter),
L1 walks each chunk as way-major slices (:meth:`Cache._walk`) or, for
a stride, probes each line touched (:meth:`Cache._probe`), and the
missed lines go down as ``(first address, count)`` segments: L2 walks
the L2 lines they cover the same way and RDRAM checks its banks once
per page spanned (:meth:`MemoryHierarchy._consult_lower`).  Statistics
commit once per call, so every counter and stall sum is bit-identical
to the per-line path, which survives as the reference behind
``batched=False`` (or ``REPRO_MEM_PERLINE``) for the golden test.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from ..sim.units import Clock
from .cache import EMPTY, Cache, CacheConfig
from .rdram import Rdram, RdramConfig
from .tlb import TLB, TLBConfig


@dataclass(frozen=True)
class HierarchyTiming:
    """Latency knobs for a cache hierarchy, in CPU cycles."""

    #: Extra stall for an L1 miss that hits in L2.
    l2_hit_stall_cycles: int = 10
    #: Fraction of a store-miss latency actually charged as stall
    #: (models the 4-outstanding-miss overlap window; 1.0 = blocking).
    store_overlap_factor: float = 0.25
    #: Memory references performed by a page-table walk on a TLB miss.
    tlb_walk_refs: int = 2
    #: Fixed TLB-miss handler overhead in cycles (trap + refill).
    tlb_refill_cycles: int = 20


class MemoryHierarchy:
    """L1 (+ optional L2) + TLB in front of an RDRAM memory."""

    #: Synthetic address region used for page-table walk references.
    _PAGE_TABLE_BASE = 0x7000_0000

    def __init__(
        self,
        l1d: Cache,
        l1i: Cache,
        memory: Rdram,
        clock: Clock,
        l2: Optional[Cache] = None,
        dtlb: Optional[TLB] = None,
        itlb: Optional[TLB] = None,
        timing: HierarchyTiming = HierarchyTiming(),
        batched: Optional[bool] = None,
    ):
        if l2 is not None and l2.config.line_size < l1d.config.line_size:
            raise ValueError("L2 lines must be at least as long as L1D lines")
        self.l1d = l1d
        self.l1i = l1i
        self.l2 = l2
        self.dtlb = dtlb
        self.itlb = itlb
        self.memory = memory
        self.clock = clock
        self.timing = timing
        #: Use the batched range fast path.  ``REPRO_MEM_PERLINE=1``
        #: forces the scalar reference path for differential testing.
        if batched is None:
            batched = not os.environ.get("REPRO_MEM_PERLINE")
        self.batched = batched
        # timing, clock and the memory geometry are immutable; precompute
        # the three fill latencies an L1 miss can cost: an L2 hit, and a
        # memory page hit or page miss for each L1's line size.
        self._l2_hit_ps = clock.cycles(timing.l2_hit_stall_cycles)
        self._memory_ps = {l1: memory.line_ps(l1.config.line_size)
                           for l1 in (l1d, l1i)}
        overlap = timing.store_overlap_factor
        self._scan_ps = {
            False: (self._l2_hit_ps, *self._memory_ps[l1d]),
            True: (round(self._l2_hit_ps * overlap),
                   *(round(ps * overlap) for ps in self._memory_ps[l1d])),
        }
        #: Accumulated stall picoseconds, by cause.
        self.load_stall_ps = 0
        self.store_stall_ps = 0
        self.ifetch_stall_ps = 0
        self.tlb_stall_ps = 0

    # ------------------------------------------------------------------
    # Internal walk
    # ------------------------------------------------------------------
    def _fill(self, l1: Cache, addr: int, write: bool) -> int:
        """Stall ps for one reference through ``l1`` (data or instruction).

        A :meth:`Cache._probe` of one line on L1 and L2 and
        :meth:`Rdram.access`, inlined into one call: every scalar
        ``load``/``store``/``ifetch`` and page-table-walk reference
        runs it.
        """
        line = addr >> l1._line_shift
        s = line & l1._set_mask
        tag = line >> l1._tag_shift
        stats = l1.stats
        stats.accesses += 1
        mru = l1._mru
        if mru[s] == tag:
            stats.hits += 1
            if write:
                l1._mru_dirty[s] = True
            return 0
        for tags, dirty, moves in l1._lower:
            if tags[s] == tag:
                stats.hits += 1
                l1._promote(s, tag, dirty[s] or write, moves)
                return 0
        stats.misses += 1
        if l1._shared:
            l1._own()
            mru = l1._mru
        if l1._victims[s] != EMPTY:
            stats.evictions += 1
            if l1._victim_dirty[s]:
                stats.writebacks += 1
        for tags, upper, dirty, upper_dirty in l1._shifts:
            tags[s] = upper[s]
            dirty[s] = upper_dirty[s]
        mru[s] = tag
        l1._mru_dirty[s] = write
        memory = self.memory
        l2 = self.l2
        if l2 is not None:
            line = addr >> l2._line_shift
            s = line & l2._set_mask
            tag = line >> l2._tag_shift
            stats = l2.stats
            stats.accesses += 1
            mru = l2._mru
            if mru[s] == tag:
                stats.hits += 1
                if write:
                    l2._mru_dirty[s] = True
                return self._l2_hit_ps
            for tags, dirty, moves in l2._lower:
                if tags[s] == tag:
                    stats.hits += 1
                    l2._promote(s, tag, dirty[s] or write, moves)
                    return self._l2_hit_ps
            stats.misses += 1
            if l2._shared:
                l2._own()
                mru = l2._mru
            if l2._victims[s] != EMPTY:
                stats.evictions += 1
                if l2._victim_dirty[s]:
                    stats.writebacks += 1
                    # Write-back to memory happens off the critical path.
                    memory.stream(l2.config.line_size)
            for tags, upper, dirty, upper_dirty in l2._shifts:
                tags[s] = upper[s]
                dirty[s] = upper_dirty[s]
            mru[s] = tag
            l2._mru_dirty[s] = write
        # Miss to memory: stall until the first double-word arrives.
        page = addr >> memory._page_shift
        open_pages = memory._open_pages
        bank = page % len(open_pages)
        stats = memory.stats
        stats.accesses += 1
        stats.bytes_transferred += l1.config.line_size
        if open_pages[bank] == page:
            stats.page_hits += 1
            return self._memory_ps[l1][0]
        stats.page_misses += 1
        open_pages[bank] = page
        return self._memory_ps[l1][1]

    def _translate(self, tlb: Optional[TLB], addr: int) -> int:
        """Stall ps for address translation (0 on TLB hit)."""
        if tlb is None or tlb.access(addr):
            return 0
        stall = self.clock.cycles(self.timing.tlb_refill_cycles)
        page = addr >> (tlb.config.page_size.bit_length() - 1)
        for ref in range(self.timing.tlb_walk_refs):
            walk_addr = self._PAGE_TABLE_BASE + (page + ref) * 8
            stall += self._fill(self.l1d, walk_addr, write=False)
        return stall

    # ------------------------------------------------------------------
    # Public access points
    # ------------------------------------------------------------------
    def load(self, addr: int) -> int:
        """Data load; returns stall picoseconds."""
        tlb_stall = self._translate(self.dtlb, addr)
        self.tlb_stall_ps += tlb_stall
        stall = self._fill(self.l1d, addr, write=False)
        self.load_stall_ps += stall
        return tlb_stall + stall

    def store(self, addr: int) -> int:
        """Data store; partially overlapped per the paper's miss window."""
        tlb_stall = self._translate(self.dtlb, addr)
        self.tlb_stall_ps += tlb_stall
        stall = round(self._fill(self.l1d, addr, write=True)
                      * self.timing.store_overlap_factor)
        self.store_stall_ps += stall
        return tlb_stall + stall

    def prefetch(self, addr: int) -> None:
        """Software prefetch: warms the caches, never stalls."""
        if self.dtlb is not None:
            self.dtlb.access(addr)
        self._fill(self.l1d, addr, write=False)

    def ifetch(self, addr: int) -> int:
        """Instruction fetch; returns stall picoseconds."""
        tlb_stall = self._translate(self.itlb, addr)
        self.tlb_stall_ps += tlb_stall
        stall = self._fill(self.l1i, addr, write=False)
        self.ifetch_stall_ps += stall
        return tlb_stall + stall

    def load_range(self, addr: int, nbytes: int) -> int:
        """Sequential loads touching every line of a byte range."""
        return self._scan(*self._lines(addr, nbytes), write=False)

    def store_range(self, addr: int, nbytes: int) -> int:
        """Sequential stores touching every line of a byte range."""
        return self._scan(*self._lines(addr, nbytes), write=True)

    def load_stride(self, addr: int, stride: int, count: int) -> int:
        """``count`` loads at ``addr, addr+stride, ...`` (record scans)."""
        return self._scan(addr, stride, count, write=False)

    def store_stride(self, addr: int, stride: int, count: int) -> int:
        """``count`` stores at ``addr, addr+stride, ...``."""
        return self._scan(addr, stride, count, write=True)

    def _lines(self, addr: int, nbytes: int):
        """``(first line address, line size, line count)`` of a byte range.

        An empty range has no lines, wherever it starts.
        """
        line = self.l1d.config.line_size
        first = addr - addr % line
        count = (addr + nbytes - first + line - 1) // line if nbytes > 0 else 0
        return first, line, count

    def _scan(self, addr: int, stride: int, count: int, write: bool) -> int:
        """Stall ps for ``count`` accesses at ``addr, addr+stride, ...``.

        The batched path, bit-identical to the scalar loop it falls back
        to when ``batched`` is off or the stride is not positive.  Each
        TLB page's accesses form a chunk: one real TLB access covers it,
        as the chunk's other accesses are hits that only move an
        already-MRU entry, and a miss's page-table walk goes through the
        caches first, as the scalar path orders it.  A byte range (line
        stride, line-aligned) walks L1 with :meth:`Cache._walk`, any
        other stride probes it per line with :meth:`Cache._probe`; the
        missed segments go down through :meth:`_consult_lower`.
        """
        if count <= 0:
            return 0
        if not self.batched or stride <= 0:
            access = self.store if write else self.load
            stall = 0
            for i in range(count):
                stall += access(addr + i * stride)
            return stall
        l1d = self.l1d
        run = stride == l1d.config.line_size and addr % stride == 0
        tlb = self.dtlb
        tlb_stall = 0
        tlb_hits = 0
        fill_stall = 0
        while count:
            if tlb is not None:
                page_size = tlb.config.page_size
                page_end = (addr // page_size + 1) * page_size
                chunk = min(count, -(-(page_end - addr) // stride))
                tlb_stall += self._translate(tlb, addr)
                tlb_hits += chunk - 1
            else:
                chunk = count
            missed = []
            if run:
                misses = l1d._walk(addr, chunk, write, missed)
            else:
                misses = l1d._probe(range(addr, addr + chunk * stride, stride),
                                    write, missed)
            if misses:
                fill_stall += self._consult_lower(missed, misses, write)
            addr += chunk * stride
            count -= chunk
        if tlb is not None:
            tlb.stats.accesses += tlb_hits
        self.tlb_stall_ps += tlb_stall
        if write:
            self.store_stall_ps += fill_stall
        else:
            self.load_stall_ps += fill_stall
        return tlb_stall + fill_stall

    def _consult_lower(self, missed, misses: int, write: bool) -> int:
        """L2/memory stall for one chunk's ``misses`` missed L1 lines.

        ``missed`` holds them as ascending segments, so L2 sees each L2
        line they cover once: the first missed L1 line in it probes and
        leaves it MRU with ``dirty |= write``, and every later one is a
        hit that changes nothing, a counter bump.  The covered L2 lines
        merge into segments for :meth:`Cache._walk`, whose misses go to
        :meth:`Rdram._access_segments`.  Each missed L1 line costs an L2
        hit, a page hit or a page miss, so the stall is a weighted sum;
        a store rounds each latency once, as the per-line path does.
        """
        l1_shift = self.l1d._line_shift
        l2 = self.l2
        memory = self.memory
        if l2 is None:
            fills = missed
            fill_shift = l1_shift
            num_fills = misses
        else:
            fill_shift = l2._line_shift
            up = fill_shift - l1_shift
            # Offset bits within an L2 line that select another RDRAM
            # page: a fill with any set must start its own segment.
            unaligned = (l2.config.line_size - 1) & -memory.config.page_size
            # Pending L2 segment, and its last line (-2: none yet).
            start = count = 0
            probed = -2
            covered = []
            for addr, n in missed:
                first = addr >> fill_shift
                last = ((addr >> l1_shift) + n - 1) >> up if n > 1 else first
                if first == probed:
                    first += 1
                elif first != probed + 1 or addr & unaligned:
                    if count:
                        covered.append((start, count))
                    start = addr
                    count = 0
                count += last - first + 1
                probed = last
            covered.append((start, count))
            fills = []
            writebacks = l2.stats.writebacks
            num_fills = probes = 0
            for addr, n in covered:
                num_fills += l2._walk(addr, n, write, fills)
                probes += n
            l2.stats.accesses += misses - probes
            l2.stats.hits += misses - probes
            writebacks = l2.stats.writebacks - writebacks
            if writebacks:
                # Off the critical path, bandwidth accounted.
                memory.stream(writebacks * l2.config.line_size)
        page_misses = memory._access_segments(
            fills, fill_shift, self.l1d.config.line_size)
        l2_hit_ps, page_hit_ps, page_miss_ps = self._scan_ps[write]
        return ((misses - num_fills) * l2_hit_ps
                + (num_fills - page_misses) * page_hit_ps
                + page_misses * page_miss_ps)

    @property
    def total_stall_ps(self) -> int:
        """All stall time charged so far."""
        return (self.load_stall_ps + self.store_stall_ps
                + self.ifetch_stall_ps + self.tlb_stall_ps)

    def reset_stats(self) -> None:
        """Zero all counters (cache contents are preserved)."""
        self.load_stall_ps = self.store_stall_ps = 0
        self.ifetch_stall_ps = self.tlb_stall_ps = 0
        for cache in (self.l1d, self.l1i, self.l2):
            if cache is not None:
                cache.stats.reset()
        for tlb in (self.dtlb, self.itlb):
            if tlb is not None:
                tlb.stats.reset()
        self.memory.stats.reset()


# ----------------------------------------------------------------------
# Builders for the paper's two hierarchies
# ----------------------------------------------------------------------
def build_host_hierarchy(
    clock: Clock,
    scaled_for_database: bool = False,
    memory: Optional[Rdram] = None,
    timing: HierarchyTiming = HierarchyTiming(),
    extra_scale_divisor: int = 1,
    batched: Optional[bool] = None,
) -> MemoryHierarchy:
    """The paper's host hierarchy.

    32 KB 2-way L1 I/D + 512 KB 2-way L2 with 128 B lines; for the
    database applications (HashJoin, Select) the caches are scaled down
    by 8x: 8 KB L1 data and 64 KB L2 ("keeping the same line sizes and
    associativities").

    ``extra_scale_divisor`` applies the same methodology one step
    further: when an experiment's *input* is scaled down by N for
    simulation speed, dividing the cache sizes by N preserves the
    capacity-miss behaviour (exactly how the paper ran 16 MB/128 MB
    tables to model 128 MB/1 GB ones).
    """
    divisor = extra_scale_divisor
    if divisor < 1 or divisor & (divisor - 1):
        raise ValueError(f"cache scale divisor must be a power of two, got {divisor}")
    if scaled_for_database:
        l1d = Cache(CacheConfig("host-L1D", 8 * 1024 // divisor, 32, 2))
        l2 = Cache(CacheConfig("host-L2", 64 * 1024 // divisor, 128, 2))
    else:
        l1d = Cache(CacheConfig("host-L1D", 32 * 1024 // divisor, 32, 2))
        l2 = Cache(CacheConfig("host-L2", 512 * 1024 // divisor, 128, 2))
    l1i = Cache(CacheConfig("host-L1I", 32 * 1024, 32, 2))
    return MemoryHierarchy(
        l1d=l1d,
        l1i=l1i,
        l2=l2,
        dtlb=TLB(TLBConfig("host-DTLB", entries=64)),
        itlb=TLB(TLBConfig("host-ITLB", entries=64)),
        memory=memory if memory is not None else Rdram(RdramConfig()),
        clock=clock,
        timing=timing,
        batched=batched,
    )


def build_switch_hierarchy(
    clock: Clock,
    memory: Optional[Rdram] = None,
    batched: Optional[bool] = None,
) -> MemoryHierarchy:
    """The embedded switch CPU hierarchy.

    4 KB 2-way I-cache with 64 B lines, 1 KB 2-way D-cache with 32 B
    lines, no L2, one outstanding request (so stores block fully).
    """
    timing = HierarchyTiming(store_overlap_factor=1.0, l2_hit_stall_cycles=0)
    return MemoryHierarchy(
        l1d=Cache(CacheConfig("switch-L1D", 1024, 32, 2)),
        l1i=Cache(CacheConfig("switch-L1I", 4096, 64, 2)),
        l2=None,
        dtlb=None,
        itlb=None,
        memory=memory if memory is not None else Rdram(RdramConfig()),
        clock=clock,
        timing=timing,
        batched=batched,
    )
