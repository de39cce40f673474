"""Set-associative cache model.

A functional (non-timed) cache: :meth:`Cache.access` updates tag state
and reports hit/miss/writeback.  Timing is assigned by
:class:`repro.mem.hierarchy.MemoryHierarchy`, which layers latencies on
top of the hit/miss outcomes.

The model is write-back / write-allocate with true LRU replacement, which
matches the level of detail the paper reports (it quotes only sizes,
associativities and line sizes).

Hot-path representation: way-major tables.  ``_tags[k][s]`` is the tag
in way ``k`` of set ``s`` (way 0 is MRU, ``-1`` empty), a list per way,
and ``_dirty[k][s]`` its dirty bit, a ``bytearray`` per way; ways fill
from way 0 down, so the last way is the LRU victim.  Until its first
miss a cache reads empty tables shared by its geometry.  A lone access
checks the MRU way, then the lower ways (:meth:`Cache._probe`).  A run
of lines under one tag walks consecutive sets, so :meth:`Cache._walk`
handles it as a slice of every way list: a streaming scan costs a few
C-level list operations per stretch of sets rather than Python work per
line.  Statistics commit once per call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Tuple


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    name: str
    size_bytes: int
    line_size: int
    assoc: int

    def __post_init__(self):
        if self.size_bytes <= 0 or self.line_size <= 0 or self.assoc <= 0:
            raise ValueError(f"cache parameters must be positive: {self}")
        if self.size_bytes % (self.line_size * self.assoc):
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"line_size*assoc = {self.line_size * self.assoc}")
        if self.line_size & (self.line_size - 1):
            raise ValueError(f"{self.name}: line size must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_size * self.assoc)


@dataclass
class CacheStats:
    """Access counters for one cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.accesses = self.hits = self.misses = 0
        self.evictions = self.writebacks = 0


@dataclass
class AccessResult:
    """Outcome of a single cache access (public-API wrapper).

    The internal hot path never allocates these; only :meth:`Cache.access`
    builds them.
    """

    hit: bool
    writeback: bool = False
    evicted_tag: int = field(default=-1)


#: Tag of an empty way.
EMPTY = -1

def _build_tables(num_sets: int, assoc: int) -> tuple:
    """Empty way tables of one geometry, in :meth:`Cache._use` order."""
    tags = [[EMPTY] * num_sets for _ in range(assoc)]
    dirty = [bytearray(num_sets) for _ in range(assoc)]
    # Moving a set's way k to the MRU slot copies ways k-1 .. 0 one slot
    # down, bottom-up: these (tags, upper tags, dirty, upper dirty)
    # tuples.  A miss moves every way, like a hit in the last.
    moves = [tuple((tags[j], tags[j - 1], dirty[j], dirty[j - 1])
                   for j in range(k, 0, -1)) for k in range(assoc)]
    # The lower ways as (tags, dirty, moves), then a miss's moves.
    return (tags, dirty, tuple(zip(tags, dirty, moves))[1:], moves[-1])


_empty_tables = functools.lru_cache(maxsize=None)(_build_tables)

#: A run of accesses: ``(first address, count)``.  The first access is
#: at that address, the ``i``-th later one at the start of the ``i``-th
#: following line of the cache that produced the segment.
Segment = Tuple[int, int]


class Cache:
    """One level of write-back, write-allocate, LRU set-associative cache."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStats()
        num_sets = config.num_sets
        if num_sets & (num_sets - 1):
            raise ValueError(f"{config.name}: number of sets must be a power of two")
        self._set_mask = num_sets - 1
        self._line_shift = config.line_size.bit_length() - 1
        self._tag_shift = self._set_mask.bit_length()
        # Until its first miss a cache reads the empty tables every
        # cache of its geometry shares: a large fabric builds a
        # hierarchy per host and most hosts never run a reference.
        self._shared = True
        self._use(_empty_tables(num_sets, config.assoc))

    def _use(self, tables: tuple) -> None:
        self._tags, self._dirty, self._lower, self._shifts = tables
        #: The MRU way, which every access checks first, and the LRU
        #: way a miss evicts.
        self._mru, self._mru_dirty = self._tags[0], self._dirty[0]
        self._victims, self._victim_dirty = self._tags[-1], self._dirty[-1]

    def _own(self) -> None:
        """Give this cache tables of its own before its first write."""
        self._shared = False
        self._use(_build_tables(self.config.num_sets, self.config.assoc))

    def _locate(self, addr: int):
        line = addr >> self._line_shift
        return line & self._set_mask, line >> self._tag_shift

    # ------------------------------------------------------------------
    # Internal batched path: statistics commit once per call
    # ------------------------------------------------------------------
    def _probe(self, addrs, write: bool, missed: List[Segment]) -> int:
        """Access each of ``addrs`` in turn; returns the misses.

        The per-line path: strided scans, whose lines are too far apart
        for :meth:`_walk`'s slices to pay, the stretches of a walk that
        hold a hit, and :meth:`access`.  A repeat of the line just
        accessed is a hit that changes nothing (the first access left
        it MRU with ``dirty |= write``), so it skips the probe.  Appends
        each miss to ``missed`` as a one-line segment.
        """
        if self._shared:
            self._own()
        shift = self._line_shift
        set_mask = self._set_mask
        tag_shift = self._tag_shift
        mru = self._mru
        mru_dirty = self._mru_dirty
        lower = self._lower
        shifts = self._shifts
        victims = self._victims
        victim_dirty = self._victim_dirty
        evictions = writebacks = 0
        misses = len(missed)
        last = None
        for addr in addrs:
            line = addr >> shift
            if line == last:
                continue
            last = line
            s = line & set_mask
            tag = line >> tag_shift
            if mru[s] == tag:
                if write:
                    mru_dirty[s] = True
                continue
            for tags, dirty, moves in lower:
                if tags[s] == tag:
                    self._promote(s, tag, dirty[s] or write, moves)
                    break
            else:
                missed.append((addr, 1))
                if victims[s] != EMPTY:
                    evictions += 1
                    writebacks += victim_dirty[s]
                for tags, upper, dirty, upper_dirty in shifts:
                    tags[s] = upper[s]
                    dirty[s] = upper_dirty[s]
                mru[s] = tag
                mru_dirty[s] = write
        misses = len(missed) - misses
        stats = self.stats
        stats.accesses += len(addrs)
        stats.hits += len(addrs) - misses
        stats.misses += misses
        stats.evictions += evictions
        stats.writebacks += writebacks
        return misses

    def _promote(self, s: int, tag: int, dirty: bool, moves) -> None:
        """Move ``tag`` to the MRU way of set ``s`` with ``dirty``."""
        for tags, upper, dirties, upper_dirty in moves:
            tags[s] = upper[s]
            dirties[s] = upper_dirty[s]
        self._mru[s] = tag
        self._mru_dirty[s] = dirty

    def _walk(self, addr: int, count: int, write: bool,
              missed: List[Segment]) -> int:
        """Access the segment ``(addr, count)``; returns the misses.

        Its lines walk consecutive sets under one tag until the set
        index wraps, so each such stretch is the slice ``[a:b]`` of
        every way list.  A stretch that misses in every set shifts
        every way down one slot by slice assignment, with ``.count`` on
        the last way giving its evictions and writebacks.  A stretch
        holding a hit (rare: a re-scan) goes line by line through
        :meth:`_probe`.  Appends the misses to ``missed`` as ascending
        segments; state and statistics end as :meth:`_probe` on each
        line would leave them.
        """
        if self._shared:
            self._own()
        shift = self._line_shift
        set_mask = self._set_mask
        tag_shift = self._tag_shift
        ways = self._tags
        mru = self._mru
        mru_dirty = self._mru_dirty
        victims = self._victims
        victim_dirty = self._victim_dirty
        shifts = self._shifts
        line = addr >> shift
        end = line + count
        swept = probed = evictions = writebacks = 0
        while line < end:
            a = line & set_mask
            n = min(end - line, set_mask + 1 - a)
            b = a + n
            tag = line >> tag_shift
            for tags in ways:
                if tag in tags[a:b]:
                    probed += self._probe(
                        (addr, *range((line + 1) << shift,
                                      (line + n) << shift, 1 << shift)),
                        write, missed)
                    break
            else:
                swept += n
                evictions += n - victims[a:b].count(EMPTY)
                writebacks += victim_dirty[a:b].count(True)
                for tags, upper, dirty, upper_dirty in shifts:
                    tags[a:b] = upper[a:b]
                    dirty[a:b] = upper_dirty[a:b]
                mru[a:b] = [tag] * n
                mru_dirty[a:b] = bytes((write,)) * n
                missed.append((addr, n))
            line += n
            addr = line << shift
        stats = self.stats
        stats.accesses += swept
        stats.misses += swept
        stats.evictions += evictions
        stats.writebacks += writebacks
        return swept + probed

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def access(self, addr: int, write: bool = False) -> AccessResult:
        """Access ``addr``; returns hit/miss and any writeback triggered."""
        set_index, _ = self._locate(addr)
        victim = self._victims[set_index]
        writebacks = self.stats.writebacks
        if not self._probe((addr,), write, []):
            return AccessResult(hit=True)
        return AccessResult(hit=False,
                            writeback=self.stats.writebacks > writebacks,
                            evicted_tag=victim)

    def contains(self, addr: int) -> bool:
        """True if the line holding ``addr`` is resident (no state change)."""
        set_index, tag = self._locate(addr)
        return any(tags[set_index] == tag for tags in self._tags)

    def access_range(self, addr: int, nbytes: int,
                     write: bool = False) -> Tuple[int, int]:
        """Access every line in ``[addr, addr+nbytes)`` in one batched call.

        Returns ``(misses, writebacks)``.  State and statistics evolve
        exactly as the equivalent sequence of :meth:`access` calls; an
        empty range touches no line.
        """
        if nbytes <= 0:
            return 0, 0
        line = self.config.line_size
        first = addr - (addr % line)
        count = (addr + nbytes - first + line - 1) // line
        writebacks = self.stats.writebacks
        misses = self._walk(first, count, write, [])
        return misses, self.stats.writebacks - writebacks

    def touch_range(self, addr: int, nbytes: int, write: bool = False) -> int:
        """Access every line in ``[addr, addr+nbytes)``; returns miss count."""
        return self.access_range(addr, nbytes, write=write)[0]

    def flush(self) -> int:
        """Invalidate everything; returns the number of dirty lines.

        Dirty lines leave through :attr:`CacheStats.writebacks`, the
        same counter eviction-time write-backs use, so total traffic
        accounting stays consistent whether a line dies by eviction or
        by flush.
        """
        if self._shared:
            return 0
        dirty_count = sum(dirty.count(True) for dirty in self._dirty)
        num_sets = self.config.num_sets
        for tags, dirty in zip(self._tags, self._dirty):
            tags[:] = [EMPTY] * num_sets
            dirty[:] = bytes(num_sets)
        self.stats.writebacks += dirty_count
        return dirty_count

    def __repr__(self) -> str:
        c = self.config
        return (f"<Cache {c.name}: {c.size_bytes} B, {c.assoc}-way, "
                f"{c.line_size} B lines, miss rate {self.stats.miss_rate:.3f}>")
