"""Set-associative cache model.

A functional (non-timed) cache: :meth:`Cache.access` updates tag state
and reports hit/miss/writeback.  Timing is assigned by
:class:`repro.mem.hierarchy.MemoryHierarchy`, which layers latencies on
top of the hit/miss outcomes.

The model is write-back / write-allocate with true LRU replacement, which
matches the level of detail the paper reports (it quotes only sizes,
associativities and line sizes).

Hot-path representation: each set is one insertion-ordered ``dict``
mapping ``tag -> dirty bit``, LRU first and MRU last, so every access is
O(1) — a membership probe, a ``pop`` + re-insert to touch, and
``next(iter(set))`` to find the victim.  (The original parallel
``tags``/``dirty`` lists paid a Python-level ``list.index`` scan per
access, which dominated the benchmark-grid wall clock.)  The internal
path (:meth:`_access`, :meth:`_access_run`, :meth:`_access_ascending`)
returns plain ints and commits statistics in batches; the
:class:`AccessResult` dataclass survives as a thin wrapper on the
public :meth:`access`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple


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

    The internal hot path never allocates these; they are built only by
    :meth:`Cache.access` from its int-coded result.
    """

    hit: bool
    writeback: bool = False
    evicted_tag: int = field(default=-1)


#: Bit flags of the int-coded internal access result.
HIT = 1
WRITEBACK = 2


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
        # Per set: tag -> dirty bit, insertion-ordered (LRU first).
        self._sets: List[dict] = [{} for _ in range(num_sets)]

    def _locate(self, addr: int):
        line = addr >> self._line_shift
        return line & self._set_mask, line >> self._tag_shift

    # ------------------------------------------------------------------
    # Internal int-coded path (no allocation)
    # ------------------------------------------------------------------
    def _access(self, addr: int, write: bool = False) -> int:
        """Access ``addr``; returns ``HIT`` and/or ``WRITEBACK`` flags."""
        line = addr >> self._line_shift
        lines = self._sets[line & self._set_mask]
        tag = line >> self._tag_shift
        stats = self.stats
        stats.accesses += 1
        if tag in lines:
            stats.hits += 1
            # pop + re-insert moves the tag to the MRU position.
            lines[tag] = lines.pop(tag) or write
            return HIT
        stats.misses += 1
        code = 0
        if len(lines) >= self.config.assoc:
            stats.evictions += 1
            if lines.pop(next(iter(lines))):
                stats.writebacks += 1
                code = WRITEBACK
        lines[tag] = write
        return code

    def _access_run(self, line_addr: int, count: int,
                    write: bool = False) -> Tuple[List[int], int]:
        """``count`` sequential line accesses from line-aligned ``line_addr``.

        The batched fast path: sequential lines walk consecutive sets
        under one tag until the set index wraps, so each such stretch is
        a slice of the set table probed with a fixed tag, and statistics
        commit once at the end.  Returns ``(missed line addresses,
        writeback count)`` — exactly what a lower level needs to fill
        and clean up; the addresses ascend.
        """
        sets = self._sets
        set_mask = self._set_mask
        tag_shift = self._tag_shift
        line_shift = self._line_shift
        assoc = self.config.assoc
        missed: List[int] = []
        evictions = 0
        writebacks = 0
        line = line_addr >> line_shift
        end = line + count
        while line < end:
            # The slice stops at the last set; the next stretch wraps.
            first = line & set_mask
            tag = line >> tag_shift
            for line, lines in enumerate(sets[first:first + end - line],
                                         line):
                if tag in lines:
                    lines[tag] = lines.pop(tag) or write
                else:
                    missed.append(line << line_shift)
                    if len(lines) >= assoc:
                        evictions += 1
                        if lines.pop(next(iter(lines))):
                            writebacks += 1
                    lines[tag] = write
            line += 1
        stats = self.stats
        stats.accesses += count
        stats.hits += count - len(missed)
        stats.misses += len(missed)
        stats.evictions += evictions
        stats.writebacks += writebacks
        return missed, writebacks

    def _access_ascending(self, addrs: Sequence[int],
                          write: bool = False) -> Tuple[List[int], int]:
        """Accesses at the ascending ``addrs`` (a strided scan, or the
        misses an upper level passes down).

        Equivalent to :meth:`_access` on each address in order, with the
        statistics committed once.  Only the first address in each of
        this cache's lines probes a set: the probe leaves that line MRU
        with ``dirty |= write``, so every later address in the same line
        is a hit that changes no state.  Returns ``(missed addresses,
        writeback count)`` like :meth:`_access_run`; a missed address is
        the first of ``addrs`` in its line, as the per-access sequence
        would pass it down.
        """
        sets = self._sets
        set_mask = self._set_mask
        tag_shift = self._tag_shift
        line_shift = self._line_shift
        assoc = self.config.assoc
        missed: List[int] = []
        evictions = 0
        writebacks = 0
        last = None
        for addr in addrs:
            line = addr >> line_shift
            if line == last:
                continue
            last = line
            lines = sets[line & set_mask]
            tag = line >> tag_shift
            if tag in lines:
                lines[tag] = lines.pop(tag) or write
            else:
                missed.append(addr)
                if len(lines) >= assoc:
                    evictions += 1
                    if lines.pop(next(iter(lines))):
                        writebacks += 1
                lines[tag] = write
        count = len(addrs)
        stats = self.stats
        stats.accesses += count
        stats.hits += count - len(missed)
        stats.misses += len(missed)
        stats.evictions += evictions
        stats.writebacks += writebacks
        return missed, writebacks

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def access(self, addr: int, write: bool = False) -> AccessResult:
        """Access ``addr``; returns hit/miss and any writeback triggered."""
        set_index, tag = self._locate(addr)
        lines = self._sets[set_index]
        evicted_tag = -1
        if tag not in lines and len(lines) >= self.config.assoc:
            evicted_tag = next(iter(lines))
        code = self._access(addr, write=write)
        if code & HIT:
            return AccessResult(hit=True)
        return AccessResult(hit=False, writeback=bool(code & WRITEBACK),
                            evicted_tag=evicted_tag)

    def contains(self, addr: int) -> bool:
        """True if the line holding ``addr`` is resident (no state change)."""
        set_index, tag = self._locate(addr)
        return tag in self._sets[set_index]

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
        missed, writebacks = self._access_run(first, count, write=write)
        return len(missed), writebacks

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
        dirty_count = sum(sum(1 for d in lines.values() if d)
                          for lines in self._sets)
        for lines in self._sets:
            lines.clear()
        self.stats.writebacks += dirty_count
        return dirty_count

    def __repr__(self) -> str:
        c = self.config
        return (f"<Cache {c.name}: {c.size_bytes} B, {c.assoc}-way, "
                f"{c.line_size} B lines, miss rate {self.stats.miss_rate:.3f}>")
