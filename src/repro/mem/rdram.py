"""RDRAM main-memory model.

The paper: "Our simulator accurately models an RDRAM memory system for
both the host and switch.  The maximum bandwidth of both systems is
1.6 GB/s.  The latency of a page hit is 100ns and 122ns for a page miss."

We model per-bank open pages (a page miss closes/opens the sense amps,
hence the extra 22 ns) and account for bandwidth when bulk data streams
through memory (I/O buffers, message payloads).  Batched scans hand
their line fills over as ascending segments, whose banks are checked
once per page spanned (:meth:`Rdram._access_segments`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..sim.units import ns, transfer_ps


@dataclass(frozen=True)
class RdramConfig:
    """Timing and geometry of the RDRAM system."""

    bandwidth_bytes_per_s: float = 1.6e9
    page_hit_ps: int = ns(100)
    page_miss_ps: int = ns(122)
    num_banks: int = 16
    page_size: int = 2048

    def __post_init__(self):
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("memory bandwidth must be positive")
        if self.page_miss_ps < self.page_hit_ps:
            raise ValueError("page miss cannot be faster than page hit")
        if self.num_banks <= 0 or self.page_size <= 0:
            raise ValueError("banks and page size must be positive")


@dataclass
class RdramStats:
    accesses: int = 0
    page_hits: int = 0
    page_misses: int = 0
    bytes_transferred: int = 0

    @property
    def page_hit_rate(self) -> float:
        return self.page_hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.accesses = self.page_hits = self.page_misses = 0
        self.bytes_transferred = 0


class Rdram:
    """Open-page RDRAM: returns latency in picoseconds per access."""

    def __init__(self, config: RdramConfig = RdramConfig()):
        self.config = config
        self.stats = RdramStats()
        self._open_pages = [-1] * config.num_banks
        self._page_shift = config.page_size.bit_length() - 1

    def line_ps(self, nbytes: int) -> Tuple[int, int]:
        """``(page hit, page miss)`` latency of one ``nbytes`` access.

        Both include the data burst; the memory hierarchy precomputes
        them once for its line sizes.
        """
        burst = transfer_ps(nbytes, self.config.bandwidth_bytes_per_s)
        return self.config.page_hit_ps + burst, self.config.page_miss_ps + burst

    def access(self, addr: int, nbytes: int = 128) -> int:
        """Latency of one line fill/writeback at ``addr``."""
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        page = addr >> self._page_shift
        bank = page % self.config.num_banks
        self.stats.accesses += 1
        self.stats.bytes_transferred += nbytes
        if self._open_pages[bank] == page:
            self.stats.page_hits += 1
            latency = self.config.page_hit_ps
        else:
            self.stats.page_misses += 1
            self._open_pages[bank] = page
            latency = self.config.page_miss_ps
        # Data burst after the access latency.
        return latency + transfer_ps(nbytes, self.config.bandwidth_bytes_per_s)

    def _access_segments(self, segments, line_shift: int,
                         nbytes: int) -> int:
        """``nbytes`` accesses over ascending ``segments``; returns page misses.

        A ``(addr, count)`` segment is an access at ``addr``, then one at
        the start of each of the next ``count - 1`` lines of ``1 <<
        line_shift`` bytes.  Ascending accesses never return to a page
        they left, so only the first in a page can miss: the banks are
        checked once per page spanned.  Exactly :meth:`access` on each
        address in order, with the statistics committed once.
        """
        open_pages = self._open_pages
        num_banks = len(open_pages)
        shift = self._page_shift
        # Pages of the line starts: every page in between when a page
        # holds whole lines, one page per line when a line spans pages.
        # The first page may repeat; a repeat finds its bank open.
        step = max(1, (1 << line_shift) >> shift)
        count = misses = 0
        for addr, n in segments:
            count += n
            line = addr >> line_shift
            for page in (addr >> shift,
                         *range(((line + 1) << line_shift) >> shift,
                                (((line + n - 1) << line_shift) >> shift) + 1,
                                step)):
                bank = page % num_banks
                if open_pages[bank] != page:
                    open_pages[bank] = page
                    misses += 1
        stats = self.stats
        stats.accesses += count
        stats.page_hits += count - misses
        stats.page_misses += misses
        stats.bytes_transferred += count * nbytes
        return misses

    def stream(self, nbytes: int) -> int:
        """Bandwidth-limited time for a large sequential transfer."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        self.stats.bytes_transferred += nbytes
        return transfer_ps(nbytes, self.config.bandwidth_bytes_per_s)

    def __repr__(self) -> str:
        return (f"<Rdram {self.config.bandwidth_bytes_per_s / 1e9:g} GB/s, "
                f"page hit rate {self.stats.page_hit_rate:.3f}>")
