"""Sequential read streams with bounded outstanding requests.

The paper's four configurations differ in how disk requests overlap with
processing:

* *normal* / *active*: synchronous — the next request is issued only
  after the previous block has been fully consumed;
* *normal+pref* / *active+pref*: "two outstanding I/O requests" — one
  block can be in flight while the previous one is processed.

:class:`ReadStream` implements both with a token protocol: the producer
needs a token to issue a request, and the consumer returns the token
when it finishes a block.  ``depth=1`` gives the synchronous case,
``depth=2`` the prefetching case.

Each delivered :class:`BlockArrival` fires in two stages, matching
cut-through streaming: ``next_block()`` returns when the block's *first*
data reaches the destination (so an active-switch handler can start
immediately — "the Grep handler can start searching as soon as the
first data enters the switch"), and ``end_event`` fires when the last
byte lands (a normal host "has to wait for the entire 32 KB chunk").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Optional

from ..sim.events import Event
from ..sim.resources import Container, Store
from .node import ComputeNode
from .system import System


@dataclass
class BlockArrival:
    """One block of a sequential read stream arriving at its destination."""

    index: int
    offset: int
    nbytes: int
    #: Simulation time the first bytes reached the destination.
    start_ps: int = 0
    #: Fires when the last byte has arrived.
    end_event: Optional[Event] = None
    #: Simulation time the last byte arrives — known up front on the
    #: burst fast path (``None`` on the per-block reference path, where
    #: only ``end_event`` carries the completion).
    end_ps: Optional[int] = None
    #: Functional payload attached by the workload (records, text...).
    payload: Any = None


class ReadStream:
    """A host-initiated sequential read stream of fixed-size requests."""

    def __init__(
        self,
        system: System,
        host: ComputeNode,
        total_bytes: int,
        request_bytes: int,
        depth: int = 1,
        to_switch: bool = False,
        payloads: Optional[list] = None,
        request_cost: str = "os",
        storage_index: int = 0,
        base_offset: int = 0,
        warm_start: bool = False,
    ):
        if total_bytes <= 0 or request_bytes <= 0:
            raise ValueError("stream and request sizes must be positive")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if request_cost not in ("os", "active", "none"):
            raise ValueError(f"unknown request cost model {request_cost!r}")
        self.system = system
        self.env = system.env
        self.host = host
        self.total_bytes = total_bytes
        self.request_bytes = request_bytes
        self.request_cost = request_cost
        self.to_switch = to_switch
        self.payloads = payloads
        self.base_offset = base_offset
        self.storage = system.storage_nodes[storage_index]
        if warm_start:
            # The OS's sequential read-ahead (or a file contiguous with
            # prior activity) has already positioned the heads.
            self.storage.disks.position_heads(base_offset)
        self.num_blocks = -(-total_bytes // request_bytes)
        # Pure functions of the static configuration, identical for
        # every request — hoisted out of the per-request loop.
        self._request_path_ps = system.request_path_ps()
        self._first_tail_ps = system.first_data_tail_ps(to_switch)
        self._last_tail_ps = system.last_data_tail_ps(to_switch)
        self._label = label = (f"read-stream:{host.name}->"
                               f"{'switch' if to_switch else host.name}")
        self._tokens = Container(self.env, capacity=depth, init=depth,
                                 name=f"{label}.tokens")
        self._arrivals: Store = Store(self.env, name=f"{label}.arrivals")
        self._issued = 0
        self._delivered = 0
        self.env.add_context_provider(self._failure_context)
        self._producer = self.env.process(self._produce(), name=label)

    def _failure_context(self) -> dict:
        """Live progress snapshot for deadlock/watchdog reports: shows
        *where* a wedged benchmark run stopped making progress."""
        return {self._label: (
            f"{self._issued}/{self.num_blocks} blocks issued, "
            f"{self._delivered} delivered, "
            f"{self._tokens.level}/{self._tokens.capacity} tokens free")}

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def _block_size(self, index: int) -> int:
        if index == self.num_blocks - 1:
            return self.total_bytes - index * self.request_bytes
        return self.request_bytes

    def _produce(self):
        """Issue every block under the token window and deliver it.

        The two simulation paths differ only in how a block's storage
        read is issued and how its ``end_event`` fires.  The per-block
        reference path walks the request latency and the storage
        node's event cascade, and runs one finish process per block.
        The burst path (see repro.sim.burst) prices the read with the
        storage node's ``serve_read_burst`` — zero kernel events for
        the ~28 the cascade costs — and hands the completion to one
        per-stream finisher (:meth:`_finish_burst`).  Timestamps,
        counters and utilization are bit-identical (proven by
        tests/sim/test_golden_burst.py).
        """
        # Decided at first execution (inside ``env.run``, after traces
        # and fault plans are attached), not at construction.
        burst = self.system.burst_ok()
        if burst:
            self._finish_backlog = deque()
            self._finish_wake = None
            self.env.process(self._finish_burst(),
                             name=f"{self._label}.finish")
        for index in range(self.num_blocks):
            yield self._tokens.get(1)
            self._issued += 1
            nbytes = self._block_size(index)
            trace = self.env.trace
            if trace is not None:
                trace.instant(self._label, "stream.issue", self.env.now,
                              index=index, bytes=nbytes)
            if self.request_cost == "os":
                yield from self.host.os_request(nbytes)
            elif self.request_cost == "active":
                yield from self.host.active_request()
            offset = self.base_offset + index * self.request_bytes
            end_event = self.env.event()
            if burst:
                started_ps, done_ps = self.storage.serve_read_burst(
                    self.env.now + self._request_path_ps, offset, nbytes)
                if not self.to_switch:
                    self.host.hca.account_bulk_in(nbytes)
                end_ps = done_ps + self._last_tail_ps
                self._finish_backlog.append((done_ps, end_ps, end_event))
                if self._finish_wake is not None:
                    wake, self._finish_wake = self._finish_wake, None
                    wake.succeed()
            else:
                yield self.env.timeout(self._request_path_ps)
                started = self.env.event()
                done = self.env.process(
                    self.storage.serve_read(offset, nbytes, started=started),
                    name=f"serve-read-{index}")
                yield started
                started_ps, end_ps = self.env.now, None
                self.env.process(self._finish(done, end_event, nbytes),
                                 name=f"block-finish-{index}")
            yield self.env.timeout(
                started_ps + self._first_tail_ps - self.env.now)
            arrival = BlockArrival(
                index=index,
                offset=offset,
                nbytes=nbytes,
                start_ps=self.env.now,
                end_event=end_event,
                end_ps=end_ps,
                payload=(self.payloads[index]
                         if self.payloads is not None else None),
            )
            if trace is not None:
                trace.instant(self._label, "stream.arrival", self.env.now,
                              index=index, bytes=nbytes)
            yield self._arrivals.put(arrival)
            self._delivered += 1

    def _finish(self, done, end_event, nbytes: int):
        """Per-block path: fire ``end_event`` once the storage read
        ``done`` and the last byte's tail latency have passed."""
        yield done
        yield self.env.timeout(self._last_tail_ps)
        if not self.to_switch:
            self.host.hca.account_bulk_in(nbytes)
        trace = self.env.trace
        if trace is not None:
            trace.instant(self._label, "stream.complete", self.env.now,
                          bytes=nbytes)
        end_event.succeed()

    def _finish_burst(self):
        """Burst path: succeed each block's ``end_event`` at its
        completion time.

        Symmetric streams finish same-sized blocks at the *same*
        picosecond, and the per-block path wakes those consumers in the
        storage pipeline's event order, which a timeout scheduled at
        issue time would not reproduce (issue order differs from
        completion order once the token return is gated by contended
        downstream links).  So this finisher mirrors :meth:`_finish`'s
        timing instead: sleep to the block's disk-done instant, then
        the data tail, then fire — keeping every completion timeout
        scheduled at the same picosecond (and hence the same
        event-queue position relative to other streams) as the
        reference path.
        """
        for _ in range(self.num_blocks):
            if not self._finish_backlog:
                self._finish_wake = self.env.event()
                yield self._finish_wake
            done_ps, end_ps, end_event = self._finish_backlog.popleft()
            if done_ps > self.env.now:
                yield self.env.timeout(done_ps - self.env.now)
            if end_ps > self.env.now:
                yield self.env.timeout(end_ps - self.env.now)
            end_event.succeed()

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def next_block(self):
        """Wait for the next block's first data; returns BlockArrival."""
        arrival = yield self._arrivals.get()
        return arrival

    def done_with(self, arrival: BlockArrival):
        """Return the request token, letting the producer issue another."""
        yield self._tokens.put(1)

    def consume_fully(self, arrival: BlockArrival):
        """Wait until the whole block has arrived (normal-host pattern)."""
        if not arrival.end_event.processed:
            yield arrival.end_event
