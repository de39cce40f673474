"""Disk model: seek time, rotation speed, peak bandwidth.

"The disk model includes three timing related parameters: seek time,
rotation speed and peak bandwidth.  For all the experiments in this
paper, we use two disks with a total peak bandwidth of 100 MB/s and we
assume a sequential access pattern because most of our applications deal
with large files."

:class:`Disk` is one spindle; :class:`DiskArray` stripes a logical
stream across several disks, giving the paper's 2 x 50 MB/s = 100 MB/s
aggregate.  Sequential requests pay positioning (seek + half-rotation)
only when the head moves away from the previous request's end.

On the analytic burst path an equal stripe over spindles in lockstep
is computed once, on the lead spindle; the followers' identical updates
wait in a ledger that ``Disk.stats``, ``Disk.busy`` and every ``Disk``
method apply first.  The event-driven path runs every spindle.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from ..metrics.sampling import BusyTracker
from ..sim.core import Environment
from ..sim.resources import Resource
from ..sim.units import SEC, ms, transfer_ps


class DiskError(Exception):
    """A request kept failing after the firmware's bounded retries."""


@dataclass(frozen=True)
class DiskConfig:
    """One spindle's timing parameters."""

    seek_ps: int = ms(5.0)
    rpm: int = 10_000
    bandwidth_bytes_per_s: float = 50e6

    def __post_init__(self):
        if self.seek_ps < 0:
            raise ValueError("seek time cannot be negative")
        if self.rpm <= 0:
            raise ValueError("rotation speed must be positive")
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("disk bandwidth must be positive")

    @property
    def half_rotation_ps(self) -> int:
        """Average rotational latency: half a revolution."""
        return round(SEC * 60 / self.rpm / 2)


@dataclass
class DiskStats:
    requests: int = 0
    sequential_requests: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    positioning_ps: int = 0
    transfer_ps_total: int = 0
    #: Injected transient media errors observed by this spindle.
    transient_errors: int = 0
    #: Firmware retry attempts actually issued (≤ transient_errors; an
    #: exhausted request errors without a matching retry).
    retries: int = 0


class Disk:
    """One disk spindle with a single request queue (the arm)."""

    def __init__(self, env: Environment, name: str,
                 config: DiskConfig = DiskConfig()):
        self.env = env
        self.name = name
        self.config = config
        self._stats = DiskStats()
        self.arm = Resource(env, capacity=1, name=f"{name}.arm")
        self._busy = BusyTracker(env)
        self._head_position = -1  # byte offset after the last transfer
        #: When the arm finishes its last analytically-scheduled request
        #: (the burst path's stand-in for the ``arm`` Resource queue).
        self._arm_free_ps = 0
        self._injector = None
        self._array = None  # the DiskArray whose ledger may owe us updates
        env.add_context_provider(self._failure_context)

    def _settle(self) -> None:
        """Apply the owning array's pending lockstep ledger, if any."""
        if self._array is not None and self._array._ledger is not None:
            self._array._sync()

    @property
    def stats(self) -> DiskStats:
        self._settle()
        return self._stats

    @property
    def busy(self) -> BusyTracker:
        self._settle()
        return self._busy

    def _failure_context(self) -> dict:
        return {f"disk:{self.name}": (
            f"{self.stats.requests} reqs, "
            f"{self.stats.transient_errors} transient errors, "
            f"{'busy' if self.busy.busy else 'idle'}, "
            f"{len(self.arm.queue)} queued on arm")}

    def attach_faults(self, injector) -> None:
        """Subject this spindle to ``injector``'s fault plan."""
        self._settle()
        self._injector = injector

    def position_head(self, offset: int) -> None:
        """Pre-position the head (models OS read-ahead having already
        seeked, or a file contiguous with prior activity)."""
        self._settle()
        self._head_position = offset

    def _access(self, offset: int, nbytes: int, write: bool, started):
        """Shared read/write mechanics with bounded transient-error retries.

        Without an attached fault plan the control flow (and therefore
        the timing) is exactly the pre-reliability position-then-stream
        sequence.  An injected transient error surfaces mid-transfer
        (roughly half the data has moved before the bad sector); the
        firmware recalibrates — an exponentially backed-off delay that
        also invalidates the head position, so the retry pays
        positioning again — and replays the request, up to
        ``max_retries`` times before raising :class:`DiskError`.
        """
        self._settle()
        with self.arm.request() as grant:
            yield grant
            self.busy.enter()
            start_ps = self.env.now
            try:
                self.stats.requests += 1
                attempt = 0
                while True:
                    if offset == self._head_position:
                        self.stats.sequential_requests += 1
                    else:
                        positioning = (self.config.seek_ps
                                       + self.config.half_rotation_ps)
                        self.stats.positioning_ps += positioning
                        yield self.env.timeout(positioning)
                    if started is not None and not started.triggered:
                        started.succeed()
                    transfer = transfer_ps(nbytes,
                                           self.config.bandwidth_bytes_per_s)
                    faulted = (self._injector is not None
                               and self._injector.plan.disk.enabled
                               and self._injector.disk_error(self.name, write))
                    if not faulted:
                        self.stats.transfer_ps_total += transfer
                        if write:
                            self.stats.bytes_written += nbytes
                        else:
                            self.stats.bytes_read += nbytes
                        yield self.env.timeout(transfer)
                        self._head_position = offset + nbytes
                        trace = self.env.trace
                        if trace is not None:
                            trace.span(
                                self.name,
                                "disk.write" if write else "disk.read",
                                start_ps, self.env.now - start_ps,
                                offset=offset, bytes=nbytes,
                                retries=attempt)
                        return
                    self.stats.transient_errors += 1
                    yield self.env.timeout(transfer // 2)
                    self._head_position = -1
                    faults = self._injector.plan.disk
                    if attempt >= faults.max_retries:
                        raise DiskError(
                            f"{self.name}: {'write' if write else 'read'} of "
                            f"{nbytes} B at {offset} failed after "
                            f"{faults.max_retries} retries")
                    self.stats.retries += 1
                    yield self.env.timeout(
                        faults.retry_backoff_ps * (2 ** attempt))
                    attempt += 1
            finally:
                self.busy.exit()

    def access_burst(self, at_ps: int, offset: int, nbytes: int,
                     write: bool):
        """Analytic mirror of :meth:`_access` for the fault-free burst
        path: same arm FIFO, positioning rule, stats, and busy signal,
        with zero kernel events.

        ``at_ps`` is when the request reaches the arm queue; callers
        must issue requests in nondecreasing ``at_ps`` order (the burst
        engine guarantees this — every issuer runs at real simulated
        time), which makes the scalar free-at state exactly the FIFO
        ``arm`` Resource.  Returns ``(data_start_ps, done_ps)``: when
        the head is positioned and data begins to flow, and when the
        last byte moves.  Never used under a fault plan — transient
        errors need the event-driven retry loop.
        """
        self._settle()
        return self._burst(at_ps, offset, nbytes, write)

    def _burst(self, at_ps: int, offset: int, nbytes: int, write: bool):
        stats = self._stats
        start = at_ps if at_ps > self._arm_free_ps else self._arm_free_ps
        stats.requests += 1
        if offset == self._head_position:
            stats.sequential_requests += 1
            data_start = start
        else:
            positioning = self.config.seek_ps + self.config.half_rotation_ps
            stats.positioning_ps += positioning
            data_start = start + positioning
        transfer = transfer_ps(nbytes, self.config.bandwidth_bytes_per_s)
        stats.transfer_ps_total += transfer
        if write:
            stats.bytes_written += nbytes
        else:
            stats.bytes_read += nbytes
        done = data_start + transfer
        self._head_position = offset + nbytes
        self._busy.credit(done - start)
        self._arm_free_ps = done
        return data_start, done

    def read(self, offset: int, nbytes: int, started=None):
        """Read ``nbytes`` at ``offset``; generator completes when the
        last byte leaves the platter.

        ``started``, if given, is an event triggered once the head is in
        position and data begins to flow — the moment a cut-through
        stream's first bytes leave for the fabric.
        """
        if nbytes <= 0:
            raise ValueError(f"read size must be positive, got {nbytes}")
        yield from self._access(offset, nbytes, write=False, started=started)

    def write(self, offset: int, nbytes: int, started=None):
        """Write ``nbytes`` at ``offset``; same mechanics as read (the
        paper's disk model is symmetric: position, then stream)."""
        if nbytes <= 0:
            raise ValueError(f"write size must be positive, got {nbytes}")
        yield from self._access(offset, nbytes, write=True, started=started)

    def __repr__(self) -> str:
        return f"<Disk {self.name}: {self.stats.bytes_read} B read>"


class DiskArray:
    """Several spindles striped into one logical sequential device.

    A logical read of B bytes is split evenly across the disks, which
    transfer in parallel — aggregate bandwidth is the sum of the
    spindles', i.e. the paper's 100 MB/s for two 50 MB/s disks.
    """

    def __init__(self, env: Environment, name: str = "disks",
                 num_disks: int = 2, config: DiskConfig = DiskConfig()):
        if num_disks < 1:
            raise ValueError("need at least one disk")
        self.env = env
        self.name = name
        self.config = config
        self.disks = [Disk(env, f"{name}-{i}", config) for i in range(num_disks)]
        #: The lead spindle's stats when the lockstep ledger opened, or
        #: None while every follower's own state is current.
        self._ledger = None
        for disk in self.disks:
            disk._array = self

    def attach_faults(self, injector) -> None:
        """Subject every spindle to ``injector``'s fault plan."""
        for disk in self.disks:
            disk.attach_faults(injector)

    @property
    def transient_errors(self) -> int:
        return sum(d.stats.transient_errors for d in self.disks)

    @property
    def retries(self) -> int:
        return sum(d.stats.retries for d in self.disks)

    @property
    def aggregate_bandwidth(self) -> float:
        """Peak bytes/s across all spindles."""
        return self.config.bandwidth_bytes_per_s * len(self.disks)

    def position_heads(self, offset: int) -> None:
        """Pre-position every spindle (see Disk.position_head)."""
        for disk in self.disks:
            disk.position_head(offset // len(self.disks))

    @property
    def bytes_read(self) -> int:
        return sum(d.stats.bytes_read for d in self.disks)

    def read(self, offset: int, nbytes: int, started=None):
        """Striped read; completes when every spindle's share is done.

        ``started`` fires when the first spindle begins transferring.
        """
        if nbytes <= 0:
            raise ValueError(f"read size must be positive, got {nbytes}")
        share = -(-nbytes // len(self.disks))
        events = []
        remaining = nbytes
        for index, disk in enumerate(self.disks):
            chunk = min(share, remaining)
            if chunk <= 0:
                break
            events.append(self.env.process(
                disk.read(offset // len(self.disks), chunk,
                          started=started if index == 0 else None),
                name=f"{disk.name}-read"))
            remaining -= chunk
        yield self.env.all_of(events)

    def _access_burst(self, at_ps: int, offset: int, nbytes: int,
                      write: bool):
        """Shared striped-access math for the burst path.

        An equal stripe over spindles in lockstep gives each the same
        request: the lead computes it and :meth:`_sync` copies it later.
        """
        disks = self.disks
        count = len(disks)
        if not nbytes % count and (self._ledger is not None
                                   or self._open_ledger()):
            return disks[0]._burst(at_ps, offset // count, nbytes // count,
                                   write)
        self._sync()
        share = -(-nbytes // len(self.disks))
        remaining = nbytes
        started = done = None
        for index, disk in enumerate(self.disks):
            chunk = min(share, remaining)
            if chunk <= 0:
                break
            data_start, disk_done = disk.access_burst(
                at_ps, offset // len(self.disks), chunk, write)
            if index == 0:
                started = data_start
            if done is None or disk_done > done:
                done = disk_done
            remaining -= chunk
        return started, done

    def _open_ledger(self) -> bool:
        """Start a ledger if every follower is in lockstep with the lead."""
        lead = self.disks[0]
        if all(disk._arm_free_ps == lead._arm_free_ps
               and disk._head_position == lead._head_position
               for disk in self.disks):
            self._ledger = replace(lead._stats)
        return self._ledger is not None

    def _sync(self) -> None:
        """Give every follower what the lead gained since the ledger
        opened, and the lead's head and arm state.

        The busy area gained is positioning plus transfer, the sum of
        the per-request ``done - start`` credits.  Crediting it once is
        bit-identical to crediting each: every contribution to a busy
        integral is an integer-valued float below 2**53 ps (2.5
        simulated hours), so every partial sum is exact.
        """
        opened, self._ledger = self._ledger, None
        if opened is None:
            return
        lead = self.disks[0]
        gained = {f.name: getattr(lead._stats, f.name)
                  - getattr(opened, f.name) for f in fields(DiskStats)}
        area = gained["positioning_ps"] + gained["transfer_ps_total"]
        for disk in self.disks[1:]:
            for name, delta in gained.items():
                setattr(disk._stats, name, getattr(disk._stats, name) + delta)
            disk._busy.credit(area)
            disk._head_position = lead._head_position
            disk._arm_free_ps = lead._arm_free_ps

    def read_burst(self, at_ps: int, offset: int, nbytes: int):
        """Analytic striped read (see :meth:`Disk.access_burst`).

        Returns ``(started_ps, done_ps)``: when the first spindle's
        data begins to flow, and when the last spindle finishes.
        """
        if nbytes <= 0:
            raise ValueError(f"read size must be positive, got {nbytes}")
        return self._access_burst(at_ps, offset, nbytes, write=False)

    def write_burst(self, at_ps: int, offset: int, nbytes: int):
        """Analytic striped write; returns ``(started_ps, done_ps)``."""
        if nbytes <= 0:
            raise ValueError(f"write size must be positive, got {nbytes}")
        return self._access_burst(at_ps, offset, nbytes, write=True)

    def write(self, offset: int, nbytes: int, started=None):
        """Striped write; completes when every spindle's share is done."""
        if nbytes <= 0:
            raise ValueError(f"write size must be positive, got {nbytes}")
        share = -(-nbytes // len(self.disks))
        events = []
        remaining = nbytes
        for index, disk in enumerate(self.disks):
            chunk = min(share, remaining)
            if chunk <= 0:
                break
            events.append(self.env.process(
                disk.write(offset // len(self.disks), chunk,
                           started=started if index == 0 else None),
                name=f"{disk.name}-write"))
            remaining -= chunk
        yield self.env.all_of(events)

    @property
    def bytes_written(self) -> int:
        return sum(d.stats.bytes_written for d in self.disks)

    def utilization(self) -> float:
        """Mean spindle busy fraction since simulation start."""
        if not self.disks:
            return 0.0
        return sum(d.busy.utilization() for d in self.disks) / len(self.disks)

    def transfer_ps(self, nbytes: int) -> int:
        """Analytic aggregate transfer time for a sequential stream."""
        return transfer_ps(nbytes, self.aggregate_bandwidth)

    def __repr__(self) -> str:
        return (f"<DiskArray {self.name}: {len(self.disks)} disks, "
                f"{self.aggregate_bandwidth / 1e6:g} MB/s>")
