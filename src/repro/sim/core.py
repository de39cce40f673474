"""The discrete-event simulation environment.

:class:`Environment` owns the clock (integer picoseconds) and the event
queue.  Processes are Python generators that yield :class:`Event`
instances; the environment resumes them when those events fire.

Example::

    env = Environment()

    def pinger(env):
        yield env.timeout(100)
        return "pong"

    proc = env.process(pinger(env))
    env.run()
    assert proc.value == "pong"
    assert env.now == 100
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

from .diagnostics import (
    DeadlockError,
    WatchdogError,
    format_failure_context,
    format_wait_graph,
)
from .events import AllOf, AnyOf, Event, Process, SimulationError, Timeout

__all__ = ["Environment", "Infinity"]

#: Sentinel meaning "run until the queue drains".
Infinity = float("inf")

#: Scheduling priorities: URGENT events at the same timestamp run before
#: NORMAL ones.  Used by the kernel for resource bookkeeping.
URGENT = 0
NORMAL = 1


class Environment:
    """Execution environment for a single simulation run."""

    def __init__(self, initial_time: int = 0):
        self._now = int(initial_time)
        self._queue: list = []
        self._eid = count()
        #: Recycled heap entries ([time, priority, eid, event] lists):
        #: the hot loop returns each popped slot here and schedule()
        #: refills it in place, so steady-state runs allocate no queue
        #: entries at all.
        self._free_slots: list = []
        self._active_process: Optional[Process] = None
        #: Processes whose generator has not finished (kept for deadlock
        #: diagnostics; Process registers/deregisters itself).
        self._alive_processes: set = set()
        self._event_count = 0
        # Watchdog state — disarmed unless watchdog() is called.
        self._watchdog_armed = False
        self._max_events: Optional[int] = None
        self._max_time_ps: Optional[int] = None
        self._watchdog_base_events = 0
        #: Static failure context (see add_context).
        self.context: Dict[str, Any] = {}
        self._context_providers: List[Callable[[], Dict[str, Any]]] = []
        #: Structured trace sink (a ``repro.obs.TraceCollector``), or None.
        #: When None — the default — run() takes the uninstrumented drain
        #: loops below and tracing costs nothing.  Attach a collector
        #: *before* calling run(); the loop flavour is chosen on entry.
        self.trace: Optional[Any] = None

    # ------------------------------------------------------------------
    # Clock and queue
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in picoseconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    def schedule(self, event: Event, delay: int = 0, priority: int = NORMAL) -> None:
        """Queue ``event`` to be processed ``delay`` ps from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        free = self._free_slots
        if free:
            entry = free.pop()
            entry[0] = self._now + int(delay)
            entry[1] = priority
            entry[2] = next(self._eid)
            entry[3] = event
        else:
            entry = [self._now + int(delay), priority, next(self._eid), event]
        heappush(self._queue, entry)

    def peek(self) -> float:
        """Timestamp of the next scheduled event, or ``Infinity``."""
        return self._queue[0][0] if self._queue else Infinity

    def step(self) -> None:
        """Process the next scheduled event."""
        try:
            entry = heappop(self._queue)
        except IndexError:
            raise SimulationError("no scheduled events") from None
        self._now = entry[0]
        event = entry[3]
        self._recycle(entry)
        self._event_count += 1
        event._process()

    def _recycle(self, entry: list) -> None:
        """Return a popped heap slot for reuse by :meth:`schedule`."""
        entry[3] = None
        if len(self._free_slots) < 4096:
            self._free_slots.append(entry)

    def run(self, until: Optional[Any] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (drain the queue), an integer time, or
        an :class:`Event` (run until it is processed, return its value).

        Deadlock detection: when the queue drains (``until=None``) or
        drains before an event sentinel is reached, and non-daemon
        processes are still alive, :class:`DeadlockError` is raised
        with the wait-for graph (process -> primitive -> holders)
        instead of returning silently with work undone.  Running to an
        integer horizon performs no deadlock check, since callers
        routinely schedule more work afterwards.
        """
        if self.trace is not None:
            return self._run_traced(until)

        # The drain loops below inline step() — pop, advance the clock,
        # recycle the heap slot, dispatch — binding the queue and
        # heappop as locals.  On a full benchmark run this loop executes
        # millions of times; dropping the method call and tuple unpack
        # per event is a measurable share of wall-clock (see
        # benchmarks/test_runner_speedup.py).  Semantics are identical
        # to calling step() in a loop, including the per-event watchdog
        # poll (the watchdog may be armed mid-run by a resumed process).
        queue = self._queue
        free = self._free_slots
        pop = heappop

        if until is None:
            while queue:
                entry = pop(queue)
                self._now = entry[0]
                event = entry[3]
                entry[3] = None
                if len(free) < 4096:
                    free.append(entry)
                self._event_count += 1
                event._process()
                if self._watchdog_armed:
                    self._watchdog_check()
            self._deadlock_check("event queue drained")
            return None

        if isinstance(until, Event):
            sentinel = until
            finished = []
            sentinel.add_callback(lambda _e: finished.append(True))
            while queue and not finished:
                entry = pop(queue)
                self._now = entry[0]
                event = entry[3]
                entry[3] = None
                if len(free) < 4096:
                    free.append(entry)
                self._event_count += 1
                event._process()
                if self._watchdog_armed:
                    self._watchdog_check()
            if not finished:
                self._deadlock_check(
                    f"event queue drained before {sentinel!r} was processed")
                raise SimulationError(
                    f"queue drained before {sentinel!r} was processed")
            if not sentinel.ok:
                raise sentinel.value
            return sentinel.value

        horizon = int(until)
        if horizon < self._now:
            raise SimulationError(
                f"cannot run until {horizon}: already at {self._now}")
        while queue and queue[0][0] <= horizon:
            entry = pop(queue)
            self._now = entry[0]
            event = entry[3]
            entry[3] = None
            if len(free) < 4096:
                free.append(entry)
            self._event_count += 1
            event._process()
            if self._watchdog_armed:
                self._watchdog_check()
        self._now = horizon
        return None

    def _run_traced(self, until: Optional[Any]) -> Any:
        """run() with the event-heap occupancy profiling hook.

        Mirrors the three drain loops of :meth:`run` (same semantics,
        including the per-event watchdog poll and the deadlock checks)
        but samples ``len(queue)`` into the attached trace as the
        ``event-heap`` counter on the ``sim`` track: once on entry, once
        every 64 processed events, and once on exit.  Kept out of line so
        the untraced path stays byte-identical to the seed loops.
        """
        trace = self.trace
        queue = self._queue
        free = self._free_slots
        pop = heappop
        trace.counter("sim", "event-heap", self._now, len(queue))

        if until is None:
            while queue:
                entry = pop(queue)
                self._now = entry[0]
                event = entry[3]
                entry[3] = None
                if len(free) < 4096:
                    free.append(entry)
                self._event_count += 1
                event._process()
                if self._watchdog_armed:
                    self._watchdog_check()
                if not self._event_count & 63:
                    trace.counter("sim", "event-heap", self._now, len(queue))
            trace.counter("sim", "event-heap", self._now, 0)
            self._deadlock_check("event queue drained")
            return None

        if isinstance(until, Event):
            sentinel = until
            finished = []
            sentinel.add_callback(lambda _e: finished.append(True))
            while queue and not finished:
                entry = pop(queue)
                self._now = entry[0]
                event = entry[3]
                entry[3] = None
                if len(free) < 4096:
                    free.append(entry)
                self._event_count += 1
                event._process()
                if self._watchdog_armed:
                    self._watchdog_check()
                if not self._event_count & 63:
                    trace.counter("sim", "event-heap", self._now, len(queue))
            trace.counter("sim", "event-heap", self._now, len(queue))
            if not finished:
                self._deadlock_check(
                    f"event queue drained before {sentinel!r} was processed")
                raise SimulationError(
                    f"queue drained before {sentinel!r} was processed")
            if not sentinel.ok:
                raise sentinel.value
            return sentinel.value

        horizon = int(until)
        if horizon < self._now:
            raise SimulationError(
                f"cannot run until {horizon}: already at {self._now}")
        while queue and queue[0][0] <= horizon:
            entry = pop(queue)
            self._now = entry[0]
            event = entry[3]
            entry[3] = None
            if len(free) < 4096:
                free.append(entry)
            self._event_count += 1
            event._process()
            if self._watchdog_armed:
                self._watchdog_check()
            if not self._event_count & 63:
                trace.counter("sim", "event-heap", self._now, len(queue))
        self._now = horizon
        trace.counter("sim", "event-heap", self._now, len(queue))
        return None

    # ------------------------------------------------------------------
    # Diagnostics: deadlock detection, watchdog, failure context
    # ------------------------------------------------------------------
    @property
    def event_count(self) -> int:
        """Total events processed since the environment was created."""
        return self._event_count

    def _deadlock_check(self, reason: str) -> None:
        """Raise :class:`DeadlockError` if non-daemon processes remain."""
        blocked = sorted(
            (p for p in self._alive_processes if not p.daemon),
            key=lambda p: (p.name or "", id(p)))
        if not blocked:
            return
        parts = [
            f"deadlock: {reason} at t={self._now} ps with "
            f"{len(blocked)} process(es) still blocked:",
            format_wait_graph(blocked),
        ]
        context = format_failure_context(self)
        if context:
            parts.append(context)
        raise DeadlockError("\n".join(parts),
                            blocked=[(p, p._target) for p in blocked])

    def watchdog(self, max_events: Optional[int] = None,
                 max_time_ps: Optional[int] = None) -> None:
        """Arm (or, with no arguments, disarm) runaway-run guards.

        ``max_events`` bounds how many further events :meth:`run` may
        process; ``max_time_ps`` bounds the clock.  Exceeding either
        raises :class:`WatchdogError` carrying the wait-for graph and
        failure context — the escape hatch for livelocks (e.g. two
        processes ping-ponging zero-delay events) that the drain-based
        deadlock detector can never see.
        """
        if max_events is not None and max_events <= 0:
            raise ValueError(f"max_events must be positive, got {max_events}")
        if max_time_ps is not None and max_time_ps <= 0:
            raise ValueError(f"max_time_ps must be positive, got {max_time_ps}")
        self._max_events = max_events
        self._max_time_ps = max_time_ps
        self._watchdog_base_events = self._event_count
        self._watchdog_armed = max_events is not None or max_time_ps is not None

    def _watchdog_check(self) -> None:
        if self._max_events is not None:
            spent = self._event_count - self._watchdog_base_events
            if spent > self._max_events:
                raise WatchdogError(
                    self._watchdog_message(
                        f"processed {spent} events (limit {self._max_events})"),
                    limit=self._max_events, observed=spent)
        if self._max_time_ps is not None and self._now > self._max_time_ps:
            raise WatchdogError(
                self._watchdog_message(
                    f"clock reached {self._now} ps (limit {self._max_time_ps} ps)"),
                limit=self._max_time_ps, observed=self._now)

    def _watchdog_message(self, what: str) -> str:
        parts = [f"watchdog tripped: {what}"]
        alive = [p for p in self._alive_processes if not p.daemon]
        if alive:
            parts.append(f"{len(alive)} non-daemon process(es) alive:")
            parts.append(format_wait_graph(alive))
        context = format_failure_context(self)
        if context:
            parts.append(context)
        return "\n".join(parts)

    def add_context(self, **info: Any) -> None:
        """Attach static failure context (e.g. ``app='grep'``,
        ``config='active+pref'``) included in deadlock/watchdog errors."""
        self.context.update(info)

    def add_context_provider(
            self, provider: Callable[[], Dict[str, Any]]) -> None:
        """Register a callable returning live context (stream progress,
        queue depths); sampled only when a failure is being reported."""
        self._context_providers.append(provider)

    def failure_context(self) -> Dict[str, Any]:
        """Static context merged with every provider's live snapshot.

        A provider that raises is skipped — diagnostics must never mask
        the failure being reported.
        """
        context = dict(self.context)
        for provider in self._context_providers:
            try:
                context.update(provider())
            except Exception:
                pass
        return context

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered event."""
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """An event firing ``delay`` ps from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: Optional[str] = None,
                daemon: bool = False) -> Process:
        """Start a new process from ``generator``.

        Pass ``daemon=True`` for perpetual service loops (link
        receivers, switch forwarding): daemons are expected to still be
        blocked when the workload completes, so the deadlock detector
        ignores them.
        """
        return Process(self, generator, name=name, daemon=daemon)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event firing when all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """An event firing when any of ``events`` has fired."""
        return AnyOf(self, events)

    def __repr__(self) -> str:
        return f"<Environment t={self._now} ps, {len(self._queue)} queued>"
