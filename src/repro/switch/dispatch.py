"""Dispatch unit and jump table.

"The Dispatch unit extracts the PC according to the handler ID in the
header and schedules the handler on a free switch processor.  The
Dispatch unit also maps the buffer ID holding the message into a
corresponding entry in the ATB according to the destination address
field in the header."

The jump table stores the starting program counter of each handler,
indexed by the 6-bit handler ID; here a "program counter" is a Python
generator function ``handler(ctx) -> generator``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..net.packet import MAX_HANDLER_ID
from ..sim.core import Environment
from ..sim.resources import Store
from ..sim.units import ns


class DispatchError(Exception):
    """Unknown handler ID or bad dispatch request."""


class JumpTable:
    """handler ID -> handler entry point."""

    def __init__(self, size: int = MAX_HANDLER_ID + 1):
        self.size = size
        self._handlers: Dict[int, Callable] = {}

    def register(self, handler_id: int, handler: Callable,
                 replace: bool = False) -> None:
        """Install ``handler`` at ``handler_id``.

        Double registration is a kernel bug and raises, unless
        ``replace=True`` — used by collective retry, which re-installs
        fresh per-epoch handlers over the previous attempt's.
        """
        if not 0 <= handler_id < self.size:
            raise DispatchError(
                f"handler ID {handler_id} outside the 6-bit field")
        if handler_id in self._handlers and not replace:
            raise DispatchError(f"handler ID {handler_id} already registered")
        self._handlers[handler_id] = handler

    def lookup(self, handler_id: int) -> Callable:
        """Fetch the handler entry point."""
        try:
            return self._handlers[handler_id]
        except KeyError:
            raise DispatchError(f"no handler registered for ID {handler_id}") from None

    def __contains__(self, handler_id: int) -> bool:
        return handler_id in self._handlers

    def __len__(self) -> int:
        return len(self._handlers)


@dataclass
class DispatchStats:
    dispatched: int = 0
    queued_waits: int = 0
    #: Handler invocations that raised but were contained by the
    #: switch's crash handler instead of killing the worker.
    contained_crashes: int = 0


class CpuScheduler:
    """Schedules handler invocations onto the embedded switch CPUs.

    Each CPU runs a worker loop draining its own task queue.  Dispatches
    without a CPU-ID preference go to the shortest queue (a free CPU has
    an empty one); the MD5 multi-processor experiment pins chains to
    CPUs via the header's switch-CPU-ID field.
    """

    #: Hardware dispatch latency (header parse + jump-table read).
    DISPATCH_LATENCY_PS = ns(4)

    def __init__(self, env: Environment, cpus: List):
        if not cpus:
            raise ValueError("need at least one switch CPU")
        self.env = env
        self.cpus = cpus
        self.stats = DispatchStats()
        self._queues: List[Store] = [Store(env) for _ in cpus]
        self._pending: List[int] = [0] * len(cpus)
        self._crash_handler: Optional[Callable] = None
        for index, cpu in enumerate(cpus):
            env.process(self._worker(index, cpu), name=f"dispatch-{cpu.name}",
                        daemon=True)

    def set_crash_handler(self, handler: Callable) -> None:
        """Install crash containment: ``handler(exc, meta, cpu)``.

        Called when a handler invocation raises.  Return True to contain
        the crash (the worker survives and its completion event fires
        with ``None``); return False to let the exception propagate —
        the pre-containment behaviour, which kills the worker and
        surfaces the error at ``env.run``.
        """
        self._crash_handler = handler

    def _worker(self, index: int, cpu):
        queue = self._queues[index]
        while True:
            task = yield queue.get()
            generator, done, meta = task
            cpu.active = True
            trace = self.env.trace
            if trace is not None:
                start_ps = self.env.now
                acct = getattr(cpu, "accounting", None)
                busy0 = acct.busy_ps if acct is not None else 0
                stall0 = acct.stall_ps if acct is not None else 0
            try:
                result = yield self.env.process(generator, name=f"{cpu.name}-handler")
            except Exception as exc:
                if (self._crash_handler is None
                        or not self._crash_handler(exc, meta, cpu)):
                    raise
                self.stats.contained_crashes += 1
                result = None
            finally:
                cpu.active = False
                self._pending[index] -= 1
                if trace is not None:
                    # Per-handler cycle attribution: the accounting delta
                    # over the invocation is what *this* handler cost.
                    # Only scalar metadata goes into the trace (meta may
                    # carry live objects for the crash handler).
                    args = ({k: v for k, v in meta.items()
                             if isinstance(v, (int, float, str))}
                            if isinstance(meta, dict) else {})
                    if acct is not None:
                        args["busy_ps"] = acct.busy_ps - busy0
                        args["stall_ps"] = acct.stall_ps - stall0
                    trace.span(cpu.name, "handler", start_ps,
                               self.env.now - start_ps, **args)
            if done is not None:
                done.succeed(result)

    def pick(self, cpu_id: Optional[int] = None):
        """Choose the CPU a handler will run on.

        A header carrying a switch-CPU ID (the MD5 multi-processor
        experiment) pins the choice; otherwise the least-loaded core —
        a free CPU has an empty queue — is selected.
        """
        if cpu_id is not None:
            if not 0 <= cpu_id < len(self.cpus):
                raise DispatchError(
                    f"cpu_id {cpu_id} out of range (switch has {len(self.cpus)})")
            return self.cpus[cpu_id]
        index = min(range(len(self.cpus)), key=lambda i: self._pending[i])
        return self.cpus[index]

    def dispatch_on(self, cpu, make_generator: Callable, meta=None):
        """Schedule a handler on ``cpu``; returns its completion event.

        ``make_generator(cpu)`` builds the handler generator bound to the
        chosen CPU (the context needs to know which CPU's ATB and caches
        it uses).  ``meta`` is opaque invocation context handed to the
        crash handler if this invocation dies (which message/handler the
        cleanup must unwind).
        """
        index = self.cpus.index(cpu)
        if self._pending[index] > 0:
            self.stats.queued_waits += 1
        self._pending[index] += 1
        self.stats.dispatched += 1
        done = self.env.event()

        def launch():
            yield self.env.timeout(self.DISPATCH_LATENCY_PS)
            yield self._queues[index].put((make_generator(cpu), done, meta))

        self.env.process(launch(), name="dispatch-launch")
        return done

    def dispatch(self, make_generator: Callable, cpu_id: Optional[int] = None,
                 meta=None):
        """Pick a CPU and schedule a handler on it in one step."""
        return self.dispatch_on(self.pick(cpu_id), make_generator, meta=meta)
