"""Benchmark application framework.

Every paper benchmark is expressed as a set of :class:`BlockWork` items
— one per I/O request — carrying both the *functional* outcome of that
block (match counts, filtered sizes, output bytes) and the *cost model*
inputs (busy cycles plus cache-driving callables).  The framework then
runs the four configurations:

normal        host does everything, synchronous disk reads
normal+pref   host does everything, two outstanding reads
active        handler on the switch + host portion, synchronous
active+pref   handler + host portion, two outstanding reads

The active pipeline has three coupled stages — producer (disk stream),
switch consumer (handler per block), host consumer (host portion) —
connected by queues, with the stream's token protocol bounding the
number of blocks in flight.

Cost-model conventions (used by every app module):

* ``host_cycles`` etc. are *busy* cycles at 2 GHz; cache stalls come
  from the ``*_stall_fn`` callables, which drive the real cache/TLB
  hierarchy with the block's reference pattern at simulation time (so
  cache state evolves in execution order);
* handler cycles are charged at the 500 MHz switch clock; data-buffer
  reads never miss (the paper's design point), so handler stalls come
  only from switch *local-memory* references (e.g. HashJoin's
  bit-vector) and from waiting on valid bits when the handler outruns
  the stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..cluster.config import ClusterConfig
from ..cluster.iostream import ReadStream
from ..cluster.system import System
from ..cpu.accounting import Breakdown
from ..metrics.results import CaseResult
from ..sim.resources import Store

#: Cache-driving callable: gets the memory hierarchy, returns stall ps.
StallFn = Callable[[object], int]


@dataclass
class BlockWork:
    """Per-I/O-request work description."""

    nbytes: int
    #: Normal case: host does the whole job.
    host_cycles: float = 0.0
    host_stall_fn: Optional[StallFn] = None
    #: Active case: the switch handler's share.
    handler_cycles: float = 0.0
    handler_stall_fn: Optional[StallFn] = None
    #: Bytes the handler forwards to the host (filtered data).
    out_bytes: int = 0
    #: Active case: the host's share.
    active_host_cycles: float = 0.0
    active_host_stall_fn: Optional[StallFn] = None


def _stall(fn: Optional[StallFn], hierarchy) -> int:
    return fn(hierarchy) if fn is not None else 0


class StreamApp:
    """Base class for the single-stream I/O benchmarks.

    Subclasses set :attr:`name`, :attr:`request_bytes`, optionally
    :attr:`database_scaled`, and implement :meth:`prepare` to fill
    :attr:`blocks` from the (scaled) workload.
    """

    name: str = "stream-app"
    request_bytes: int = 64 * 1024
    database_scaled: bool = False
    cache_scale_divisor: int = 1
    num_switch_cpus: int = 1

    def __init__(self, scale: float = 1.0):
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.scale = scale
        self.blocks: List[BlockWork] = []
        self.prepare()
        if not self.blocks:
            raise ValueError(f"{self.name}: prepare() produced no blocks")

    # ------------------------------------------------------------------
    # Subclass interface
    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Generate the workload and fill ``self.blocks``."""
        raise NotImplementedError

    def cluster_config(self) -> ClusterConfig:
        """The base cluster configuration for this benchmark."""
        return ClusterConfig(
            database_scaled_caches=self.database_scaled,
            cache_scale_divisor=self.cache_scale_divisor,
            num_switch_cpus=self.num_switch_cpus,
        )

    @property
    def total_bytes(self) -> int:
        return sum(b.nbytes for b in self.blocks)

    # ------------------------------------------------------------------
    # Normal pipeline
    # ------------------------------------------------------------------
    def run_normal(self, system: System, depth: int):
        """normal / normal+pref: everything on the host."""
        host = system.host
        stream = ReadStream(system, host, total_bytes=self.total_bytes,
                            request_bytes=self.request_bytes, depth=depth,
                            to_switch=False, request_cost="os")
        for work in self.blocks:
            arrival = yield from stream.next_block()
            yield from stream.consume_fully(arrival)
            stall = _stall(work.host_stall_fn, host.hierarchy)
            yield from host.cpu.work(work.host_cycles, stall)
            yield from stream.done_with(arrival)

    # ------------------------------------------------------------------
    # Active pipeline
    # ------------------------------------------------------------------
    def run_active(self, system: System, depth: int):
        """active / active+pref: switch handler + host portion."""
        host = system.host
        env = system.env
        stream = ReadStream(system, host, total_bytes=self.total_bytes,
                            request_bytes=self.request_bytes, depth=depth,
                            to_switch=True, request_cost="active")
        ready_for_host: Store = Store(env)

        def switch_stage(env):
            # The stream token returns when the handler has consumed the
            # block (its data buffers are free again); the host stage
            # drains the filtered output downstream.  This is what keeps
            # "both the host and switch CPU busy" in BOTH active cases —
            # the prefetch depth only bounds outstanding *disk* requests.
            for work in self.blocks:
                arrival = yield from stream.next_block()
                cpu_peek = system.switch_cpu_peek()
                stall = _stall(work.handler_stall_fn, cpu_peek.hierarchy)
                yield from system.process_on_switch(
                    work.handler_cycles, stall,
                    arrival_end_event=arrival.end_event,
                    arrival_end_ps=arrival.end_ps)
                if work.out_bytes > 0:
                    yield from system.switch_to_host_bulk(host, work.out_bytes)
                yield ready_for_host.put(work)
                yield from stream.done_with(arrival)

        def host_stage(env):
            for _ in self.blocks:
                work = yield ready_for_host.get()
                stall = _stall(work.active_host_stall_fn, host.hierarchy)
                yield from host.cpu.work(work.active_host_cycles, stall)

        switch_proc = env.process(switch_stage(env), name=f"{self.name}-switch")
        host_proc = env.process(host_stage(env), name=f"{self.name}-host")
        yield env.all_of([switch_proc, host_proc])

    # ------------------------------------------------------------------
    # Entry point for one configuration
    # ------------------------------------------------------------------
    def run_case(self, config: ClusterConfig,
                 trace=None, metrics_sink: Optional[dict] = None
                 ) -> CaseResult:
        """Run one configuration.

        ``trace`` is an optional ``repro.obs.TraceCollector``; when given,
        every instrumented component emits structured events into it for
        the duration of the case.  ``metrics_sink`` is an optional dict
        that receives the system's full ``MetricsRegistry`` snapshot after
        the run — the cache/TLB/memory counters behind the bench harness
        and the golden-equivalence tests.  The returned
        :class:`CaseResult` is identical either way — observers never
        feed back into results.
        """
        system = System(config)
        if trace is not None:
            system.attach_trace(trace)
        # Failure context: a wedged run's DeadlockError/WatchdogError
        # names the benchmark and configuration it happened in.
        system.env.add_context(app=self.name, config=config.case_label)
        if config.active:
            runner = self.run_active(system, config.prefetch_depth)
        else:
            runner = self.run_normal(system, config.prefetch_depth)
        proc = system.env.process(runner, name=f"{self.name}-{config.case_label}")
        system.env.run(until=proc)
        if metrics_sink is not None:
            metrics_sink.update(system.metrics.snapshot())
        return finalize_case(system, config.case_label)


def finalize_case(system: System, label: str) -> CaseResult:
    """Collect breakdowns and traffic after a run completed."""
    exec_ps = system.env.now
    host = system.host
    switch_breakdowns: List[Breakdown] = []
    if system.config.active:
        switch_breakdowns = [cpu.accounting.finalize(exec_ps)
                             for cpu in system.switch.cpus]
    return CaseResult(
        label=label,
        exec_ps=exec_ps,
        host=host.cpu.accounting.finalize(exec_ps),
        switch_cpus=switch_breakdowns,
        host_bytes_in=host.hca.traffic.bytes_in,
        host_bytes_out=host.hca.traffic.bytes_out,
        # Empty on a perfect fabric, so fault-free results are
        # byte-identical to the pre-reliability ones.
        extra=system.reliability_report(),
    )

