"""System assembly: hosts, switch(es), storage, and the bulk datapath.

:class:`System` builds one SAN cluster from a :class:`ClusterConfig`:
every host and storage node hangs off one central switch (the paper's
Figure 1), wired with real duplex links, with routing tables populated.

Two datapaths coexist:

* the **packet path** — real per-packet simulation through HCAs, links,
  and the (active) switch; used for small messages (reductions, request
  headers) and fully exercised by the integration tests;
* the **block path** — bulk sequential I/O moves in request-sized blocks
  whose intra-block pipelining (cut-through, valid-bit streaming) is
  priced from the same component parameters; used by the streaming
  benchmarks where per-packet simulation of ~250 000 MTUs per run would
  add nothing but wall-clock time (see DESIGN.md section 2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

import heapq

from ..net.link import Link, link_fault_report
from ..net.packet import HEADER_BYTES, MTU
from ..obs.registry import MetricsRegistry
from ..sim.burst import perblock_requested
from ..sim.core import Environment
from ..sim.resources import Store
from ..sim.units import transfer_ps
from ..switch.active import ActiveSwitch
from ..switch.base import BaseSwitch
from .config import ClusterConfig
from .node import ComputeNode, StorageNode
from .template import SystemTemplate, build_system_template

if TYPE_CHECKING:
    from .iostream import BlockArrival


class System:
    """One switch-centred SAN cluster.

    Block-level handler work (:meth:`process_on_switch`) runs on one of
    two switch-CPU models.  The per-block reference path holds a CPU
    from the ``switch_cpu_pool`` Store and waits on real events; the
    burst path keeps the same CPUs in the ``_cpu_ready`` heap of free
    times and prices each dispatch analytically
    (:meth:`process_on_switch_at`).  ``tests/sim/test_golden_burst.py``
    holds the two bit-identical.
    """

    def __init__(self, config: ClusterConfig,
                 env: Optional[Environment] = None,
                 template: Optional["SystemTemplate"] = None):
        self.config = config
        self.env = env if env is not None else Environment()
        # The config-pure construction prefix (resolved switch config,
        # node layout) either arrives pre-derived from the per-process
        # template cache (repro.cluster.template) or is derived inline;
        # both paths produce value-equal data, so the wired system is
        # bit-identical either way (tests/cluster/test_template.py).
        if template is None:
            template = build_system_template(config)
        switch_config = template.switch_config
        if config.active:
            self.switch = ActiveSwitch(self.env, "sw0", switch_config,
                                       config.active_switch)
        else:
            self.switch = BaseSwitch(self.env, "sw0", switch_config)

        #: Deterministic fault scheduler; None on a perfect fabric, in
        #: which case no component ever consults the fault machinery.
        self.injector = None
        if config.faults is not None and config.faults.enabled:
            from ..faults import FaultInjector
            self.injector = FaultInjector(config.faults, seed=config.seed)
            self.env.add_context_provider(self.injector.failure_context)
            if config.active:
                self.switch.attach_faults(self.injector)

        self.hosts: List[ComputeNode] = []
        self.storage_nodes: List[StorageNode] = []
        self._links: Dict[str, tuple] = {}

        port = 0
        for name in template.host_names:
            node = ComputeNode(self.env, name, config)
            self._attach(node.hca, node.name, port)
            self.hosts.append(node)
            port += 1
        for name in template.storage_names:
            node = StorageNode(self.env, name, config)
            self._attach(node.tca, node.name, port)
            if self.injector is not None:
                node.attach_faults(self.injector)
            self.storage_nodes.append(node)
            port += 1

        #: Block-level pool of embedded CPUs (active systems only).
        self.switch_cpu_pool: Optional[Store] = None
        #: Burst-path stand-in for the pool: ``(free_at_ps, seq, cpu)``
        #: min-heap, popped and pushed back in one call by
        #: :meth:`process_on_switch_at`, so it never goes empty.
        self._cpu_ready = None
        self._cpu_seq = 0
        if config.active:
            self.switch_cpu_pool = Store(self.env)
            for cpu in self.switch.cpus:
                self.switch_cpu_pool.items.append(cpu)
            self._cpu_ready = [(0, i, cpu)
                               for i, cpu in enumerate(self.switch.cpus)]
            self._cpu_seq = len(self.switch.cpus)

        #: Burst fast path eligibility (see repro.sim.burst).  Fault
        #: injection needs the event-driven retry loops, so any attached
        #: injector pins the run to the per-block reference path.
        self._burst = self.injector is None and not perblock_requested()

        #: Unified metric namespace over every component's counters;
        #: pull-based, so registration costs nothing at simulation time.
        self.metrics = MetricsRegistry()
        self._register_metrics()

    def _register_metrics(self) -> None:
        """Expose every component's counters as named registry probes."""
        m = self.metrics
        m.register("sim.event_count", lambda: self.env.event_count)
        m.register("sim.now_ps", lambda: self.env.now)
        for to_switch, from_switch in self._links.values():
            for link in (to_switch, from_switch):
                m.register_stats(
                    f"link.{link.name}", link.stats,
                    ["packets_sent", "packets_delivered", "packets_dropped",
                     "packets_corrupted", "retransmits", "bytes_sent",
                     "bytes_delivered"])
                m.register(f"link.{link.name}.utilization", link.utilization)
        for node in self.hosts:
            acct = node.cpu.accounting
            m.register(f"cpu.{node.cpu.name}.busy_ps",
                       lambda a=acct: a.busy_ps)
            m.register(f"cpu.{node.cpu.name}.stall_ps",
                       lambda a=acct: a.stall_ps)
            m.register(f"hca.{node.name}.bytes_in",
                       lambda h=node.hca: h.traffic.bytes_in)
            m.register(f"hca.{node.name}.bytes_out",
                       lambda h=node.hca: h.traffic.bytes_out)
            self._register_hierarchy(f"mem.{node.name}", node.hierarchy)
        for node in self.storage_nodes:
            for disk in node.disks.disks:
                # Read disk.stats/busy per probe: they settle the ledger
                # of the disk's array.
                for field in vars(disk.stats):
                    m.register(f"disk.{disk.name}.{field}",
                               lambda d=disk, f=field: getattr(d.stats, f))
                m.register(f"disk.{disk.name}.utilization",
                           lambda d=disk: d.busy.utilization())
        if isinstance(self.switch, ActiveSwitch):
            switch = self.switch
            for cpu in switch.cpus:
                m.register(f"cpu.{cpu.name}.busy_ps",
                           lambda a=cpu.accounting: a.busy_ps)
                m.register(f"cpu.{cpu.name}.stall_ps",
                           lambda a=cpu.accounting: a.stall_ps)
            m.register("switch.dispatched",
                       lambda: switch.scheduler.stats.dispatched)
            m.register("switch.queued_waits",
                       lambda: switch.scheduler.stats.queued_waits)
            m.register("switch.send.messages",
                       lambda: switch.send_unit.stats.messages)
            m.register("switch.send.bytes",
                       lambda: switch.send_unit.stats.bytes)
            m.register("switch.buffers.in_use",
                       lambda: switch.buffers.in_use)
            for cpu in switch.cpus:
                self._register_hierarchy(f"mem.{cpu.name}", cpu.hierarchy)

    #: CacheStats fields exposed per cache level (shared vocabulary with
    #: ``repro.bench``, which derives the accesses/sec rates from these).
    _CACHE_FIELDS = ["accesses", "hits", "misses", "evictions", "writebacks"]

    def _register_hierarchy(self, prefix: str, hierarchy) -> None:
        """Cache-simulation counters for one CPU's memory hierarchy.

        Every cache level, TLB, and the RDRAM behind one
        :class:`~repro.mem.MemoryHierarchy` lands under ``mem.<cpu>.*``,
        so traces, the golden-equivalence tests, and ``python -m
        repro.bench`` all read the same names.
        """
        m = self.metrics
        for level in ("l1d", "l1i", "l2"):
            cache = getattr(hierarchy, level)
            if cache is not None:
                m.register_stats(f"{prefix}.{level}", cache.stats,
                                 self._CACHE_FIELDS)
        for level in ("dtlb", "itlb"):
            tlb = getattr(hierarchy, level)
            if tlb is not None:
                m.register_stats(f"{prefix}.{level}", tlb.stats,
                                 ["accesses", "misses"])
        m.register_stats(f"{prefix}.rdram", hierarchy.memory.stats,
                         ["accesses", "page_hits", "page_misses",
                          "bytes_transferred"])
        for bucket in ("load_stall_ps", "store_stall_ps",
                       "ifetch_stall_ps", "tlb_stall_ps"):
            m.register(f"{prefix}.{bucket}",
                       lambda h=hierarchy, b=bucket: getattr(h, b))

    def burst_ok(self) -> bool:
        """True when the burst fast path may replace the per-block one.

        Checked at use time (not construction) because structured
        tracing — which needs the real per-event spans — is attached
        after the system is built.  Bit-identity between the two paths
        is enforced by tests/sim/test_golden_burst.py.
        """
        return self._burst and self.env.trace is None

    def attach_trace(self, collector) -> None:
        """Attach a ``repro.obs.TraceCollector``: every instrumented
        component starts emitting structured events into it.  Call before
        ``env.run`` — the drain loop picks its instrumented flavour on
        entry."""
        self.env.trace = collector

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _attach(self, adapter, name: str, port: int) -> None:
        to_switch = Link(self.env, f"{name}->sw0", self.config.link)
        from_switch = Link(self.env, f"sw0->{name}", self.config.link)
        if self.injector is not None:
            to_switch.attach_faults(self.injector)
            from_switch.attach_faults(self.injector)
        adapter.attach(tx_link=to_switch, rx_link=from_switch)
        self.switch.connect(port, tx_link=from_switch, rx_link=to_switch)
        self.switch.routing.add(name, port)
        self._links[name] = (to_switch, from_switch)

    @property
    def host(self) -> ComputeNode:
        """The (first) host — convenience for single-host experiments."""
        return self.hosts[0]

    @property
    def storage(self) -> StorageNode:
        """The (first) storage node."""
        return self.storage_nodes[0]

    def links_for(self, name: str):
        """(to_switch, from_switch) link pair of node ``name``."""
        return self._links[name]

    # ------------------------------------------------------------------
    # Reliability reporting
    # ------------------------------------------------------------------
    def reliability_report(self) -> Dict[str, float]:
        """Fault/recovery metrics for the run report.

        Empty on a perfect fabric (the default), so fault-free results
        carry exactly the pre-reliability metrics; under a fault plan it
        aggregates what was injected and what the recovery machinery
        did: retransmits, retries, drops/corruptions, crash containment,
        and time spent in degraded (quarantined-handler) mode.

        Caveat: observability loss is reliability information too.  If a
        capacity-bounded ``env.trace`` collector dropped events,
        ``trace_events_dropped`` reports how many, whether or not faults
        were injected.  A 0 count is omitted, so fault-free untraced runs
        still return ``{}`` and stay bit-identical to the seed.
        """
        report: Dict[str, float] = {}
        trace = self.env.trace
        if trace is not None and trace.dropped:
            report["trace_events_dropped"] = float(trace.dropped)
        if self.injector is None:
            return report
        report.update(link_fault_report(
            link for pair in self._links.values() for link in pair))
        ports_failed = self.switch.stats.ports_failed
        tx_abandoned = self.switch.stats.tx_abandoned
        if ports_failed:
            report["switch_ports_failed"] = float(ports_failed)
        if tx_abandoned:
            report["switch_tx_abandoned"] = float(tx_abandoned)
        report["disk_transient_errors"] = float(
            sum(node.disks.transient_errors for node in self.storage_nodes))
        report["disk_retries"] = float(
            sum(node.disks.retries for node in self.storage_nodes))
        report["scsi_parity_errors"] = float(
            sum(node.scsi.stats.parity_errors for node in self.storage_nodes))
        report["scsi_retries"] = float(
            sum(node.scsi.stats.retries for node in self.storage_nodes))
        if isinstance(self.switch, ActiveSwitch):
            degradation = self.switch.degradation
            report["handler_contained_crashes"] = float(
                degradation.contained_crashes)
            report["handler_quarantined"] = float(
                degradation.quarantined_handlers)
            report["atb_corruptions"] = float(degradation.atb_corruptions)
            report["fallback_messages"] = float(degradation.fallback_messages)
            report["degraded_time_ps"] = float(self.switch.degraded_time_ps())
        report.update(self.injector.snapshot())
        return report

    # ------------------------------------------------------------------
    # Fixed path latencies (block path)
    # ------------------------------------------------------------------
    def request_path_ps(self) -> int:
        """Control-message latency host -> storage (CPU charge excluded)."""
        link = self.config.link
        control_wire = transfer_ps(2 * HEADER_BYTES, link.bandwidth_bytes_per_s)
        return (self.config.hca.per_packet_ps
                + control_wire + link.propagation_ps
                + self.config.switch.routing_latency_ps
                + control_wire + link.propagation_ps)

    def _hop_ps(self, payload: int = MTU) -> int:
        """One MTU through one link + the switch."""
        link = self.config.link
        return (transfer_ps(payload + HEADER_BYTES, link.bandwidth_bytes_per_s)
                + link.propagation_ps
                + self.config.switch.routing_latency_ps)

    def first_data_tail_ps(self, to_switch: bool) -> int:
        """Storage-to-destination latency of the stream's first MTU."""
        disk_mtu = transfer_ps(MTU, self.storage.disks.aggregate_bandwidth)
        scsi_mtu = self.storage.scsi.occupancy_ps(MTU)
        tail = disk_mtu + scsi_mtu + self.config.tca.per_packet_ps + self._hop_ps()
        if not to_switch:
            link = self.config.link
            tail += (transfer_ps(MTU + HEADER_BYTES, link.bandwidth_bytes_per_s)
                     + link.propagation_ps + self.config.hca.per_packet_ps)
        return tail

    def last_data_tail_ps(self, to_switch: bool) -> int:
        """Latency from last byte off the platter to last byte at dest."""
        scsi_mtu = self.storage.scsi.occupancy_ps(MTU)
        tail = scsi_mtu + self.config.tca.per_packet_ps + self._hop_ps()
        if not to_switch:
            link = self.config.link
            tail += (transfer_ps(MTU + HEADER_BYTES, link.bandwidth_bytes_per_s)
                     + link.propagation_ps + self.config.hca.per_packet_ps)
        return tail

    # ------------------------------------------------------------------
    # Bulk movement helpers
    # ------------------------------------------------------------------
    def switch_to_host_bulk(self, host: ComputeNode, nbytes: int):
        """Handler output streaming from the switch into host memory:
        :meth:`switch_to_remote_bulk` to the host, with the bytes
        accounted as host I/O traffic."""
        if nbytes <= 0:
            return
        yield from self.switch_to_remote_bulk(host.name, nbytes)
        host.hca.account_bulk_in(nbytes)

    def host_to_host_bulk(self, src: ComputeNode, dst: ComputeNode,
                          nbytes: int):
        """Bulk memory-to-memory transfer between two hosts.

        Cut-through: the uplink of ``src`` and downlink of ``dst`` are
        held simultaneously for the wire occupancy.
        """
        if nbytes <= 0:
            return
            yield  # pragma: no cover
        to_switch, _ = self._links[src.name]
        _, from_switch = self._links[dst.name]
        hold_ps = (to_switch.occupancy_ps(nbytes)
                   + self.config.switch.routing_latency_ps)
        if self.burst_ok():
            yield from self._hold_reserved((to_switch, from_switch), hold_ps)
        else:
            with to_switch.acquire().request() as up, \
                    from_switch.acquire().request() as down:
                yield self.env.all_of([up, down])
                yield self.env.timeout(hold_ps)
        src.hca.account_bulk_out(nbytes)
        dst.hca.account_bulk_in(nbytes)

    def switch_to_remote_bulk(self, dst_name: str, nbytes: int):
        """Handler output streamed to an arbitrary node (Tar's archive).

        Only the destination's downlink is held; the source is the
        switch's own data buffers.
        """
        if nbytes <= 0:
            return
            yield  # pragma: no cover
        _, from_switch = self._links[dst_name]
        hold_ps = from_switch.occupancy_ps(nbytes)
        if self.burst_ok():
            yield from self._hold_reserved((from_switch,), hold_ps)
            return
        with from_switch.acquire().request() as grant:
            yield grant
            yield self.env.timeout(hold_ps)

    def _hold_reserved(self, links, hold_ps: int):
        """Burst-path hold: reserve ``links`` from now, sleep to the
        grant, then hold as its own timeout (see :meth:`_reserve_wires`
        for why the two sleeps must stay separate)."""
        start, end = self._reserve_wires(links, self.env.now, hold_ps)
        if start > self.env.now:
            yield self.env.timeout(start - self.env.now)
        yield self.env.timeout(end - self.env.now)

    def _reserve_wires(self, links, ready_ps: int, hold_ps: int):
        """Burst-path wire arbitration: reserve ``links`` jointly for
        ``hold_ps`` starting at their common free time (no earlier than
        ``ready_ps``), returning the ``(grant, release)`` times.

        Callers arrive in nondecreasing ``ready_ps`` order, so the
        scalar free-at state grants in exactly the FIFO order the
        per-block path's wire Resources would.  Callers must sleep to
        ``grant`` *first* and only then schedule the hold as its own
        timeout: the per-block path schedules its occupancy timeout at
        the grant instant, and two transfers releasing at the same
        picosecond are processed in grant order — a single call-time
        timeout would invert that order and shift downstream FIFO
        queues.  Bulk reservations never touch ``link.busy`` —
        matching the event-driven bulk helpers, whose utilization
        figure is documented as packet-path-only.
        """
        start = ready_ps
        for link in links:
            if link.bulk_free_ps > start:
                start = link.bulk_free_ps
        end = start + hold_ps
        for link in links:
            link.bulk_free_ps = end
        return start, end

    # ------------------------------------------------------------------
    # Block-level handler execution
    # ------------------------------------------------------------------
    def switch_cpu_peek(self):
        """The CPU the next :meth:`process_on_switch` call would grant.

        Apps pre-evaluate a block's handler cache stalls on the CPU
        that will run it; this mirrors the pool's FIFO head on both the
        per-block path (Store head) and the burst path (earliest-free
        heap entry), falling back to cpu 0 when every CPU is in flight
        — exactly the ``pool.items[0] if pool.items else cpus[0]``
        idiom the apps used against the Store directly.
        """
        if self.switch_cpu_pool is None:
            raise RuntimeError("switch_cpu_peek requires an active system")
        if self.burst_ok():
            return self.switch_cpu_peek_at(self.env.now)
        return (self.switch_cpu_pool.items[0]
                if self.switch_cpu_pool.items else self.switch.cpus[0])

    def switch_cpu_peek_at(self, now_ps: int):
        """Burst-pool :meth:`switch_cpu_peek` at an explicit instant.

        The open-loop service worker evaluates a request's handler
        stalls before it has advanced the clock to the dispatch time;
        passing that time keeps the peek identical to what the staged
        path would see when it got there.
        """
        ready_ps, _, cpu = self._cpu_ready[0]
        return cpu if ready_ps <= now_ps else self.switch.cpus[0]

    def process_on_switch_at(self, ready_ps: int, cycles: float,
                             stall_ps: int, end_ps: Optional[int] = None):
        """Analytic handler dispatch: the burst path's switch-CPU model.

        Pops the earliest-free CPU off the ``_cpu_ready`` heap, runs the
        handler from ``max(ready_ps, cpu free)`` — after waiting for
        the block's last byte ``end_ps`` first under store-and-forward,
        and for it afterwards under cut-through — and pushes the CPU
        back with its new free time.  Callers must issue in
        nondecreasing ``ready_ps`` order, which makes the heap grant
        exactly as the per-block path's FIFO Store does.  Returns
        ``(done_ps, cpu)``.
        """
        free_ps, _, cpu = heapq.heappop(self._cpu_ready)
        t = ready_ps if ready_ps > free_ps else free_ps
        acct = cpu.accounting
        if not self.config.cut_through and end_ps is not None \
                and end_ps > t:
            acct.add_stall(end_ps - t)
            t = end_ps
        work_ps = cpu.clock.cycles(cycles)
        acct.add_busy(work_ps)
        acct.add_stall(stall_ps)
        t += work_ps + stall_ps
        if end_ps is not None and end_ps > t:
            acct.add_stall(end_ps - t)
            t = end_ps
        self._cpu_seq += 1
        heapq.heappush(self._cpu_ready, (t, self._cpu_seq, cpu))
        return t, cpu

    def switch_to_host_bulk_at(self, host: ComputeNode, nbytes: int,
                               ready_ps: int) -> int:
        """Analytic twin of :meth:`switch_to_host_bulk` at an explicit
        ready time; returns the downlink release time.

        Single-wire reservations grant in call order, so a caller that
        sleeps straight to the returned release sees the same FIFO the
        staged grant-then-hold pair produces.
        """
        if nbytes <= 0:
            return ready_ps
        _, from_switch = self._links[host.name]
        _, end = self._reserve_wires((from_switch,), ready_ps,
                                     from_switch.occupancy_ps(nbytes))
        host.hca.account_bulk_in(nbytes)
        return end

    def process_on_switch(self, cycles: float, stall_ps: int,
                          arrival: Optional[BlockArrival] = None):
        """Run one block's worth of handler work on a free switch CPU.

        The handler computes while ``arrival``'s block streams in
        (valid-bit overlap): completion is ``max(compute done, arrival
        done)``.  Waiting for data beyond the compute time is charged
        as switch CPU stall (stalled on invalid buffer lines).  Without
        an ``arrival`` the handler works on data already in the switch.

        The burst path prices the whole body with
        :meth:`process_on_switch_at` from the arrival's ``end_ps`` and
        sleeps once; the per-block reference path holds a CPU from the
        Store and waits on the arrival's ``end_event``.  Returns the
        CPU that ran the handler.
        """
        if self.switch_cpu_pool is None:
            raise RuntimeError("process_on_switch requires an active system")
        if self.burst_ok():
            now = self.env.now
            done_ps, cpu = self.process_on_switch_at(
                now, cycles, stall_ps,
                None if arrival is None else arrival.end_ps)
            if done_ps > now:
                yield self.env.timeout(done_ps - now)
            return cpu
        end_event = None if arrival is None else arrival.end_event
        cpu = yield self.switch_cpu_pool.get()
        try:
            if not self.config.cut_through and end_event is not None \
                    and not end_event.processed:
                # Store-and-forward ablation: no valid-bit overlap — the
                # handler may not start until the whole block is in.
                wait_start = self.env.now
                yield end_event
                cpu.accounting.add_stall(self.env.now - wait_start)
            yield from cpu.work(busy_cycles=cycles, stall_ps=stall_ps)
            if end_event is not None and not end_event.processed:
                wait_start = self.env.now
                yield end_event
                cpu.accounting.add_stall(self.env.now - wait_start)
        finally:
            yield self.switch_cpu_pool.put(cpu)
        return cpu

    def __repr__(self) -> str:
        return (f"<System {self.config.case_label}: {len(self.hosts)} hosts, "
                f"{len(self.storage_nodes)} storage, "
                f"switch={'active' if self.config.active else 'base'}>")
