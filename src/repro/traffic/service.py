"""Open-loop service simulation: :class:`ServiceSpec` and ``repro.serve()``.

The closed-loop benchmarks answer "how long does one job take"; this
module answers the north-star question "how much traffic can a
configuration sustain, and at what tail latency".  Thousands of logical
client streams issue request-sized invocations of the paper's apps —
grep as search-as-a-service, select/hashjoin as query traffic, MD5 as
integrity checks — against one serving host + storage behind a (single
or multi-stage) switch fabric:

* arrivals come from a deterministic open-loop schedule
  (:mod:`repro.traffic.arrivals`), so load does not slow down when the
  server saturates — queues grow instead, exactly like production;
* every request passes the HCA **admission queue**
  (:mod:`repro.traffic.admission`): bounded depth, drop or
  backpressure, with queue delay accounted separately from service;
* service uses the *real* simulated components: striped disk reads,
  SCSI + TCA costs, the switch (handler offload + per-CPU contention
  in the ``active`` case), shared host downlink, HCA overheads, and
  the host CPU with its cache-hierarchy stall model;
* per-stream and aggregate latencies land in mergeable
  :class:`~repro.metrics.QuantileEstimator` sketches, giving
  p50/p95/p99/max, goodput, and drop rate per run.

A :class:`ServiceSpec` is frozen, picklable, and fingerprintable — the
service analogue of :class:`~repro.runner.AppSpec` — so ``serve()``
results cache and parallelize bit-identically (serial ≡ parallel ≡
cache-restored).

Request lifecycle (one obs instant per transition when a trace
collector is attached): ``arrival → admit (or drop) → dispatch →
complete``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Tuple

from ..cluster.fabric import TOPOLOGY_KINDS
from ..metrics.report import Report
from ..metrics.sampling import QuantileEstimator
from ..net.packet import HEADER_BYTES
from ..sim.resources import Resource
from ..sim.units import transfer_ps
from .admission import ADMISSION_POLICIES, CLOSED, AdmissionQueue
from .arrivals import ARRIVAL_KINDS, Arrival, generate_schedule

#: Service configurations (prefetch is a streaming concept; open-loop
#: requests are naturally pipelined by the worker pool instead).
SERVICE_CASES = ("normal", "active")

#: Wire size of one request message (a descriptor, not the data).
REQUEST_MESSAGE_BYTES = 128

#: Minimum response size (completion + status, even with no payload).
MIN_RESPONSE_BYTES = 64

#: Percentiles every latency series reports.
SERVICE_PERCENTILES = (50.0, 95.0, 99.0)

_SECOND_PS = 1_000_000_000_000


@dataclass(frozen=True)
class ServiceSpec:
    """One open-loop service configuration, ready to run or sweep.

    Like :class:`~repro.runner.AppSpec`: frozen, hashable, picklable,
    canonically fingerprintable.  Build one with
    :func:`make_service_spec` (which normalizes ``overrides`` dicts)
    or directly.
    """

    app: str = "grep"
    case: str = "active"
    arrival: str = "poisson"
    rate_rps: float = 1000.0
    duration_s: float = 0.02
    num_streams: int = 64
    num_keys: int = 256
    zipf_exponent: float = 1.1
    depth: int = 64
    policy: str = "drop"
    workers: int = 8
    topology: str = "single"
    hosts: int = 1
    preset: Optional[str] = None
    overrides: Tuple[Tuple[str, object], ...] = ()
    seed: int = 0
    scale: float = 0.05
    slo_ms: Optional[float] = None
    burst_factor: float = 4.0
    burst_fraction: float = 0.1
    cycle_s: float = 0.005

    def __post_init__(self):
        if self.case not in SERVICE_CASES:
            raise ValueError(f"unknown service case {self.case!r}; "
                             f"known: {SERVICE_CASES}")
        if self.arrival not in ARRIVAL_KINDS:
            raise ValueError(f"unknown arrival kind {self.arrival!r}; "
                             f"known: {ARRIVAL_KINDS}")
        if self.topology not in TOPOLOGY_KINDS:
            raise ValueError(f"unknown topology {self.topology!r}; "
                             f"known: {TOPOLOGY_KINDS}")
        if self.policy not in ADMISSION_POLICIES:
            raise ValueError(f"unknown admission policy {self.policy!r}; "
                             f"known: {ADMISSION_POLICIES}")
        if self.rate_rps <= 0:
            raise ValueError(f"rate_rps must be positive, got {self.rate_rps}")
        if self.duration_s <= 0:
            raise ValueError(
                f"duration_s must be positive, got {self.duration_s}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.hosts < 1:
            raise ValueError(f"hosts must be >= 1, got {self.hosts}")
        if self.topology != "single" and self.hosts < 2:
            raise ValueError(
                "multi-switch topologies need hosts >= 2 (one server "
                "plus at least one client-facing port)")
        if self.slo_ms is not None and self.slo_ms <= 0:
            raise ValueError(f"slo_ms must be positive, got {self.slo_ms}")

    @property
    def label(self) -> str:
        """Short human name: ``grep:active@fat_tree poisson@2000rps``."""
        return (f"{self.app}:{self.case}@{self.topology} "
                f"{self.arrival}@{self.rate_rps:g}rps")

    def at_rate(self, rate_rps: float) -> "ServiceSpec":
        """The same configuration at a different offered load."""
        return replace(self, rate_rps=rate_rps)


def make_service_spec(app="grep", *, overrides: Optional[dict] = None,
                      **params) -> ServiceSpec:
    """Normalize kwargs (and ``overrides`` dicts) into a ServiceSpec."""
    if isinstance(app, ServiceSpec):
        if params or overrides:
            raise ValueError("pass parameters inside the ServiceSpec, "
                             "not alongside it")
        return app
    if not isinstance(app, str):
        raise TypeError(f"app must be a registered application name, "
                        f"got {app!r}")
    return ServiceSpec(
        app=app,
        overrides=tuple(sorted((overrides or {}).items())),
        **params)


# ----------------------------------------------------------------------
# Result container
# ----------------------------------------------------------------------
@dataclass
class ServiceResult:
    """Everything one open-loop run measured (JSON-losslessly codable)."""

    name: str
    app: str
    case: str
    topology: str
    arrival: str
    policy: str
    rate_rps: float
    seed: int
    slo_ms: Optional[float]
    duration_ps: int
    horizon_ps: int
    offered: int
    admitted: int
    dropped: int
    completed: int
    drop_rate: float
    offered_rps: float
    throughput_rps: float
    goodput_rps: float
    slo_attainment: float
    latency_us: Dict[str, float]
    queue_delay_us: Dict[str, float]
    service_time_us: Dict[str, float]
    streams: int
    worst_stream_p99_us: Optional[float]
    admission: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)

    # -- reporting ----------------------------------------------------
    def latency_summary(self) -> Dict[str, object]:
        """The sections :meth:`repro.metrics.Report.latency` renders."""
        return {
            "series": {
                "latency (us)": self.latency_us,
                "queue delay (us)": self.queue_delay_us,
                "service time (us)": self.service_time_us,
            },
            "rates": {
                "offered RPS": self.offered_rps,
                "throughput RPS": self.throughput_rps,
                "goodput RPS": self.goodput_rps,
                "drop rate": self.drop_rate,
                "SLO attainment": self.slo_attainment,
            },
            "slo_ms": self.slo_ms,
            "worst_stream_p99_us": self.worst_stream_p99_us,
            "streams": self.streams,
        }

    def report(self) -> Report:
        """Figure-style renderings; :meth:`Report.latency` is the one
        that applies to service results."""
        return Report(self)

    def meets_slo(self, slo_ms: Optional[float] = None,
                  max_drop_rate: float = 0.01) -> bool:
        """Did this run sustain its load under the (given) SLO?"""
        slo = self.slo_ms if slo_ms is None else slo_ms
        if self.drop_rate > max_drop_rate:
            return False
        if self.completed < self.admitted:
            return False
        if slo is not None:
            p99 = self.latency_us.get("p99")
            if p99 is None or p99 > slo * 1000.0:
                return False
        return True

    # -- lossless codec (cache entries, pool results) -----------------
    def to_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ServiceResult":
        return cls(**data)


# ----------------------------------------------------------------------
# Topology-derived client path lengths
# ----------------------------------------------------------------------
def _client_hops(kind: str, hosts: int) -> List[int]:
    """Switch hops from each host to ``host0`` (the serving host).

    Delegates to the per-process template cache
    (:func:`repro.cluster.template.client_hops`), which wires the real
    fabric once per (kind, hosts) and walks its routing tables.
    """
    from ..cluster.template import client_hops
    return client_hops(kind, hosts)


# ----------------------------------------------------------------------
# The simulation
# ----------------------------------------------------------------------
def _stall(fn, hierarchy) -> int:
    return fn(hierarchy) if fn is not None else 0


def _summary(est: QuantileEstimator) -> Dict[str, float]:
    return est.summary(SERVICE_PERCENTILES)


def build_service_app(spec: ServiceSpec):
    """Build the (app spec, app) pair a service run simulates against.

    Split out so callers that time the simulation (``repro.bench``) can
    hoist the workload generation — amortised, not part of the
    simulator hot path — out of the measured region, mirroring the
    stream-app ``prepare_s`` methodology.
    """
    from ..runner.spec import make_spec

    app_spec = make_spec(spec.app, preset=spec.preset,
                         overrides=dict(spec.overrides), scale=spec.scale)
    return app_spec, app_spec.build()


def _simulate(spec: ServiceSpec, trace=None, prebuilt=None) -> ServiceResult:
    """One deterministic open-loop run (the serial reference path).

    ``prebuilt`` optionally supplies the ``(app_spec, app)`` pair from
    :func:`build_service_app`; otherwise the per-process template cache
    serves it, so sweep points at different rates share one built app.
    The simulation itself is identical either way.
    """
    from ..cluster.template import cached_service_app, system_template

    app_spec, app = (prebuilt if prebuilt is not None
                     else cached_service_app(spec))
    config = app_spec.base_config(app)
    config = replace(config, seed=spec.seed)
    config = config.with_case(active=(spec.case == "active"),
                              prefetch=False)

    from ..cluster.system import System
    system = System(config, template=system_template(config))
    env = system.env
    if trace is not None:
        system.attach_trace(trace)
    env.add_context(app=f"serve:{spec.app}", config=spec.label)

    host = system.host
    storage = system.storage
    # Warm service: heads parked at the log's start, so the first
    # request measures steady-state service, not a cold 5 ms seek.
    storage.disks.position_heads(0)
    hca_cfg = config.hca
    link_cfg = config.link
    routing_ps = config.switch.routing_latency_ps

    schedule = generate_schedule(
        spec.arrival, spec.rate_rps, spec.duration_s,
        num_streams=spec.num_streams, num_keys=spec.num_keys,
        zipf_exponent=spec.zipf_exponent, seed=spec.seed,
        burst_factor=spec.burst_factor, burst_fraction=spec.burst_fraction,
        cycle_s=spec.cycle_s)

    # Client access paths: streams map round-robin onto the fabric's
    # non-serving hosts; hop counts come from real routing-table walks.
    hops = _client_hops(spec.topology, spec.hosts)
    if spec.hosts > 1:
        stream_hops = [hops[1 + (s % (spec.hosts - 1))]
                       for s in range(spec.num_streams)]
    else:
        stream_hops = [hops[0]] * spec.num_streams

    def _net_ps(nbytes: int, hop_count: int) -> int:
        # Cut-through: one serialization plus per-hop latch/propagation,
        # NIC processing at both ends.
        return (2 * hca_cfg.per_packet_ps
                + transfer_ps(nbytes + HEADER_BYTES,
                              link_cfg.bandwidth_bytes_per_s)
                + hop_count * (link_cfg.propagation_ps + routing_ps))

    ingress_ps = [_net_ps(REQUEST_MESSAGE_BYTES, h) for h in stream_hops]

    queue = AdmissionQueue(env, depth=spec.depth, policy=spec.policy)
    host.hca.attach_admission(queue)
    host_cpu = Resource(env, capacity=1, name="service-host-cpu")

    blocks = app.blocks
    per_stream: Dict[int, QuantileEstimator] = {}
    queue_delay_est = QuantileEstimator()
    service_time_est = QuantileEstimator()
    # Burst-path stand-in for the ``host_cpu`` Resource: workers reach
    # it in chronological order, so a scalar free-at grants in the same
    # FIFO order (see repro.sim.burst).
    state = {"completed": 0, "ok": 0, "last_completion_ps": 0,
             "cursor": 0, "cpu_free_ps": 0}
    slo_ps = (None if spec.slo_ms is None
              else int(spec.slo_ms * 1_000_000_000))

    def emit(name: str, arr: Arrival) -> None:
        collector = env.trace
        if collector is not None:
            collector.instant("traffic", name, env.now,
                              req=arr.index, stream=arr.stream)

    def feeder(env):
        # Server-side arrival order: client timestamp plus access-path
        # latency (streams nearer the serving leaf arrive sooner).
        arrivals = sorted(
            ((arr.t_ps + ingress_ps[arr.stream], arr.index, arr)
             for arr in schedule), key=lambda item: item[:2])
        for t_server, _, arr in arrivals:
            if t_server > env.now:
                yield env.timeout(t_server - env.now)
            emit("service.arrival", arr)
            admitted = yield from queue.offer(arr)
            emit("service.admit" if admitted else "service.drop", arr)
        queue.close(spec.workers)

    def worker(env):
        while True:
            entry = yield from queue.take()
            if entry is CLOSED:
                return
            offered_ps, arr = entry
            dispatch_ps = env.now
            emit("service.dispatch", arr)
            work = blocks[arr.key_rank % len(blocks)]
            burst = system.burst_ok()

            # Post the storage read (queue-pair doorbell on the host).
            #
            # Burst fast path: the request's post -> storage -> handler
            # dispatch prefix is a chain of FIFO stages whose
            # completion order equals dispatch order, so all of its
            # reservations can be made *now* at future ready times and
            # still grant exactly as the staged walk (and the per-block
            # Resources) would — one timeout replaces one per stage.
            # Past the multi-CPU handler pool a later request can
            # overtake an earlier one, so from there the walk stays at
            # real event times.
            post_ps = hca_cfg.recv_poll_ps + hca_cfg.send_overhead_ps
            if burst:
                start = max(env.now, state["cpu_free_ps"])
                acct = host.cpu.accounting
                acct.add_busy(hca_cfg.recv_poll_ps)
                acct.add_busy(hca_cfg.send_overhead_ps)
                post_done = start + post_ps
                state["cpu_free_ps"] = post_done
            else:
                with host_cpu.request() as grant:
                    yield grant
                    yield from host.cpu.busy(hca_cfg.recv_poll_ps)
                    yield from host.cpu.busy(hca_cfg.send_overhead_ps)

            # Storage: TCA + SCSI + striped spindles, log-structured
            # (sequential) layout so positioning amortizes like the
            # paper's streams.
            offset = state["cursor"]
            state["cursor"] += work.nbytes
            if burst:
                _, read_done = storage.serve_read_burst(
                    post_done, offset, work.nbytes)
            else:
                yield from storage.serve_read(offset, work.nbytes)

            if spec.case == "active":
                # Handler on a free switch CPU (contended pool), then
                # only the filtered bytes cross the host downlink.
                if burst:
                    peek = system.switch_cpu_peek_at(read_done)
                    stall = _stall(work.handler_stall_fn, peek.hierarchy)
                    handler_done = system.process_on_switch_at(
                        read_done, work.handler_cycles, stall)
                    if handler_done > env.now:
                        yield env.timeout(handler_done - env.now)
                    if work.out_bytes > 0:
                        end = system.switch_to_host_bulk_at(
                            host, work.out_bytes, env.now)
                        if end > env.now:
                            yield env.timeout(end - env.now)
                else:
                    peek = system.switch_cpu_peek()
                    stall = _stall(work.handler_stall_fn, peek.hierarchy)
                    yield from system.process_on_switch(
                        work.handler_cycles, stall)
                    if work.out_bytes > 0:
                        yield from system.switch_to_host_bulk(
                            host, work.out_bytes)
                host_cycles = work.active_host_cycles
                host_stall_fn = work.active_host_stall_fn
            else:
                # The whole block crosses the (shared) host downlink —
                # single-wire FIFO, so the burst walk reserves it at
                # the analytic arrival time and sleeps once.
                if burst:
                    end = system.switch_to_host_bulk_at(
                        host, work.nbytes, read_done)
                    if end > env.now:
                        yield env.timeout(end - env.now)
                else:
                    yield from system.switch_to_host_bulk(host, work.nbytes)
                host_cycles = work.host_cycles
                host_stall_fn = work.host_stall_fn

            # Host portion + response post, on the contended host CPU.
            if burst:
                start = max(env.now, state["cpu_free_ps"])
                acct = host.cpu.accounting
                acct.add_busy(hca_cfg.recv_poll_ps)
                stall = _stall(host_stall_fn, host.hierarchy)
                work_ps = host.cpu.clock.cycles(host_cycles)
                acct.add_busy(work_ps)
                acct.add_stall(stall)
                acct.add_busy(hca_cfg.send_overhead_ps)
                state["cpu_free_ps"] = (start + hca_cfg.recv_poll_ps
                                        + work_ps + stall
                                        + hca_cfg.send_overhead_ps)
                if state["cpu_free_ps"] > env.now:
                    yield env.timeout(state["cpu_free_ps"] - env.now)
            else:
                with host_cpu.request() as grant:
                    yield grant
                    yield from host.cpu.busy(hca_cfg.recv_poll_ps)
                    stall = _stall(host_stall_fn, host.hierarchy)
                    yield from host.cpu.work(host_cycles, stall)
                    yield from host.cpu.busy(hca_cfg.send_overhead_ps)

            done_ps = env.now
            emit("service.complete", arr)
            response_bytes = max(work.out_bytes, MIN_RESPONSE_BYTES)
            host.hca.account_bulk_out(response_bytes)
            egress = _net_ps(response_bytes, stream_hops[arr.stream])
            latency_ps = done_ps + egress - arr.t_ps
            est = per_stream.get(arr.stream)
            if est is None:
                est = per_stream[arr.stream] = QuantileEstimator()
            est.add(latency_ps / 1e6)
            queue_delay_est.add((dispatch_ps - offered_ps) / 1e6)
            service_time_est.add((done_ps - dispatch_ps) / 1e6)
            state["completed"] += 1
            if slo_ps is None or latency_ps <= slo_ps:
                state["ok"] += 1
            state["last_completion_ps"] = max(state["last_completion_ps"],
                                              done_ps + egress)

    system.metrics.register("service.offered", lambda: queue.offered)
    system.metrics.register("service.admitted", lambda: queue.admitted)
    system.metrics.register("service.dropped", lambda: queue.dropped)
    system.metrics.register("service.completed",
                            lambda: state["completed"])

    procs = [env.process(feeder(env), name="service-feeder")]
    for i in range(spec.workers):
        procs.append(env.process(worker(env), name=f"service-worker{i}"))
    env.run(until=env.all_of(procs))

    duration_ps = int(round(spec.duration_s * _SECOND_PS))
    horizon_ps = max(duration_ps, state["last_completion_ps"])
    horizon_s = horizon_ps / _SECOND_PS
    aggregate = QuantileEstimator.merged(
        [per_stream[s] for s in sorted(per_stream)])
    completed = state["completed"]
    worst_p99 = None
    for est in per_stream.values():
        p99 = est.percentile(99)
        if worst_p99 is None or (p99 is not None and p99 > worst_p99):
            worst_p99 = p99

    return ServiceResult(
        name=spec.label,
        app=spec.app,
        case=spec.case,
        topology=spec.topology,
        arrival=spec.arrival,
        policy=spec.policy,
        rate_rps=spec.rate_rps,
        seed=spec.seed,
        slo_ms=spec.slo_ms,
        duration_ps=duration_ps,
        horizon_ps=horizon_ps,
        offered=queue.offered,
        admitted=queue.admitted,
        dropped=queue.dropped,
        completed=completed,
        drop_rate=queue.drop_rate,
        offered_rps=queue.offered / spec.duration_s,
        throughput_rps=completed / horizon_s,
        goodput_rps=state["ok"] / horizon_s,
        slo_attainment=(state["ok"] / completed) if completed else 0.0,
        latency_us=_summary(aggregate),
        queue_delay_us=_summary(queue_delay_est),
        service_time_us=_summary(service_time_est),
        streams=len(per_stream),
        worst_stream_p99_us=worst_p99,
        admission=queue.snapshot(env.now),
        extra=system.reliability_report(),
    )


# ----------------------------------------------------------------------
# Front door
# ----------------------------------------------------------------------
def service_key(spec: ServiceSpec) -> str:
    """Cache key: spec content + code version (like ``cell_key``)."""
    from ..runner.fingerprint import code_version, fingerprint
    return fingerprint("service", spec, code_version())


def serve(app="grep", *, cache=None, trace=None, **params) -> ServiceResult:
    """Run one open-loop service configuration.

    ``app`` is a :class:`ServiceSpec` (the canonical typed path) or a
    registered application name with spec fields as keywords::

        import repro

        spec = repro.ServiceSpec(app="grep", case="active",
                                 rate_rps=2000, slo_ms=2.0)
        result = repro.serve(spec, cache=True)
        print(result.report().latency())

    ``cache`` works like ``repro.run``'s: ``True`` for the default
    directory, a path, or a :class:`~repro.runner.ResultCache`.  Cached
    results restore bit-identically (the codec is lossless).  ``trace``
    is an optional ``repro.obs.TraceCollector`` receiving one instant
    per request transition (arrival/admit/drop/dispatch/complete);
    tracing bypasses the cache so the observed simulation really runs.
    """
    spec = make_service_spec(app, **params)
    if trace is not None:
        return _simulate(spec, trace=trace)
    from ..runner.cache import resolve_cache
    store = resolve_cache(cache)
    if store is None:
        return _simulate(spec)
    key = service_key(spec)
    payload = store.get_json(key)
    if payload is not None:
        return ServiceResult.from_dict(payload)
    result = _simulate(spec)
    store.put_json(key, result.to_dict(), meta={"label": spec.label})
    return result
