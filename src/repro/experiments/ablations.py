"""Ablation studies of the active-switch design choices.

Beyond reproducing the paper's figures, these experiments isolate the
individual design decisions DESIGN.md section 7 calls out:

* **cut-through** — valid-bit streaming (handlers compute while the
  block arrives) versus store-and-forward handlers;
* **buffer count** — how many of the 16 on-chip data buffers the
  multi-stream reduction really needs;
* **clock ratio** — how fast the embedded core must be before a
  whole-application offload (MD5 on one CPU) stops losing;
* **prefetch depth** — how many outstanding disk requests it takes to
  hide the I/O path;
* **non-interference** — design goal #1: active load must not slow
  down non-active forwarding;
* **filter placement** — one switch CPU amortised across several
  passive storage streams (the paper's economic argument versus
  active disks).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from ..apps.grep import GrepApp
from ..apps.md5 import Md5App
from ..apps.reduction import (
    REDUCE_TO_ONE,
    REDUCTION_HCA,
    _make_vectors,
    run_active_reduction,
)
from ..apps.select import SelectApp
from ..cluster.config import ClusterConfig
from ..cluster.iostream import ReadStream
from ..cluster.system import System
from ..cluster.topology import SwitchTree
from ..net import ActiveHeader, ChannelAdapter, Link, Message
from ..sim import Environment
from ..sim.units import us
from ..switch import ActiveSwitch, ActiveSwitchConfig


# ----------------------------------------------------------------------
# Cut-through (valid-bit streaming) vs store-and-forward handlers
# ----------------------------------------------------------------------
def ablate_cut_through(scale: float = 1.0) -> Dict[str, float]:
    """Grep 'active' case with and without valid-bit overlap."""
    times = {}
    # One workload, both configurations: run_case rebuilds all mutable
    # simulation state per call, so app reuse is bit-identical to
    # fresh builds (tests/cluster/test_template.py).
    app = GrepApp(scale=scale)
    for cut_through, label in ((True, "cut-through"),
                               (False, "store-and-forward")):
        config = replace(
            app.cluster_config().with_case(active=True, prefetch=False),
            cut_through=cut_through)
        times[label] = app.run_case(config).exec_ps
    times["overlap benefit"] = (times["store-and-forward"]
                                / times["cut-through"])
    return times


# ----------------------------------------------------------------------
# Data-buffer count (packet-level reduction at one leaf switch)
# ----------------------------------------------------------------------
def ablate_buffer_count(num_hosts: int = 8,
                        counts=(2, 4, 8, 16)) -> List[dict]:
    """Latency of an 8-way leaf reduction vs available data buffers."""
    rows = []
    for count in counts:
        env = Environment()
        tree = SwitchTree(
            env, num_hosts=num_hosts, hosts_per_leaf=8, switch_ports=16,
            cluster_config=ClusterConfig(
                active_switch=ActiveSwitchConfig(num_buffers=count)),
            hca_config=REDUCTION_HCA)
        vectors = _make_vectors(num_hosts)
        result = run_active_reduction(tree, vectors, REDUCE_TO_ONE)
        rows.append({"buffers": count,
                     "latency_us": result.latency_ps / 1e6})
    return rows


# ----------------------------------------------------------------------
# Switch CPU clock ratio (MD5 on one embedded core)
# ----------------------------------------------------------------------
def ablate_clock_ratio(scale: float = 0.5,
                       freqs=(250e6, 500e6, 1e9, 2e9)) -> List[dict]:
    """active+pref vs normal+pref speedup as the embedded core speeds up."""
    rows = []
    app = Md5App(scale=scale, num_switch_cpus=1)
    for freq in freqs:
        base = app.cluster_config()
        normal = app.run_case(base.with_case(active=False, prefetch=True))
        active_config = replace(
            base.with_case(active=True, prefetch=True),
            active_switch=ActiveSwitchConfig(num_cpus=1, cpu_freq_hz=freq))
        active = app.run_case(active_config)
        rows.append({
            "freq_mhz": freq / 1e6,
            "speedup": normal.exec_ps / active.exec_ps,
        })
    return rows


# ----------------------------------------------------------------------
# Prefetch depth (outstanding I/O requests)
# ----------------------------------------------------------------------
def ablate_prefetch_depth(scale: float = 1 / 32,
                          depths=(1, 2, 3, 4)) -> List[dict]:
    """Select 'normal' execution time vs outstanding request count.

    Also reports the disks' measured busy fraction: one outstanding
    request leaves the spindles idle between blocks; two keep them
    saturated — which is why execution time stops improving.
    """
    rows = []
    for depth in depths:
        app = SelectApp(scale=scale)
        config = replace(app.cluster_config(), prefetch_depth=depth)
        system = System(config)
        runner = app.run_normal(system, depth)
        proc = system.env.process(runner, name=f"depth-{depth}")
        system.env.run(until=proc)
        rows.append({
            "depth": depth,
            "exec_ms": system.env.now / 1e9,
            "disk_utilization": system.storage.disks.utilization(),
        })
    return rows


# ----------------------------------------------------------------------
# Non-interference: forwarding latency under active load
# ----------------------------------------------------------------------
def measure_forwarding_latency(active_load: bool,
                               probes: int = 20) -> float:
    """Mean ep0->ep1 message latency (us) through an active switch,
    optionally while a third endpoint keeps the switch CPU saturated
    with handler work."""
    env = Environment()
    switch = ActiveSwitch(env, "sw0")
    adapters = []
    for port, name in enumerate(["ep0", "ep1", "ep2"]):
        to_switch = Link(env, f"{name}->sw0")
        from_switch = Link(env, f"sw0->{name}")
        adapter = ChannelAdapter(env, name)
        adapter.attach(tx_link=to_switch, rx_link=from_switch)
        switch.connect(port, tx_link=from_switch, rx_link=to_switch)
        switch.routing.add(name, port)
        adapters.append(adapter)
    ep0, ep1, ep2 = adapters

    def busy_handler(ctx):
        yield from ctx.compute(cycles=100_000)  # 200 us of CPU work
        yield from ctx.deallocate(ctx.address + 512)

    switch.register_handler(1, busy_handler)

    if active_load:
        def loader(env):
            for i in range(16):
                yield from ep2.transmit(Message(
                    "ep2", "sw0", size_bytes=512,
                    active=ActiveHeader(handler_id=1,
                                        address=(i % 16) * 512)))
                yield env.timeout(us(210))  # keep exactly one in flight

        env.process(loader(env))

    latencies = []

    def prober(env):
        for _ in range(probes):
            sent = env.now
            yield from ep0.transmit(Message("ep0", "ep1", 256))
            message = yield ep1.recv_queue.get()
            latencies.append(env.now - sent)
            yield env.timeout(us(100))

    probe_proc = env.process(prober(env))
    env.run(until=probe_proc)
    return sum(latencies) / len(latencies) / 1e6


def ablate_noninterference(probes: int = 20) -> Dict[str, float]:
    """Forwarding latency with vs without concurrent active load."""
    quiet = measure_forwarding_latency(active_load=False, probes=probes)
    loaded = measure_forwarding_latency(active_load=True, probes=probes)
    return {"quiet_us": quiet, "loaded_us": loaded,
            "slowdown": loaded / quiet}


# ----------------------------------------------------------------------
# Filter placement: one switch CPU serving several storage streams
# ----------------------------------------------------------------------
def ablate_filter_placement(scale: float = 1 / 64,
                            num_streams: int = 2) -> Dict[str, float]:
    """Run ``num_streams`` concurrent filtered scans through ONE switch
    CPU; report how busy it is.  Far below saturation supports the
    paper's claim that a single active switch amortises across multiple
    passive devices instead of requiring one active disk each."""
    app = SelectApp(scale=scale)
    config = replace(app.cluster_config().with_case(active=True,
                                                    prefetch=True),
                     num_storage=num_streams)
    system = System(config)
    env = system.env

    def one_stream(storage_index: int):
        stream = ReadStream(system, system.host,
                            total_bytes=app.total_bytes,
                            request_bytes=app.request_bytes, depth=2,
                            to_switch=True, request_cost="active",
                            storage_index=storage_index)
        for work in app.blocks:
            arrival = yield from stream.next_block()
            yield from system.process_on_switch(
                work.handler_cycles, 0, arrival=arrival)
            yield from system.switch_to_host_bulk(system.host,
                                                  work.out_bytes)
            yield from stream.done_with(arrival)

    procs = [env.process(one_stream(i), name=f"scan{i}")
             for i in range(num_streams)]
    env.run(until=env.all_of(procs))
    cpu = system.switch.cpus[0]
    # Streams run in parallel off separate disk arrays, so a disk-bound
    # run finishes in about one stream's worth of disk time.
    single_stream_disk_ps = app.total_bytes / 100e6 * 1e12
    return {
        "streams": float(num_streams),
        "exec_ms": env.now / 1e9,
        "switch_cpu_busy_frac": cpu.accounting.busy_ps / env.now,
        "disk_bound": float(env.now < 1.4 * single_stream_disk_ps
                            + 20e9),
    }


# ----------------------------------------------------------------------
# Storage technology scaling: when do faster disks outrun the handler?
# ----------------------------------------------------------------------
def ablate_storage_scaling(scale: float = 0.5,
                           multipliers=(1, 2, 4, 8)) -> List[dict]:
    """Grep active+pref vs normal+pref as disk bandwidth grows.

    The paper's disks stream 100 MB/s against a 500 MHz handler with
    headroom; as storage gets faster (the 2000s-to-NVMe trajectory) the
    handler becomes the bottleneck and the streaming offload's win
    erodes — the forward-looking sensitivity the paper's fixed testbed
    could not show.
    """
    from ..io.disk import DiskConfig
    rows = []
    app = GrepApp(scale=scale)
    for multiplier in multipliers:
        disk = DiskConfig(
            bandwidth_bytes_per_s=50e6 * multiplier)
        config_n = replace(
            app.cluster_config().with_case(active=False, prefetch=True),
            disk=disk)
        normal = app.run_case(config_n)
        config_a = replace(
            app.cluster_config().with_case(active=True, prefetch=True),
            disk=disk)
        active = app.run_case(config_a)
        switch_busy = (active.switch_cpus[0].busy_frac
                       if active.switch_cpus else 0.0)
        rows.append({
            "disk_mb_s": 100.0 * multiplier,
            "speedup": normal.exec_ps / active.exec_ps,
            "switch_busy_frac": switch_busy,
        })
    return rows


# ----------------------------------------------------------------------
# Selectivity: how much the filter keeps determines the traffic win
# ----------------------------------------------------------------------
def ablate_selectivity(scale: float = 1 / 128,
                       selectivities=(0.05, 0.25, 0.5, 0.9)) -> List[dict]:
    """Select's traffic and host-utilization benefits vs selectivity.

    The active switch's traffic reduction IS the predicate's
    selectivity; at 90 % kept there is little left to win.
    """
    rows = []
    for selectivity in selectivities:
        from ..runner.api import run
        result = run("select", scale=scale, selectivity=selectivity)
        rows.append({
            "selectivity": selectivity,
            "traffic_fraction": result.normalized_traffic("active"),
            "util_ratio": (result.utilization("normal+pref")
                           / max(result.utilization("active+pref"), 1e-9)),
        })
    return rows


# ----------------------------------------------------------------------
# Output queuing vs input queuing (the paper's Switch-3 design choice)
# ----------------------------------------------------------------------
def ablate_queueing_discipline(num_endpoints: int = 6,
                               messages_per_sender: int = 30):
    """Adversarial fan-in throughput: output-queued vs input-queued.

    Pattern: half the senders all target endpoint 0 (a hot output)
    while each also interleaves traffic to a cold output.  HOL blocking
    makes the cold traffic wait behind the hot in the input-queued
    switch; the output-queued design keeps the cold flows at wire speed.
    """
    from ..net import ChannelAdapter, Link, Message
    from ..switch import BaseSwitch, InputQueuedSwitch, SwitchConfig

    def run(switch_cls):
        env = Environment()
        switch = switch_cls(env, "sw0", SwitchConfig(
            num_ports=num_endpoints))
        adapters = []
        for i in range(num_endpoints):
            name = f"ep{i}"
            to_switch = Link(env, f"{name}->sw0")
            from_switch = Link(env, f"sw0->{name}")
            adapter = ChannelAdapter(env, name)
            adapter.attach(tx_link=to_switch, rx_link=from_switch)
            switch.connect(i, tx_link=from_switch, rx_link=to_switch)
            switch.routing.add(name, i)
            adapters.append(adapter)

        cold_latencies = []
        active_senders = num_endpoints - 3

        def sender(env, index):
            src = adapters[index]
            cold_dst = f"ep{num_endpoints - 1 - (index % 2)}"
            for m in range(messages_per_sender):
                # Hot packet to the shared output, then a cold one whose
                # payload carries its send time.
                yield from src.transmit(Message(src.node_id, "ep0", 512))
                yield from src.transmit(Message(src.node_id, cold_dst, 512,
                                                payload=env.now))

        def cold_receiver(env, adapter, expected):
            for _ in range(expected):
                message = yield adapter.recv_queue.get()
                cold_latencies.append(env.now - message.payload)

        senders = [env.process(sender(env, i))
                   for i in range(1, 1 + active_senders)]
        # Cold destinations are the last two endpoints.
        expected_last = sum(1 for i in range(1, 1 + active_senders)
                            if i % 2 == 1) * messages_per_sender
        expected_second = active_senders * messages_per_sender - expected_last
        receivers = [
            env.process(cold_receiver(env, adapters[num_endpoints - 1],
                                      expected_second)),
            env.process(cold_receiver(env, adapters[num_endpoints - 2],
                                      expected_last)),
        ]
        env.run(until=env.all_of(senders + receivers))
        total = env.now
        return total, sum(cold_latencies) / len(cold_latencies)

    oq_total, oq_cold = run(BaseSwitch)
    iq_total, iq_cold = run(InputQueuedSwitch)
    return {
        "output_queued_ms": oq_total / 1e9,
        "input_queued_ms": iq_total / 1e9,
        "hol_penalty": iq_total / oq_total,
        "cold_latency_ratio": iq_cold / max(oq_cold, 1),
    }


# ----------------------------------------------------------------------
# Receive discipline: polling vs interrupts (the paper's footnote)
# ----------------------------------------------------------------------
def ablate_receive_discipline(num_hosts: int = 64):
    """Reduce-to-one speedup under polling vs interrupt-driven receives.

    "The message receiver uses polling instead of interrupts, which
    favors the normal case since active switches can eliminate most of
    the interrupts."  Switching the MST baseline to interrupt-driven
    receives makes every one of its log2(p) rounds pay the interrupt
    path, widening the active system's win — quantifying how much the
    paper's choice of polling *understates* the benefit.
    """
    from dataclasses import replace as dc_replace
    from ..apps.reduction import (
        REDUCE_TO_ONE,
        REDUCTION_HCA,
        _make_vectors,
        run_active_reduction,
        run_normal_reduction,
    )

    results = {}
    for mode_name, hca in (
            ("polling", REDUCTION_HCA),
            ("interrupt", dc_replace(REDUCTION_HCA,
                                     receive_mode="interrupt",
                                     interrupt_cost_ps=30_000_000))):
        # 30 us per interrupt-driven receive: trap + handler + wakeup on
        # a 2003 kernel, vs the 18 us user-level completion poll.
        vectors = _make_vectors(num_hosts)
        normal_tree = SwitchTree(Environment(), num_hosts=num_hosts,
                                 hosts_per_leaf=8, switch_ports=16,
                                 hca_config=hca)
        normal = run_normal_reduction(normal_tree, vectors, REDUCE_TO_ONE)
        active_tree = SwitchTree(Environment(), num_hosts=num_hosts,
                                 hosts_per_leaf=8, switch_ports=16,
                                 hca_config=hca)
        active = run_active_reduction(active_tree, vectors, REDUCE_TO_ONE)
        results[mode_name] = {
            "normal_us": normal.latency_ps / 1e6,
            "active_us": active.latency_ps / 1e6,
            "speedup": normal.latency_ps / active.latency_ps,
        }
    return results


# ----------------------------------------------------------------------
# Key skew: how imbalance erodes the sort's distribution phase
# ----------------------------------------------------------------------
def ablate_sort_skew(scale: float = 1 / 512,
                     exponents=(0.0, 0.6, 1.0)) -> List[dict]:
    """Sort distribution under Zipf key skew.

    The p/(3p-2) traffic formula assumes uniform keys; with skew a
    static range partition overloads one node, the slowest node
    dominates the phase, and *both* systems degrade — the active
    switch redistributes in-flight but cannot repartition the ranges.
    """
    from ..apps.sort import SortApp
    from ..runner.api import run
    from ..workloads import datamation, zipf

    rows = []
    for exponent in exponents:
        class SkewedSort(SortApp):
            def __init__(self, scale=scale, exponent=exponent):
                super().__init__(scale=scale)
                # Re-derive per-block destination counts from skewed keys.
                per_block = self.request_bytes // datamation.RECORD_BYTES
                shift = 8 * datamation.KEY_BYTES
                self.node_blocks = []
                for node in range(self.num_nodes):
                    keys = zipf.generate_zipf_keys(
                        self.records_per_node, exponent=exponent,
                        seed=31 + node)
                    blocks = []
                    for start in range(0, len(keys), per_block):
                        counts = [0] * self.num_nodes
                        for key in keys[start:start + per_block]:
                            owner = (int.from_bytes(key, "big")
                                     * self.num_nodes) >> shift
                            counts[owner] += 1
                        blocks.append(counts)
                    self.node_blocks.append(blocks)

        probe = SkewedSort()
        imbalance = max(
            sum(counts[node] for blocks in probe.node_blocks
                for counts in blocks)
            for node in range(probe.num_nodes)
        ) / (probe.total_records / probe.num_nodes)
        # SkewedSort is a local class closing over the sweep point, so
        # it goes through run()'s factory path (serial, uncached).
        result = run(lambda: SkewedSort())
        rows.append({
            "zipf_exponent": exponent,
            "imbalance": imbalance,
            "active_exec_ms": result.case("active+pref").exec_ps / 1e9,
            "normal_exec_ms": result.case("normal+pref").exec_ps / 1e9,
            "traffic_fraction": result.normalized_traffic("active"),
        })
    return rows
