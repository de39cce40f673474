"""Declarative multi-stage SAN fabrics.

The paper evaluates one active switch; its Section 6 sketches how the
design scales out — "we can organize the switches logically in a tree"
— and real system-area networks of the era (and since) are built as
multi-stage fabrics: trees for aggregation, folded-Clos/fat-tree
leaf-spine cores for bandwidth.  This module turns a declarative
:class:`TopologySpec` into a fully wired fabric of active switches,
links, and HCAs with consistent routing tables:

* ``kind="tree"`` — a multi-level aggregation tree (the paper's
  Section 6 shape) with configurable internal ``radix``;
* ``kind="fat_tree"`` — a two-stage leaf-spine Clos: every leaf
  connects to every spine, and cross-leaf traffic spreads across the
  spines with deterministic ECMP (flow-hashed, so a message's packets
  stay in order and runs reproduce bit for bit).

Both expose the same :class:`Fabric` interface — ``hosts``, ``levels``,
``aggregation_root``, ``leaf_of``, ``path`` tracing, and ``validate()``
— which is what the handler-placement engine
(:mod:`repro.cluster.placement`) programs against.  :class:`TreeFabric`
is the only tree builder: the Figure 15/16 reduction tree
(:class:`repro.cluster.topology.SwitchTree`) is a ``kind="tree"`` fabric
too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..net.hca import HcaConfig
from ..net.link import Link
from ..net.routing import RoutingError
from ..sim.core import Environment
from ..switch.active import ActiveSwitch
from ..switch.base import SwitchConfig
from .config import ClusterConfig
from .node import ComputeNode
from .validation import validate_fabric

#: Recognized topology kinds.
TOPOLOGY_KINDS = ("single", "tree", "fat_tree")


class TopologyError(ValueError):
    """A topology specification cannot be wired consistently."""


@dataclass
class TreeSwitch:
    """One switch plus its tree bookkeeping."""

    switch: ActiveSwitch
    level: int
    parent: Optional["TreeSwitch"] = None
    children: List["TreeSwitch"] = field(default_factory=list)
    hosts: List[ComputeNode] = field(default_factory=list)
    #: Hosts in this switch's subtree (for routing).
    subtree_hosts: List[str] = field(default_factory=list)
    #: Fail-stop ground truth: when this switch died (None = alive).
    failed_at: Optional[int] = None
    #: When a surviving neighbor first *detected* the death; the gap to
    #: ``failed_at`` is the fabric's detection latency.
    detected_down_at: Optional[int] = None

    @property
    def is_down(self) -> bool:
        return self.failed_at is not None

    @property
    def name(self) -> str:
        return self.switch.name

    @property
    def fan_in(self) -> int:
        """Streams this switch combines: hosts (leaf) or children."""
        return len(self.hosts) if self.hosts else len(self.children)


class FabricPartitioned(TopologyError):
    """A fail-stop left some live host pair with no surviving path.

    Raised by :meth:`Fabric.path` / :meth:`Fabric.check_partition`
    instead of letting a collective hang forever on an unroutable
    fabric; callers (the placed-reduction retry loop) surface it as
    "unrecoverable" rather than retrying."""


@dataclass
class FtStats:
    """Fabric-level fail-stop accounting (kills, detection, repair)."""

    switch_kills: int = 0
    link_kills: int = 0
    revivals: int = 0
    #: Heartbeat/ACK-escalation port-down detections fabric-wide.
    detections: int = 0
    #: Aggregation-tree repairs (collective re-roots) performed.
    repairs: int = 0
    detection_latency_ps_total: int = 0
    detection_latency_ps_max: int = 0
    #: Per-detection latencies (ground-truth death -> neighbor marking).
    latencies_ps: List[int] = field(default_factory=list)

    def record_detection(self, latency_ps: int) -> None:
        self.detections += 1
        self.detection_latency_ps_total += latency_ps
        self.detection_latency_ps_max = max(
            self.detection_latency_ps_max, latency_ps)
        self.latencies_ps.append(latency_ps)

    @property
    def detection_latency_ps_mean(self) -> float:
        if not self.detections:
            return 0.0
        return self.detection_latency_ps_total / self.detections


@dataclass(frozen=True)
class TopologySpec:
    """Declarative description of a fabric shape.

    Frozen and hashable, so it can ride inside an
    :class:`~repro.runner.AppSpec` and fingerprint a run.
    ``oversubscription`` is the leaf-spine ratio ``hosts_per_leaf /
    spines`` (1.0 = full bisection); ``spines`` wins when both given.
    """

    kind: str = "tree"
    num_hosts: int = 64
    hosts_per_leaf: int = 8
    switch_ports: int = 16
    #: Internal fan-in of tree levels (None -> hosts_per_leaf).
    radix: Optional[int] = None
    #: Fat-tree core width (None -> derived from oversubscription).
    spines: Optional[int] = None
    oversubscription: float = 2.0

    def __post_init__(self):
        if self.kind not in TOPOLOGY_KINDS:
            raise TopologyError(
                f"unknown topology kind {self.kind!r}; "
                f"expected one of {TOPOLOGY_KINDS}")
        if self.num_hosts < 1:
            raise TopologyError("need at least one host")
        if self.oversubscription <= 0:
            raise TopologyError("oversubscription must be positive")

    @property
    def num_leaves(self) -> int:
        return -(-self.num_hosts // self.hosts_per_leaf)

    @property
    def num_spines(self) -> int:
        """Resolved fat-tree core width."""
        if self.spines is not None:
            return self.spines
        return max(1, int(math.ceil(
            self.hosts_per_leaf / self.oversubscription)))


class Fabric:
    """A wired multi-switch fabric with hosts on the leaves.

    ``levels[0]`` are the leaf switches; ``levels[-1]`` is the top of
    the fabric.  Concrete shapes (:class:`TreeFabric`,
    :class:`FatTreeFabric`) fill in the wiring; the shared interface is
    everything the placement engine and the experiments need.
    """

    def __init__(self, env: Environment, spec: TopologySpec,
                 cluster_config: Optional[ClusterConfig] = None,
                 hca_config: Optional[HcaConfig] = None,
                 injector=None):
        self.env = env
        self.spec = spec
        self.cluster_config = cluster_config or ClusterConfig()
        self.hca_config = hca_config or self.cluster_config.hca
        self.injector = injector
        self.hosts: List[ComputeNode] = []
        self.levels: List[List[TreeSwitch]] = []
        self.ft = FtStats()
        self._link_index: Optional[Dict[str, Link]] = None
        self._failstop_armed = False

    # -- interface -----------------------------------------------------
    @property
    def switches(self) -> List[TreeSwitch]:
        return [node for level in self.levels for node in level]

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def aggregation_root(self) -> TreeSwitch:
        """The switch where hierarchical aggregation finalizes."""
        return self.levels[-1][0]

    def leaf_of(self, host: ComputeNode) -> TreeSwitch:
        for leaf in self.levels[0]:
            if host in leaf.hosts:
                return leaf
        raise ValueError(f"{host.name} not in this fabric")

    def path(self, src: str, dst: str) -> List[str]:
        """Switch names a ``src -> dst`` packet traverses, in order.

        Walks the real routing tables with the same flow key the
        switches use, so the trace matches simulation exactly (ECMP
        included).  Raises :class:`TopologyError` on a routing loop.
        """
        by_name = {node.name: node for node in self.switches}
        entry = None
        for leaf in self.levels[0]:
            for host in leaf.hosts:
                if host.name == src:
                    entry = leaf
        if entry is None:
            entry = by_name.get(src)
        if entry is None:
            raise ValueError(f"unknown source {src!r}")
        hops: List[str] = []
        current = entry
        limit = len(self.switches) + 1
        while True:
            hops.append(current.name)
            if current.name == dst:
                return hops
            if len(hops) > limit:
                raise TopologyError(
                    f"routing loop tracing {src} -> {dst}: {hops}")
            try:
                port = current.switch.routing.lookup(dst,
                                                     flow_key=(src, dst))
            except RoutingError as exc:
                raise FabricPartitioned(
                    f"no surviving route {src} -> {dst} at "
                    f"{current.name}: {exc}") from exc
            link = current.switch._tx_links[port]
            if link is None:
                raise TopologyError(
                    f"{current.name} routes {dst} to unconnected port {port}")
            _, _, neighbor = link.name.partition("->")
            if neighbor == dst:
                return hops
            nxt = by_name.get(neighbor)
            if nxt is None:
                raise TopologyError(
                    f"{current.name} routes {dst} off-fabric via {neighbor}")
            current = nxt

    def client_hops(self, server_index: int = 0) -> List[int]:
        """Per-host switch-hop counts to the serving host.

        One entry per host, in host order: the number of switches a
        request from that host traverses to reach
        ``hosts[server_index]``, walking the real routing tables (ECMP
        included) via :meth:`path`.  The serving host itself counts its
        own leaf (one hop), matching the single-switch base case.  Pure
        data — the service layer caches it per topology shape
        (:func:`repro.cluster.template.client_hops`).
        """
        server = self.hosts[server_index].name
        hops: List[int] = []
        for index, host in enumerate(self.hosts):
            if index == server_index:
                hops.append(1)
            else:
                hops.append(len(self.path(host.name, server)))
        return hops

    # -- fail-stop management plane ------------------------------------
    @property
    def links(self) -> Dict[str, Link]:
        """Every link direction in the fabric, by ``"src->dst"`` name.

        Indexed lazily after construction: switch tx links cover every
        switch-originated direction, host HCA tx links the host->leaf
        directions."""
        if self._link_index is None:
            index: Dict[str, Link] = {}
            for node in self.switches:
                for link in node.switch._tx_links:
                    if link is not None:
                        index[link.name] = link
            for host in self.hosts:
                tx = host.hca._tx_link
                if tx is not None:
                    index[tx.name] = tx
            self._link_index = index
        return self._link_index

    def _by_name(self) -> Dict[str, TreeSwitch]:
        return {node.name: node for node in self.switches}

    def _links_touching(self, name: str) -> List[Link]:
        return [link for link_name, link in self.links.items()
                if name in link_name.split("->")]

    def fail_link(self, src: str, dst: str, detect: bool = False) -> bool:
        """Fail-stop the ``src->dst`` wire.  Unknown links are ignored
        (returns False) so one fault plan can ride a topology sweep.
        ``detect=True`` additionally declares the link down immediately
        (zero-latency detection, for static tests); the honest path
        leaves discovery to ACK escalation / heartbeats."""
        link = self.links.get(f"{src}->{dst}")
        if link is None:
            return False
        link.fail()
        self.ft.link_kills += 1
        if self.env.trace is not None:
            self.env.trace.instant("fabric", "link.down", self.env.now,
                                   link=link.name)
        if detect:
            self._declare(link)
        return True

    def fail_switch(self, name: str, detect: bool = False) -> bool:
        """Fail-stop a whole switch: every wire touching it dies with
        it.  Returns False when ``name`` is not in this fabric."""
        node = self._by_name().get(name)
        if node is None:
            return False
        node.failed_at = self.env.now
        for link in self._links_touching(name):
            link.fail()
        self.ft.switch_kills += 1
        if self.env.trace is not None:
            self.env.trace.instant("fabric", "switch.down", self.env.now,
                                   switch=name, level=node.level)
        if detect:
            for link in self._links_touching(name):
                _, _, dst = link.name.partition("->")
                if dst == name:
                    self._declare(link)
        return True

    def _declare(self, link: Link) -> None:
        """Immediate-detection helper: declare a dead wire at its
        sender, firing the owning switch's failover listener."""
        if link.is_down and link.declared_down_at is None:
            if not self._failstop_armed:
                self.ft.record_detection(self.env.now - link._down_since)
                self._note_detected(link)
            link._declare_down()

    def _note_detected(self, link: Link) -> None:
        _, _, dst = link.name.partition("->")
        node = self._by_name().get(dst)
        if node is not None and node.failed_at is not None \
                and node.detected_down_at is None:
            node.detected_down_at = self.env.now

    def revive_link(self, src: str, dst: str) -> bool:
        """Bring one wire back and readmit it at its sender's routing."""
        link = self.links.get(f"{src}->{dst}")
        if link is None:
            return False
        link.revive()
        link.declared_down_at = None
        self._restore_routing(link)
        self.ft.revivals += 1
        if self.env.trace is not None:
            self.env.trace.instant("fabric", "link.up", self.env.now,
                                   link=link.name)
        return True

    def revive_switch(self, name: str) -> bool:
        """Revive a fail-stopped switch: wires come back and neighbors
        readmit their ports.  Handler state died with the switch — the
        epoch-numbered collective recovery re-installs what it needs."""
        node = self._by_name().get(name)
        if node is None:
            return False
        node.failed_at = None
        node.detected_down_at = None
        for link in self._links_touching(name):
            link.revive()
            link.declared_down_at = None
            self._restore_routing(link)
        self.ft.revivals += 1
        if self.env.trace is not None:
            self.env.trace.instant("fabric", "switch.up", self.env.now,
                                   switch=name)
        return True

    def _restore_routing(self, link: Link) -> None:
        src, _, _ = link.name.partition("->")
        owner = self._by_name().get(src)
        if owner is None:
            return
        for port, tx in enumerate(owner.switch._tx_links):
            if tx is link:
                owner.switch.port_restore(port)
                return

    def detected_down(self) -> Dict[str, int]:
        """Switches some surviving sender has declared unreachable:
        ``{switch_name: earliest declaration time}``.  This is the
        *detected* view (what repair may act on), not ground truth."""
        suspected: Dict[str, int] = {}
        by_name = self._by_name()
        for link_name, link in self.links.items():
            if link.declared_down_at is None:
                continue
            _, _, dst = link_name.partition("->")
            if dst in by_name:
                at = link.declared_down_at
                suspected[dst] = min(suspected.get(dst, at), at)
        return suspected

    @property
    def failovers(self) -> int:
        """Ports failed over (marked down) across the whole fabric."""
        return sum(node.switch.stats.ports_failed for node in self.switches)

    @property
    def failstop_armed(self) -> bool:
        """Is the fail-stop driver (events + heartbeats) running?"""
        return self._failstop_armed

    def _has_down(self) -> bool:
        """Any fail-stopped component (ground truth or declared)?"""
        if any(node.failed_at is not None for node in self.switches):
            return True
        return any(link.is_down or link.declared_down_at is not None
                   for link in self.links.values())

    def check_partition(self) -> None:
        """Raise :class:`FabricPartitioned` when some pair of live
        hosts has no route over the surviving components (walking the
        real, failover-aware routing tables)."""
        survivors = [node.switch for node in self.switches
                     if node.failed_at is None]
        live_hcas = []
        for host in self.hosts:
            tx = host.hca._tx_link
            if tx is not None and tx.is_down:
                continue
            live_hcas.append(host.hca)
        issues = validate_fabric(survivors, live_hcas)
        unreachable = [issue for issue in issues
                       if issue.kind in ("unreachable", "loop")]
        if unreachable:
            raise FabricPartitioned(
                f"{len(unreachable)} unroutable pairs among survivors:\n  "
                + "\n  ".join(str(issue) for issue in unreachable[:8]))

    def register_metrics(self, metrics) -> None:
        """Expose failover/repair counters on a MetricsRegistry."""
        metrics.register("fabric.failovers", lambda: float(self.failovers))
        metrics.register("fabric.repairs", lambda: float(self.ft.repairs))
        metrics.register("fabric.detections",
                         lambda: float(self.ft.detections))
        metrics.register("fabric.detection_latency_ps.max",
                         lambda: float(self.ft.detection_latency_ps_max))
        metrics.register("fabric.detection_latency_ps.mean",
                         lambda: float(self.ft.detection_latency_ps_mean))

    def _arm_failstop(self) -> None:
        """Start the fail-stop event driver and per-switch heartbeats.

        A no-op unless the injector's plan schedules fail-stop events —
        failure-free runs spawn no extra processes and stay bit-identical
        to the pre-failstop simulator."""
        if self.injector is None:
            return
        cfg = self.injector.plan.failstop
        if cfg is None or not cfg.enabled:
            return
        self._failstop_armed = True
        # Detection accounting rides the declaration itself, so both
        # discovery paths (ACK escalation and heartbeat) land in FtStats.
        for link in self.links.values():
            link.add_down_listener(
                lambda link=link: self._on_link_declared(link))
        candidates = [node.name for node in self.levels[-1]]
        events = self.injector.failstop_schedule(candidates)
        if events:
            self.env.process(self._failstop_driver(events),
                             name="fabric-failstop", daemon=True)
        for node in self.switches:
            self.env.process(self._heartbeat(node, cfg.heartbeat_interval_ps),
                             name=f"{node.name}-heartbeat", daemon=True)

    def _on_link_declared(self, link: Link) -> None:
        if link._down_since is not None:
            self.ft.record_detection(self.env.now - link._down_since)
        self._note_detected(link)

    def _failstop_driver(self, events):
        injector = self.injector
        for event in events:
            delay = event.at_ps - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            if event.kind == "switch_down":
                applied = self.fail_switch(event.target)
            else:
                src, _, dst = event.target.partition("->")
                applied = self.fail_link(src, dst)
            if not applied:
                continue
            injector.failstop_fired(event)
            if event.revive_at_ps is not None:
                self.env.process(self._reviver(event),
                                 name=f"fabric-revive-{event.target}",
                                 daemon=True)

    def _reviver(self, event):
        yield self.env.timeout(event.revive_at_ps - self.env.now)
        if event.kind == "switch_down":
            self.revive_switch(event.target)
        else:
            src, _, dst = event.target.partition("->")
            self.revive_link(src, dst)

    def _heartbeat(self, node: TreeSwitch, interval_ps: int):
        """Per-switch liveness monitor: a dead neighbor is noticed
        within one interval even if no data traffic exposes it, so
        detection latency is bounded by ``heartbeat_interval_ps``."""
        switch = node.switch
        while True:
            yield self.env.timeout(interval_ps)
            if node.failed_at is not None:
                continue  # dead switches don't monitor (until revived)
            for link in switch._tx_links:
                if link is None or not link.is_down:
                    continue
                if link.declared_down_at is None:
                    link._declare_down()

    def describe(self) -> dict:
        """Shape summary for reports and metric labels."""
        return {
            "kind": self.spec.kind,
            "hosts": len(self.hosts),
            "levels": [len(level) for level in self.levels],
            "switches": len(self.switches),
            "depth": self.depth,
        }

    def validate(self) -> None:
        raise NotImplementedError

    def _audit(self, header: str, problems: List[str]) -> None:
        """Finish a shape's ``validate()``: add the routing walk's
        issues (every table, hop by hop) to ``problems`` and raise them
        under ``header`` — as :class:`FabricPartitioned` when a
        fail-stop left hosts unreachable, else :class:`TopologyError`."""
        problems.extend(str(issue) for issue in validate_fabric(
            [node.switch for node in self.switches],
            [host.hca for host in self.hosts]))
        if not problems:
            return
        message = f"{header}:\n  " + "\n  ".join(problems)
        if self._has_down() and any("unreachable" in p for p in problems):
            raise FabricPartitioned(message)
        raise TopologyError(message)

    # -- shared wiring helpers -----------------------------------------
    def _make_hosts(self) -> None:
        # The hosts' adapters take the fabric's HCA config, so each
        # ComputeNode builds its HCA once, with the right settings.
        config = replace(self.cluster_config, hca=self.hca_config)
        self.hosts = [ComputeNode(self.env, f"host{i}", config)
                      for i in range(self.spec.num_hosts)]

    def _link(self, src: str, dst: str) -> Link:
        link = Link(self.env, f"{src}->{dst}", self.cluster_config.link)
        if self.injector is not None:
            link.attach_faults(self.injector)
        return link

    def _new_switch(self, name: str, level: int) -> TreeSwitch:
        config = SwitchConfig(
            num_ports=self.spec.switch_ports,
            routing_latency_ps=self.cluster_config.switch.routing_latency_ps)
        switch = ActiveSwitch(self.env, name, config,
                              self.cluster_config.active_switch)
        if self.injector is not None:
            switch.attach_faults(self.injector)
        return TreeSwitch(switch=switch, level=level)

    def _wire_host(self, leaf: TreeSwitch, port: int,
                   host: ComputeNode) -> None:
        to_switch = self._link(host.name, leaf.name)
        from_switch = self._link(leaf.name, host.name)
        host.hca.attach(tx_link=to_switch, rx_link=from_switch)
        leaf.switch.connect(port, tx_link=from_switch, rx_link=to_switch)
        leaf.switch.routing.add(host.name, port)
        leaf.hosts.append(host)
        leaf.subtree_hosts.append(host.name)


class TreeFabric(Fabric):
    """Multi-level aggregation tree: the paper's Section 6 shape.

    "We can organize the switches logically in a tree and have each
    leaf switch combine the vectors from compute nodes connected to it
    and send the result vector to its parent switch."  Leaves take
    ``hosts_per_leaf`` hosts on ports ``0..h-1``; every internal level
    groups ``radix`` children (default ``hosts_per_leaf``, the paper's
    "half the ports face down" shape and its ``log_{N/2}(p)`` scaling)
    under one parent.  A child's last port uplinks to its parent and is
    its default route, so host-to-host messages (the normal MST
    reduction) transit the least common ancestor.  Internal switches
    also route every descendant *switch* name downward: the placement
    engine addresses partial results and broadcasts to switches.

    Both ``hosts_per_leaf`` and ``radix`` must leave the uplink port
    (``switch_ports - 1``) free, or construction raises
    :class:`TopologyError` instead of silently double-wiring a port.
    """

    def __init__(self, env, spec, cluster_config=None, hca_config=None,
                 injector=None):
        super().__init__(env, spec, cluster_config, hca_config, injector)
        ports, per_leaf = spec.switch_ports, spec.hosts_per_leaf
        if per_leaf < 1 or per_leaf > ports - 1:
            raise TopologyError(
                f"hosts_per_leaf={per_leaf} must be in [1, {ports - 1}] to "
                f"leave an uplink port on a {ports}-port switch")
        radix = per_leaf if spec.radix is None else spec.radix
        if radix < 2 or radix > ports - 1:
            raise TopologyError(
                f"radix={radix} must be in [2, {ports - 1}] to leave an "
                f"uplink port on a {ports}-port switch")
        self.hosts_per_leaf = per_leaf
        self.radix = radix
        self._make_hosts()

        serial = itertools.count()

        def new_switch(level: int) -> TreeSwitch:
            return self._new_switch(f"sw-l{level}-{next(serial)}", level)

        leaves: List[TreeSwitch] = []
        for start in range(0, spec.num_hosts, per_leaf):
            leaf = new_switch(0)
            for port, host in enumerate(self.hosts[start:start + per_leaf]):
                self._wire_host(leaf, port, host)
            leaves.append(leaf)
        self.levels = [leaves]
        while len(self.levels[-1]) > 1:
            children, level = self.levels[-1], len(self.levels)
            parents: List[TreeSwitch] = []
            for start in range(0, len(children), radix):
                parent = new_switch(level)
                for port, child in enumerate(children[start:start + radix]):
                    self._wire_child(parent, port, child)
                parents.append(parent)
            self.levels.append(parents)
        self.root = self.levels[-1][0]
        # Downward routes: every subtree host and every descendant
        # switch.  The root has no uplink, so anything unknown there is
        # an error (everything is below it).
        for level in self.levels[1:]:
            for node in level:
                for port, child in enumerate(node.children):
                    node.switch.routing.add_many(child.subtree_hosts, port)
                    node.switch.routing.add_many(_subtree_switches(child),
                                                 port)
        self._arm_failstop()

    def _wire_child(self, parent: TreeSwitch, port: int,
                    child: TreeSwitch) -> None:
        uplink = child.switch.config.num_ports - 1
        up = self._link(child.name, parent.name)
        down = self._link(parent.name, child.name)
        parent.switch.connect(port, tx_link=down, rx_link=up)
        child.switch.connect(uplink, tx_link=up, rx_link=down)
        parent.switch.routing.add(child.name, port)
        child.switch.routing.add(parent.name, uplink)
        child.switch.routing.set_default(uplink)
        child.parent = parent
        parent.children.append(child)
        parent.subtree_hosts.extend(child.subtree_hosts)

    def validate(self) -> None:
        """Audit port accounting, routing tables, and fan-in.

        Partially filled last leaves (``num_hosts`` not a multiple of
        ``hosts_per_leaf``) are legal; what this guards against is any
        shape where the wiring and the routing tables disagree — every
        such inconsistency raises :class:`TopologyError` up front
        instead of mis-routing packets mid-simulation (or
        :class:`FabricPartitioned` when a fail-stop left hosts
        unreachable).
        """
        num_hosts = self.spec.num_hosts
        problems: List[str] = []
        # Host partitioning: every host on exactly one leaf, routed there.
        seen = {}
        for leaf in self.levels[0]:
            if leaf.children:
                problems.append(f"{leaf.name}: leaf has switch children")
            for host in leaf.hosts:
                if host.name in seen:
                    problems.append(
                        f"{host.name} attached to both {seen[host.name]} "
                        f"and {leaf.name}")
                seen[host.name] = leaf.name
                if not leaf.switch.routing.has_route(host.name):
                    problems.append(
                        f"{leaf.name}: no explicit route to its own host "
                        f"{host.name}")
        if len(seen) != num_hosts:
            problems.append(f"{len(seen)} hosts wired, expected {num_hosts}")
        # Fan-in and port accounting per switch.
        for level_index, level in enumerate(self.levels):
            for node in level:
                expected_fan = (len(node.hosts) if level_index == 0
                                else len(node.children))
                if node.fan_in != expected_fan:
                    problems.append(
                        f"{node.name}: fan_in {node.fan_in} != "
                        f"{expected_fan} attached streams")
                downlinks = len(node.hosts) + len(node.children)
                uplinks = 1 if node.parent is not None else 0
                connected = len(node.switch.connected_ports())
                if connected != downlinks + uplinks:
                    problems.append(
                        f"{node.name}: {connected} connected ports, "
                        f"expected {downlinks} down + {uplinks} up")
                if node.parent is None and \
                        node.switch.routing.default_port is not None:
                    problems.append(
                        f"{node.name}: root must not have a default "
                        f"(uplink) port")
        # Subtree bookkeeping matches the actual host set.
        if sorted(self.root.subtree_hosts) != sorted(seen):
            problems.append("root subtree_hosts disagrees with wired hosts")
        self._audit(f"inconsistent switch tree ({num_hosts} hosts, "
                    f"{self.hosts_per_leaf}/leaf, radix {self.radix})",
                    problems)


def _subtree_switches(node: TreeSwitch) -> List[str]:
    """``node`` and every switch below it, depth first."""
    names = [node.name]
    for child in node.children:
        names.extend(_subtree_switches(child))
    return names


class SingleFabric(TreeFabric):
    """One switch, all hosts attached — the paper's base configuration.

    A degenerate tree (``hosts_per_leaf`` wide enough for every host),
    used as the baseline the scale-out shapes are compared against.
    """

    def __init__(self, env, spec, cluster_config=None, hca_config=None,
                 injector=None):
        ports = max(spec.switch_ports, spec.num_hosts + 1)
        flat = TopologySpec(kind="tree", num_hosts=spec.num_hosts,
                            hosts_per_leaf=max(spec.num_hosts, 1),
                            switch_ports=ports)
        super().__init__(env, flat, cluster_config, hca_config, injector)
        self.spec = spec


class FatTreeFabric(Fabric):
    """Two-stage folded Clos: leaves below, spines above, full mesh.

    Leaf ``l`` wires hosts on ports ``0..h-1`` and spines on ports
    ``h..h+S-1``; spine ``s`` wires leaf ``l`` on port ``l``.  Leaves
    route local hosts down and everything else across an ECMP group of
    all spine uplinks; spines route every leaf's hosts (and the leaf
    names) down the matching port.  Nothing has a default port, so an
    unroutable destination fails loudly instead of ping-ponging.
    """

    def __init__(self, env, spec, cluster_config=None, hca_config=None,
                 injector=None):
        super().__init__(env, spec, cluster_config, hca_config, injector)
        h, S, L = spec.hosts_per_leaf, spec.num_spines, spec.num_leaves
        if h + S > spec.switch_ports:
            raise TopologyError(
                f"leaf needs {h} host ports + {S} spine uplinks "
                f"> {spec.switch_ports} switch ports; lower hosts_per_leaf, "
                f"raise oversubscription, or use bigger switches")
        if L > spec.switch_ports:
            raise TopologyError(
                f"{L} leaves exceed a spine's {spec.switch_ports} ports; "
                f"raise hosts_per_leaf or use bigger switches")
        self._make_hosts()

        leaves = [self._new_switch(f"leaf{l}", 0) for l in range(L)]
        spines = [self._new_switch(f"spine{s}", 1) for s in range(S)]
        self.levels = [leaves, spines]

        for l, leaf in enumerate(leaves):
            for offset, host in enumerate(
                    self.hosts[l * h:(l + 1) * h]):
                self._wire_host(leaf, offset, host)
        for s, spine in enumerate(spines):
            spine.subtree_hosts = [host.name for host in self.hosts]
            spine.children = list(leaves)
            for l, leaf in enumerate(leaves):
                up = self._link(leaf.name, spine.name)
                down = self._link(spine.name, leaf.name)
                leaf.switch.connect(h + s, tx_link=up, rx_link=down)
                spine.switch.connect(l, tx_link=down, rx_link=up)
                leaf.switch.routing.add(spine.name, h + s)
                spine.switch.routing.add(leaf.name, l)
                spine.switch.routing.add_many(leaf.subtree_hosts, l)

        uplinks = tuple(range(h, h + S))
        for leaf in leaves:
            attached = set(leaf.subtree_hosts)
            remote = [host.name for host in self.hosts
                      if host.name not in attached]
            leaf.switch.routing.add_group_many(remote, uplinks)
            leaf.switch.routing.add_group_many(
                [other.name for other in leaves if other is not leaf],
                uplinks)
        self._arm_failstop()

    def validate(self) -> None:
        spec = self.spec
        problems: List[str] = []
        wired = sum(len(leaf.hosts) for leaf in self.levels[0])
        if wired != spec.num_hosts:
            problems.append(f"{wired} hosts wired, "
                            f"expected {spec.num_hosts}")
        for leaf in self.levels[0]:
            expected = len(leaf.hosts) + spec.num_spines
            connected = len(leaf.switch.connected_ports())
            if connected != expected:
                problems.append(
                    f"{leaf.name}: {connected} connected ports, expected "
                    f"{len(leaf.hosts)} hosts + {spec.num_spines} uplinks")
        for spine in self.levels[1]:
            connected = len(spine.switch.connected_ports())
            if connected != spec.num_leaves:
                problems.append(
                    f"{spine.name}: {connected} connected ports, "
                    f"expected {spec.num_leaves} leaf downlinks")
            if spine.fan_in != spec.num_leaves:
                problems.append(
                    f"{spine.name}: fan_in {spine.fan_in} != "
                    f"{spec.num_leaves} leaves")
        self._audit(f"inconsistent fat-tree ({spec.num_hosts} hosts, "
                    f"{spec.num_leaves} leaves x {spec.num_spines} spines)",
                    problems)


_FABRICS = {
    "single": SingleFabric,
    "tree": TreeFabric,
    "fat_tree": FatTreeFabric,
}


def build_fabric(env: Environment, spec: TopologySpec,
                 cluster_config: Optional[ClusterConfig] = None,
                 hca_config: Optional[HcaConfig] = None,
                 injector=None) -> Fabric:
    """Construct the fabric a :class:`TopologySpec` describes."""
    return _FABRICS[spec.kind](env, spec, cluster_config=cluster_config,
                               hca_config=hca_config, injector=injector)


def ecmp_spread(fabric: Fabric, dst: str) -> Tuple[str, ...]:
    """Distinct first-hop core switches host flows to ``dst`` use.

    Diagnostic helper: traces a flow from every host and collects the
    set of second-hop switch names — on a healthy fat-tree this spreads
    across several spines; on a tree it is always the single parent.
    """
    cores = set()
    for host in fabric.hosts:
        if host.name == dst:
            continue
        hops = fabric.path(host.name, dst)
        if len(hops) > 1:
            cores.add(hops[1])
    return tuple(sorted(cores))
