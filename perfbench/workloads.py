"""The benchmark's three workloads, generated from a seed.

Each workload is a fixed list of :class:`Job` s.  One job is one
simulation a user would run (``run_case``, ``serve``, ``find_knee``, one
reduction); a *pass* runs every job once, serially, in one process — a
closed loop with a single client that submits the next simulation only
after the previous one returned.  :func:`setup` does everything that
happens before the first pass: it generates the inputs from the seed,
builds the applications (workload generation) and warms the per-process
template caches.

Every job also knows how to *digest* its modelled outputs (simulated
picoseconds, breakdowns, request counts and latency quantiles, reduction
vectors) into a short hash, and how to *check* the invariants that hold
for any seed (reduction results equal the column-sum oracle, the knee
search really simulated its probes, request accounting balances).  The
digests are compared with references recorded from a known-good commit
(``perfbench/references``).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Dict, List, Optional

import repro.apps.reduction as reduction
import repro.cluster.fabric as fabric_mod
import repro.cluster.placement as placement
import repro.cluster.template as template
import repro.cluster.topology as topology
from repro.faults import FailStopEvent, FailStopFaults, FaultInjector, FaultPlan
from repro.runner.harness import CASE_LABELS, Cell, cell_config
from repro.runner.spec import paper_grid
from repro.sim.core import Environment
from repro.sim.units import us
from repro.traffic import ServiceSpec, find_knee, serve

WORKLOADS = ("paper_grid", "serve_open_loop", "collectives")

#: Extra scale factor of the paper grid in smoke mode (tests only).
SMOKE_GRID_SCALE = 1 / 64

# serve_open_loop: the ext_service_slo active spec on two fabrics.
SERVICE_TOPOLOGIES = (("single", 1), ("fat_tree", 16))
#: Fixed offered rates (requests/s): below, near and past the knee
#: (~24-26k rps), so the past-knee points also take the drop path.
FIXED_RATES = (8000.0, 18000.0, 26000.0, 32000.0)
FIXED_DURATION_S = 0.25
#: The experiment's 16-point knee-search grid.
KNEE_RATES = tuple(2000.0 * step for step in range(1, 17))

# collectives: Fig 15/16 switch-tree points, placed reductions on a
# 512-host tree, and fail-stop repairs on a 256-host fat tree.
FIG_NODES = (2, 4, 8, 16, 32, 64, 128)
FIG_MODES = (reduction.REDUCE_TO_ONE, reduction.DISTRIBUTED)
PLACED_HOSTS = 512
PLACED_SYSTEMS = ("host_only", "root_only", "per_level")
FAILSTOP_HOSTS = 256
#: Root-spine kill times (us): failure-free, one that lands mid-
#: aggregation and forces a repair, one the collective has drained past.
KILLS_US = (None, 10, 30)
COLLECTIVE_TIMEOUT_PS = us(200)


class CheckFailed(Exception):
    """A job's outputs violate an invariant that holds for every seed."""


@dataclass
class Job:
    """One simulation of a pass."""

    name: str
    #: Runs the simulation and returns its raw outputs.
    run: Callable[[], Any]
    #: Short hash of the modelled outputs.
    digest: Callable[[Any], str]
    #: Raises :class:`CheckFailed` on a violated invariant.
    check: Optional[Callable[[Any], None]] = None
    #: Per-layer counters the outputs carry (traced run only).
    counters: Optional[Callable[[Any], Dict[str, float]]] = None


def digest_of(obj) -> str:
    """Canonical short hash of a JSON-able value (floats by repr)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def setup(workload: str, seed: int, smoke: bool = False) -> List[Job]:
    """Generate ``workload``'s inputs from ``seed``; return its jobs.

    ``smoke`` shrinks every input (tests); the benchmark never sets it.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    builders = {"paper_grid": _paper_grid,
                "serve_open_loop": _serve_open_loop,
                "collectives": _collectives}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"known: {', '.join(WORKLOADS)}")
    return builders[workload](seed, smoke)


# ----------------------------------------------------------------------
# paper_grid: the nine paper_grid() specs x the four cases
# ----------------------------------------------------------------------
def _paper_grid(seed: int, smoke: bool) -> List[Job]:
    jobs = []
    for spec in paper_grid(scale=SMOKE_GRID_SCALE if smoke else None):
        # Workload generation happens here, once per app, like the
        # runner's cached_app: the four cases share the built app.
        app = spec.build()
        for case in CASE_LABELS:
            config = cell_config(Cell(spec=spec, case=case, seed=seed), app)
            jobs.append(Job(name=f"{spec.label}/{case}",
                            run=partial(app.run_case, config),
                            digest=_case_digest))
    return jobs


def _breakdown(b) -> list:
    return [b.label, b.exec_ps, b.busy_ps, b.stall_ps]


def _case_digest(case) -> str:
    return digest_of({
        "label": case.label,
        "exec_ps": case.exec_ps,
        "host": _breakdown(case.host),
        "switch_cpus": [_breakdown(b) for b in case.switch_cpus],
        "traffic": [case.host_bytes_in, case.host_bytes_out],
        "extra": case.extra,
    })


# ----------------------------------------------------------------------
# serve_open_loop: fixed offered rates plus one adaptive knee search
# ----------------------------------------------------------------------
def _service_spec(topology_kind: str, hosts: int, seed: int) -> ServiceSpec:
    # The ext_service_slo experiment's active configuration.
    return ServiceSpec(
        app="grep", case="active", arrival="poisson",
        duration_s=0.02, num_streams=64, num_keys=256,
        depth=128, policy="drop", workers=32,
        topology=topology_kind, hosts=hosts,
        preset="service_2003", overrides=(("num_switch_cpus", 4),),
        seed=seed, slo_ms=1.0)


def _serve_open_loop(seed: int, smoke: bool) -> List[Job]:
    rates = FIXED_RATES[::3] if smoke else FIXED_RATES
    duration_s = 0.02 if smoke else FIXED_DURATION_S
    knee_rates = KNEE_RATES[:8] if smoke else KNEE_RATES
    jobs = []
    for kind, hosts in SERVICE_TOPOLOGIES:
        base = _service_spec(kind, hosts, seed)
        # Template warm-up: the built grep app and the fabric hop walk
        # are shared by every rate point of this topology.
        template.cached_service_app(base)
        template.client_hops(kind, hosts)
        for rate in rates:
            spec = replace(base, rate_rps=rate, duration_s=duration_s)
            jobs.append(Job(name=f"serve/{kind}/{rate:g}rps",
                            run=partial(serve, spec),
                            digest=_service_digest,
                            check=_check_service,
                            counters=_service_counters))
        jobs.append(Job(name=f"knee/{kind}",
                        run=partial(find_knee, base, knee_rates),
                        digest=_knee_digest,
                        check=_check_knee,
                        counters=_knee_counters))
    return jobs


def _service_fields(result) -> dict:
    return {
        "offered": result.offered,
        "admitted": result.admitted,
        "dropped": result.dropped,
        "completed": result.completed,
        "horizon_ps": result.horizon_ps,
        "latency_us": result.latency_us,
        "queue_delay_us": result.queue_delay_us,
        "service_time_us": result.service_time_us,
        "worst_stream_p99_us": result.worst_stream_p99_us,
    }


def _service_digest(result) -> str:
    return digest_of(_service_fields(result))


def _check_service(result) -> None:
    if result.offered <= 0:
        raise CheckFailed(f"{result.name}: no requests offered")
    if result.offered != result.admitted + result.dropped:
        raise CheckFailed(f"{result.name}: offered {result.offered} != "
                          f"admitted {result.admitted} + dropped "
                          f"{result.dropped}")
    if result.completed != result.admitted:
        raise CheckFailed(f"{result.name}: completed {result.completed} "
                          f"!= admitted {result.admitted}")


def _service_counters(result) -> Dict[str, float]:
    return {"traffic.arrivals": result.offered,
            "traffic.completed": result.completed,
            "traffic.dropped": result.dropped}


def _knee_digest(search) -> str:
    knee = search.knee()
    return digest_of({key: knee[key] for key in
                      ("max_sustainable_rps", "goodput_rps", "p99_us",
                       "knee_rps")})


def _check_knee(search) -> None:
    # No result cache is passed, so every probe must be a simulation.
    if search.cache_hits != 0 or search.sims != search.evaluations \
            or search.sims < 1:
        raise CheckFailed(f"knee search ran {search.sims} sims for "
                          f"{search.evaluations} evaluations with "
                          f"{search.cache_hits} cache hits")
    for result in search.results:
        _check_service(result)


def _knee_counters(search) -> Dict[str, float]:
    totals: Dict[str, float] = {"traffic.knee_sims": search.sims}
    for result in search.results:
        for key, value in _service_counters(result).items():
            totals[key] = totals.get(key, 0) + value
    return totals


# ----------------------------------------------------------------------
# collectives: both reduction engines, placement, fail-stop repair
# ----------------------------------------------------------------------
def _vectors(seed: int, label: str, num_hosts: int) -> List[List[int]]:
    """One input vector per host, a pure function of seed and label."""
    rng = random.Random(f"{seed}/{label}")
    words = reduction.VECTOR_BYTES // 4
    return [[rng.randrange(1 << 16) for _ in range(words)]
            for _ in range(num_hosts)]


def _oracle(vectors: List[List[int]]) -> List[int]:
    """Column sums modulo 2**32 (the reduction's defined result)."""
    return [sum(column) & 0xFFFFFFFF for column in zip(*vectors)]


def _collectives(seed: int, smoke: bool) -> List[Job]:
    fig_nodes = FIG_NODES[:3] if smoke else FIG_NODES
    placed_hosts = 64 if smoke else PLACED_HOSTS
    failstop_hosts = 64 if smoke else FAILSTOP_HOSTS
    jobs = []
    for p in fig_nodes:
        vectors = _vectors(seed, f"fig/{p}", p)
        for mode in FIG_MODES:
            for active in (False, True):
                name = (f"fig/{mode}/p={p}/"
                        f"{'active' if active else 'normal'}")
                jobs.append(Job(
                    name=name,
                    run=partial(_tree_reduction, p, mode, active, vectors),
                    digest=_reduction_digest,
                    check=partial(_check_tree_reduction, mode, active,
                                  vectors)))

    vectors = _vectors(seed, f"placed/{placed_hosts}", placed_hosts)
    # Template warm-up: the placement plans of the tree, shared by
    # every fabric instance of the same spec.
    warm = fabric_mod.build_fabric(Environment(), _placed_spec(placed_hosts),
                                   hca_config=reduction.REDUCTION_HCA)
    for system in PLACED_SYSTEMS[1:]:
        template.placement_plan(warm, system)
    del warm
    for system in PLACED_SYSTEMS:
        jobs.append(Job(name=f"placed/tree/{placed_hosts}/{system}",
                        run=partial(_placed_reduction, system, vectors),
                        digest=_reduction_digest,
                        check=partial(_check_full_result, vectors),
                        counters=_fault_counters))

    vectors = _vectors(seed, f"failstop/{failstop_hosts}", failstop_hosts)
    for kill_us in KILLS_US:
        label = "no-kill" if kill_us is None else f"kill@{kill_us}us"
        jobs.append(Job(name=f"failstop/fat_tree/{failstop_hosts}/{label}",
                        run=partial(_failstop_reduction, seed, kill_us,
                                    vectors),
                        digest=_reduction_digest,
                        check=partial(_check_full_result, vectors),
                        counters=_fault_counters))
    return jobs


def _tree_reduction(p: int, mode: str, active: bool, vectors) -> dict:
    """One Figure 15/16 point on a fresh switch tree."""
    env = Environment()
    tree = topology.SwitchTree(env, num_hosts=p, hosts_per_leaf=8,
                               switch_ports=16,
                               hca_config=reduction.REDUCTION_HCA)
    if active:
        out = reduction.run_active_reduction(tree, vectors, mode)
    else:
        out = reduction.run_normal_reduction(tree, vectors, mode)
    return {"result": list(out.result_vector), "latency_ps": out.latency_ps}


def _placed_spec(num_hosts: int):
    return fabric_mod.TopologySpec(kind="tree", num_hosts=num_hosts)


def _placed_reduction(system: str, vectors) -> dict:
    """One ext_fabric_scale point: host_only, root_only or per_level."""
    env = Environment()
    fabric = fabric_mod.build_fabric(env, _placed_spec(len(vectors)),
                                     hca_config=reduction.REDUCTION_HCA)
    if system == "host_only":
        out = reduction.run_normal_reduction(fabric, vectors,
                                             reduction.REDUCE_TO_ONE)
        return {"result": list(out.result_vector),
                "latency_ps": out.latency_ps}
    plan = template.placement_plan(fabric, system)
    return _placed_output(placement.run_placed_reduction(fabric, plan,
                                                         vectors), fabric)


def _failstop_reduction(seed: int, kill_us, vectors) -> dict:
    """One ext_fabric_availability point: per_level under a spine kill."""
    num_hosts = len(vectors)
    if num_hosts > 128:
        # 256 hosts overflow a 16-port spine: the 32-port block.
        spec = fabric_mod.TopologySpec(kind="fat_tree", num_hosts=num_hosts,
                                       hosts_per_leaf=16, switch_ports=32)
    else:
        spec = fabric_mod.TopologySpec(kind="fat_tree", num_hosts=num_hosts)
    injector = None
    if kill_us is not None:
        plan = FaultPlan(failstop=FailStopFaults(
            events=(FailStopEvent(kind="switch_down", target="spine0",
                                  at_ps=us(kill_us)),),
            collective_timeout_ps=COLLECTIVE_TIMEOUT_PS))
        injector = FaultInjector(plan, seed=seed)
    env = Environment()
    fabric = fabric_mod.build_fabric(env, spec,
                                     hca_config=reduction.REDUCTION_HCA,
                                     injector=injector)
    plan = placement.plan_placement(fabric, "per_level")
    return _placed_output(placement.run_placed_reduction(fabric, plan,
                                                         vectors), fabric)


def _placed_output(done: dict, fabric) -> dict:
    return {"result": list(done["result"]),
            "latency_ps": done["latency_ps"],
            "attempts": done.get("attempts", 1),
            "repairs": done.get("repairs", 0),
            "failovers": fabric.failovers}


def _reduction_digest(out: dict) -> str:
    return digest_of({
        "result": digest_of(out["result"]),
        "latency_ps": out["latency_ps"],
        "attempts": out.get("attempts"),
        "repairs": out.get("repairs"),
    })


def _check_full_result(vectors, out: dict) -> None:
    if out["result"] != _oracle(vectors):
        raise CheckFailed("reduction result differs from the oracle")


def _check_tree_reduction(mode: str, active: bool, vectors,
                          out: dict) -> None:
    if mode == reduction.REDUCE_TO_ONE or active:
        _check_full_result(vectors, out)
        return
    # Normal distributed reduce (recursive halving): host 0 ends up
    # owning the lowest slice, halved once per round.
    hi, p = len(vectors[0]), len(vectors)
    while p > 1:
        hi //= 2
        p //= 2
    if out["result"][:hi] != _oracle(vectors)[:hi]:
        raise CheckFailed("host 0's reduced slice differs from the oracle")


def _fault_counters(out: dict) -> Dict[str, float]:
    if "attempts" not in out:
        return {}
    return {"faults.attempts": out["attempts"],
            "faults.repairs": out["repairs"],
            "faults.failovers": out["failovers"]}
