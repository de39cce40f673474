"""Collective reduction benchmarks (paper Section 5, Figures 15/16 and
Table 2).

Three reduction flavours combine one vector per compute node with an
associative operation; they differ in where the result goes:

* **Reduce-to-one** — the full result lands on node 0;
* **Distributed Reduce** — node i gets the i-th slice of the result;
* (Reduce-to-all behaves like Reduce-to-one per the paper and is
  provided for completeness.)

Normal baseline: a minimum-spanning-tree (binomial) software reduction —
``ceil(log2 p)`` rounds of (send, poll, add) between hosts, the
textbook lower bound ``ceil(log2 p)) * (alpha + lambda)``.  Active: each
host fires its vector at its leaf switch as an *active message*; leaf
handlers combine 8 vectors and forward one partial up the switch tree;
the root delivers (or redistributes) the result.  The active side is the
placement engine's ``per_level`` plan (:mod:`repro.cluster.placement`,
the simulator's one switch-side reduction engine) on the switch tree.
It is fully simulated at packet level through the real ActiveSwitch
machinery — dispatch, data buffers, ATB, send unit — and the vectors are
really added, so every result, distributed slices included, is checked
numerically against the oracle.

Cost model: vector add at 3 cycles/word on the host (load-load-add-
store on the single-issue core, some ILP) and 2 cycles/word on the
switch (the placement engine's ``SWITCH_ADD_CYCLES_PER_WORD``).  The
hosts' messaging software (an MPI-style reduction library over the
queue-pair interface, with polling receives) costs ~10 us per posted
send and ~18 us per polled receive — this is the alpha that dominates
the MST baseline and that the paper's switch-side reduction eliminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..cluster.placement import (
    DISTRIBUTED,
    REDUCE_TO_ALL,
    REDUCE_TO_ONE,
    plan_placement,
    run_placed_reduction,
)
from ..cluster.topology import SwitchTree
from ..net.hca import HcaConfig
from ..sim.core import Environment
from ..sim.units import us

#: Paper vector size.
VECTOR_BYTES = 512
WORDS = VECTOR_BYTES // 4

#: Host-side costs.
HOST_ADD_CYCLES_PER_WORD = 3

#: The MST implementation's messaging software overheads (per message).
REDUCTION_HCA = HcaConfig(send_overhead_ps=us(10), recv_poll_ps=us(18),
                          per_packet_ps=us(0.1))


@dataclass
class ReductionResult:
    """Latency of one (p, mode, system) point."""

    mode: str
    num_hosts: int
    active: bool
    latency_ps: int
    result_vector: List[int]
    #: Distributed reduce: the reduced slice each host ended up with, in
    #: host order (None when the run did not scatter).
    slices: Optional[List[List[int]]] = None


def _oracle(vectors: List[List[int]]) -> List[int]:
    return [sum(column) & 0xFFFFFFFF for column in zip(*vectors)]


def _make_vectors(num_hosts: int, seed: int = 3,
                  vector_bytes: int = VECTOR_BYTES) -> List[List[int]]:
    import random
    rng = random.Random(seed)
    words = vector_bytes // 4
    return [[rng.randrange(1 << 16) for _ in range(words)]
            for _ in range(num_hosts)]


# ----------------------------------------------------------------------
# Normal: binomial (MST) software reduction between hosts
# ----------------------------------------------------------------------
def _mst_rounds(num_hosts: int) -> int:
    rounds = 0
    while (1 << rounds) < num_hosts:
        rounds += 1
    return rounds


def run_normal_reduction(tree: SwitchTree, vectors: List[List[int]],
                         mode: str) -> ReductionResult:
    """Binomial reduce (plus scatter/broadcast for the other modes).

    The distributed baseline is recursive halving, which pairs hosts
    by XOR and so needs a power-of-two host count; any other count
    raises ``ValueError``.
    """
    env = tree.env
    hosts = tree.hosts
    p = len(hosts)
    if mode == DISTRIBUTED and p & (p - 1):
        raise ValueError(
            f"the normal distributed reduction (recursive halving) needs "
            f"a power-of-two host count, got {p}")
    rounds = _mst_rounds(p)
    local = [list(v) for v in vectors]
    words = len(vectors[0])
    vector_bytes = words * 4
    kept: Dict[int, List[int]] = {}

    def add_into(host, mine: List[int], incoming: List[int], lo: int,
                 hi: int):
        stall = 0
        for w in range(lo, hi):
            mine[w] = (mine[w] + incoming[w - lo]) & 0xFFFFFFFF
            if w % 8 == 0:  # one L2 line of the arriving vector
                stall += host.hierarchy.load(0x3000_0000 + w * 4)
        yield from host.cpu.work((hi - lo) * HOST_ADD_CYCLES_PER_WORD, stall)

    def host_proc_reduce_to_one(i: int, full_result: bool):
        host = hosts[i]
        # Binomial tree toward host 0.
        for k in range(rounds):
            step = 1 << k
            if i % (2 * step) == step:
                yield from host.hca.send(hosts[i - step].name, vector_bytes,
                                         payload=list(local[i]))
                break
            if i % (2 * step) == 0 and i + step < p:
                message = yield from host.hca.poll_receive()
                yield from add_into(host, local[i], message.payload, 0, words)
        if full_result and mode == REDUCE_TO_ALL:
            # Binomial broadcast back down.
            for k in reversed(range(rounds)):
                step = 1 << k
                if i % (2 * step) == 0 and i + step < p:
                    yield from host.hca.send(hosts[i + step].name,
                                             vector_bytes,
                                             payload=list(local[i]))
                elif i % (2 * step) == step:
                    message = yield from host.hca.poll_receive()
                    local[i][:] = message.payload

    def host_proc_reduce_scatter(i: int):
        # Recursive halving: after round k each host holds a reduced
        # half of half...; after log2(p) rounds host i holds slice i.
        # This is the standard distributed-reduce algorithm — its cost
        # is essentially one binomial reduction (the paper's normal
        # distributed case tracks its reduce-to-one closely).
        host = hosts[i]
        lo, hi = 0, words
        for k in reversed(range(rounds)):
            step = 1 << k
            partner = i ^ step
            if partner >= p:
                continue
            mid = (lo + hi) // 2
            keep_low = (i & step) == 0
            send_lo, send_hi = (mid, hi) if keep_low else (lo, mid)
            keep_lo, keep_hi = (lo, mid) if keep_low else (mid, hi)
            nbytes = max(4, (send_hi - send_lo) * 4)
            yield from host.hca.send(hosts[partner].name, nbytes,
                                     payload=local[i][send_lo:send_hi])
            message = yield from host.hca.poll_receive()
            yield from add_into(host, local[i], message.payload,
                                keep_lo, keep_hi)
            lo, hi = keep_lo, keep_hi
        kept[i] = local[i][lo:hi]

    def host_proc(i: int):
        if mode == DISTRIBUTED and p > 1:
            yield from host_proc_reduce_scatter(i)
        else:
            yield from host_proc_reduce_to_one(
                i, full_result=(mode == REDUCE_TO_ALL))

    procs = [env.process(host_proc(i), name=f"mst-{i}") for i in range(p)]
    env.run(until=env.all_of(procs))
    return ReductionResult(mode=mode, num_hosts=p, active=False,
                           latency_ps=env.now, result_vector=local[0],
                           slices=[kept[i] for i in range(p)] if kept
                           else None)


# ----------------------------------------------------------------------
# Active: the placement engine's per-level plan on the switch tree
# ----------------------------------------------------------------------
def run_active_reduction(tree: SwitchTree, vectors: List[List[int]],
                         mode: str) -> ReductionResult:
    """Switch-tree reduction: fully packet-level."""
    done = run_placed_reduction(tree, plan_placement(tree, "per_level"),
                                vectors, mode=mode)
    return ReductionResult(
        mode=mode, num_hosts=len(tree.hosts), active=True,
        latency_ps=done["latency_ps"], result_vector=done["result"],
        slices=done["delivered"] if mode == DISTRIBUTED else None)


# ----------------------------------------------------------------------
# The experiment: latency vs node count (Figures 15 and 16)
# ----------------------------------------------------------------------
def _build_tree(num_hosts: int) -> SwitchTree:
    env = Environment()
    return SwitchTree(env, num_hosts=num_hosts, hosts_per_leaf=8,
                      switch_ports=16, hca_config=REDUCTION_HCA)


def run_reduction_point(num_hosts: int, mode: str, active: bool,
                        seed: int = 3,
                        vector_bytes: int = VECTOR_BYTES) -> ReductionResult:
    """One latency measurement on a fresh fabric."""
    vectors = _make_vectors(num_hosts, seed=seed, vector_bytes=vector_bytes)
    tree = _build_tree(num_hosts)
    if active:
        result = run_active_reduction(tree, vectors, mode)
    else:
        result = run_normal_reduction(tree, vectors, mode)
    got = list(result.result_vector)
    if result.slices is not None:
        # Distributed: the hosts' slices, in host order, must tile the
        # oracle vector — every word reduced, delivered exactly once.
        got = [word for piece in result.slices for word in piece]
    if got != _oracle(vectors):
        raise AssertionError(
            f"{mode} ({'active' if active else 'normal'}, p={num_hosts}): "
            "reduction result does not match the oracle")
    return result


def _compare(num_hosts: int, mode: str, vector_bytes: int) -> dict:
    """Normal vs active latency (us) and speedup at one point."""
    normal, active = (run_reduction_point(num_hosts, mode, active=flag,
                                          vector_bytes=vector_bytes)
                      for flag in (False, True))
    return {"normal_us": normal.latency_ps / 1e6,
            "active_us": active.latency_ps / 1e6,
            "speedup": normal.latency_ps / active.latency_ps}


def reduction_sweep(mode: str, node_counts=(2, 4, 8, 16, 32, 64, 128),
                    vector_bytes: int = VECTOR_BYTES):
    """Latency and speedup vs node count — one figure's data series."""
    return [{"nodes": p, **_compare(p, mode, vector_bytes)}
            for p in node_counts]


def vector_size_sweep(mode: str = REDUCE_TO_ONE, num_hosts: int = 64,
                      sizes=(128, 512, 2048, 8192)):
    """Speedup vs vector size (extension of Figures 15/16).

    The paper's lower-bound argument holds "for small vectors", where
    the per-round software overhead alpha dominates.  As vectors grow,
    bandwidth terms take over on both systems and the switch-tree
    advantage shrinks toward the fan-in ratio; multi-MTU vectors also
    exercise the ATB's conflict backpressure (a 8 KB vector spans 16
    regions — the whole direct-mapped reach).
    """
    return [{"vector_bytes": vector_bytes,
             **_compare(num_hosts, mode, vector_bytes)}
            for vector_bytes in sizes]
