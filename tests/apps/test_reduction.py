"""Tests for collective reductions (Table 2, Figures 15/16)."""

import pytest

from repro.apps.reduction import (
    DISTRIBUTED,
    REDUCE_TO_ALL,
    REDUCE_TO_ONE,
    VECTOR_BYTES,
    _make_vectors,
    _oracle,
    reduction_sweep,
    run_reduction_point,
)


def test_vector_size_is_paper_parameter():
    assert VECTOR_BYTES == 512


# ----------------------------------------------------------------------
# Functional correctness (Table 2 semantics) — the result vectors are
# checked against the oracle inside run_reduction_point.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("p", [2, 8, 16])
@pytest.mark.parametrize("active", [False, True])
def test_reduce_to_one_result_correct(p, active):
    result = run_reduction_point(p, REDUCE_TO_ONE, active=active)
    vectors = _make_vectors(p)
    assert list(result.result_vector) == _oracle(vectors)


@pytest.mark.parametrize("active", [False, True])
def test_reduce_to_all_result_correct(active):
    result = run_reduction_point(8, REDUCE_TO_ALL, active=active)
    vectors = _make_vectors(8)
    assert list(result.result_vector) == _oracle(vectors)


@pytest.mark.parametrize("active", [False, True])
def test_distributed_reduce_completes(active):
    result = run_reduction_point(8, DISTRIBUTED, active=active)
    assert result.latency_ps > 0
    # The hosts' slices, in host order, tile the oracle vector.
    oracle = _oracle(_make_vectors(8))
    assert [word for piece in result.slices for word in piece] == oracle


# ----------------------------------------------------------------------
# Latency shapes (Figures 15/16)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", [REDUCE_TO_ONE, DISTRIBUTED])
def test_active_speedup_grows_with_nodes(mode):
    rows = reduction_sweep(mode, node_counts=(4, 16, 64))
    speedups = [row["speedup"] for row in rows]
    assert speedups == sorted(speedups)
    assert speedups[-1] > 2.0


def test_active_beats_normal_at_scale():
    row = reduction_sweep(REDUCE_TO_ONE, node_counts=(64,))[0]
    assert row["speedup"] > 3.0


def test_normal_latency_grows_logarithmically():
    rows = reduction_sweep(REDUCE_TO_ONE, node_counts=(4, 16, 64))
    latencies = [row["normal_us"] for row in rows]
    # log2: 2 -> 4 -> 6 rounds; ratios well below linear scaling (x4).
    assert latencies[1] / latencies[0] < 3.0
    assert latencies[2] / latencies[1] < 2.0


def test_active_latency_nearly_flat():
    rows = reduction_sweep(REDUCE_TO_ONE, node_counts=(8, 64))
    assert rows[1]["active_us"] < rows[0]["active_us"] * 2.0


def test_small_system_no_benefit():
    # With 2 nodes the MST does one round; the switch path adds hops.
    row = reduction_sweep(REDUCE_TO_ONE, node_counts=(2,))[0]
    assert row["speedup"] == pytest.approx(1.0, abs=0.25)


# ----------------------------------------------------------------------
# Tree fabric sanity (integration through the real active switches)
# ----------------------------------------------------------------------
def test_large_reduction_uses_switch_tree():
    from repro.apps.reduction import _build_tree
    tree = _build_tree(128)
    assert len(tree.levels[0]) == 16       # 16 leaf switches
    assert tree.depth == 3                 # leaves -> level2 -> root
    assert tree.root.fan_in == 2
    assert sum(leaf.fan_in for leaf in tree.levels[0]) == 128


def test_single_leaf_reduction():
    result = run_reduction_point(8, REDUCE_TO_ONE, active=True)
    vectors = _make_vectors(8)
    assert list(result.result_vector) == _oracle(vectors)


def test_reduce_to_all_speedup_monotone():
    """The tree broadcast keeps reduce-to-all scaling with node count."""
    rows = reduction_sweep(REDUCE_TO_ALL, node_counts=(8, 32, 128))
    speedups = [row["speedup"] for row in rows]
    assert speedups == sorted(speedups)
    assert speedups[-1] > 5.0


def test_reduce_to_all_every_host_gets_oracle_result():
    """Drive the placement engine's reduce-to-all delivery by hand: the
    per-level plan's finalize broadcasts down the tree to every host."""
    from repro.apps.reduction import _build_tree
    from repro.cluster.placement import (
        H_COMBINE,
        install_plan,
        plan_placement,
    )
    from repro.net.packet import ActiveHeader

    vectors = _make_vectors(16)
    tree = _build_tree(16)
    env = tree.env
    plan = plan_placement(tree, "per_level")
    done = {}
    install_plan(tree, plan, VECTOR_BYTES, done, mode=REDUCE_TO_ALL)
    received = {}

    def sender(i):
        host = tree.hosts[i]
        entry, slot = plan.entry[host.name]
        yield from host.hca.send(
            entry, VECTOR_BYTES,
            active=ActiveHeader(handler_id=H_COMBINE,
                                address=slot * VECTOR_BYTES),
            payload=(0, slot, list(vectors[i])))

    def receiver(i):
        host = tree.hosts[i]
        message = yield from host.hca.poll_receive()
        received[i] = message.payload

    procs = [env.process(sender(i)) for i in range(16)]
    procs += [env.process(receiver(i)) for i in range(16)]
    env.run(until=env.all_of(procs))
    oracle = _oracle(vectors)
    assert done["result"] == oracle
    assert len(received) == 16
    for i in range(16):
        epoch, vector = received[i]
        assert epoch == 0
        assert list(vector) == oracle


@pytest.mark.parametrize("p", [3, 6, 8, 16])
def test_distributed_every_host_gets_its_oracle_slice(p):
    """Host j receives exactly the j-th slice of the reduced vector,
    also when p does not divide the 128-word vector (no tail words
    dropped) — and its message carries exactly the slice's bytes."""
    from repro.apps.reduction import WORDS, _build_tree, run_active_reduction
    from repro.cluster.placement import slice_bounds

    vectors = _make_vectors(p)
    tree = _build_tree(p)
    result = run_active_reduction(tree, vectors, DISTRIBUTED)
    oracle = _oracle(vectors)
    bounds = slice_bounds(WORDS, p)
    assert bounds[0][0] == 0 and bounds[-1][1] == WORDS
    assert all(hi == next_lo for (_, hi), (next_lo, _)
               in zip(bounds, bounds[1:]))
    assert len(result.slices) == p
    for j, (lo, hi) in enumerate(bounds):
        assert result.slices[j] == oracle[lo:hi], f"host {j}"
        assert tree.hosts[j].hca.traffic.bytes_in == (hi - lo) * 4
    assert result.result_vector == oracle


@pytest.mark.parametrize("mode", [DISTRIBUTED, REDUCE_TO_ALL])
def test_every_delivery_mode_survives_a_retry(mode):
    """The root dies mid-collective and comes back: the timed-out
    attempt is retried under a new epoch, and every destination host
    still ends up with its oracle data (stale deliveries dropped)."""
    from repro.apps.reduction import REDUCTION_HCA
    from repro.cluster.placement import plan_placement, run_placed_reduction
    from repro.cluster.topology import SwitchTree
    from repro.faults import (
        FailStopEvent,
        FailStopFaults,
        FaultInjector,
        FaultPlan,
    )
    from repro.sim import Environment
    from repro.sim.units import us

    plan = FaultPlan(failstop=FailStopFaults(
        events=(FailStopEvent(kind="switch_down", target="sw-l1-2",
                              at_ps=us(5), revive_at_ps=us(50)),),
        collective_timeout_ps=us(200)))
    tree = SwitchTree(Environment(), num_hosts=16, hca_config=REDUCTION_HCA,
                      injector=FaultInjector(plan, seed=1))
    assert tree.root.name == "sw-l1-2"
    vectors = _make_vectors(16)
    done = run_placed_reduction(tree, plan_placement(tree, "per_level"),
                                vectors, mode=mode)
    oracle = _oracle(vectors)
    assert done["attempts"] == 2
    assert done["result"] == oracle
    assert len(done["delivered"]) == 16
    if mode == REDUCE_TO_ALL:
        assert all(vector == oracle for vector in done["delivered"])


@pytest.mark.parametrize("vector_bytes", [128, 1024, 4096])
def test_multi_region_vectors_still_correct(vector_bytes):
    """Vectors spanning several ATB regions reduce correctly (exercises
    the conflict-backpressure path)."""
    result = run_reduction_point(8, REDUCE_TO_ONE, active=True,
                                 vector_bytes=vector_bytes)
    vectors = _make_vectors(8, vector_bytes=vector_bytes)
    assert list(result.result_vector) == _oracle(vectors)


def test_vector_size_sweep_speedup_decays():
    from repro.apps.reduction import vector_size_sweep
    rows = vector_size_sweep(num_hosts=16, sizes=(128, 2048))
    assert rows[0]["speedup"] > rows[1]["speedup"]


@pytest.mark.parametrize("p", [3, 6, 12])
def test_normal_distributed_rejects_non_power_of_two(p):
    """Recursive halving cannot scatter over these host counts; the
    baseline must say so instead of running a reduce-to-one."""
    from repro.apps.reduction import _build_tree, run_normal_reduction

    with pytest.raises(ValueError, match="power-of-two"):
        run_normal_reduction(_build_tree(p), _make_vectors(p), DISTRIBUTED)
