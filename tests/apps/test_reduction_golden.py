"""Golden Figure 15/16 numbers: simulated latency and kernel event count.

Every ``reduction_sweep`` point (three modes x p = 2..128, active and
normal) and the ``vector_size_sweep(num_hosts=16)`` points are pinned to
the values the simulator produced before the switch-tree reductions
were moved onto the placement engine.  Both numbers must stay
bit-identical: the latency is the figure's data, and the event count
shows the packet-level cascade itself did not change shape.  The burst
and per-block transport paths agree on every point.
"""

import pytest

from repro.apps.reduction import (
    DISTRIBUTED,
    REDUCE_TO_ALL,
    REDUCE_TO_ONE,
    _build_tree,
    _make_vectors,
    run_active_reduction,
    run_normal_reduction,
)

#: (mode, p, active) -> (latency_ps, env.event_count)
FIG_GOLDEN = {
    (REDUCE_TO_ONE, 2, False): (30302000, 54),
    (REDUCE_TO_ONE, 2, True): (30948000, 118),
    (REDUCE_TO_ONE, 4, False): (59890000, 118),
    (REDUCE_TO_ONE, 4, True): (31980000, 194),
    (REDUCE_TO_ONE, 8, False): (89478000, 246),
    (REDUCE_TO_ONE, 8, True): (34044000, 346),
    (REDUCE_TO_ONE, 16, False): (120362000, 564),
    (REDUCE_TO_ONE, 16, True): (36892000, 782),
    (REDUCE_TO_ONE, 32, False): (151246000, 1162),
    (REDUCE_TO_ONE, 32, True): (37924000, 1510),
    (REDUCE_TO_ONE, 64, False): (182130000, 2358),
    (REDUCE_TO_ONE, 64, True): (39988000, 2966),
    (REDUCE_TO_ONE, 128, False): (214310000, 4812),
    (REDUCE_TO_ONE, 128, True): (42836000, 6010),
    (DISTRIBUTED, 2, False): (29424000, 82),
    (DISTRIBUTED, 2, True): (30700000, 141),
    (DISTRIBUTED, 4, False): (58100000, 258),
    (DISTRIBUTED, 4, True): (31620000, 263),
    (DISTRIBUTED, 8, False): (86624000, 722),
    (DISTRIBUTED, 8, True): (33652000, 507),
    (DISTRIBUTED, 16, False): (117760000, 2296),
    (DISTRIBUTED, 16, True): (36696000, 1307),
    (DISTRIBUTED, 32, False): (146698000, 6238),
    (DISTRIBUTED, 32, True): (37824000, 2595),
    (DISTRIBUTED, 64, False): (175489000, 15786),
    (DISTRIBUTED, 64, True): (40128000, 5171),
    (DISTRIBUTED, 128, False): (220222500, 41320),
    (DISTRIBUTED, 128, True): (51672000, 11979),
    (REDUCE_TO_ALL, 2, False): (59698000, 81),
    (REDUCE_TO_ALL, 2, True): (30956000, 141),
    (REDUCE_TO_ALL, 4, False): (118682000, 199),
    (REDUCE_TO_ALL, 4, True): (32004000, 263),
    (REDUCE_TO_ALL, 8, False): (177666000, 435),
    (REDUCE_TO_ALL, 8, True): (34100000, 507),
    (REDUCE_TO_ALL, 16, False): (239242000, 993),
    (REDUCE_TO_ALL, 16, True): (37480000, 1195),
    (REDUCE_TO_ALL, 32, False): (300818000, 2071),
    (REDUCE_TO_ALL, 32, True): (38528000, 2371),
    (REDUCE_TO_ALL, 64, False): (362394000, 4227),
    (REDUCE_TO_ALL, 64, True): (40624000, 4723),
    (REDUCE_TO_ALL, 128, False): (426562000, 8625),
    (REDUCE_TO_ALL, 128, True): (44004000, 9627),
}

#: (vector_bytes, active) -> (latency_ps, env.event_count), 16 hosts,
#: reduce-to-one.
SIZE_GOLDEN = {
    (128, False): (115541000, 564),
    (128, True): (30748000, 674),
    (512, False): (120362000, 564),
    (512, True): (36892000, 782),
    (2048, False): (131822000, 1671),
    (2048, True): (57304000, 2210),
    (8192, False): (177738000, 6099),
    (8192, True): (177776000, 8228),
}


def _measure(num_hosts, mode, active, vector_bytes=512):
    vectors = _make_vectors(num_hosts, vector_bytes=vector_bytes)
    tree = _build_tree(num_hosts)
    run = run_active_reduction if active else run_normal_reduction
    result = run(tree, vectors, mode)
    return result.latency_ps, tree.env.event_count


@pytest.mark.parametrize("mode,p,active", sorted(FIG_GOLDEN))
def test_fig15_16_point_is_bit_identical(mode, p, active):
    assert _measure(p, mode, active) == FIG_GOLDEN[(mode, p, active)]


@pytest.mark.parametrize("vector_bytes,active", sorted(SIZE_GOLDEN))
def test_vector_size_point_is_bit_identical(vector_bytes, active):
    assert _measure(16, REDUCE_TO_ONE, active, vector_bytes) == \
        SIZE_GOLDEN[(vector_bytes, active)]
