"""Fault injection: run a reduction over a lossy fabric and survive.

Builds the paper's switch-tree reduction twice — once on a perfect
fabric, once with every link dropping 10% and corrupting 5% of packet
copies — and shows that:

* the numeric result matches the fault-free oracle bit for bit (the
  CRC + NACK/retransmission protocol hides every fault);
* the faults injected and recovered are itemized per kind;
* the same seed reproduces the same fault schedule exactly.

A fault costs latency only when it lands on the reduction's critical
path.  At the default seed 11 the single injected corruption does not,
so both fabrics report the same latency; at seed 1 recovery adds about
5 us.

Run:  python examples/fault_injection.py [seed]
"""

import sys

from repro import FaultInjector, FaultPlan, LinkFaults
from repro.apps.reduction import (
    REDUCE_TO_ONE,
    REDUCTION_HCA,
    _make_vectors,
    _oracle,
    run_active_reduction,
)
from repro.cluster.topology import SwitchTree
from repro.sim import Environment, ps_to_us

NUM_HOSTS = 16

#: Every link drops 10% of copies and flips bits in another 5%.
LOSSY = FaultPlan(link=LinkFaults(drop_rate=0.10, bit_error_rate=0.05))


def run_point(plan, seed):
    env = Environment()
    injector = FaultInjector(plan, seed=seed) if plan is not None else None
    tree = SwitchTree(env, num_hosts=NUM_HOSTS, hosts_per_leaf=8,
                      switch_ports=16, hca_config=REDUCTION_HCA,
                      injector=injector)
    vectors = _make_vectors(NUM_HOSTS)
    result = run_active_reduction(tree, vectors, REDUCE_TO_ONE)
    assert result.result_vector == _oracle(vectors), "recovery failed!"
    return result, injector


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 11

    clean, _ = run_point(None, seed)
    faulty, injector = run_point(LOSSY, seed)
    again, injector2 = run_point(LOSSY, seed)

    print(f"{NUM_HOSTS}-host reduce-to-one, 512 B vectors")
    print(f"  perfect fabric : {ps_to_us(clean.latency_ps):8.2f} us")
    print(f"  lossy fabric   : {ps_to_us(faulty.latency_ps):8.2f} us "
          "(result byte-correct)")
    print("  faults injected and recovered:")
    for key, value in sorted(injector.snapshot().items()):
        print(f"    {key:28s} {value:g}")
    print(f"  schedule fingerprint: {injector.fingerprint()}")
    same = (again.latency_ps == faulty.latency_ps
            and injector2.fingerprint() == injector.fingerprint())
    print(f"  same seed ({seed}) reproduces the run: {same}")


if __name__ == "__main__":
    main()
