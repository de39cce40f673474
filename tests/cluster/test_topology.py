"""Unit tests for the switch-tree topology builder."""

import pytest

from repro.cluster.topology import SwitchTree
from repro.net import Message
from repro.sim import Environment


def test_single_leaf_for_few_hosts():
    tree = SwitchTree(Environment(), num_hosts=8)
    assert tree.depth == 1
    assert len(tree.levels[0]) == 1
    assert tree.root is tree.levels[0][0]


def test_two_leaves_get_a_root():
    tree = SwitchTree(Environment(), num_hosts=16)
    assert tree.depth == 2
    assert len(tree.levels[0]) == 2
    assert tree.root.fan_in == 2


def test_128_hosts_paper_topology():
    tree = SwitchTree(Environment(), num_hosts=128)
    assert len(tree.levels[0]) == 16
    assert tree.depth == 3
    assert len(tree.switches) == 16 + 2 + 1


def test_every_host_has_a_leaf():
    tree = SwitchTree(Environment(), num_hosts=20)
    for host in tree.hosts:
        leaf = tree.leaf_of(host)
        assert host in leaf.hosts


def test_leaf_of_unknown_host_raises():
    tree = SwitchTree(Environment(), num_hosts=8)
    other = SwitchTree(Environment(), num_hosts=8)
    with pytest.raises(ValueError):
        tree.leaf_of(other.hosts[0])


def test_subtree_host_bookkeeping():
    tree = SwitchTree(Environment(), num_hosts=64)
    assert sorted(tree.root.subtree_hosts) == sorted(
        h.name for h in tree.hosts)


def test_validation():
    with pytest.raises(ValueError):
        SwitchTree(Environment(), num_hosts=0)
    with pytest.raises(ValueError):
        SwitchTree(Environment(), num_hosts=8, hosts_per_leaf=16,
                   switch_ports=16)


def test_cross_leaf_message_routes_through_tree():
    """host0 -> host15 crosses two leaves and the root."""
    env = Environment()
    tree = SwitchTree(env, num_hosts=16)
    src, dst = tree.hosts[0], tree.hosts[15]

    def sender(env):
        yield from src.hca.transmit(Message(src.name, dst.name, 256))

    def receiver(env):
        return (yield dst.recv_queue.get()) if False else (
            yield dst.hca.recv_queue.get())

    env.process(sender(env))
    proc = env.process(receiver(env))
    message = env.run(until=proc)
    assert message.size_bytes == 256
    assert tree.root.switch.stats.forwarded >= 1


def test_same_leaf_message_stays_local():
    env = Environment()
    tree = SwitchTree(env, num_hosts=16)
    src, dst = tree.hosts[0], tree.hosts[1]  # same leaf

    def sender(env):
        yield from src.hca.transmit(Message(src.name, dst.name, 64))

    def receiver(env):
        return (yield dst.hca.recv_queue.get())

    env.process(sender(env))
    proc = env.process(receiver(env))
    env.run(until=proc)
    assert tree.root.switch.stats.forwarded == 0


def test_no_shared_mutable_default_configs():
    """Regression: SwitchTree used module-level dataclass instances as
    default arguments; two trees must never share config objects
    implicitly.  Every constructor default is None or a plain integer,
    and each tree builds its own ClusterConfig of frozen sub-configs."""
    import dataclasses
    import inspect

    signature = inspect.signature(SwitchTree.__init__)
    for parameter in signature.parameters.values():
        assert parameter.default is inspect.Parameter.empty or \
            isinstance(parameter.default, (type(None), int)), parameter
    a = SwitchTree(Environment(), num_hosts=8)
    b = SwitchTree(Environment(), num_hosts=8)
    assert a.cluster_config is not b.cluster_config
    assert a.cluster_config.link == b.cluster_config.link  # same values...
    # ...and either not the same object, or frozen (immutable) configs.
    assert dataclasses.is_dataclass(a.cluster_config.link)
    assert a.cluster_config.link.__dataclass_params__.frozen


@pytest.mark.parametrize("num_hosts", [1, 3, 7, 9, 17, 20, 63, 65, 100, 129])
@pytest.mark.parametrize("hosts_per_leaf", [3, 8])
def test_odd_host_counts_stay_consistent(num_hosts, hosts_per_leaf):
    """Satellite audit: non-power-of-hosts_per_leaf counts must keep
    routing tables, fan_in, and port accounting consistent."""
    tree = SwitchTree(Environment(), num_hosts=num_hosts,
                      hosts_per_leaf=hosts_per_leaf)
    tree.validate()
    assert sum(leaf.fan_in for leaf in tree.levels[0]) == num_hosts
    for level in tree.levels[1:]:
        for node in level:
            assert node.fan_in == len(node.children)


def test_validate_catches_broken_routing():
    from repro.cluster.topology import TopologyError

    tree = SwitchTree(Environment(), num_hosts=16)
    tree.validate()  # sound as built
    # Sabotage: point a leaf's route for its own host at the uplink.
    leaf = tree.levels[0][0]
    sabotaged = leaf.hosts[0].name
    leaf.switch.routing.add(sabotaged, leaf.switch.config.num_ports - 1)
    with pytest.raises(TopologyError, match="loop"):
        tree.validate()


def test_radix_parameter_controls_internal_fanout():
    tree = SwitchTree(Environment(), num_hosts=64, hosts_per_leaf=8, radix=4)
    assert len(tree.levels[0]) == 8
    assert len(tree.levels[1]) == 2   # 8 leaves / radix 4
    assert tree.depth == 3
    tree.validate()


def test_bad_radix_rejected():
    from repro.cluster.topology import TopologyError

    with pytest.raises(TopologyError, match="radix"):
        SwitchTree(Environment(), num_hosts=32, radix=1)
    with pytest.raises(TopologyError, match="radix"):
        SwitchTree(Environment(), num_hosts=32, switch_ports=16, radix=16)


def test_switch_names_routed_downward():
    """Internal switches route descendant *switch* names explicitly, so
    placement engines can address partial results to any switch."""
    tree = SwitchTree(Environment(), num_hosts=128)
    leaf0 = tree.levels[0][0]
    assert tree.root.switch.routing.has_route(leaf0.name)
    mid = tree.levels[1][0]
    assert tree.root.switch.routing.has_route(mid.name)
    assert mid.switch.routing.has_route(leaf0.name)
