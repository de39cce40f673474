"""The reduction experiments' switch tree (paper Figures 15/16).

:class:`SwitchTree` is a keyword constructor for a ``kind="tree"``
:class:`~repro.cluster.fabric.TreeFabric` — 16-port switches, 8 hosts
per leaf, one uplink port — which does all the wiring, routing and
auditing.
"""

from __future__ import annotations

from typing import Optional

from ..net.hca import HcaConfig
from ..sim.core import Environment
from .config import ClusterConfig
from .fabric import TopologyError, TopologySpec, TreeFabric, TreeSwitch

__all__ = ["SwitchTree", "TopologyError", "TreeSwitch"]


class SwitchTree(TreeFabric):
    """A tree of active switches with ``num_hosts`` hosts on the leaves.

    Switch, link and host settings come from ``cluster_config`` (its
    ``active_switch``, ``link`` and ``hca``); ``hca_config`` overrides
    the hosts' adapters alone, as the reductions' messaging-library
    costs do.
    """

    def __init__(self, env: Environment, num_hosts: int,
                 hosts_per_leaf: int = 8, switch_ports: int = 16,
                 cluster_config: Optional[ClusterConfig] = None,
                 hca_config: Optional[HcaConfig] = None,
                 radix: Optional[int] = None, injector=None):
        spec = TopologySpec(kind="tree", num_hosts=num_hosts,
                            hosts_per_leaf=hosts_per_leaf,
                            switch_ports=switch_ports, radix=radix)
        super().__init__(env, spec, cluster_config=cluster_config,
                         hca_config=hca_config, injector=injector)
