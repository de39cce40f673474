"""Cluster assembly: configuration, nodes, system builder, I/O streams,
multi-stage fabrics, and handler placement."""

from .config import CASE_ORDER, ClusterConfig, case_configs
from .fabric import FabricPartitioned, FtStats, TopologySpec, build_fabric
from .iostream import BlockArrival, ReadStream
from .node import ComputeNode, StorageNode
from .placement import (PLACEMENT_POLICIES, CollectiveTimeout, PlacementPlan,
                        plan_placement, repair_plan)
from .presets import PRESETS, get_preset
from .system import System
from .topology import SwitchTree, TopologyError

__all__ = [
    "CASE_ORDER",
    "ClusterConfig",
    "case_configs",
    "BlockArrival",
    "ReadStream",
    "ComputeNode",
    "StorageNode",
    "PRESETS",
    "get_preset",
    "System",
    "SwitchTree",
    "TopologyError",
    "TopologySpec",
    "build_fabric",
    "FabricPartitioned",
    "FtStats",
    "PLACEMENT_POLICIES",
    "PlacementPlan",
    "plan_placement",
    "repair_plan",
    "CollectiveTimeout",
]
