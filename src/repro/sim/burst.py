"""Burst-level event batching: mode flags for the block-path fast path.

PR 5 batched the memory hierarchy (one Python call per *range* instead
of per line, ``REPRO_MEM_PERLINE=1`` restoring the scalar reference).
This module carries the same contract one layer up, into the transport
and dispatch layers: the *burst* fast path replaces the per-block
event cascade (arm Resource round-trips, SCSI/TCA timeouts, wire
Resource holds, host-CPU Resource grants) with analytic free-at state
plus a single timeout per burst, computed from exactly the same
component parameters (see DESIGN.md section 2 and docs/scaling.md).

Two guarantees, enforced by ``tests/sim/test_golden_burst.py``:

* **bit-identity** — with the burst path on (the default), every
  simulated timestamp, CPU/cache/disk/traffic counter, and
  :class:`~repro.metrics.CaseResult` is identical to the per-block
  reference path (``REPRO_SIM_PERBLOCK=1``); only ``sim.event_count``
  differs, because fewer kernel events *is* the optimisation;
* **automatic fallback** — fault injection and structured tracing need
  the real event cascade (retries, per-span timing), so
  :meth:`repro.cluster.System.burst_ok` disables the fast path whenever
  an injector or trace collector is attached.
"""

from __future__ import annotations

import os

__all__ = ["PERBLOCK_ENV", "perblock_requested", "sim_mode_tag"]

#: Debug flag restoring the per-block reference path (mirrors
#: ``REPRO_MEM_PERLINE`` for the memory hierarchy).
PERBLOCK_ENV = "REPRO_SIM_PERBLOCK"


def perblock_requested() -> bool:
    """True when the per-block reference path is forced on."""
    return bool(os.environ.get(PERBLOCK_ENV))


def sim_mode_tag() -> str:
    """The simulation's accuracy mode, for run provenance records.

    Always ``"exact"``: both the burst and the per-block path are
    bit-identical, and there is no approximate mode.
    """
    return "exact"
