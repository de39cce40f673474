"""Deterministic fault scheduling and accounting.

A :class:`FaultInjector` turns a :class:`~repro.faults.FaultPlan` into
concrete per-event decisions ("does *this* packet on *this* link drop?").
Determinism is the whole point: every component gets its own named
pseudo-random stream whose seed is :func:`stream_seed` — a SHA-256
derivation of ``(master seed, component name)`` — so a decision depends
only on ``(seed, component, draw index)``: never on how simulation
events from *other* components happen to interleave, and never on
process identity (interpreter hash randomisation, worker pid, spawn
order).  Re-running the same plan + seed reproduces the identical fault
schedule bit for bit — serially, in a pool worker, or from a cached
cell — which :meth:`fingerprint` makes checkable.

The injector also centralises fault *accounting* (how many drops,
corruptions, transient errors, and crashes were injected) and exposes a
failure-context provider so a wedged chaotic run's ``DeadlockError`` /
watchdog report shows what had been injected up to the hang.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Optional

from .plan import FailStopEvent, FaultPlan


class HandlerCrashError(Exception):
    """Injected switch-handler crash (fires at a suspension point)."""


def stream_seed(seed: int, component: str) -> int:
    """The integer seed of one component's pseudo-random stream.

    SHA-256 over ``"{seed}/{component}"`` — a pure function of the
    master seed and the component name.  Integer seeding of
    :class:`random.Random` is documented stable arithmetic, so the
    stream (and hence the fault schedule) is identical in every
    process: ``PYTHONHASHSEED``, worker identity, and platform `hash`
    details cannot leak in.
    """
    digest = hashlib.sha256(f"{seed}/{component}".encode()).digest()
    return int.from_bytes(digest, "big")


class FaultInjector:
    """Draws deterministic fault decisions for every instrumented component."""

    def __init__(self, plan: FaultPlan, seed: int = 0):
        self.plan = plan
        self.seed = plan.seed if plan.seed is not None else seed
        self._streams: Dict[str, random.Random] = {}
        self._counters: Dict[str, int] = {}
        #: Ordered decision log; basis of :meth:`fingerprint`.
        self._log: List[str] = []
        self.injected: Dict[str, int] = {
            "link_drops": 0,
            "link_corruptions": 0,
            "disk_errors": 0,
            "scsi_errors": 0,
            "handler_crashes": 0,
            "atb_corruptions": 0,
            "failstop_switch_down": 0,
            "failstop_link_down": 0,
        }

    # ------------------------------------------------------------------
    # Per-component deterministic streams
    # ------------------------------------------------------------------
    def _stream(self, component: str) -> random.Random:
        stream = self._streams.get(component)
        if stream is None:
            stream = random.Random(stream_seed(self.seed, component))
            self._streams[component] = stream
        return stream

    def _next_index(self, component: str) -> int:
        index = self._counters.get(component, 0)
        self._counters[component] = index + 1
        return index

    def _record(self, component: str, index: int, decision: str) -> None:
        if decision != "ok":
            self._log.append(f"{component}#{index}:{decision}")

    # ------------------------------------------------------------------
    # Link faults
    # ------------------------------------------------------------------
    def link_outcome(self, link_name: str) -> str:
        """Outcome for one serialization attempt: ``ok``/``drop``/``corrupt``."""
        cfg = self.plan.link
        component = f"link/{link_name}"
        index = self._next_index(component)
        if index in cfg.drop_attempts:
            outcome = "drop"
        elif index in cfg.corrupt_attempts:
            outcome = "corrupt"
        else:
            draw = self._stream(component).random()
            if draw < cfg.drop_rate:
                outcome = "drop"
            elif draw < cfg.drop_rate + cfg.bit_error_rate:
                outcome = "corrupt"
            else:
                outcome = "ok"
        if outcome == "drop":
            self.injected["link_drops"] += 1
        elif outcome == "corrupt":
            self.injected["link_corruptions"] += 1
        self._record(component, index, outcome)
        return outcome

    # ------------------------------------------------------------------
    # Storage faults
    # ------------------------------------------------------------------
    def disk_error(self, disk_name: str) -> bool:
        """Whether this disk request attempt hits a transient media error."""
        cfg = self.plan.disk
        component = f"disk/{disk_name}"
        index = self._next_index(component)
        if index in cfg.error_requests:
            errored = True
        else:
            errored = self._stream(component).random() < cfg.read_error_rate
        if errored:
            self.injected["disk_errors"] += 1
        self._record(component, index, "error" if errored else "ok")
        return errored

    def scsi_error(self, bus_name: str) -> bool:
        """Whether this SCSI transaction attempt hits a parity error."""
        cfg = self.plan.scsi
        component = f"scsi/{bus_name}"
        index = self._next_index(component)
        errored = self._stream(component).random() < cfg.error_rate
        if errored:
            self.injected["scsi_errors"] += 1
        self._record(component, index, "error" if errored else "ok")
        return errored

    # ------------------------------------------------------------------
    # Switch faults
    # ------------------------------------------------------------------
    def handler_crash(self, switch_name: str, handler_id: int,
                      invocation: int) -> bool:
        """Whether this handler invocation should crash mid-flight."""
        cfg = self.plan.handler
        component = f"handler/{switch_name}/{handler_id}"
        if (handler_id, invocation) in cfg.crash_invocations:
            crashed = True
            # Keep the random stream aligned with invocation count so a
            # scripted crash doesn't shift later random decisions.
            self._stream(component).random()
        else:
            crashed = self._stream(component).random() < cfg.crash_rate
        if crashed:
            self.injected["handler_crashes"] += 1
            self._log.append(f"{component}#{invocation}:crash")
        return crashed

    def atb_corruption(self, switch_name: str) -> bool:
        """Whether this ATB lookup reads a parity-corrupted entry."""
        cfg = self.plan.handler
        component = f"atb/{switch_name}"
        index = self._next_index(component)
        corrupted = self._stream(component).random() < cfg.atb_corruption_rate
        if corrupted:
            self.injected["atb_corruptions"] += 1
        self._record(component, index, "corrupt" if corrupted else "ok")
        return corrupted

    # ------------------------------------------------------------------
    # Fail-stop faults
    # ------------------------------------------------------------------
    def failstop_schedule(self, candidates) -> List[FailStopEvent]:
        """The run's concrete fail-stop schedule, in firing order.

        Scripted :attr:`~repro.faults.FailStopFaults.events` pass
        through verbatim; ``random_switch_kills`` victims are drawn
        (without replacement) from ``candidates`` — the fabric's
        top-level switch names — with kill times uniform in the plan's
        window.  Both come from the dedicated ``failstop`` stream, so
        the schedule is a pure function of (seed, candidate order) and
        lands in :meth:`fingerprint` like every other decision.
        """
        cfg = self.plan.failstop
        events = list(cfg.events)
        candidates = list(candidates)
        kills = min(cfg.random_switch_kills, len(candidates))
        if kills:
            stream = self._stream("failstop")
            lo, hi = cfg.kill_window_ps
            victims = stream.sample(candidates, kills)
            for victim in victims:
                at_ps = stream.randrange(lo, hi + 1)
                events.append(FailStopEvent(kind="switch_down",
                                            target=victim, at_ps=at_ps))
        events.sort(key=lambda e: (e.at_ps, e.kind, e.target))
        return events

    def failstop_fired(self, event: FailStopEvent) -> None:
        """Account one fail-stop event actually applied to the fabric."""
        key = f"failstop_{event.kind}"
        self.injected[key] = self.injected.get(key, 0) + 1
        self._log.append(
            f"failstop/{event.target}@{event.at_ps}:{event.kind}")

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Digest of every non-ok decision, in injection order.

        Two runs with the same plan + seed (and the same workload) must
        produce identical fingerprints — the chaos suite asserts this.
        """
        digest = hashlib.sha256("\n".join(self._log).encode()).hexdigest()
        return digest[:16]

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def snapshot(self) -> Dict[str, float]:
        """Injection counters, prefixed for merging into run reports."""
        return {f"injected_{key}": float(value)
                for key, value in self.injected.items() if value}

    def failure_context(self) -> dict:
        """Context provider for DeadlockError / watchdog reports."""
        active = {key: value for key, value in self.injected.items() if value}
        return {"fault-injector": (
            f"seed={self.seed} injected={active or 'nothing'}")}
