"""Declarative fault plans for the simulated SAN.

A :class:`FaultPlan` describes *what can go wrong* in one run: per-packet
link drops and bit errors, transient disk and SCSI-bus errors, and
switch-handler crashes / ATB parity corruption.  The plan is pure data —
frozen, hashable, reusable across runs.  Pair it with a seed (usually
``ClusterConfig.seed``) inside a :class:`~repro.faults.FaultInjector` to
get a concrete, deterministic fault *schedule*: the same plan and seed
always fault the same packets, requests, and invocations, so a chaotic
run is exactly reproducible bit for bit.

Every rate defaults to zero and every plan knob is additive: a default
``FaultPlan()`` injects nothing, and a ``ClusterConfig`` without a plan
never touches the fault machinery at all — the fault-free datapaths are
the exact pre-existing code paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..sim.units import us


def _check_rate(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value}")


@dataclass(frozen=True)
class LinkFaults:
    """Per-packet wire faults and the link-layer recovery policy.

    Every serialized packet independently draws one outcome:
    ``drop`` (the packet vanishes in the fabric; the sender recovers via
    an ACK timeout with exponential backoff), ``corrupt`` (delivered
    with a CRC violation; the receiving port discards it and NACKs, and
    the sender retransmits immediately), or ``ok``.
    """

    drop_rate: float = 0.0
    bit_error_rate: float = 0.0
    #: First ACK-timeout window; attempt ``k`` waits
    #: ``ack_timeout_ps * backoff_factor**k`` before retransmitting.
    ack_timeout_ps: int = us(5)
    backoff_factor: float = 2.0
    #: Ceiling on one backed-off wait.  ``backoff_factor ** attempt`` is
    #: unbounded, so a long outage (a fail-stopped neighbor) would
    #: otherwise schedule absurd timeouts; capped waits are counted in
    #: :attr:`~repro.net.link.LinkStats.capped_backoffs`.  ``None``
    #: keeps the pre-1.5 unbounded behavior.
    max_backoff_ps: Optional[int] = None
    #: Retransmissions allowed per packet before the link gives up.
    max_retries: int = 8
    #: Deterministic fault script (mainly for tests): serialization
    #: attempt indices, per link, forced to drop / corrupt regardless of
    #: the rates.
    drop_attempts: Tuple[int, ...] = ()
    corrupt_attempts: Tuple[int, ...] = ()

    def __post_init__(self):
        _check_rate("drop_rate", self.drop_rate)
        _check_rate("bit_error_rate", self.bit_error_rate)
        if self.drop_rate + self.bit_error_rate > 1.0:
            raise ValueError("drop_rate + bit_error_rate cannot exceed 1")
        if self.ack_timeout_ps <= 0:
            raise ValueError("ack_timeout_ps must be positive")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.max_backoff_ps is not None \
                and self.max_backoff_ps < self.ack_timeout_ps:
            raise ValueError(
                "max_backoff_ps cannot undercut the first ack_timeout_ps")
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")

    @property
    def enabled(self) -> bool:
        return (self.drop_rate > 0 or self.bit_error_rate > 0
                or bool(self.drop_attempts) or bool(self.corrupt_attempts))


@dataclass(frozen=True)
class DiskFaults:
    """Transient (recoverable-by-retry) media errors.

    A failing request pays positioning plus roughly half the transfer
    before the error is detected, then the firmware re-positions and
    retries after an exponentially backed-off recalibration delay.
    """

    read_error_rate: float = 0.0
    #: Firmware recovery delay before retry ``k`` (scaled by ``2**k``).
    retry_backoff_ps: int = us(500)
    max_retries: int = 4
    #: Deterministic request indices, per spindle, forced to error.
    error_requests: Tuple[int, ...] = ()

    def __post_init__(self):
        _check_rate("read_error_rate", self.read_error_rate)
        if self.retry_backoff_ps <= 0:
            raise ValueError("retry_backoff_ps must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")

    @property
    def enabled(self) -> bool:
        return self.read_error_rate > 0 or bool(self.error_requests)


@dataclass(frozen=True)
class ScsiFaults:
    """Transient bus (parity/arbitration) errors, retried per transaction."""

    error_rate: float = 0.0
    max_retries: int = 4

    def __post_init__(self):
        _check_rate("error_rate", self.error_rate)
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")

    @property
    def enabled(self) -> bool:
        return self.error_rate > 0


@dataclass(frozen=True)
class HandlerFaults:
    """Switch-handler crashes and ATB parity corruption.

    ``crash_invocations`` schedules deterministic crashes as
    ``(handler_id, invocation_index)`` pairs (0-based, counted per
    switch per handler); ``crash_rate`` draws additional crashes at
    random.  An injected crash fires at the handler's first suspension
    point, i.e. mid-flight with its stream buffers mapped.  A handler
    that has crashed ``quarantine_threshold`` times is quarantined: its
    registered flush hook drains any partial state, and subsequent
    traffic falls back to normal cut-through forwarding toward the
    message's ``fallback_dst``.
    """

    crash_rate: float = 0.0
    crash_invocations: Tuple[Tuple[int, int], ...] = ()
    atb_corruption_rate: float = 0.0
    quarantine_threshold: int = 2

    def __post_init__(self):
        _check_rate("crash_rate", self.crash_rate)
        _check_rate("atb_corruption_rate", self.atb_corruption_rate)
        if self.quarantine_threshold < 1:
            raise ValueError("quarantine_threshold must be >= 1")
        for pair in self.crash_invocations:
            handler_id, invocation = pair
            if handler_id < 0 or invocation < 0:
                raise ValueError(f"invalid crash schedule entry {pair}")

    @property
    def enabled(self) -> bool:
        return (self.crash_rate > 0 or self.atb_corruption_rate > 0
                or bool(self.crash_invocations))


@dataclass(frozen=True)
class FailStopEvent:
    """One scheduled fail-stop: a component dies outright at ``at_ps``.

    ``kind`` is ``"switch_down"`` (``target`` is a switch name; every
    link touching it dies with it) or ``"link_down"`` (``target`` is one
    link direction, named ``"src->dst"``).  ``revive_at_ps`` optionally
    brings the component back — its *wires* recover; any handler state
    it held is gone, which is exactly what the epoch-numbered collective
    recovery is built to survive.  Targets not present in the fabric
    under test are ignored, so one plan can ride a topology sweep.
    """

    kind: str
    target: str
    at_ps: int
    revive_at_ps: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("switch_down", "link_down"):
            raise ValueError(
                f"unknown fail-stop kind {self.kind!r}; "
                f"expected 'switch_down' or 'link_down'")
        if self.at_ps < 0:
            raise ValueError("fail-stop time cannot be negative")
        if self.revive_at_ps is not None and self.revive_at_ps <= self.at_ps:
            raise ValueError("revive_at_ps must come after at_ps")


@dataclass(frozen=True)
class FailStopFaults:
    """Fail-stop (whole-component) failures and the recovery policy.

    Two ways to schedule deaths: ``events`` scripts them exactly, and
    ``random_switch_kills`` draws that many victims from the fabric's
    top (core/spine) level, with kill times uniform in ``kill_window_ps``
    — both deterministic functions of the injector seed, like every
    other fault stream.

    Detection and recovery knobs live here because they only matter
    when something can actually die: ``heartbeat_interval_ps`` paces the
    per-switch liveness monitor (detection latency is bounded by one
    interval), ``collective_timeout_ps`` is the end-to-end deadline a
    placed collective waits before declaring the attempt lost and
    repairing, and ``max_attempts`` bounds the repair/retry loop.
    """

    events: Tuple[FailStopEvent, ...] = ()
    #: Seeded random spine/core kills (drawn from the fabric's top level).
    random_switch_kills: int = 0
    kill_window_ps: Tuple[int, int] = (us(5), us(50))
    #: Liveness-monitor period on every switch (and detection bound).
    heartbeat_interval_ps: int = us(10)
    #: End-to-end deadline per collective attempt before repair.
    collective_timeout_ps: int = us(400)
    #: Collective attempts (initial + repairs) before giving up.
    max_attempts: int = 4

    def __post_init__(self):
        if self.random_switch_kills < 0:
            raise ValueError("random_switch_kills cannot be negative")
        lo, hi = self.kill_window_ps
        if lo < 0 or hi < lo:
            raise ValueError(f"bad kill window {self.kill_window_ps}")
        if self.heartbeat_interval_ps <= 0:
            raise ValueError("heartbeat_interval_ps must be positive")
        if self.collective_timeout_ps <= 0:
            raise ValueError("collective_timeout_ps must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    @property
    def enabled(self) -> bool:
        return bool(self.events) or self.random_switch_kills > 0


@dataclass(frozen=True)
class FaultPlan:
    """Everything that may be injected into one simulated run."""

    link: LinkFaults = field(default_factory=LinkFaults)
    disk: DiskFaults = field(default_factory=DiskFaults)
    scsi: ScsiFaults = field(default_factory=ScsiFaults)
    handler: HandlerFaults = field(default_factory=HandlerFaults)
    failstop: FailStopFaults = field(default_factory=FailStopFaults)
    #: Optional seed override; ``None`` defers to the cluster seed so a
    #: single ``ClusterConfig.seed`` reproduces the whole run.
    seed: Optional[int] = None

    @property
    def enabled(self) -> bool:
        """True when any component can actually fault."""
        return (self.link.enabled or self.disk.enabled
                or self.scsi.enabled or self.handler.enabled
                or self.failstop.enabled)
