"""Seeded fault-injection plans for the cluster replay.

A :class:`FaultPlan` is a time-sorted list of :class:`FaultEvent`\\ s
scheduled against simulation time — the event-driven discipline of a
heap-scheduled clock (Simu3-style) makes replica crashes, brownouts
and admission blackouts **deterministic and replayable**: the same
plan against the same trace yields a bit-identical cluster report, so
resilience is a regression-gated property instead of an anecdote.

Fault kinds:

* ``CRASH`` / ``RECOVER`` — the replica stops mid-flight (its resident
  and queued requests are orphaned until heartbeat detection requeues
  them) and later rejoins empty.
* ``BROWNOUT`` / ``BROWNOUT_END`` — degraded throughput: every
  iteration the replica prices while the window is open is multiplied
  by ``factor`` (> 1).
* ``REJECT`` / ``REJECT_END`` — a transient admission-failure window:
  the replica refuses new placements (and admits nothing from its own
  queue), so the router fails requests over to surviving replicas or
  sheds them to the retry queue with backoff.

Plans come from the paired-window helpers (:func:`crash_and_recover`,
:func:`brownout`, :func:`admission_blackout`) or from the seeded
random generator :func:`generate_fault_plan`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

import numpy as np


class FaultKind(enum.Enum):
    """What happens to a replica at a fault event's scheduled time."""

    CRASH = "crash"
    RECOVER = "recover"
    BROWNOUT = "brownout"
    BROWNOUT_END = "brownout_end"
    REJECT = "reject"
    REJECT_END = "reject_end"


#: Window-opening kinds and the kind that closes each.
_WINDOW_CLOSERS: Dict[FaultKind, FaultKind] = {
    FaultKind.CRASH: FaultKind.RECOVER,
    FaultKind.BROWNOUT: FaultKind.BROWNOUT_END,
    FaultKind.REJECT: FaultKind.REJECT_END,
}


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault against one replica.

    Attributes:
        time_s: simulation time the fault fires (finite, >= 0).
        replica: target replica index.
        kind: what happens (see :class:`FaultKind`).
        factor: brownout slowdown multiplier (finite, > 1); ignored by
            every other kind.
    """

    time_s: float
    replica: int
    kind: FaultKind
    factor: float = 1.0

    def __post_init__(self):
        # (A chained comparison is False for NaN.)  A NaN or infinite
        # factor never lets the replay end; a NaN time books NaN downtime.
        if not 0.0 <= self.time_s < math.inf:
            raise ValueError(
                f"fault time must be finite and >= 0, got {self.time_s}"
            )
        if self.replica < 0:
            raise ValueError(
                f"replica index must be >= 0, got {self.replica}"
            )
        factor = self.factor
        if self.kind is FaultKind.BROWNOUT and not 1.0 < factor < math.inf:
            raise ValueError(
                "brownout factor must be finite and > 1 (a slowdown), "
                f"got {factor}"
            )


@dataclass
class FaultPlan:
    """A deterministic, time-sorted schedule of fault events."""

    events: List[FaultEvent] = field(default_factory=list)

    def __post_init__(self):
        self.events = sorted(
            self.events, key=lambda e: (e.time_s, e.replica, e.kind.value)
        )

    @property
    def enabled(self) -> bool:
        """Whether this plan injects anything at all."""
        return bool(self.events)

    def validate(self, replicas: int) -> None:
        """Check the plan is coherent against a cluster size.

        Every event must target a real replica, and each replica's
        windows of one kind must alternate open/close (no recover
        before a crash, no double crash while down, and so on).
        """
        open_windows: Dict[tuple, FaultKind] = {}
        for event in self.events:
            if event.replica >= replicas:
                raise ValueError(
                    f"fault targets replica {event.replica} but the "
                    f"cluster has {replicas}"
                )
            if event.kind in _WINDOW_CLOSERS:
                key = (event.replica, event.kind)
                if key in open_windows:
                    raise ValueError(
                        f"replica {event.replica}: {event.kind.value} "
                        f"at {event.time_s:.3f}s while a previous "
                        f"{event.kind.value} window is still open"
                    )
                open_windows[key] = _WINDOW_CLOSERS[event.kind]
            else:
                opener = next(
                    (
                        kind
                        for kind, closer in _WINDOW_CLOSERS.items()
                        if closer is event.kind
                    ),
                )
                key = (event.replica, opener)
                if key not in open_windows:
                    raise ValueError(
                        f"replica {event.replica}: {event.kind.value} "
                        f"at {event.time_s:.3f}s without a matching "
                        f"{opener.value}"
                    )
                del open_windows[key]

    def for_replica(self, replica: int) -> List[FaultEvent]:
        """This plan's events targeting one replica, time-sorted."""
        return [e for e in self.events if e.replica == replica]


def crash_and_recover(
    replica: int, at_s: float, down_s: float
) -> List[FaultEvent]:
    """A crash at ``at_s`` and recovery ``down_s`` later."""
    if down_s <= 0.0:
        raise ValueError(f"down_s must be > 0, got {down_s}")
    return [
        FaultEvent(at_s, replica, FaultKind.CRASH),
        FaultEvent(at_s + down_s, replica, FaultKind.RECOVER),
    ]


def crash_forever(replica: int, at_s: float) -> List[FaultEvent]:
    """A crash with no scheduled recovery (permanent loss)."""
    return [FaultEvent(at_s, replica, FaultKind.CRASH)]


def brownout(
    replica: int, at_s: float, duration_s: float, factor: float = 3.0
) -> List[FaultEvent]:
    """A degraded-throughput window: iterations ``factor`` x slower."""
    if duration_s <= 0.0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    return [
        FaultEvent(at_s, replica, FaultKind.BROWNOUT, factor=factor),
        FaultEvent(at_s + duration_s, replica, FaultKind.BROWNOUT_END),
    ]


def admission_blackout(
    replica: int, at_s: float, duration_s: float
) -> List[FaultEvent]:
    """A transient admission-failure window: placements bounce."""
    if duration_s <= 0.0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    return [
        FaultEvent(at_s, replica, FaultKind.REJECT),
        FaultEvent(at_s + duration_s, replica, FaultKind.REJECT_END),
    ]


def generate_fault_plan(
    replicas: int,
    duration_s: float,
    seed: int = 0,
    crash_rate: float = 0.05,
    brownout_rate: float = 0.05,
    reject_rate: float = 0.05,
    mean_down_s: float = 2.0,
    brownout_factor: float = 3.0,
) -> FaultPlan:
    """Sample a seeded random fault plan over ``duration_s`` seconds.

    Per replica and fault family, the number of windows is Poisson at
    ``rate * duration_s``, window starts are uniform over the horizon
    and window lengths exponential at ``mean_down_s``; overlapping
    windows of the same family on the same replica are dropped (the
    plan stays valid by construction).  Everything derives from one
    :func:`numpy.random.default_rng` stream, so a seed pins the whole
    plan — the property the cluster's bit-identical-rerun contract
    rests on.

    Args:
        replicas: cluster size the plan targets.
        duration_s: horizon to scatter faults over (usually the
            no-fault replay's makespan, or an estimate of it).
        seed: RNG seed.
        crash_rate: expected crashes per replica-second.
        brownout_rate: expected brownouts per replica-second.
        reject_rate: expected admission blackouts per replica-second.
        mean_down_s: mean window length for every family.
        brownout_factor: slowdown during brownout windows.

    Returns:
        A valid :class:`FaultPlan` (possibly empty at low rates).
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if duration_s <= 0.0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    rng = np.random.default_rng(seed)
    events: List[FaultEvent] = []
    families = (
        (crash_rate, crash_and_recover, ()),
        (brownout_rate, brownout, (brownout_factor,)),
        (reject_rate, admission_blackout, ()),
    )
    for replica in range(replicas):
        for rate, make_window, extra in families:
            count = int(rng.poisson(rate * duration_s))
            starts = np.sort(rng.uniform(0.0, duration_s, size=count))
            lengths = rng.exponential(mean_down_s, size=count)
            horizon = 0.0
            for start, length in zip(starts, lengths):
                if start < horizon:
                    continue  # overlapping same-family window: drop
                length = max(1e-3, float(length))
                events.extend(
                    make_window(replica, float(start), length, *extra)
                )
                horizon = start + length
    plan = FaultPlan(events)
    plan.validate(replicas)
    return plan
