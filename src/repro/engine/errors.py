"""Typed failure modes of the cache engine.

Callers distinguish *retryable* conditions (a bounded pool refusing
work for capacity — retry the request somewhere else, or later) from
programming errors (unknown sequence ids, shape mismatches — bugs that
must surface).  Capacity refusals therefore carry a dedicated family
rooted at :class:`MemoryCapacityError` with enough context to route the
retry: which sequence was refused, how many bytes it wanted, and the
budget the refusal was based on.  Every memory-exhaustion path in the
repo — the pool's measured-footprint admission
(:class:`CacheCapacityError`) and the hardware MMU's physical page
allocator (:class:`repro.hardware.mmu.OutOfPagesError`) — raises a
member of this family, so callers can catch one type and inspect one
attribute set regardless of which layer ran out.
"""

from __future__ import annotations

from typing import Hashable, Optional


class MemoryCapacityError(RuntimeError):
    """Base of the inspectable memory-exhaustion family.

    Carries the context every capacity refusal shares, whichever layer
    raised it:

    Attributes:
        seq_id: the refused sequence (request) id, when known.
        requested_bytes: bytes the refused work would have added.
        measured_bytes: bytes in use at refusal time.
        capacity_bytes: the budget the request exceeded.
    """

    def __init__(
        self,
        seq_id: Optional[Hashable],
        requested_bytes: float,
        measured_bytes: float,
        capacity_bytes: float,
        message: str,
    ):
        self.seq_id = seq_id
        self.requested_bytes = float(requested_bytes)
        self.measured_bytes = float(measured_bytes)
        self.capacity_bytes = float(capacity_bytes)
        super().__init__(message)


class CacheCapacityError(MemoryCapacityError):
    """A pool append/admission was refused for capacity.

    Raised by :class:`~repro.engine.pool.KVCachePool` when an append
    would push the measured encoded footprint past ``capacity_bytes``,
    and by admission paths projecting against a byte budget.  This is
    the **retryable** rejection class: the request is well-formed, the
    pool is full — callers may retry on another pool or after
    retirement.  Any other exception escaping the append path is a
    bug, not backpressure.

    Pools constructed with a :class:`~repro.engine.tiering.TieredKVStore`
    do not raise this for device-tier pressure — cold pages spill to
    host instead (the evict-and-spill admission option) — only when an
    explicit total ``capacity_bytes`` bound is also set and exceeded.
    """

    def __init__(
        self,
        seq_id: Optional[Hashable],
        requested_bytes: float,
        measured_bytes: float,
        capacity_bytes: float,
    ):
        super().__init__(
            seq_id,
            requested_bytes,
            measured_bytes,
            capacity_bytes,
            f"sequence {seq_id!r}: appending ~{requested_bytes:.0f} "
            f"encoded bytes would exceed the pool budget "
            f"({measured_bytes:.0f} of {capacity_bytes:.0f} bytes in "
            "use); retryable rejection, not a bug",
        )
