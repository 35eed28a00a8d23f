"""The tiered store before it owned its device frames: the test oracle.

Until the store was restated around device frames it owns, this was
``repro.engine.tiering``: a page table of ``_Page`` objects per
``(seq_id, layer)`` stream, plus a second page table inside each
eviction policy, keyed by a frozen ``PageKey``.  It is moved here
verbatim (only the unchanged transfer model is imported instead of
copied) so ``tests/test_tiering_differential.py`` can hold the
production store ``==`` to it: every return value and the full
``summary()`` after every notification.  Do not edit the logic: the
eviction order and the float accumulation order are the contract.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from repro.engine.tiering import (
    DEFAULT_PAGE_BYTES,
    EVICTION_POLICIES,
    TransferModel,
    default_transfer_model,
)


@dataclass(frozen=True)
class PageKey:
    """Identifies one page: ``(seq_id, layer, page_index)``.

    ``page_index`` is the position within the sequence+layer stream, so
    consecutive indices are logically sequential history — the unit the
    sequential prefetcher reasons about.
    """

    seq_id: Hashable
    layer: int
    page_index: int


# ----------------------------------------------------------------------
# eviction policies
# ----------------------------------------------------------------------


class EvictionPolicy:
    """Replacement order over the device-resident page set.

    The store drives the policy with three events: ``insert`` when a
    page becomes device-resident (allocation or promotion), ``touch``
    when a resident page is accessed, ``remove`` when it leaves the
    device tier (eviction or release).  ``victim()`` names the page the
    policy would evict next; the store then calls ``remove`` on it.
    All implementations are deterministic: identical event sequences
    yield identical victim sequences.
    """

    def insert(self, key: PageKey) -> None:
        raise NotImplementedError

    def touch(self, key: PageKey) -> None:
        raise NotImplementedError

    def remove(self, key: PageKey) -> None:
        raise NotImplementedError

    def victim(self) -> PageKey:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class LRUPolicy(EvictionPolicy):
    """Exact least-recently-used order (an :class:`OrderedDict` queue)."""

    name = "lru"

    def __init__(self, capacity_pages: int):
        self._order: "OrderedDict[PageKey, None]" = OrderedDict()

    def insert(self, key: PageKey) -> None:
        if key in self._order:
            raise KeyError(f"page {key} already resident")
        self._order[key] = None

    def touch(self, key: PageKey) -> None:
        self._order.move_to_end(key)

    def remove(self, key: PageKey) -> None:
        del self._order[key]

    def victim(self) -> PageKey:
        if not self._order:
            raise LookupError("no device-resident pages to evict")
        return next(iter(self._order))

    def __len__(self) -> int:
        return len(self._order)


class PLRUPolicy(EvictionPolicy):
    """Tree-based pseudo-LRU over a fixed number of ways.

    The classic cache-controller structure (Simu3's ``mem_sim.py`` uses
    the same scheme per set): ways are the leaves of a complete binary
    tree whose internal nodes each hold one direction bit.  Touching a
    way flips every bit on its root path to point *away* from it;
    choosing a victim walks the bits from the root.  One bit per
    internal node instead of a full recency order — the hardware-cheap
    approximation of LRU.

    The device tier is fully associative, so the tree spans
    ``capacity_pages`` rounded up to a power of two.  Slots beyond the
    real capacity (padding leaves) and not-yet-filled slots can be
    reached by a victim walk; the walk then touches the empty leaf
    (steering the bits away from it) and retries, with a deterministic
    first-occupied-slot fallback bounding the loop.
    """

    name = "plru"

    def __init__(self, capacity_pages: int):
        if capacity_pages < 1:
            raise ValueError("capacity_pages must be >= 1")
        ways = 1
        while ways < capacity_pages:
            ways *= 2
        self._ways = ways
        self._bits = [0] * max(1, ways - 1)
        self._key_at: List[Optional[PageKey]] = [None] * ways
        self._slot_of: Dict[PageKey, int] = {}
        # Pop order gives ascending slot numbers: deterministic fills.
        self._free: List[int] = list(range(capacity_pages - 1, -1, -1))

    def __len__(self) -> int:
        return len(self._slot_of)

    def insert(self, key: PageKey) -> None:
        if key in self._slot_of:
            raise KeyError(f"page {key} already resident")
        if not self._free:
            raise LookupError("PLRU tree full; evict a victim first")
        slot = self._free.pop()
        self._key_at[slot] = key
        self._slot_of[key] = slot
        self._touch_slot(slot)

    def touch(self, key: PageKey) -> None:
        self._touch_slot(self._slot_of[key])

    def remove(self, key: PageKey) -> None:
        slot = self._slot_of.pop(key)
        self._key_at[slot] = None
        self._free.append(slot)

    def victim(self) -> PageKey:
        if not self._slot_of:
            raise LookupError("no device-resident pages to evict")
        if self._ways == 1:
            return self._key_at[0]  # type: ignore[return-value]
        for _ in range(self._ways):
            slot = self._walk()
            key = self._key_at[slot]
            if key is not None:
                return key
            # Landed on a padding/empty leaf: steer the path bits away
            # from it and walk again.
            self._touch_slot(slot)
        # Deterministic fallback (cannot normally be reached: each
        # empty-leaf touch redirects the walk, and at least one leaf is
        # occupied): first occupied slot.
        for key in self._key_at:
            if key is not None:
                return key
        raise LookupError("no device-resident pages to evict")

    # -- tree mechanics -------------------------------------------------

    def _leaf_node(self, slot: int) -> int:
        return (self._ways - 1) + slot

    def _touch_slot(self, slot: int) -> None:
        if self._ways == 1:
            return
        node = self._leaf_node(slot)
        while node > 0:
            parent = (node - 1) // 2
            # Bit points away from the child we arrived from: 1 means
            # "go right", so coming from the left child sets 1.
            self._bits[parent] = 1 if node == 2 * parent + 1 else 0
            node = parent

    def _walk(self) -> int:
        node = 0
        while node < self._ways - 1:
            node = 2 * node + 1 if self._bits[node] == 0 else 2 * node + 2
        return node - (self._ways - 1)


def create_eviction_policy(name: str, capacity_pages: int) -> EvictionPolicy:
    """Instantiate a policy by CLI/config name (``lru`` or ``plru``)."""
    if name == "lru":
        return LRUPolicy(capacity_pages)
    if name == "plru":
        return PLRUPolicy(capacity_pages)
    raise ValueError(
        f"unknown eviction policy {name!r}; choose from {EVICTION_POLICIES}"
    )


# ----------------------------------------------------------------------
# the tiered store
# ----------------------------------------------------------------------

_DEVICE = 0
_HOST = 1


@dataclass
class _Page:
    """One page table row: placement plus fill level."""

    key: PageKey
    used: int = 0
    tier: int = _DEVICE


class TieredKVStore:
    """Two-tier paged placement model for encoded KV bytes.

    Args:
        device_budget_bytes: capacity of the bounded device tier; the
            store always keeps at least one page of room, so budgets
            smaller than one page degrade to a single-page device tier.
        page_bytes: fixed page size (4 KiB default, as in the MMU).
        policy: ``"lru"`` or ``"plru"``.
        prefetch_pages: how many sequential spilled pages to promote
            alongside a missed page (0 disables prefetch).
        transfer: optional :class:`TransferModel`; defaults to
            HBM-device / HOST_DDR-spill at 1 GHz.

    The store never holds payloads — it is notified of appends and
    reads by :class:`~repro.engine.pool.KVCachePool` and maintains
    placement, eviction order and transfer accounting.  All state and
    counters are deterministic functions of the notification sequence.
    """

    def __init__(
        self,
        device_budget_bytes: float,
        page_bytes: int = DEFAULT_PAGE_BYTES,
        policy: str = "lru",
        prefetch_pages: int = 1,
        transfer: Optional[TransferModel] = None,
    ):
        if page_bytes <= 0:
            raise ValueError("page_bytes must be positive")
        if prefetch_pages < 0:
            raise ValueError("prefetch_pages must be >= 0")
        self.page_bytes = int(page_bytes)
        self.capacity_pages = max(1, int(device_budget_bytes // page_bytes))
        self.device_budget_bytes = float(device_budget_bytes)
        self.policy_name = str(policy)
        self.prefetch_pages = int(prefetch_pages)
        self.transfer = transfer if transfer is not None else default_transfer_model()
        self._policy = create_eviction_policy(policy, self.capacity_pages)
        # Streams of pages per (seq_id, layer); page_index == position.
        self._streams: Dict[Tuple[Hashable, int], List[_Page]] = {}
        self._device_pages = 0
        self._host_pages = 0
        # counters
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.promotions = 0
        self.prefetched_pages = 0
        self.spilled_bytes = 0.0
        self.promoted_bytes = 0.0
        self.transfer_cycles = 0.0
        self.pages_allocated = 0
        self.peak_device_bytes = 0.0

    # -- residency totals ----------------------------------------------

    @property
    def device_bytes(self) -> int:
        return self._device_pages * self.page_bytes

    @property
    def host_bytes(self) -> int:
        return self._host_pages * self.page_bytes

    @property
    def device_capacity_bytes(self) -> int:
        return self.capacity_pages * self.page_bytes

    def total_pages(self) -> int:
        return self._device_pages + self._host_pages

    # -- notifications from the pool -----------------------------------

    def record_append(
        self, seq_id: Hashable, layer: int, nbytes: float
    ) -> float:
        """Account ``nbytes`` of new encoded history for a stream.

        Bytes bump-allocate into the stream's open device page, opening
        new device pages as needed; the device tier is then re-bounded
        by demoting cold pages.  Returns the transfer cycles charged by
        any demotions (also accumulated on the store).
        """
        remaining = int(nbytes)
        if remaining <= 0:
            return 0.0
        stream = self._streams.setdefault((seq_id, layer), [])
        before = self.transfer_cycles
        while remaining > 0:
            page = stream[-1] if stream else None
            if page is None or page.used >= self.page_bytes:
                self._make_room()
                page = _Page(
                    key=PageKey(seq_id, layer, len(stream)), used=0
                )
                stream.append(page)
                self.pages_allocated += 1
                self._device_pages += 1
                self._policy.insert(page.key)
            elif page.tier == _HOST:
                # The open (partially filled) page was demoted between
                # appends: writing more of the stream promotes it back.
                self._promote_run(stream, page.key.page_index, limit=1)
            take = min(remaining, self.page_bytes - page.used)
            page.used += take
            remaining -= take
            if page.tier == _DEVICE:
                self._policy.touch(page.key)
        self.peak_device_bytes = max(self.peak_device_bytes, self.device_bytes)
        return self.transfer_cycles - before

    def record_read(self, seq_id: Hashable, layer: int) -> float:
        """Account a full-history read of one stream.

        Device-resident pages count as hits; host-resident pages are
        misses promoted back to device, coalescing runs of consecutive
        spilled pages (up to ``1 + prefetch_pages``) into single merged
        transfers.  Returns the transfer cycles charged.
        """
        stream = self._streams.get((seq_id, layer))
        if not stream:
            return 0.0
        before = self.transfer_cycles
        index = 0
        while index < len(stream):
            page = stream[index]
            if page.tier == _DEVICE:
                self.hits += 1
                self._policy.touch(page.key)
                index += 1
                continue
            self.misses += 1
            promoted = self._promote_run(
                stream, index, limit=1 + self.prefetch_pages
            )
            self.prefetched_pages += promoted - 1
            index += promoted
        return self.transfer_cycles - before

    def release(self, seq_id: Hashable) -> int:
        """Drop every page of a retired sequence (all layers).

        Returns the number of pages freed.  Frees are bookkeeping, not
        transfers: retiring a sequence discards its history rather than
        moving it.
        """
        freed = 0
        for key in [k for k in self._streams if k[0] == seq_id]:
            for page in self._streams.pop(key):
                if page.tier == _DEVICE:
                    self._policy.remove(page.key)
                    self._device_pages -= 1
                else:
                    self._host_pages -= 1
                freed += 1
        return freed

    # -- internals ------------------------------------------------------

    def _make_room(self) -> None:
        """Demote cold pages until one more device page fits.

        Runs *before* a page enters the device tier, so the eviction
        policy never holds more than ``capacity_pages`` entries and the
        incoming page itself can never be chosen as its own victim.
        """
        while self._device_pages >= self.capacity_pages and len(self._policy):
            victim_key = self._policy.victim()
            victim = self._streams[(victim_key.seq_id, victim_key.layer)][
                victim_key.page_index
            ]
            self._policy.remove(victim_key)
            victim.tier = _HOST
            self._device_pages -= 1
            self._host_pages += 1
            self.evictions += 1
            self.spilled_bytes += victim.used
            self.transfer_cycles += self.transfer.transfer_cycles(
                victim.used, self.page_bytes
            )

    def _promote_run(
        self, stream: List[_Page], start: int, limit: int
    ) -> int:
        """Promote up to ``limit`` consecutive host pages starting at
        ``start`` as one merged transfer.  Returns pages promoted."""
        run: List[_Page] = []
        index = start
        while (
            index < len(stream)
            and len(run) < limit
            and stream[index].tier == _HOST
        ):
            run.append(stream[index])
            index += 1
        if not run:
            return 0
        moved = sum(page.used for page in run)
        # One merged transfer: granularity is the whole run, so longer
        # runs ride the host link's burst efficiency curve.
        self.transfer_cycles += self.transfer.transfer_cycles(
            moved, len(run) * self.page_bytes
        )
        self.promoted_bytes += moved
        for page in run:
            self._make_room()
            page.tier = _DEVICE
            self._host_pages -= 1
            self._device_pages += 1
            self.promotions += 1
            self._policy.insert(page.key)
        self.peak_device_bytes = max(self.peak_device_bytes, self.device_bytes)
        return len(run)

    # -- reporting ------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Flat numeric counters for replay/cluster telemetry."""
        return {
            "hits": float(self.hits),
            "misses": float(self.misses),
            "evictions": float(self.evictions),
            "promotions": float(self.promotions),
            "prefetched_pages": float(self.prefetched_pages),
            "spilled_bytes": float(self.spilled_bytes),
            "promoted_bytes": float(self.promoted_bytes),
            "transfer_cycles": float(self.transfer_cycles),
            "pages_allocated": float(self.pages_allocated),
            "device_pages": float(self._device_pages),
            "host_pages": float(self._host_pages),
            "device_bytes": float(self.device_bytes),
            "host_bytes": float(self.host_bytes),
            "device_capacity_bytes": float(self.device_capacity_bytes),
            "peak_device_bytes": float(self.peak_device_bytes),
        }
