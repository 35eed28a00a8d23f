"""Tiered paged KV memory hierarchy: device-HBM pages, host-DDR spill.

The serving story of the paper is ultimately a memory story: quantized
KV exists to fit more context per byte of device memory.  Up to now the
pool's admission gate was a reject/queue binary — a sequence either fit
the flat budget or never ran.  This module turns the budget into a
**memory hierarchy**: a bounded "device HBM" tier of fixed-size page
frames holding the hot encoded KV, and an unbounded "host DDR" spill
tier behind a PCIe-class link.  When the device tier fills, the
eviction policy (LRU, or the tree-PLRU of classic cache controllers)
demotes cold pages to host; reads of spilled pages promote them back,
optionally prefetching the sequential pages that follow, and every move
is priced through :meth:`repro.hardware.memory.MemorySpec.read_time_s`
into modeled transfer cycles.

Like :mod:`repro.hardware.mmu`, the store is a *functional placement
model*: it tracks real page allocation, tier residence, eviction order
and transfer accounting, while the encoded payloads themselves stay in
the :class:`~repro.engine.backend.CacheBackend` caches the pool owns.
That split is what makes the correctness contract structural — a read
decodes the same bytes whichever tier its pages reside in — and the
pool's state machine (``tests/test_pool_model.py``) asserts it
end-to-end for every registry method under forced eviction.

There is one page table.  The device tier is ``capacity_pages`` frames
the store owns; each ``(seq_id, layer)`` stream is two flat int lists,
the fill bytes of its pages and the frame each page occupies (``-1``
for host), and each held frame points back at its page.  The eviction
policy is a *name* over those frames, in the level that owns them (as
Simu3's ``mem_sim.py`` keeps PLRU bits per cache level): LRU is a
recency order of frame numbers, tree-PLRU one direction bit per
internal node of a tree whose leaves are the frames.

Accounting model (all deterministic, simulation-time):

* Encoded bytes bump-allocate into per-``(seq_id, layer)`` page
  streams; a page entering the device tier takes the most recently
  freed frame, or else the lowest never-used one.
* ``record_append`` grows the stream on device, first evicting a cold
  page to host whenever no frame is free (each demotion is one modeled
  transfer).
* ``record_read`` touches a stream's pages in order: device-resident
  pages are **hits**, host-resident pages are **misses** that promote
  back; runs of consecutive spilled pages coalesce into one merged
  transfer (up to ``1 + prefetch_pages`` pages), which is both fewer
  transactions and better burst efficiency on the host link.
* A transfer of ``n`` bytes at granularity ``g`` costs
  ``max(device.read_time_s(n, g), host.read_time_s(n, g))`` seconds —
  DMA overlaps both ends, the slower side (the host link) dominates —
  converted to cycles at ``clock_hz``.

The hardware imports are deliberately lazy (inside
:func:`default_transfer_model`) so ``repro.engine`` and
``repro.hardware`` keep their zero module-level import coupling in both
directions (``hardware.mmu`` imports ``engine.errors``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

__all__ = [
    "EVICTION_POLICIES",
    "TieredKVStore",
    "TransferModel",
    "default_transfer_model",
]

#: Eviction policy names accepted by :class:`TieredKVStore` and the
#: CLI flags.
EVICTION_POLICIES = ("lru", "plru")

#: Paper-style 4 KiB pages, matching ``hardware/mmu.py``.
DEFAULT_PAGE_BYTES = 4096

#: Device clock used to express transfer seconds as cycles (1 GHz, the
#: same clock the Figure 9 engine timings default to).
DEFAULT_CLOCK_HZ = 1.0e9


# ----------------------------------------------------------------------
# transfer pricing
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TransferModel:
    """Prices page movement between the two tiers.

    Attributes:
        device: the bounded hot tier's memory spec (HBM-class).
        host: the spill tier behind its link (DDR-over-PCIe-class).
        clock_hz: clock converting transfer seconds to cycles.
    """

    device: "object"
    host: "object"
    clock_hz: float = DEFAULT_CLOCK_HZ

    def transfer_cycles(self, nbytes: float, transfer_bytes: float) -> float:
        """Cycles to move ``nbytes`` at granularity ``transfer_bytes``.

        Both ends of the DMA run concurrently; the slower side (in
        practice the host link) sets the pace.
        """
        if nbytes <= 0:
            return 0.0
        seconds = max(
            self.device.read_time_s(nbytes, transfer_bytes),
            self.host.read_time_s(nbytes, transfer_bytes),
        )
        return seconds * self.clock_hz


def default_transfer_model(clock_hz: float = DEFAULT_CLOCK_HZ) -> TransferModel:
    """HBM device tier spilling to :data:`repro.hardware.memory.HOST_DDR`.

    Imported lazily so :mod:`repro.engine` keeps zero module-level
    imports of :mod:`repro.hardware` (whose ``mmu`` module imports
    ``engine.errors`` — eager imports here would cycle).
    """
    from repro.hardware.memory import HBM_80GB, HOST_DDR

    return TransferModel(device=HBM_80GB, host=HOST_DDR, clock_hz=clock_hz)


# ----------------------------------------------------------------------
# the tiered store
# ----------------------------------------------------------------------

#: One stream's pages: ``(fills, frames)``, parallel lists indexed by
#: page position; a frame of ``-1`` means the page lives on host.
_Stream = Tuple[List[int], List[int]]

#: ``summary()``'s keys, in report order; each is a store attribute.
_SUMMARY_KEYS = (
    "hits", "misses", "evictions", "promotions", "prefetched_pages",
    "spilled_bytes", "promoted_bytes", "transfer_cycles",
    "pages_allocated", "device_pages", "host_pages", "device_bytes",
    "host_bytes", "device_capacity_bytes", "peak_device_bytes",
)


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
        if policy not in EVICTION_POLICIES:
            raise ValueError(
                f"unknown eviction policy {policy!r}; "
                f"choose from {EVICTION_POLICIES}"
            )
        self.page_bytes = int(page_bytes)
        self.capacity_pages = max(1, int(device_budget_bytes // page_bytes))
        self.device_budget_bytes = float(device_budget_bytes)
        self.policy_name = str(policy)
        self.prefetch_pages = int(prefetch_pages)
        self.transfer = transfer if transfer is not None else default_transfer_model()
        # PLRU leaves: the frames, padded to a power of two.
        self._ways = 1 << (self.capacity_pages - 1).bit_length()
        # Held frames -> (stream, page index) of the page each holds, and
        # the freed frames, reused last-in, first-out.
        self._page_at: Dict[int, Tuple[_Stream, int]] = {}
        self._free: List[int] = []
        self._seqs: Dict[Hashable, Dict[int, _Stream]] = {}
        self.host_pages = 0
        # The policy: LRU's recency order of held frames, or PLRU's
        # direction bits, one per internal node of the frame tree.
        lru = policy == "lru"
        self._recency = OrderedDict() if lru else None
        self._bits = [] if lru else [0] * (self._ways - 1)
        self._touch = self._recency.move_to_end if lru else self._plru_touch
        self._victim = self._lru_victim if lru else self._plru_victim
        # counters
        self.hits = self.misses = self.evictions = self.promotions = 0
        self.prefetched_pages = self.pages_allocated = 0
        self.spilled_bytes = self.promoted_bytes = self.transfer_cycles = 0.0
        self.peak_device_bytes = 0.0

    # -- residency totals ----------------------------------------------

    @property
    def device_pages(self) -> int:
        return len(self._page_at)

    @property
    def device_bytes(self) -> int:
        return self.device_pages * self.page_bytes

    @property
    def host_bytes(self) -> int:
        return self.host_pages * self.page_bytes

    @property
    def device_capacity_bytes(self) -> int:
        return self.capacity_pages * self.page_bytes

    def total_pages(self) -> int:
        return self.device_pages + self.host_pages

    # -- notifications from the pool -----------------------------------

    def record_append(
        self, seq_id: Hashable, layer: int, nbytes: float
    ) -> float:
        """Account ``nbytes`` of new encoded history for a stream.

        Bytes bump-allocate into the stream's open device page, opening
        new device pages as needed (a spilled open page is promoted
        back first); a cold page is demoted whenever the device tier
        has no free frame.  Returns the transfer cycles charged by any
        demotions (also accumulated on the store).
        """
        remaining = int(nbytes)
        if remaining <= 0:
            return 0.0
        layers = self._seqs.setdefault(seq_id, {})
        stream = layers.get(layer) or layers.setdefault(layer, ([], []))
        fills, frames = stream
        before = self.transfer_cycles
        while remaining > 0:
            if not fills or fills[-1] >= self.page_bytes:
                fills.append(0)
                frames.append(-1)
                self._occupy(stream, len(frames) - 1)
                self.pages_allocated += 1
            elif frames[-1] < 0:
                self._promote_run(stream, len(frames) - 1, 1)
            take = min(remaining, self.page_bytes - fills[-1])
            fills[-1] += take
            remaining -= take
            self._touch(frames[-1])
        return self.transfer_cycles - before

    def record_read(self, seq_id: Hashable, layer: int) -> float:
        """Account a full-history read of one stream.

        Device-resident pages count as hits; host-resident pages are
        misses promoted back to device, coalescing runs of consecutive
        spilled pages (up to ``1 + prefetch_pages``) into single merged
        transfers.  Returns the transfer cycles charged.
        """
        stream = self._seqs.get(seq_id, {}).get(layer)
        if stream is None:
            return 0.0
        frames = stream[1]
        before = self.transfer_cycles
        index = 0
        while index < len(frames):
            if frames[index] >= 0:
                self.hits += 1
                self._touch(frames[index])
                index += 1
            else:
                self.misses += 1
                run = self._promote_run(stream, index, 1 + self.prefetch_pages)
                self.prefetched_pages += run - 1
                index += run
        return self.transfer_cycles - before

    def release(self, seq_id: Hashable) -> int:
        """Drop every page of a retired sequence (all layers).

        Returns the number of pages freed.  Frees are bookkeeping, not
        transfers: retiring a sequence discards its history rather than
        moving it.
        """
        freed = 0
        for _, frames in self._seqs.pop(seq_id, {}).values():
            for frame in frames:
                if frame >= 0:
                    self._vacate(frame)
            self.host_pages -= frames.count(-1)
            freed += len(frames)
        return freed

    # -- frames ---------------------------------------------------------

    def _occupy(self, stream: _Stream, index: int) -> None:
        """Give page ``index`` of a stream a device frame.

        Room is made *before* the page enters the device tier, so the
        incoming page can never be chosen as its own victim.  Residency
        only grows here, so this is where the peak is taken.
        """
        if self.device_pages == self.capacity_pages:
            self._evict()
        # With no freed frame, frames 0..held-1 are all held: the next
        # new frame is the held count, so fills ascend.
        frame = self._free.pop() if self._free else self.device_pages
        stream[1][index] = frame
        self._page_at[frame] = (stream, index)
        if self._recency is not None:
            self._recency[frame] = None
        self._touch(frame)
        self.peak_device_bytes = max(self.peak_device_bytes, self.device_bytes)

    def _vacate(self, frame: int) -> None:
        del self._page_at[frame]
        self._free.append(frame)
        if self._recency is not None:
            del self._recency[frame]

    def _evict(self) -> None:
        """Demote the policy's victim page to host."""
        frame = self._victim()
        (fills, frames), index = self._page_at[frame]
        self._vacate(frame)
        frames[index] = -1
        self.host_pages += 1
        self.evictions += 1
        self.spilled_bytes += fills[index]
        self.transfer_cycles += self.transfer.transfer_cycles(
            fills[index], self.page_bytes
        )

    def _promote_run(self, stream: _Stream, start: int, limit: int) -> int:
        """Promote up to ``limit`` consecutive host pages starting at
        ``start`` (a host page) as one merged transfer.  Returns pages
        promoted."""
        fills, frames = stream
        end = start + 1
        stop = min(len(frames), start + limit)
        while end < stop and frames[end] < 0:
            end += 1
        moved = sum(fills[start:end])
        # One merged transfer: granularity is the whole run, so longer
        # runs ride the host link's burst efficiency curve.
        self.transfer_cycles += self.transfer.transfer_cycles(
            moved, (end - start) * self.page_bytes
        )
        self.promoted_bytes += moved
        for index in range(start, end):
            self._occupy(stream, index)
        self.host_pages -= end - start
        self.promotions += end - start
        return end - start

    # -- policies -------------------------------------------------------

    def _lru_victim(self) -> int:
        return next(iter(self._recency))

    def _plru_touch(self, frame: int) -> None:
        """Point every bit on the frame's root path away from it."""
        node = self._ways - 1 + frame
        while node:
            parent = (node - 1) >> 1
            # 1 means "go right": arriving from the left child (odd
            # node) sets it.
            self._bits[parent] = node & 1
            node = parent

    def _plru_victim(self) -> int:
        """Walk the bits from the root to a leaf.

        A padding or free leaf is touched (steering the bits away from
        it) and the walk repeated; walk-then-touch visits every leaf
        within ``ways`` walks, so a held frame is always reached.
        """
        leaves = self._ways - 1
        while True:
            node = 0
            while node < leaves:
                node = 2 * node + 1 + self._bits[node]
            frame = node - leaves
            if frame in self._page_at:
                return frame
            self._plru_touch(frame)

    # -- reporting ------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert the frame table against a walk of every stream.

        Test support: held and freed frames are exactly the frames
        handed out so far, never more than the page budget (so
        residency never exceeds it either); every held frame
        and the page it holds name each other; LRU's order holds
        exactly the held frames; the host count matches; and every
        page except a stream's last is full.
        """
        held = sorted(self._page_at)
        used = sorted(held + self._free)  # every frame ever handed out
        assert used == list(range(len(used)))
        assert len(used) <= self.capacity_pages
        assert self._recency is None or sorted(self._recency) == held
        device, host = [], 0
        for layers in self._seqs.values():
            for fills, frames in layers.values():
                assert len(fills) == len(frames)
                assert fills[:-1] == [self.page_bytes] * (len(fills) - 1)
                assert 0 < fills[-1] <= self.page_bytes
                host += frames.count(-1)
                for index, frame in enumerate(frames):
                    if frame >= 0:
                        device.append(frame)
                        (_, owner), at = self._page_at[frame]
                        assert owner is frames and at == index
        assert sorted(device) == held and host == self.host_pages
        assert self.peak_device_bytes >= self.device_bytes

    def summary(self) -> Dict[str, float]:
        """Flat numeric counters for replay/cluster telemetry."""
        return {key: float(getattr(self, key)) for key in _SUMMARY_KEYS}
