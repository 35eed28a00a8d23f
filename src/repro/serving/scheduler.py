"""Token-level continuous batching (the paper's Section 5.3 policy).

The scheduler keeps at most ``max_batch`` requests resident.  Arrivals
queue; whenever a slot frees (or at trace start), the oldest queued
arrival is admitted and pays a prefill pass.  Every generation
iteration advances all resident requests by one token — Oaken's
compute cores each handle one token of one request, so resident batch
size maps directly to core occupancy.

The scheduler is deliberately platform-agnostic: it produces iteration
descriptions (batch size, per-request context lengths, prompt
admissions) and the simulator prices them with the hardware model.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Tuple

from repro.serving.request import Request, RequestPhase


@dataclass
class IterationPlan:
    """One scheduler step: admissions then a generation iteration.

    Attributes:
        admitted: requests entering prefill this step.
        resident: requests participating in the generation iteration
            (after admissions).
        mean_context: average context length across residents.
        ragged: True when resident prompt lengths differ enough to
            trigger padding penalties on systolic platforms.
        prefill_tokens: prompt tokens processed this iteration (only
            nonzero in chunked-prefill mode, where admissions prefill
            incrementally instead of stalling the batch — the
            Sarathi-style scheduling the paper's serving layer cites).
        resident_ids: the resident requests' ids, in ``resident``
            order, computed once here so per-iteration consumers (the
            cache replay's batched append/read pair per layer) never
            rebuild the id list per layer inside the hot loop.
    """

    admitted: List[Request]
    resident: List[Request]
    mean_context: float
    ragged: bool
    prefill_tokens: int = 0
    resident_ids: Tuple[int, ...] = ()


class ContinuousBatchScheduler:
    """Iteration-level batching with bounded residency.

    Args:
        max_batch: resident request cap (figure sweeps set this).
        prefill_chunk: when set, admissions do not stall the batch with
            a monolithic prefill; instead up to ``prefill_chunk``
            prompt tokens are processed per iteration alongside the
            resident generation work, and a request starts generating
            once its prompt is fully consumed.
        admission_gate: optional predicate consulted before each
            admission; returning False leaves the request (and, FIFO,
            everything behind it) queued for a later iteration.  The
            serving simulator's cache-replay mode uses this to drive
            admission from the measured pool footprint instead of the
            residency cap alone; with the tiered KV hierarchy enabled
            the gate never refuses (memory pressure spills to the host
            tier instead of queueing), so :attr:`gate_refusals` staying
            zero is how replay reports distinguish the evict-and-spill
            admission mode from reject/queue backpressure.

    Attributes:
        gate_refusals: times the admission gate blocked the FIFO head
            (and, transitively, everything behind it).  A direct
            measure of admission backpressure, complementing queueing
            delay: it counts the *iterations* lost to a full pool, not
            just the seconds.
    """

    def __init__(self, max_batch: int,
                 prefill_chunk: Optional[int] = None,
                 admission_gate: Optional[
                     Callable[[Request], bool]
                 ] = None):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if prefill_chunk is not None and prefill_chunk < 1:
            raise ValueError("prefill_chunk must be >= 1 when set")
        self.max_batch = max_batch
        self.prefill_chunk = prefill_chunk
        self.admission_gate = admission_gate
        self.gate_refusals = 0
        self._queue: Deque[Request] = deque()
        self._resident: List[Request] = []
        self._prefilling: dict = {}
        self._finished: List[Request] = []

    # ------------------------------------------------------------------

    def submit(self, request: Request) -> None:
        """Enqueue an arrived request (FIFO)."""
        request.phase = RequestPhase.QUEUED
        self._queue.append(request)

    @property
    def pending(self) -> int:
        return len(self._queue)

    @property
    def resident(self) -> List[Request]:
        return list(self._resident)

    @property
    def queued(self) -> List[Request]:
        """Arrived-but-unadmitted requests, FIFO order."""
        return list(self._queue)

    def evict(self, request_id: int) -> Optional[Request]:
        """Remove one request from the scheduler, wherever it lives.

        Used by the cluster replay's requeue layer: a request whose
        cache admission failed (or whose replica is being drained) is
        pulled out of the queue / resident set / prefill tracking and
        handed back for placement elsewhere.  Returns the request, or
        None when the scheduler does not hold it (already finished or
        never submitted).  Finished requests are never evicted.
        """
        for bucket in (self._queue, self._resident):
            for index, request in enumerate(bucket):
                if request.request_id == request_id:
                    del bucket[index]
                    self._prefilling.pop(request_id, None)
                    return request
        return None

    @property
    def finished(self) -> List[Request]:
        return list(self._finished)

    @property
    def has_work(self) -> bool:
        return bool(self._queue or self._resident)

    # ------------------------------------------------------------------

    def plan_iteration(self, now_s: float) -> Optional[IterationPlan]:
        """Admit queued requests into free slots and plan one iteration.

        Args:
            now_s: current simulation time; only requests that have
                arrived are admissible.

        Returns:
            The iteration plan, or None when nothing can run yet.
        """
        admitted: List[Request] = []
        while (
            len(self._resident) < self.max_batch
            and self._queue
            and self._queue[0].arrival_s <= now_s
        ):
            if (
                self.admission_gate is not None
                and not self.admission_gate(self._queue[0])
            ):
                self.gate_refusals += 1
                break
            request = self._queue.popleft()
            request.phase = RequestPhase.PREFILL
            request.start_s = now_s
            admitted.append(request)
            self._resident.append(request)
            if self.prefill_chunk is not None:
                self._prefilling[request.request_id] = (
                    request.input_tokens
                )
        if not self._resident:
            return None

        prefill_tokens = 0
        if self.prefill_chunk is not None and self._prefilling:
            # FCFS chunk budget across prefilling requests.
            budget = self.prefill_chunk
            for request in self._resident:
                remaining = self._prefilling.get(request.request_id)
                if remaining is None or budget <= 0:
                    continue
                consumed = min(remaining, budget)
                budget -= consumed
                prefill_tokens += consumed
                if remaining - consumed <= 0:
                    del self._prefilling[request.request_id]
                    request.phase = RequestPhase.GENERATION
                else:
                    self._prefilling[request.request_id] = (
                        remaining - consumed
                    )

        generating = [
            r for r in self._resident
            if r.request_id not in self._prefilling
        ]
        contexts = [r.context_length for r in generating] or [1]
        prompts = [r.input_tokens for r in self._resident]
        ragged = (
            len(prompts) > 1
            and (max(prompts) - min(prompts)) > 0.25 * max(prompts)
        )
        return IterationPlan(
            admitted=admitted,
            resident=generating,
            mean_context=float(sum(contexts)) / len(contexts),
            ragged=ragged,
            prefill_tokens=prefill_tokens,
            resident_ids=tuple(r.request_id for r in generating),
        )

    def complete_iteration(self, now_s: float) -> List[Request]:
        """Advance every resident request one token; retire finished ones.

        Returns:
            Requests that finished in this iteration.
        """
        retired: List[Request] = []
        still_resident: List[Request] = []
        for request in self._resident:
            if request.request_id in self._prefilling:
                # Still consuming its prompt (chunked prefill mode);
                # no token generated this iteration.
                still_resident.append(request)
                continue
            request.phase = RequestPhase.GENERATION
            request.generated += 1
            if request.generated == 1:
                request.first_token_s = now_s
            if request.done:
                request.phase = RequestPhase.FINISHED
                request.finish_s = now_s
                retired.append(request)
                self._finished.append(request)
            else:
                still_resident.append(request)
        self._resident = still_resident
        return retired

    def next_arrival(self) -> Optional[float]:
        """Arrival time of the oldest queued request, if any."""
        if not self._queue:
            return None
        return self._queue[0].arrival_s
