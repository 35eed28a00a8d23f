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

import operator
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Tuple

from repro.serving.request import Request, RequestPhase


@dataclass
class IterationPlan:
    """One scheduler step: admissions then a generation iteration.

    Attributes:
        admitted: requests entering prefill this step.
        resident: requests participating in the generation iteration
            (after admissions, which generate from the iteration that
            prefills them).  This is the scheduler's own list, which
            it rebinds rather than mutates, so a plan keeps reading
            the same batch; consumers must not mutate it.
        mean_context: average context length across residents.
        ragged: True when resident prompt lengths differ enough to
            trigger padding penalties on systolic platforms.
        resident_ids: the resident requests' ids, in ``resident``
            order, kept by the scheduler as the batch changes so
            per-iteration consumers (the cache replay's pool step)
            never rebuild the id list inside the hot loop.
    """

    admitted: List[Request]
    resident: List[Request]
    mean_context: float
    ragged: bool
    resident_ids: Tuple[int, ...] = ()


class ContinuousBatchScheduler:
    """Iteration-level batching with bounded residency.

    Args:
        max_batch: resident request cap (figure sweeps set this); a
            whole number, or :class:`TypeError`.
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
                 admission_gate: Optional[
                     Callable[[Request], bool]
                 ] = None):
        # Whole: :meth:`plan_iteration` counts free slots down to 0.
        if operator.index(max_batch) < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_batch = max_batch
        self.admission_gate = admission_gate
        self.gate_refusals = 0
        self._refused = False  # whether the last plan's gate refused
        self._queue: Deque[Request] = deque()
        self._finished: List[Request] = []
        # Running state of the resident set, changed only by admit,
        # retire and evict.  ``_generating`` is rebound, never
        # mutated, so a plan may hand it out.
        self._generating: List[Request] = []
        self._generating_ids: Tuple[int, ...] = ()
        self._context_sum = 0  # sum of the resident context lengths
        self._ragged = False

    # ------------------------------------------------------------------

    def submit(self, request: Request) -> None:
        """Enqueue an arrived request (FIFO)."""
        request.phase = RequestPhase.QUEUED
        self._queue.append(request)

    @property
    def pending(self) -> int:
        return len(self._queue)

    @property
    def in_flight(self) -> int:
        """Resident plus queued requests."""
        return len(self._generating) + len(self._queue)

    @property
    def resident(self) -> List[Request]:
        return list(self._generating)

    @property
    def queued(self) -> List[Request]:
        """Arrived-but-unadmitted requests, FIFO order."""
        return list(self._queue)

    def evict(self, request_id: int) -> Optional[Request]:
        """Remove one request from the scheduler, wherever it lives.

        Used by the cluster replay's failover: a dead replica's queued
        and resident requests are pulled out and handed back for
        placement elsewhere.  Returns the request, or None when the
        scheduler does not hold it (already finished or never
        submitted).  Finished requests are never evicted.
        """
        for index, request in enumerate(self._queue):
            if request.request_id == request_id:
                del self._queue[index]
                return request
        generating = self._generating
        for index, request in enumerate(generating):
            if request.request_id == request_id:
                self._context_sum -= request.context_length
                self._set_generating(
                    generating[:index] + generating[index + 1:]
                )
                self._refresh_ragged()
                return request
        return None

    @property
    def finished(self) -> List[Request]:
        return list(self._finished)

    @property
    def has_work(self) -> bool:
        return bool(self._queue or self._generating)

    # ------------------------------------------------------------------

    def _set_generating(self, generating: List[Request]) -> None:
        self._generating = generating
        self._generating_ids = tuple(r.request_id for r in generating)

    def _refresh_ragged(self) -> None:
        """Systolic padding flag: resident prompt lengths spread by
        more than a quarter of the longest."""
        if len(self._generating) < 2:
            self._ragged = False
            return
        prompts = [r.input_tokens for r in self._generating]
        longest = max(prompts)
        self._ragged = (longest - min(prompts)) > 0.25 * longest

    def plan_iteration(self, now_s: float) -> Optional[IterationPlan]:
        """Admit queued requests into free slots and plan one iteration.

        Args:
            now_s: current simulation time; only requests that have
                arrived are admissible.

        Returns:
            The iteration plan, or None when nothing can run yet.
        """
        admitted: List[Request] = []
        self._refused = False
        queue = self._queue
        free = self.max_batch - len(self._generating)
        while free and queue and queue[0].arrival_s <= now_s:
            if (
                self.admission_gate is not None
                and not self.admission_gate(queue[0])
            ):
                self.gate_refusals += 1
                self._refused = True
                break
            request = queue.popleft()
            request.phase = RequestPhase.PREFILL
            request.start_s = now_s
            admitted.append(request)
            free -= 1
        if admitted:
            self._context_sum += sum(r.context_length for r in admitted)
            self._set_generating(self._generating + admitted)
            self._refresh_ragged()
        generating = self._generating
        if not generating:
            return None
        return IterationPlan(
            admitted=admitted,
            resident=generating,
            mean_context=self._context_sum / len(generating),
            ragged=self._ragged,
            resident_ids=self._generating_ids,
        )

    def steps_to_retire(self) -> int:
        """Iterations the resident batch runs before its first
        retirement: the longest stride :meth:`complete_iteration` may
        take after a plan."""
        return min([r.output_tokens - r.generated for r in self._generating])

    def repeat_plan(self) -> None:
        """Count a plan of a batch that cannot change (see
        :meth:`complete_iteration`): it admits nothing, and refuses at
        the gate exactly when the last plan did."""
        self.gate_refusals += self._refused

    def complete_iteration(
        self, now_s: float, steps: int = 1, first_s: Optional[float] = None
    ) -> List[Request]:
        """Advance every resident request one token; retire finished
        ones.

        ``steps`` > 1 advances a batch that cannot change by that many
        iterations at once, the first ending at ``first_s`` and the
        last at ``now_s``.  The caller guarantees that ``steps`` is at
        most :meth:`steps_to_retire`, and that nothing reaches the
        queue or the gate meanwhile.  The result equals ``steps``
        single completions with the ``steps - 1`` plans between them,
        each of which admits nothing and refuses at the gate exactly
        when the last plan did.

        Returns:
            Requests that finished in this iteration (the last one).
        """
        retired: List[Request] = []
        generation, finished = RequestPhase.GENERATION, RequestPhase.FINISHED
        first_s = now_s if first_s is None else first_s
        for request in self._generating:
            request.phase = generation
            generated = request.generated + steps
            request.generated = generated
            if generated == steps:
                request.first_token_s = first_s
            if generated >= request.output_tokens:
                request.phase = finished
                request.finish_s = now_s
                retired.append(request)
        self._context_sum += steps * len(self._generating)
        # The skipped plans, each counted as repeat_plan counts it.
        self.gate_refusals += (steps - 1) * self._refused
        if retired:
            self._finished.extend(retired)
            self._context_sum -= sum(r.context_length for r in retired)
            self._set_generating([
                r for r in self._generating if r.phase is not finished
            ])
            self._refresh_ragged()
        return retired

    def next_arrival(self) -> Optional[float]:
        """Arrival time of the oldest queued request, if any."""
        if not self._queue:
            return None
        return self._queue[0].arrival_s
