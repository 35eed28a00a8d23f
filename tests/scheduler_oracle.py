"""The continuous-batching scheduler before it kept running state.

Until the scheduler kept its resident-set aggregates (the generating
list, the context sum, the ragged flag, the id tuple) as state updated
on admit, retire and evict, this was
``repro.serving.scheduler.ContinuousBatchScheduler``: every
``plan_iteration`` rebuilt them from the resident list.  It is moved
here with its logic unchanged (the plan type is imported) so
``tests/test_scheduler_running_state.py`` can drive both in lockstep
and hold every plan and every retirement ``==``; the only edit since
is the removal of the chunked-prefill regime, which the scheduler no
longer has.  Do not edit the logic otherwise: it is the contract.  :meth:`RebuildScheduler.advance` only
composes it: a k-iteration stride is k single completions with the
plans the per-iteration loop makes between them.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from repro.serving.request import Request, RequestPhase
from repro.serving.scheduler import IterationPlan


class RebuildScheduler:
    """The scheduler as it was: rebuilds its resident-set views from
    ``_resident`` on every plan and completion."""

    def __init__(self, max_batch: int,
                 admission_gate: Optional[
                     Callable[[Request], bool]
                 ] = None):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_batch = max_batch
        self.admission_gate = admission_gate
        self.gate_refusals = 0
        self._queue: Deque[Request] = deque()
        self._resident: List[Request] = []
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
        pulled out of the queue / resident set and handed back for placement elsewhere.  Returns the request, or
        None when the scheduler does not hold it (already finished or
        never submitted).  Finished requests are never evicted.
        """
        for bucket in (self._queue, self._resident):
            for index, request in enumerate(bucket):
                if request.request_id == request_id:
                    del bucket[index]
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
        if not self._resident:
            return None

        generating = list(self._resident)
        contexts = [r.context_length for r in generating]
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

    def advance(self, ends: List[float]):
        """The k-iteration stride as the per-iteration loop runs it: a
        completion at each of ``ends``, and before each one after the
        first, a plan at the previous end.

        Returns:
            ``(retired, plans)``: every completion's retirements, in
            order, and the plans in between.
        """
        retired: List[Request] = []
        plans: List[Optional[IterationPlan]] = []
        for index, end in enumerate(ends):
            if index:
                plans.append(self.plan_iteration(ends[index - 1]))
            retired.extend(self.complete_iteration(end))
        return retired, plans

    def next_arrival(self) -> Optional[float]:
        """Arrival time of the oldest queued request, if any."""
        if not self._queue:
            return None
        return self._queue[0].arrival_s
