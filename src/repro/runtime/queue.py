"""Queued front-end for run-time admission.

Many clients asking one resource manager to start applications need a place
for their requests to wait, an ordering discipline, and a way to hear back.
:class:`AdmissionQueue` provides exactly that: ``submit`` enqueues a request
and returns a ticket, ``poll`` reports its status, ``cancel`` withdraws it,
and ``drain`` pushes pending requests through the manager's admission
pipeline — re-using :meth:`~repro.runtime.manager.RuntimeResourceManager.start_many`
as the atomic building block, so a drained batch leaves exactly the same
audit trail as a direct batch call.

Requests carry a priority (higher drains first) and an optional deadline
(pending requests past their deadline expire instead of admitting late).
Each request is assigned to a *lane* — the region the region-selection
stage would currently place it in.  Requests drain by priority, then
submission order, across all lanes, so a drain is decision-for-decision
identical to calling ``start_many`` with the same requests in the same
order.  The workload engine serves the lanes separately.

The queue also exposes the two-phase primitives the workload engine's
executors build on — :meth:`take` (claim pending requests, marking them
``IN_FLIGHT``) and :meth:`finalize` (settle a claimed request with its
decision) — and two behaviours that only matter once draining is
asynchronous:

* **cancel of an in-flight request** registers an intent instead of
  withdrawing: if the worker's decision lands afterwards, an admission is
  rolled back (the application is stopped) and the request settles as
  ``CANCELLED``;
* **cache-aware rejection parking** (``park_rejections=True``): a rejected
  request returns to the queue pinned to the fingerprint its lane was
  rejected under, and :meth:`take` skips it until that fingerprint changes
  — the mapper is deterministic, so an unchanged fingerprint guarantees an
  unchanged (hopeless) answer and re-mapping it would be pure waste.
"""

from __future__ import annotations

import enum
import itertools
import threading
from dataclasses import dataclass, field

from repro.appmodel.library import ImplementationLibrary
from repro.exceptions import UnknownApplication
from repro.kpn.als import ApplicationLevelSpec
from repro.platform.regions import GLOBAL_LANE
from repro.runtime.manager import RuntimeResourceManager
from repro.runtime.pipeline import AdmissionDecision

__all__ = ["AdmissionQueue", "QueuedRequest", "RequestStatus", "GLOBAL_LANE"]


class RequestStatus(enum.Enum):
    """Life cycle of a queued admission request."""

    PENDING = "pending"
    IN_FLIGHT = "in_flight"
    ADMITTED = "admitted"
    REJECTED = "rejected"
    CANCELLED = "cancelled"
    EXPIRED = "expired"
    #: Dropped by the load-shedding governor before any mapping work.
    SHED = "shed"

    @property
    def is_final(self) -> bool:
        """Whether the request has left the queue for good."""
        return self not in (RequestStatus.PENDING, RequestStatus.IN_FLIGHT)


@dataclass
class QueuedRequest:
    """One submitted admission request and its outcome."""

    ticket: int
    als: ApplicationLevelSpec
    library: ImplementationLibrary | None = None
    priority: int = 0
    deadline_ns: float | None = None
    submitted_ns: float = 0.0
    lane: str = GLOBAL_LANE
    status: RequestStatus = RequestStatus.PENDING
    decision: AdmissionDecision | None = None
    reason: str = ""
    decided_ns: float | None = None
    #: Set when ``cancel`` raced an in-flight decision; honoured at finalize.
    cancel_requested: bool = False
    #: Set when the load governor deferred the request back to the queue.
    #: A later deadline expiry of such a request is the governor's own
    #: doing, not an admission failure the rate estimate should count.
    deferred_by_governor: bool = False
    #: Lane fingerprint the request was last rejected under (parked retries).
    parked_fingerprint: tuple | None = None
    #: How many times the request went through the pipeline.
    attempts: int = 0
    _order: tuple = field(default=(), repr=False)

    @property
    def application(self) -> str:
        """Name of the requested application."""
        return self.als.name


class AdmissionQueue:
    """Submit/poll/cancel front-end serialising requests onto one manager.

    The queue itself performs no mapping work — it owns ordering, deadlines
    and the ticket book-keeping, and delegates every decision to the
    manager's staged admission pipeline.

    Threading contract: one decider thread — the engine's, or whoever calls
    :meth:`take`, :meth:`finalize`, :meth:`drain` and friends — does every
    mapping and every state mutation.  Client threads may only
    :meth:`submit`, :meth:`cancel` and :meth:`poll`.  Exactly three locks
    make that safe, and nothing else in the runtime takes one:

    * this queue's reentrant lock, guarding the ticket book-keeping against
      client threads (the cancel-versus-finalize race settles exactly once
      under it);
    * the :class:`~repro.obs.metrics.MetricsRegistry` lock, because
      :meth:`submit` counts into the engine's run registry from the client's
      thread;
    * the event-sequence lock of :mod:`repro.runtime.events`, because
      clients may build events on their own threads and sequence numbers
      must stay unique.
    """

    def __init__(
        self,
        manager: RuntimeResourceManager,
        *,
        park_rejections: bool = False,
    ) -> None:
        self.manager = manager
        #: Park rejected requests against their lane fingerprint instead of
        #: finalising them (retried only once the fingerprint changes).
        self.park_rejections = park_rejections
        self._tickets = itertools.count(1)
        self._requests: dict[int, QueuedRequest] = {}
        self._pending: list[QueuedRequest] = []
        self._lock = threading.RLock()
        #: Optional :class:`~repro.obs.metrics.MetricsRegistry` the queue
        #: counts submissions/claims/expiries (and gauges its depth) into;
        #: the engine installs its per-run registry here.
        self.metrics = None

    # ------------------------------------------------------------------ #
    # Submission side
    # ------------------------------------------------------------------ #
    def submit(
        self,
        als: ApplicationLevelSpec,
        *,
        library: ImplementationLibrary | None = None,
        priority: int = 0,
        deadline_ns: float | None = None,
        now_ns: float = 0.0,
    ) -> int:
        """Enqueue a start request; returns its ticket."""
        with self._lock:
            ticket = next(self._tickets)
            request = QueuedRequest(
                ticket=ticket,
                als=als,
                library=library,
                priority=priority,
                deadline_ns=deadline_ns,
                submitted_ns=now_ns,
                lane=self._lane_of(als, library),
            )
            request._order = (-priority, ticket)
            self._requests[ticket] = request
            self._pending.append(request)
            if self.metrics is not None:
                self.metrics.count("queue.submitted")
                self.metrics.gauge("queue.depth", float(len(self._pending)))
            return ticket

    def poll(self, ticket: int) -> QueuedRequest:
        """Status (and decision, once made) of a submitted request."""
        try:
            return self._requests[ticket]
        except KeyError:
            raise UnknownApplication(f"unknown admission ticket {ticket}") from None

    def cancel(self, ticket: int, *, now_ns: float = 0.0) -> bool:
        """Withdraw a pending request; returns whether it was still pending.

        Cancelling an *in-flight* request (claimed by :meth:`take` but not
        yet finalised) cannot withdraw it synchronously — the worker may
        already be committing — so the call registers a cancellation intent
        and returns ``False``; :meth:`finalize` honours the intent, rolling
        back an admission that lands after the cancellation.
        """
        with self._lock:
            request = self.poll(ticket)
            if request.status is RequestStatus.IN_FLIGHT:
                request.cancel_requested = True
                return False
            if request.status is not RequestStatus.PENDING:
                return False
            request.status = RequestStatus.CANCELLED
            request.reason = "cancelled by client"
            request.decided_ns = now_ns
            self._pending.remove(request)
            return True

    @property
    def pending(self) -> tuple[QueuedRequest, ...]:
        """Requests still waiting, in submission order."""
        with self._lock:
            return tuple(self._pending)

    def pending_by_lane(self) -> dict[str, tuple[QueuedRequest, ...]]:
        """Pending requests grouped by region lane."""
        with self._lock:
            lanes: dict[str, list[QueuedRequest]] = {}
            for request in self._pending:
                lanes.setdefault(request.lane, []).append(request)
            return {lane: tuple(requests) for lane, requests in lanes.items()}

    def __len__(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------ #
    # Two-phase draining primitives (used by drain and by the engine)
    # ------------------------------------------------------------------ #
    def take(
        self,
        *,
        now_ns: float = 0.0,
        max_requests: int | None = None,
    ) -> tuple[list[QueuedRequest], list[QueuedRequest]]:
        """Claim pending requests for processing: ``(expired, ready)``.

        Pending requests past their deadline are finalised as ``EXPIRED``
        without mapping work.  The rest are returned by priority, then
        submission order, and marked ``IN_FLIGHT`` (removed from the pending
        list) — the caller owns them until it calls :meth:`finalize` (or
        :meth:`requeue` after a failure).  Parked requests whose lane
        fingerprint is unchanged since their last rejection are skipped: the
        pipeline is deterministic, so the answer could not have changed
        either.
        """
        with self._lock:
            expired = self._expire(now_ns)
            fingerprints: dict[str, tuple] = {}
            ready: list[QueuedRequest] = []
            for request in sorted(self._pending, key=lambda request: request._order):
                if request.parked_fingerprint is not None:
                    lane = request.lane
                    if lane not in fingerprints:
                        fingerprints[lane] = self._lane_fingerprint(lane)
                    if fingerprints[lane] == request.parked_fingerprint:
                        continue
                ready.append(request)
            if max_requests is not None:
                budget = max(0, max_requests - len(expired))
                ready = ready[:budget]
            for request in ready:
                self._pending.remove(request)
                request.status = RequestStatus.IN_FLIGHT
            if self.metrics is not None:
                self.metrics.count("queue.claimed", float(len(ready)))
                if expired:
                    self.metrics.count("queue.expired", float(len(expired)))
                self.metrics.gauge("queue.depth", float(len(self._pending)))
            return expired, ready

    def finalize(
        self,
        request: QueuedRequest,
        decision: AdmissionDecision,
        *,
        now_ns: float = 0.0,
    ) -> QueuedRequest:
        """Settle a claimed request with the decision made for it.

        The caller must already have recorded the decision with the manager
        (``start_many`` / ``admit`` / ``adopt_decision``), so an admitted
        application is in the running registry — which is what allows a
        raced cancellation to roll it back via ``manager.stop``.  With
        ``park_rejections`` enabled, a rejection returns the request to the
        queue parked against its lane's current fingerprint instead of
        finalising it.
        """
        with self._lock:
            request.decision = decision
            request.attempts += 1
            request.decided_ns = now_ns
            if request.cancel_requested:
                if decision.admitted and self.manager.is_running(decision.application):
                    self.manager.stop(decision.application)
                    request.reason = "cancelled while in flight; admission rolled back"
                else:
                    request.reason = "cancelled while in flight"
                request.status = RequestStatus.CANCELLED
                return request
            if decision.admitted:
                request.status = RequestStatus.ADMITTED
                request.reason = decision.reason
                return request
            if self.park_rejections:
                request.status = RequestStatus.PENDING
                request.reason = decision.reason
                request.parked_fingerprint = self._lane_fingerprint(request.lane)
                self._pending.append(request)
                return request
            request.status = RequestStatus.REJECTED
            request.reason = decision.reason
            return request

    def shed(
        self,
        request: QueuedRequest,
        *,
        now_ns: float = 0.0,
        reason: str = "shed by load governor",
    ) -> QueuedRequest:
        """Settle a claimed request as ``SHED`` — before any mapping work.

        Settlement is exactly-once under the queue lock: a cancellation
        that raced the governor (the request was ``IN_FLIGHT`` when the
        client called :meth:`cancel`, registering an intent) wins — the
        request settles ``CANCELLED``, never both.  There is no admission
        to roll back either way, because shedding happens strictly before
        the pipeline runs.
        """
        with self._lock:
            if request.status is not RequestStatus.IN_FLIGHT:
                return request  # already settled by a racing finalisation
            if request.cancel_requested:
                request.status = RequestStatus.CANCELLED
                request.reason = "cancelled while in flight"
            else:
                request.status = RequestStatus.SHED
                request.reason = reason
            request.decided_ns = now_ns
            return request

    def defer(
        self,
        requests: list[QueuedRequest],
        *,
        now_ns: float = 0.0,
    ) -> list[QueuedRequest]:
        """Return governor-deferred requests to the queue without an attempt.

        Unlike :meth:`requeue` (the failure-unwind path), deferral honours
        a cancellation intent registered while the request was claimed: such
        a request settles ``CANCELLED`` here — exactly once — instead of
        going back to pending.  Returns the requests that settled (the rest
        are pending again, awaiting a drain in which the governor has
        disengaged, or their deadline).
        """
        with self._lock:
            settled: list[QueuedRequest] = []
            for request in requests:
                if request.status is not RequestStatus.IN_FLIGHT:
                    continue
                if request.cancel_requested:
                    request.status = RequestStatus.CANCELLED
                    request.reason = "cancelled while in flight"
                    request.decided_ns = now_ns
                    settled.append(request)
                else:
                    request.status = RequestStatus.PENDING
                    request.deferred_by_governor = True
                    self._pending.append(request)
            return settled

    def requeue(self, requests: list[QueuedRequest]) -> None:
        """Return claimed-but-undecided requests to the head of the queue."""
        with self._lock:
            for request in requests:
                request.status = RequestStatus.PENDING
            self._pending[:0] = requests

    def flush_pending(
        self,
        *,
        now_ns: float = 0.0,
        reason: str = "workload ended before admission",
    ) -> list[QueuedRequest]:
        """Finalise every still-pending request as rejected.

        Called when a workload run ends: parked requests keep the reason of
        their last real rejection; requests never attempted get ``reason``.
        A request the governor deferred and that never reached the mapper
        settles as ``SHED`` instead — it was never offered to the pipeline,
        so settling it rejected would charge the admission rate for work
        the governor deliberately avoided.  Returns the flushed requests in
        submission order.
        """
        with self._lock:
            flushed = list(self._pending)
            self._pending.clear()
            for request in flushed:
                if request.deferred_by_governor and request.attempts == 0:
                    request.status = RequestStatus.SHED
                    request.reason = (
                        "shed by load governor (deferred until workload end)"
                    )
                else:
                    request.status = RequestStatus.REJECTED
                    if not request.reason:
                        request.reason = reason
                request.decided_ns = now_ns
            return flushed

    # ------------------------------------------------------------------ #
    # Draining side
    # ------------------------------------------------------------------ #
    def process_next(self, *, now_ns: float = 0.0) -> QueuedRequest | None:
        """Drain exactly one request (or none when the queue is idle)."""
        drained = self.drain(now_ns=now_ns, max_requests=1)
        return drained[0] if drained else None

    def drain(
        self,
        *,
        now_ns: float = 0.0,
        max_requests: int | None = None,
    ) -> list[QueuedRequest]:
        """Push pending requests through the admission pipeline.

        Expired requests are finalised without mapping work; the rest are
        handed to :meth:`RuntimeResourceManager.start_many` in :meth:`take`
        order as one batch.  Returns every request finalised by this call
        (admitted, rejected, cancelled and expired), in processing order —
        parked rejections stay pending and are not returned.
        """
        expired, ready = self.take(now_ns=now_ns, max_requests=max_requests)
        decisions_before = len(self.manager.decisions)
        try:
            outcome = self.manager.start_many(
                [(request.als, request.library) for request in ready], time_ns=now_ns
            )
        except BaseException:
            # A request mid-batch blew up (e.g. a custom mapper raised).  The
            # manager appended one audit entry per request it finished
            # deciding, in order; finalise those tickets from the audit trail
            # and put the untouched remainder back at the head of the queue
            # so a later drain retries them instead of stranding them.
            decided = self.manager.decisions[decisions_before:]
            for request, (_, admitted, reason) in zip(ready, decided):
                request.reason = reason
                request.decided_ns = now_ns
                request.attempts += 1
                request.status = (
                    RequestStatus.ADMITTED if admitted else RequestStatus.REJECTED
                )
            self.requeue(ready[len(decided) :])
            raise
        finalized = list(expired)
        for request, decision in zip(ready, outcome.decisions):
            self.finalize(request, decision, now_ns=now_ns)
            if request.status.is_final:
                finalized.append(request)
        return finalized

    # ------------------------------------------------------------------ #
    def _lane_of(
        self, als: ApplicationLevelSpec, library: ImplementationLibrary | None
    ) -> str:
        """The region lane a request currently belongs to."""
        candidates = self.manager.pipeline.candidate_regions(als, library)
        first = candidates[0] if candidates else None
        return first.name if first is not None else GLOBAL_LANE

    def _lane_fingerprint(self, lane: str) -> tuple:
        """The fingerprint a parked request's rejection depended on.

        A rejection came from the full pipeline, and with the cross-region
        fallback enabled its answer depends on the *whole* platform state —
        parking against only the lane region could skip a request forever
        while capacity frees up elsewhere.  The narrow per-region digest is
        only sound when admission is confined to the lane's region
        (``region_fallback`` disabled); otherwise the global digest is used,
        trading a few extra (cache-served) retries for never missing an
        admission opportunity.
        """
        partition = self.manager.partition
        if (
            partition is not None
            and lane != GLOBAL_LANE
            and not self.manager.pipeline.region_fallback
        ):
            return partition.region(lane).fingerprint(self.manager.state)
        return self.manager.state.fingerprint()

    def _expire(self, now_ns: float) -> list[QueuedRequest]:
        """Finalise pending requests whose deadline has passed."""
        expired = [
            request
            for request in self._pending
            if request.deadline_ns is not None and now_ns > request.deadline_ns
        ]
        for request in expired:
            request.status = RequestStatus.EXPIRED
            request.reason = (
                f"deadline {request.deadline_ns:g} ns passed at {now_ns:g} ns"
            )
            request.decided_ns = now_ns
            self._pending.remove(request)
        return expired
