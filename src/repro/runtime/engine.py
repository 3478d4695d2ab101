"""The discrete-event workload engine: one event loop, one decider thread.

The paper's claim is that run-time spatial mapping is fast enough to make
admission decisions *online*.  Exercising that claim end to end needs a
driver that consumes timed arrival/departure events at scale.  This module
is that driver:

* :class:`WorkloadEngine` — a virtual-clock event loop.  It replays a
  :class:`~repro.runtime.scenario.Scenario` (or anything exposing
  ``sorted_events()`` / ``end_time_ns()``): departures stop running
  applications, arrivals are submitted to an
  :class:`~repro.runtime.queue.AdmissionQueue` (with their priorities and
  deadlines), and the queue is drained through a pluggable *region
  executor*.
* :class:`SerialRegionExecutor` / :class:`ProcessRegionExecutor` — the two
  drain back-ends.  The serial one decides every region lane on the
  engine's thread and is the decision reference; the process one ships
  each lane's region snapshot to a stateless worker *process* on every
  drain and folds the returned allocation deltas back on commit (see
  :mod:`repro.runtime.procdrain`).

Threading contract
------------------

The engine is one decider thread: every mutation of the platform state,
the caches, the corridor budgets and the tracer happens on the thread
that calls :meth:`WorkloadEngine.run`.  Other threads may only submit,
cancel and poll through the
:class:`~repro.runtime.queue.AdmissionQueue`, whose lock (and the
:class:`~repro.obs.metrics.MetricsRegistry` lock ``submit`` counts under)
makes that safe.  Parallelism lives in the process executor's worker
processes, which mutate only their own copies.

The two-phase drain discipline
------------------------------

Each drain claims the ready requests and splits them into **region lanes**,
a **multi-region lane** and a **global lane**:

1. *Region lanes* — a request pinned to a single region lane is decided
   with the pipeline restricted to exactly that region (``candidates=
   (region,)``): mapping, routing and the transactional commit all stay
   inside the shard, so lanes commute and any lane order (or any spread of
   lanes over worker processes) yields the same decisions.
2. *Multi-region lane* — with an inter-region planner attached, a request
   whose pinned tiles span several regions is planned over budgeted
   boundary corridors, confined to the planner's region scope, between the
   region lanes and the residual global fallback.  A planner rejection
   falls through to phase 3.
3. *Serial phase* — requests no earlier lane can own (residual global-lane
   requests, duplicate application names, in-region rejections that
   deserve their cross-region fallback, planner rejections) run through
   the **full** pipeline, in arrival order.

Finalisation (audit trail, running registry, queue settlement, energy
accounting) always happens in arrival order, so the serial and process
executors are *decision-identical by construction* — the differential
tests pin exactly that.

Per-lane telemetry (admissions, rejections, expiries, parked retries) is
accumulated on the :class:`EngineOutcome` (:attr:`EngineOutcome.telemetry`).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
import weakref
import zlib
from dataclasses import dataclass, field

from repro.exceptions import PlatformError
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    ObsConfig,
    Span,
    SpanRecord,
    TraceContext,
    Tracer,
    reanchor_spans,
)
from repro.platform.regions import GLOBAL_LANE, Region, RegionPartition
from repro.platform.state import fingerprint_digest
from repro.runtime import procdrain
from repro.runtime.accounting import EnergyAccount
from repro.runtime.admission_control import GovernorDecision, LoadSheddingGovernor
from repro.runtime.events import StartEvent, StopEvent
from repro.runtime.manager import RuntimeResourceManager
from repro.runtime.pipeline import AdmissionPipeline
from repro.runtime.queue import AdmissionQueue, QueuedRequest, RequestStatus

#: Lane label of the engine's multi-region (inter-region planner) lane.
MULTI_REGION_LANE = "__multi__"

__all__ = [
    "WorkloadEngine",
    "EngineOutcome",
    "EngineRecord",
    "EngineTelemetry",
    "LaneCounters",
    "MULTI_REGION_LANE",
    "ProcessRegionExecutor",
    "SerialRegionExecutor",
]


# --------------------------------------------------------------------------- #
# Region executors
# --------------------------------------------------------------------------- #
@dataclass
class _RegionJob:
    """One phase-1 work item: decide a request strictly inside its lane region."""

    request: QueuedRequest
    region: Region
    decision: object | None = None
    error: BaseException | None = None
    #: Trace context of the request's root span (``None`` when unsampled):
    #: the decide span tree of whichever process runs this job hangs off it.
    trace: TraceContext | None = None

    def run(self, pipeline: AdmissionPipeline) -> None:
        """Run the region-restricted pipeline; failures are captured, not raised."""
        try:
            self.decision = pipeline.decide(
                self.request.als,
                self.request.library,
                candidates=(self.region,),
                trace=self.trace,
            )
        except Exception as error:  # surfaced (and re-raised) by the engine
            self.error = error


@dataclass
class _MultiRegionJob:
    """One multi-region lane work item: plan a spanning request over corridors.

    Runs between the region lanes and the serial phase, confined to the
    planner scope the request was claimed with.
    """

    request: QueuedRequest
    scope: tuple[str, ...]
    decision: object | None = None
    error: BaseException | None = None
    #: Trace context of the request's root span (the engine wraps the
    #: planner attempt in an ``interregion_plan`` span when set).
    trace: TraceContext | None = None

    def run(self, pipeline: AdmissionPipeline) -> None:
        """Plan within the claimed scope; failures are captured, not raised."""
        try:
            self.decision = pipeline.decide_interregion(
                self.request.als, self.request.library, scope=self.scope
            )
        except Exception as error:  # surfaced (and re-raised) by the engine
            self.error = error


class SerialRegionExecutor:
    """Drain lanes one after another on the calling thread.

    The reference discipline: lanes in sorted-name order, requests in order
    within each lane.  Because phase-1 work is confined to its lane's
    region, this order is immaterial to the decisions — which is exactly
    what makes the process executor safe to substitute.
    """

    def execute(
        self, lane_jobs: dict[str, list[_RegionJob]], pipeline: AdmissionPipeline
    ) -> None:
        """Run every lane's jobs; an error skips the rest of that lane only."""
        for lane in sorted(lane_jobs):
            for job in lane_jobs[lane]:
                job.run(pipeline)
                if job.error is not None:
                    break


class _DrainWorker:
    """Engine-side handle of one drain worker process (pipe + stats label)."""

    def __init__(self, index: int, context, settings_blob: bytes) -> None:
        self.name = f"region-drain-{index}"
        self.conn, child = context.Pipe()
        self.process = context.Process(
            target=procdrain.drain_worker,
            args=(child, settings_blob),
            name=self.name,
            daemon=True,
        )
        self.process.start()
        child.close()

    def stop(self, timeout_s: float = 5.0) -> None:
        """Ask the worker to exit; escalate to terminate if it will not."""
        try:
            self.conn.send_bytes(procdrain.SHUTDOWN_FRAME)
        except (OSError, ValueError, BrokenPipeError):
            pass
        try:
            self.conn.close()
        except OSError:
            pass
        self.process.join(timeout=timeout_s)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)


def _stop_workers(pool: list) -> None:
    """Module-level so a ``weakref.finalize`` can call it without resurrecting
    the executor."""
    for worker in pool:
        worker.stop()


class ProcessRegionExecutor:
    """Drain region lanes across stateless worker processes.

    Every lane dispatch is one
    :class:`~repro.runtime.procdrain.SnapshotDispatch`: the lane's jobs
    plus a :class:`~repro.platform.state.RegionSnapshot` of its region,
    taken from the engine state at dispatch time.  Workers
    (:mod:`repro.runtime.procdrain`) rebuild the region from it and keep
    no region state between drains, so whatever changed the engine state
    in between — releases, out-of-band allocations, rollbacks — reaches
    the worker with the next snapshot.  All lanes routed to one worker
    travel batched in a single ``send_bytes`` round-trip
    (:class:`~repro.runtime.procdrain.WorkerDispatch`), with per-lane
    frames nested as their own pickle blobs for exact byte metering.

    The worker runs the ordinary ``decide(candidates=(region,))`` pipeline
    against the rebuilt region and ships back, per admitted job, a
    serialized :class:`~repro.platform.state.AllocationDelta` (exactly the
    commit's allocation records).  The engine process then *folds* each
    delta inside a region-scoped transaction, which raises on any write
    outside the lane's region.

    Stale decisions are handled explicitly, never silently committed:
    every worker response carries the digest of the region fingerprint
    its decision was based on, and the fold applies a delta only while the
    engine-side fingerprint still matches (within a lane the fingerprints chain across
    the lane's local commits, so a matching base proves the worker saw
    exactly the state the fold is about to mutate).  On a mismatch — or a
    delta the current state rejects — the job is re-decided on the engine
    process through the same region-restricted pipeline.  Finalisation
    stays on the engine thread in arrival order, so sheds and cancels
    settle exactly once, and decisions are identical to the serial
    executor's (the differential suites pin this).

    Lanes are assigned to workers by a stable hash of the lane name, so a
    region's dispatches keep hitting the same worker and its region-scoped
    mapper-cache warmth accumulates.  ALS/library payloads are digested
    once on the engine side and shipped to each worker at most once per
    intern window (steady-state job specs carry digests only).  Workers are started lazily on the first drain (the
    pipeline is only known then), reused across drains and runs, and torn
    down by :meth:`close` (or the garbage collector / daemon flag as
    backstops).  Requires the pipeline's default mapper factory — a custom
    factory cannot cross the process boundary.

    Per-worker executor stats accumulate for the executor's lifetime; the
    engine reports per-run deltas in :attr:`EngineTelemetry.workers`:
    ``dispatches``/``requests``, ``snapshot_bytes`` (dispatch frames out),
    ``delta_bytes`` (worker deltas in), plus ``stale_redecides`` and
    ``worker_wall_s``.  ``delta_dispatch_bytes`` stays 0: the benchmark
    still sums it into its frame bytes.
    """

    def __init__(
        self,
        partition: RegionPartition,
        *,
        workers: int | None = None,
        start_method: str | None = None,
    ) -> None:
        self.partition = partition
        self.workers = max(
            1,
            workers
            if workers is not None
            else min(len(partition), os.cpu_count() or 1),
        )
        if start_method is None:
            start_method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        #: The multiprocessing start method workers are launched with
        #: (``"fork"`` where available, else ``"spawn"``) — recorded by the
        #: benchmarks so artifacts state which protocol path they measured.
        self.start_method = start_method
        self._context = multiprocessing.get_context(start_method)
        self._pool: list[_DrainWorker] | None = None
        self._finalizer: weakref.finalize | None = None
        self._stats: dict[str, dict[str, float]] = {}
        #: Per-worker digests already shipped (the engine-side half of the
        #: worker intern table; cleared in lockstep via ``clear_interned``).
        self._sent_digests: dict[str, set[bytes]] = {}
        #: id(payload object) -> (pinned object, digest, blob): pickling
        #: and hashing happen once per live ALS/library object, not per
        #: dispatch.  Pinning the object keeps the id stable.
        self._payloads: dict[int, tuple[object, bytes, bytes]] = {}
        #: Lifetime totals of worker-side step-4 analysis counters (each
        #: lane result ships its per-lane delta); the engine reports per-run
        #: deltas, exactly like :meth:`worker_stats`.
        self._analysis_totals: dict[str, int] = {}
        #: ticket -> open engine-side ``dispatch`` span of the current round.
        self._dispatch_spans: dict[int, Span] = {}
        #: The tracer of the pipeline currently draining (installed by
        #: :meth:`execute`; dispatch frames and folds record spans on it).
        self._tracer: Tracer = NULL_TRACER

    # -- worker pool lifecycle ------------------------------------------- #
    def _ensure_pool(self, pipeline: AdmissionPipeline) -> list[_DrainWorker]:
        """Start the worker pool on first use (the pipeline defines the world)."""
        if self._pool is not None:
            return self._pool
        if not pipeline._uses_default_factory:
            raise PlatformError(
                "ProcessRegionExecutor requires the pipeline's default mapper "
                "factory: a custom factory cannot cross the process boundary"
            )
        settings = procdrain.WorkerSettings(
            platform=pipeline.platform,
            partition=pipeline.partition,
            library=pipeline.library,
            config=pipeline.config,
            require_feasible=pipeline.require_feasible,
            cache_size=pipeline.cache.maxsize if pipeline.cache is not None else 0,
            obs=pipeline.tracer.config if pipeline.tracer.enabled else None,
        )
        settings_blob = procdrain.dump_frame(settings)
        # A fresh pool has empty intern tables, and a stale shipped-digest
        # window has no self-validating fallback — a blob withheld from a
        # worker that never saw it is a protocol error.  Drop it here rather
        # than only in close(), so any restart path is safe.
        self._sent_digests.clear()
        pool = [
            _DrainWorker(index, self._context, settings_blob)
            for index in range(self.workers)
        ]
        self._pool = pool
        self._finalizer = weakref.finalize(self, _stop_workers, pool)
        return pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent; a fresh pool starts on reuse).

        Worker intern tables die with the processes, so the engine-side
        shipped-digest windows are dropped with them.
        """
        self._pool = None
        self._sent_digests.clear()
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None

    def __enter__(self) -> "ProcessRegionExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def worker_stats(self) -> dict[str, dict[str, float]]:
        """Cumulative per-worker executor stats (copied; engine takes deltas)."""
        return {name: dict(values) for name, values in self._stats.items()}

    def worker_analysis(self) -> dict[str, int]:
        """Cumulative worker-side analysis counters (copied; engine takes deltas)."""
        return dict(self._analysis_totals)

    def publish_metrics(
        self, registry: MetricsRegistry, stats: dict[str, dict[str, float]] | None = None
    ) -> None:
        """Publish per-worker executor stats (default: lifetime totals) as counters."""
        for worker, values in (stats if stats is not None else self.worker_stats()).items():
            for key, value in values.items():
                registry.count(f"executor.{key}[worker={worker}]", float(value))

    def _stats_for(self, worker_name: str) -> dict[str, float]:
        return self._stats.setdefault(
            worker_name,
            {
                "dispatches": 0,
                "requests": 0,
                "snapshot_bytes": 0,
                "delta_dispatch_bytes": 0,
                "delta_bytes": 0,
                "stale_redecides": 0,
                "worker_wall_s": 0.0,
            },
        )

    def _worker_for(self, pool: list[_DrainWorker], lane: str) -> _DrainWorker:
        """Stable lane-to-worker assignment (cache warmth over balance)."""
        return pool[zlib.crc32(lane.encode("utf-8")) % len(pool)]

    # -- dispatch assembly ---------------------------------------------- #
    def _payload_for(self, payload: object) -> tuple[bytes, bytes]:
        """(digest, blob) of one ALS/library object, pickled and hashed once.

        Keyed by object identity with the object pinned in the cache entry,
        so a request re-dispatched across drains (parked retries) reuses
        the digest without re-pickling — and the digest stays stable for
        the worker's identity-interning.
        """
        entry = self._payloads.get(id(payload))
        if entry is None or entry[0] is not payload:
            if len(self._payloads) >= procdrain.INTERN_LIMIT:
                self._payloads.clear()
            blob = procdrain.dump_frame(payload)
            digest = hashlib.sha1(blob).digest()
            self._payloads[id(payload)] = (payload, digest, blob)
            return digest, blob
        return entry[1], entry[2]

    def _job_specs(
        self, jobs: list[_RegionJob], sent: set[bytes]
    ) -> tuple[procdrain.JobSpec, ...]:
        """The lane's job specs, shipping each payload blob at most once per
        worker intern window (``sent`` is that worker's shipped-digest set)."""
        specs = []
        tracer = self._tracer
        for job in jobs:
            als_digest, als_blob = self._payload_for(job.request.als)
            if als_digest in sent:
                als_blob = None
            else:
                sent.add(als_digest)
            library_digest = library_blob = None
            if job.request.library is not None:
                library_digest, library_blob = self._payload_for(job.request.library)
                if library_digest in sent:
                    library_blob = None
                else:
                    sent.add(library_digest)
            trace = None
            if tracer.enabled and job.trace is not None:
                # One dispatch span per job, open until the worker's answer
                # frame lands: the worker's decide tree parents onto it, and
                # its window is the re-anchoring target for worker spans.
                span = tracer.start(
                    "dispatch", job.trace, attrs={"lane": job.request.lane}
                )
                self._dispatch_spans[job.request.ticket] = span
                trace = job.trace.child(span.span_id)
            specs.append(
                procdrain.JobSpec(
                    ticket=job.request.ticket,
                    als_digest=als_digest,
                    als_blob=als_blob,
                    library_digest=library_digest,
                    library_blob=library_blob,
                    trace=trace,
                )
            )
        return tuple(specs)

    def _assemble_lane(
        self,
        lane: str,
        jobs: list[_RegionJob],
        worker: _DrainWorker,
        pipeline: AdmissionPipeline,
        sent: set[bytes],
    ) -> bytes:
        """Build one lane's dispatch frame: its region's snapshot plus jobs."""
        frame = procdrain.dump_frame(
            procdrain.SnapshotDispatch(
                lane=lane,
                snapshot=pipeline.state.snapshot_scope(jobs[0].region),
                jobs=self._job_specs(jobs, sent),
            )
        )
        stats = self._stats_for(worker.name)
        stats["dispatches"] += 1
        stats["requests"] += len(jobs)
        stats["snapshot_bytes"] += len(frame)
        return frame

    def _dispatch_round(
        self,
        lanes_by_worker: dict[_DrainWorker, list[str]],
        lane_jobs: dict[str, list[_RegionJob]],
        pipeline: AdmissionPipeline,
    ) -> dict[str, procdrain.LaneResult]:
        """One batched send/receive round: every worker gets at most one
        frame holding all its lanes; answers map back by lane name.

        The engine stamps each worker's send/receive window; returned
        worker-clock spans are re-anchored into it and adopted, worker
        analysis-counter deltas accumulate on the executor, and worker
        metrics snapshots fold into the engine's run registry — one fold,
        same as every other delta.
        """
        tracer = self._tracer
        send_ns: dict[_DrainWorker, int] = {}
        for worker, lanes in lanes_by_worker.items():
            sent = self._sent_digests.setdefault(worker.name, set())
            clear_interned = False
            if len(sent) >= procdrain.INTERN_LIMIT:
                # Engine-driven eviction, at a frame boundary: wipe both
                # halves of the intern bookkeeping together so a digest-only
                # spec can never reference an object the worker dropped.
                sent.clear()
                clear_interned = True
            frames = tuple(
                self._assemble_lane(lane, lane_jobs[lane], worker, pipeline, sent)
                for lane in lanes
            )
            send_ns[worker] = time.perf_counter_ns()
            worker.conn.send_bytes(
                procdrain.dump_frame(
                    procdrain.WorkerDispatch(frames=frames, clear_interned=clear_interned)
                )
            )
        results: dict[str, procdrain.LaneResult] = {}
        for worker in lanes_by_worker:
            worker_results = procdrain.load_frame(worker.conn.recv_bytes())
            recv_ns = time.perf_counter_ns()
            for result in worker_results:
                results[result.lane] = result
                if result.analysis:
                    for key, value in result.analysis.items():
                        self._analysis_totals[key] = (
                            self._analysis_totals.get(key, 0) + value
                        )
                if pipeline.metrics is not None and result.metrics is not None:
                    pipeline.metrics.fold(result.metrics)
                if result.spans and tracer.enabled:
                    tracer.adopt(
                        reanchor_spans(
                            result.spans,
                            window_start_ns=send_ns[worker],
                            window_end_ns=recv_ns,
                        )
                    )
                for response in result.responses:
                    span = self._dispatch_spans.pop(response.ticket, None)
                    if span is not None:
                        tracer.end(span, end_ns=recv_ns)
        return results

    # -- the drain ------------------------------------------------------- #
    def execute(
        self, lane_jobs: dict[str, list[_RegionJob]], pipeline: AdmissionPipeline
    ) -> None:
        """Dispatch every lane to its worker, then fold the results in order."""
        if not lane_jobs:
            return
        # Engine-side re-decides (stale snapshots) use the engine pipeline's
        # mapper; materialise it outside the fold loop.
        pipeline.mapper_for(None)
        self._tracer = pipeline.tracer
        self._dispatch_spans.clear()
        pool = self._ensure_pool(pipeline)
        lanes = sorted(lane_jobs)
        dispatched = {lane: self._worker_for(pool, lane) for lane in lanes}
        lanes_by_worker: dict[_DrainWorker, list[str]] = {}
        for lane in lanes:
            lanes_by_worker.setdefault(dispatched[lane], []).append(lane)
        results = self._dispatch_round(lanes_by_worker, lane_jobs, pipeline)
        # Fold on commit, lane by lane in the serial executor's order.
        for lane in lanes:
            self._fold_lane(
                lane,
                lane_jobs[lane],
                results[lane],
                pipeline,
                self._stats_for(dispatched[lane].name),
            )

    def _fold_lane(
        self,
        lane: str,
        jobs: list[_RegionJob],
        result: procdrain.LaneResult,
        pipeline: AdmissionPipeline,
        stats: dict[str, float],
    ) -> None:
        """Fold one lane's worker responses into the engine state.

        Per job: check the response's base fingerprint against the live
        region fingerprint; apply the delta in a region-scoped transaction
        on a match, re-decide on the engine process otherwise.  Worker
        errors surface on the job (the engine unwinds and re-raises), and a
        lane a worker aborted early leaves its remaining jobs undecided —
        exactly the serial lane-abort discipline.
        """
        state = pipeline.state
        region = jobs[0].region
        tracer = self._tracer
        responses = {response.ticket: response for response in result.responses}
        for job in jobs:
            fold_start_ns = (
                time.perf_counter_ns()
                if tracer.enabled and job.trace is not None
                else 0
            )
            response = responses.get(job.request.ticket)
            if response is None:
                break  # worker aborted the lane on an earlier error
            stats["worker_wall_s"] += response.wall_s
            # The worker's mapper ran for real; keep the engine-wide
            # invocation accounting honest across executors.
            pipeline.mapper_invocations += response.mapper_invocations
            if response.error is not None:
                job.error = PlatformError(
                    f"region drain worker failed in lane {lane!r}:\n"
                    f"{response.error}"
                )
                break
            if fingerprint_digest(region.fingerprint(state)) != response.base_fingerprint:
                stats["stale_redecides"] += 1
                job.run(pipeline)
                if job.error is not None:
                    break
                continue
            decision = procdrain.load_frame(response.decision_blob)
            if decision.admitted:
                delta = procdrain.load_frame(response.delta_blob)
                stats["delta_bytes"] += len(response.delta_blob)
                try:
                    with state.transaction(region):
                        state.apply_delta(delta)
                except PlatformError:
                    # The fingerprint matched but the delta no longer
                    # fits (aggregates can collide across histories);
                    # the transaction rolled everything back — re-decide
                    # against the live state instead of committing.
                    stats["stale_redecides"] += 1
                    job.run(pipeline)
                    if job.error is not None:
                        break
                    continue
            if fold_start_ns:
                tracer.record(
                    "engine_fold",
                    job.trace,
                    fold_start_ns,
                    time.perf_counter_ns(),
                    attrs={"lane": lane, "folded": decision.admitted},
                )
            job.decision = decision


# --------------------------------------------------------------------------- #
# Outcome bookkeeping
# --------------------------------------------------------------------------- #
@dataclass
class LaneCounters:
    """Per-lane settlement counters of one engine run."""

    admitted: int = 0
    rejected: int = 0
    expired: int = 0
    cancelled: int = 0
    parked: int = 0
    shed: int = 0

    def settled(self) -> int:
        """Requests this lane settled terminally."""
        return self.admitted + self.rejected + self.expired + self.cancelled + self.shed


@dataclass
class EngineTelemetry:
    """Observability counters of one engine run.

    ``lanes`` is keyed by the lane that *settled* the request: a region
    name for phase-1 admissions, :data:`MULTI_REGION_LANE` for the
    inter-region planner lane, :data:`~repro.platform.regions.GLOBAL_LANE`
    for the serial phase.  Parked retries count against the request's home
    lane.
    """

    lanes: dict[str, LaneCounters] = field(default_factory=dict)
    #: Final :meth:`LoadSheddingGovernor.snapshot` of the run's governor
    #: (``None`` when the engine ran without one).
    governor: dict | None = None
    #: Per-worker executor stats of this run (empty for executors without
    #: workers): lane dispatches, requests decided, snapshot/delta bytes
    #: shipped across the process boundary, stale-snapshot re-decides and
    #: in-worker wall-clock, keyed by worker name.
    workers: dict[str, dict[str, float]] = field(default_factory=dict)
    #: Step-4 analysis work of this run: ``simulations_run`` /
    #: ``simulated_events`` (real simulations only) and ``cache_hits``
    #: (verdicts replayed without simulating), as the delta of the engine-side
    #: pipeline's :class:`~repro.csdf.analysis.budget.AnalysisEngine`
    #: counters around the run.  Process workers run their own pipelines;
    #: their per-lane counter deltas travel back in each
    #: :class:`~repro.runtime.procdrain.LaneResult` and are folded in here,
    #: so the totals agree with the serial executor's (caches aside).
    analysis: dict[str, int] = field(default_factory=dict)

    def lane(self, name: str) -> LaneCounters:
        """The counters of one lane (created on first use)."""
        return self.lanes.setdefault(name, LaneCounters())

    def count(self, lane: str, status: "RequestStatus") -> None:
        """Account one settled request against a lane."""
        counters = self.lane(lane)
        if status is RequestStatus.ADMITTED:
            counters.admitted += 1
        elif status is RequestStatus.REJECTED:
            counters.rejected += 1
        elif status is RequestStatus.EXPIRED:
            counters.expired += 1
        elif status is RequestStatus.CANCELLED:
            counters.cancelled += 1
        elif status is RequestStatus.SHED:
            counters.shed += 1

    def merge_worker_stats(self, stats: dict[str, dict[str, float]]) -> None:
        """Fold one :meth:`ProcessRegionExecutor.worker_stats` delta into the totals."""
        for worker, values in stats.items():
            totals = self.workers.setdefault(worker, {})
            for key, value in values.items():
                totals[key] = totals.get(key, 0) + value


@dataclass(frozen=True)
class EngineRecord:
    """Final outcome of one admission request driven through the engine."""

    time_ns: float
    ticket: int
    application: str
    status: RequestStatus
    reason: str = ""
    priority: int = 0


@dataclass
class EngineOutcome:
    """Everything a workload run decided, plus its accounting.

    ``records`` hold one entry per *settled* request in settlement order;
    ``departures`` the executed stop events.  Wall-clock fields separate
    total run time from time spent inside drains (the part the region
    executor owns), and ``mapping_runtime_s`` accumulates the pipeline's
    own per-attempt mapper time, so benchmarks can report per-admission
    cost at any granularity.
    """

    workload: str
    records: list[EngineRecord] = field(default_factory=list)
    departures: list[tuple[float, str]] = field(default_factory=list)
    energy: EnergyAccount = field(default_factory=EnergyAccount)
    end_time_ns: float = 0.0
    drains: int = 0
    wall_clock_s: float = 0.0
    drain_wall_s: float = 0.0
    mapping_runtime_s: float = 0.0
    parked_retries_skipped: int = 0
    telemetry: EngineTelemetry = field(default_factory=EngineTelemetry)
    #: Every span the run's tracer recorded (engine spans plus re-anchored
    #: worker spans), in buffer order; empty with observability off.
    spans: list[SpanRecord] = field(default_factory=list)
    #: Snapshot of the run's folded :class:`~repro.obs.metrics.MetricsRegistry`
    #: (``None`` with observability or metrics off).
    metrics: dict | None = None

    def _with_status(self, status: RequestStatus) -> list[EngineRecord]:
        """Records with one status, served from a lazily built index.

        The status properties (:attr:`admitted`, :attr:`rejected`, ...) are
        hot in reporting and differential loops; re-scanning ``records`` on
        every property access is quadratic over a run's settlement count.
        The index is keyed by ``len(records)``, so an append invalidates it
        and the next access rebuilds — records are append-only.
        """
        cache = getattr(self, "_status_cache", None)
        if cache is None or cache[0] != len(self.records):
            index: dict[RequestStatus, list[EngineRecord]] = {}
            for record in self.records:
                index.setdefault(record.status, []).append(record)
            cache = (len(self.records), index)
            self._status_cache = cache
        return cache[1].get(status, [])

    @property
    def admitted(self) -> list[str]:
        """Applications admitted, in settlement order."""
        return [r.application for r in self._with_status(RequestStatus.ADMITTED)]

    @property
    def rejected(self) -> list[tuple[str, str]]:
        """(application, reason) of requests rejected by the pipeline."""
        return [
            (r.application, r.reason) for r in self._with_status(RequestStatus.REJECTED)
        ]

    @property
    def expired(self) -> list[str]:
        """Applications whose requests expired past their deadline."""
        return [r.application for r in self._with_status(RequestStatus.EXPIRED)]

    @property
    def cancelled(self) -> list[str]:
        """Applications whose requests were cancelled."""
        return [r.application for r in self._with_status(RequestStatus.CANCELLED)]

    @property
    def shed(self) -> list[str]:
        """Applications the load governor shed before any mapping work."""
        return [r.application for r in self._with_status(RequestStatus.SHED)]

    @property
    def decided(self) -> int:
        """Requests that reached a terminal admit/reject/expire outcome."""
        return len(self.admitted) + len(self.rejected) + len(self.expired)

    @property
    def admission_rate(self) -> float:
        """Fraction of offered requests that were admitted.

        Offered covers :attr:`decided` plus the governor's sheds: a shed
        request was offered and not admitted, so shedding a tier lowers its
        rate instead of hiding the loss.  Cancellations stay out, because
        the client withdrew them.
        """
        offered = self.decided + len(self.shed)
        return len(self.admitted) / offered if offered else 0.0

    def priority_admission_rate(self, priority: int) -> float:
        """Admission rate of one priority class (admitted / offered).

        Offered covers admitted, rejected, expired and shed records of the
        class; cancelled requests are excluded, exactly as in
        :attr:`admission_rate`.
        """
        offered = [
            r
            for r in self.records
            if r.priority == priority
            and r.status
            in (
                RequestStatus.ADMITTED,
                RequestStatus.REJECTED,
                RequestStatus.EXPIRED,
                RequestStatus.SHED,
            )
        ]
        if not offered:
            return 0.0
        admitted = sum(1 for r in offered if r.status is RequestStatus.ADMITTED)
        return admitted / len(offered)

    def decision_log(self) -> list[tuple[str, str, str]]:
        """(application, status, reason) per settled request — the differential key."""
        return [(r.application, r.status.value, r.reason) for r in self.records]


# --------------------------------------------------------------------------- #
# The engine
# --------------------------------------------------------------------------- #
class WorkloadEngine:
    """Virtual-clock event loop feeding an admission queue and region executor.

    Parameters
    ----------
    manager:
        The resource manager whose pipeline decides admissions.
    queue:
        Optional pre-configured :class:`AdmissionQueue`; a fresh one is
        created when omitted (``park_rejections`` is forwarded to it).
    executor:
        Phase-1 drain back-end; defaults to :class:`SerialRegionExecutor`.
    drain_mode:
        ``"batched"`` (default): all events at one timestamp are treated as
        concurrent — departures execute first, arrivals are enqueued, then
        one drain runs, giving region lanes real batches to parallelise.
        ``"immediate"``: the queue is drained after every single arrival,
        reproducing the legacy scenario player's strict one-event-at-a-time
        semantics (this is what :func:`~repro.runtime.scenario.run_scenario`
        uses).
    park_rejections:
        Enable cache-aware rejection parking on the engine-created queue: a
        rejected request waits until its lane's fingerprint changes instead
        of being re-mapped on every drain.
    governor:
        Optional :class:`~repro.runtime.admission_control.LoadSheddingGovernor`.
        When attached (and enabled), every drain gates the claimed requests
        through it before any mapping work: under overload, low-priority
        arrivals are shed (terminal ``SHED`` status) or deferred back to
        the queue.  The governor observes every settled pipeline decision,
        so its windowed rate estimate follows the run it is governing.  A
        disabled governor (or none) is decision-inert.
    obs:
        Optional :class:`~repro.obs.trace.ObsConfig`.  When enabled, the
        engine owns a :class:`~repro.obs.trace.Tracer` (installed on the
        manager's pipeline, shipped to drain workers) producing per-request
        span trees keyed by ``"<workload>:<ticket>"``, and a per-run
        :class:`~repro.obs.metrics.MetricsRegistry` every component
        publishes into.  Both land on the outcome
        (:attr:`EngineOutcome.spans` / :attr:`EngineOutcome.metrics`).
        Observability only ever observes: the differential suites pin that
        decisions are bit-identical with it on or off.
    """

    def __init__(
        self,
        manager: RuntimeResourceManager,
        *,
        queue: AdmissionQueue | None = None,
        executor: SerialRegionExecutor | ProcessRegionExecutor | None = None,
        drain_mode: str = "batched",
        park_rejections: bool = False,
        governor: LoadSheddingGovernor | None = None,
        obs: ObsConfig | None = None,
    ) -> None:
        if drain_mode not in ("batched", "immediate"):
            raise ValueError(f"unknown drain mode {drain_mode!r}")
        self.manager = manager
        # ``is None``, not ``or``: a fresh caller queue is empty and thus falsy.
        if queue is None:
            queue = AdmissionQueue(manager, park_rejections=park_rejections)
        self.queue = queue
        self.executor = executor or SerialRegionExecutor()
        self.drain_mode = drain_mode
        self.governor = governor
        self.obs = obs
        self.tracer: Tracer = (
            Tracer(obs) if obs is not None and obs.enabled else NULL_TRACER
        )
        manager.pipeline.tracer = self.tracer
        #: The current run's metrics registry (``None`` between runs or with
        #: metrics off); installed on the pipeline and queue for the run.
        self.metrics: MetricsRegistry | None = None
        #: ticket -> open root ("request") span of every in-flight sampled
        #: request; closed (and popped) when the request settles terminally.
        self._roots: dict[int, Span] = {}
        #: Tickets whose ``queue_wait`` span was already recorded (a parked
        #: request is claimed repeatedly; only its first wait is the wait).
        self._queue_waited: set[int] = set()
        self._workload_name = "workload"

    # ------------------------------------------------------------------ #
    def run(self, workload) -> EngineOutcome:
        """Replay a workload's events against the manager and account outcomes.

        ``workload`` is anything with ``sorted_events()``, ``end_time_ns()``
        and a ``name`` — in practice a
        :class:`~repro.runtime.scenario.Scenario` (hand-written or produced
        by :mod:`repro.workloads.arrivals`).
        """
        started = time.perf_counter()
        worker_baseline = self._worker_stats_snapshot()
        analysis_baseline = self._analysis_snapshot()
        worker_analysis_baseline = self._worker_analysis_snapshot()
        outcome = EngineOutcome(workload=getattr(workload, "name", "workload"))
        self._workload_name = outcome.workload
        obs = self.obs
        self.metrics = (
            MetricsRegistry()
            if obs is not None and obs.enabled and obs.metrics
            else None
        )
        self.manager.pipeline.metrics = self.metrics
        self.queue.metrics = self.metrics
        events = workload.sorted_events()
        for event in events:
            if not isinstance(event, (StartEvent, StopEvent)):
                raise TypeError(f"unknown scenario event type {type(event)!r}")
        if self.drain_mode == "immediate":
            for event in events:
                if isinstance(event, StopEvent):
                    self._stop(event.application, event.time_ns, outcome)
                    # A departure may have un-parked a waiting request by
                    # changing the state fingerprint; give it its retry now
                    # instead of waiting for the next arrival.
                    if len(self.queue):
                        self._drain(event.time_ns, outcome)
                else:
                    self._submit(event)
                    self._drain(event.time_ns, outcome)
        else:
            index = 0
            while index < len(events):
                time_ns = events[index].time_ns
                batch = []
                while index < len(events) and events[index].time_ns == time_ns:
                    batch.append(events[index])
                    index += 1
                arrivals = 0
                for event in batch:
                    if isinstance(event, StopEvent):
                        self._stop(event.application, time_ns, outcome)
                for event in batch:
                    if isinstance(event, StartEvent):
                        self._submit(event)
                        arrivals += 1
                if arrivals or len(self.queue):
                    self._drain(time_ns, outcome)
        end_time_ns = workload.end_time_ns()
        if len(self.queue):
            # Parked requests get one last look at the final state...
            self._drain(end_time_ns, outcome)
        for request in self.queue.flush_pending(now_ns=end_time_ns):
            # ...and whatever still waits when the workload ends is settled
            # as rejected (it never received capacity).
            self._record(end_time_ns, request, outcome)
        outcome.end_time_ns = end_time_ns
        outcome.energy.finish(end_time_ns)
        outcome.wall_clock_s = time.perf_counter() - started
        self._collect_worker_stats(outcome, worker_baseline)
        self._collect_analysis_stats(
            outcome, analysis_baseline, worker_analysis_baseline
        )
        if self.governor is not None:
            outcome.telemetry.governor = self.governor.snapshot()
        metrics = self.metrics
        if metrics is not None:
            self._publish_run_metrics(metrics, outcome)
            outcome.metrics = metrics.snapshot()
        if self.tracer.enabled:
            outcome.spans = self.tracer.drain()
        self.metrics = None
        self.manager.pipeline.metrics = None
        self.queue.metrics = None
        return outcome

    def _publish_run_metrics(
        self, metrics: MetricsRegistry, outcome: EngineOutcome
    ) -> None:
        """Publish the run's telemetry deltas into the metrics registry.

        One fold path: the engine publishes its lane counters itself, and
        every other component (analysis, governor, process executor)
        publishes through its own ``publish_metrics`` — all into the same
        registry the queue and pipeline counted into live, and the same
        registry worker snapshots folded into at dispatch time.
        """
        telemetry = outcome.telemetry
        for lane, counters in sorted(telemetry.lanes.items()):
            for status in ("admitted", "rejected", "expired", "cancelled", "shed", "parked"):
                value = getattr(counters, status)
                if value:
                    metrics.count(
                        f"engine.settled[lane={lane},status={status}]", float(value)
                    )
        analysis = getattr(self.manager.pipeline, "analysis", None)
        if analysis is not None and telemetry.analysis:
            analysis.publish_metrics(metrics, telemetry.analysis)
        if self.governor is not None:
            self.governor.publish_metrics(metrics)
        publish = getattr(self.executor, "publish_metrics", None)
        if callable(publish) and telemetry.workers:
            publish(metrics, telemetry.workers)

    def _analysis_snapshot(self) -> dict[str, int]:
        """Cumulative analysis-engine counters of the engine-side pipeline."""
        analysis = getattr(self.manager.pipeline, "analysis", None)
        return analysis.snapshot() if analysis is not None else {}

    def _worker_analysis_snapshot(self) -> dict[str, int]:
        """Cumulative worker-side analysis counters (process executor only)."""
        stats = getattr(self.executor, "worker_analysis", None)
        return stats() if callable(stats) else {}

    def _collect_analysis_stats(
        self,
        outcome: EngineOutcome,
        baseline: dict[str, int],
        worker_baseline: dict[str, int],
    ) -> None:
        """Fold this run's step-4 analysis work into the telemetry.

        The analysis engine accumulates for the pipeline's lifetime, so each
        run reports the delta against its starting snapshot (same discipline
        as the worker stats).  Process drain workers run their own
        analysis engines; their per-lane counter deltas accumulate on the
        executor and this run's share is folded in here, so
        ``telemetry.analysis`` accounts *all* analysis work regardless of
        executor.
        """
        stats = self._analysis_snapshot()
        worker_stats = self._worker_analysis_snapshot()
        if not stats and not worker_stats:
            return
        totals = {key: value - baseline.get(key, 0) for key, value in stats.items()}
        for key, value in worker_stats.items():
            totals[key] = totals.get(key, 0) + value - worker_baseline.get(key, 0)
        outcome.telemetry.analysis = totals

    def _worker_stats_snapshot(self) -> dict[str, dict[str, float]]:
        """Cumulative per-worker executor stats, empty for worker-less executors."""
        stats = getattr(self.executor, "worker_stats", None)
        return stats() if callable(stats) else {}

    def _collect_worker_stats(
        self,
        outcome: EngineOutcome,
        baseline: dict[str, dict[str, float]],
    ) -> None:
        """Fold this run's per-worker executor stats into the telemetry.

        The executor accumulates for its lifetime
        (worker pools are reused across runs), so each run reports the
        delta against its starting snapshot.
        """
        stats = self._worker_stats_snapshot()
        if not stats:
            return
        outcome.telemetry.merge_worker_stats(
            {
                worker: {
                    key: value - baseline.get(worker, {}).get(key, 0)
                    for key, value in values.items()
                }
                for worker, values in stats.items()
            }
        )

    # ------------------------------------------------------------------ #
    def _submit(self, event: StartEvent) -> int:
        """Enqueue one arrival with its priority and admission deadline."""
        ticket = self.queue.submit(
            event.als,
            library=event.library,
            priority=event.priority,
            deadline_ns=event.deadline_ns,
            now_ns=event.time_ns,
        )
        if self.tracer.enabled:
            context = self.tracer.context_for(f"{self._workload_name}:{ticket}")
            if context is not None:
                # The root span opens at submission and closes at terminal
                # settlement, so queue wait is inside the request's window.
                self._roots[ticket] = self.tracer.start(
                    "request",
                    context,
                    attrs={
                        "application": event.als.name,
                        "priority": event.priority,
                        "ticket": ticket,
                    },
                )
        return ticket

    def _job_trace(self, request: QueuedRequest) -> TraceContext | None:
        """The request's root-child trace context (recording its queue wait
        once, on the first claim); ``None`` when unsampled."""
        root = self._roots.get(request.ticket)
        if root is None:
            return None
        if request.ticket not in self._queue_waited:
            self._queue_waited.add(request.ticket)
            self.tracer.record(
                "queue_wait",
                root.context(),
                root.start_ns,
                time.perf_counter_ns(),
                attrs={"lane": request.lane},
            )
        return root.context()

    def _stop(self, application: str, time_ns: float, outcome: EngineOutcome) -> None:
        """Execute one departure; departures of never-admitted apps are no-ops."""
        if not self.manager.is_running(application):
            return
        self.manager.stop(application)
        outcome.energy.stop(application, time_ns)
        outcome.departures.append((time_ns, application))

    def _drain(self, now_ns: float, outcome: EngineOutcome) -> None:
        """One two-phase drain of everything ready at the current virtual time."""
        drain_started = time.perf_counter()
        pending_before = len(self.queue)
        expired, ready = self.queue.take(now_ns=now_ns)
        outcome.drains += 1
        outcome.parked_retries_skipped += pending_before - len(ready) - len(expired)
        for request in expired:
            # An expired deadline is an admission the platform failed to
            # deliver — exactly the overload signal the governor watches.
            # Unless the governor itself deferred the request away from the
            # mapper: counting that expiry would let the governor's own
            # deferrals keep its window depressed (a self-reinforcing
            # shedding loop that never re-opens).
            if not (request.deferred_by_governor and request.attempts == 0):
                self._observe(request, False)
            self._record(now_ns, request, outcome)
        if self.governor is not None and self.governor.enabled:
            ready = self._govern(now_ns, ready, outcome)
        if not ready:
            outcome.drain_wall_s += time.perf_counter() - drain_started
            return

        partition = self.manager.partition
        running = {app.name for app in self.manager.running_applications}
        claimed: set[str] = set()
        lane_jobs: dict[str, list[_RegionJob]] = {}
        job_of: dict[int, _RegionJob | _MultiRegionJob] = {}
        for request in ready:
            name = request.application
            region = (
                partition.region(request.lane)
                if partition is not None and request.lane != GLOBAL_LANE
                else None
            )
            if region is None or name in running or name in claimed:
                # Global-lane work and duplicate names stay serialized: the
                # multi-region lane (spanning pins) or the serial phase
                # applies them in arrival order.
                continue
            claimed.add(name)
            job = _RegionJob(request, region, trace=self._job_trace(request))
            lane_jobs.setdefault(request.lane, []).append(job)
            job_of[request.ticket] = job

        self.executor.execute(lane_jobs, self.manager.pipeline)

        failed: list[_RegionJob | _MultiRegionJob] = [
            job
            for lane in sorted(lane_jobs)
            for job in lane_jobs[lane]
            if job.error is not None
        ]
        if failed:
            self._unwind_failed_drain(now_ns, ready, job_of, outcome)
            raise failed[0].error

        # Multi-region lane: spanning requests plan over budgeted corridors
        # after the region lanes, before the global fallback.  Claiming follows arrival order like everything else.
        multi_jobs = self._claim_multi_region_jobs(ready, running, claimed, job_of)
        if multi_jobs:
            self._run_multi_region_lane(multi_jobs)
            failed = [job for job in multi_jobs if job.error is not None]
            if failed:
                self._unwind_failed_drain(now_ns, ready, job_of, outcome)
                raise failed[0].error

        # Finalisation and the serial phase, both in arrival order.
        serial_phase: list[QueuedRequest] = []
        planner_rejected: set[int] = set()
        for request in ready:
            job = job_of.get(request.ticket)
            if job is not None and job.decision is not None and job.decision.admitted:
                self._settle_admitted(now_ns, request, job, outcome)
            else:
                # In-region rejections retry with their cross-region
                # fallback and planner rejections with the unrestricted
                # global mapping; both join the serial pass.  The failed
                # attempt still cost mapper time and a pipeline trip —
                # account both, or the sharded configurations would
                # under-report their real per-admission work.
                if job is not None and job.decision is not None:
                    outcome.mapping_runtime_s += job.decision.mapping_runtime_s
                    request.attempts += 1
                    if isinstance(job, _MultiRegionJob):
                        planner_rejected.add(request.ticket)
                serial_phase.append(request)
        for request in serial_phase:
            decision = self.manager.admit(
                request.als,
                library=request.library,
                time_ns=now_ns,
                # The planner already rejected these this drain; it is
                # deterministic, so re-running it could only repeat itself.
                interregion=request.ticket not in planner_rejected,
                trace=self._job_trace(request),
            )
            self.queue.finalize(request, decision, now_ns=now_ns)
            if request.status is not RequestStatus.CANCELLED:
                self._observe(request, decision.admitted)
            # A spanning request the multi-region lane could not claim
            # (duplicate name in the drain) may still be admitted by the
            # planner stage inside the full pipeline — credit its lane.
            settled_lane = (
                MULTI_REGION_LANE
                if decision.admitted
                and getattr(decision, "origin", "pipeline") == "interregion"
                else GLOBAL_LANE
            )
            self._record(now_ns, request, outcome, lane=settled_lane)
            if not request.status.is_final:
                outcome.telemetry.lane(request.lane).parked += 1
        outcome.drain_wall_s += time.perf_counter() - drain_started

    def _observe(self, request: QueuedRequest, admitted: bool) -> None:
        """Feed one pipeline decision (or deadline expiry) to the governor.

        Observation happens at *decision* time — a parked rejection counts
        the moment it happens, not when the run's final flush settles it —
        so the governor's window follows the live run.  Cancellations and
        the governor's own sheds are never observed: neither measures the
        platform's ability to admit.
        """
        if self.governor is not None:
            self.governor.observe(request.priority, admitted)

    def _govern(
        self,
        now_ns: float,
        ready: list[QueuedRequest],
        outcome: EngineOutcome,
    ) -> list[QueuedRequest]:
        """Gate claimed requests through the load-shedding governor.

        Runs strictly before any mapping work: shed requests settle
        terminally, deferred requests go back to pending (a cancellation
        that raced the claim settles ``CANCELLED`` instead — the queue
        arbitrates, exactly once).  Returns the requests that proceed to
        the region lanes.
        """
        governor = self.governor
        tracer = self.tracer
        proceed: list[QueuedRequest] = []
        deferred: list[QueuedRequest] = []
        for request in ready:
            root = self._roots.get(request.ticket) if tracer.enabled else None
            check_start_ns = time.perf_counter_ns() if root is not None else 0
            verdict = governor.assess(request.priority)
            if root is not None:
                tracer.record(
                    "governor_check",
                    root.context(),
                    check_start_ns,
                    time.perf_counter_ns(),
                    attrs={"verdict": verdict},
                )
            if verdict == GovernorDecision.SHED:
                self.queue.shed(
                    request,
                    now_ns=now_ns,
                    reason=(
                        "shed by load governor (admission rate "
                        f"{governor.admission_rate():.2f} below floor "
                        f"{governor.config.rate_floor:.2f})"
                    ),
                )
                self._record(now_ns, request, outcome)
            elif verdict == GovernorDecision.DEFER:
                deferred.append(request)
            else:
                proceed.append(request)
        if deferred:
            for request in self.queue.defer(deferred, now_ns=now_ns):
                self._record(now_ns, request, outcome)
        return proceed

    def _claim_multi_region_jobs(
        self,
        ready: list[QueuedRequest],
        running: set[str],
        claimed: set[str],
        job_of: dict[int, "_RegionJob | _MultiRegionJob"],
    ) -> list[_MultiRegionJob]:
        """Claim global-lane requests whose pinned tiles span >= 2 regions."""
        planner = self.manager.pipeline.interregion
        if planner is None or self.manager.partition is None:
            return []
        jobs: list[_MultiRegionJob] = []
        for request in ready:
            if request.ticket in job_of:
                continue
            name = request.application
            if name in running or name in claimed:
                continue
            scope = planner.scope_for(request.als)
            if scope is None:
                continue
            claimed.add(name)
            job = _MultiRegionJob(request, scope, trace=self._job_trace(request))
            job_of[request.ticket] = job
            jobs.append(job)
        return jobs

    def _run_multi_region_lane(self, jobs: list[_MultiRegionJob]) -> None:
        """Run the planner jobs in arrival order, each within its scope."""
        for job in jobs:
            plan_start_ns = (
                time.perf_counter_ns()
                if self.tracer.enabled and job.trace is not None
                else 0
            )
            job.run(self.manager.pipeline)
            if plan_start_ns:
                self.tracer.record(
                    "interregion_plan",
                    job.trace,
                    plan_start_ns,
                    time.perf_counter_ns(),
                    attrs={
                        "admitted": job.decision is not None
                        and job.decision.admitted
                    },
                )

    def _unwind_failed_drain(
        self,
        now_ns: float,
        ready: list[QueuedRequest],
        job_of: dict[int, "_RegionJob | _MultiRegionJob"],
        outcome: EngineOutcome,
    ) -> None:
        """Settle what the lanes decided, requeue the rest, before re-raising."""
        requeue: list[QueuedRequest] = []
        for request in ready:
            job = job_of.get(request.ticket)
            if job is not None and job.decision is not None and job.decision.admitted:
                self._settle_admitted(now_ns, request, job, outcome)
            else:
                requeue.append(request)
        self.queue.requeue(requeue)

    def _settle_admitted(
        self,
        now_ns: float,
        request: QueuedRequest,
        job: "_RegionJob | _MultiRegionJob",
        outcome: EngineOutcome,
    ) -> None:
        """Adopt, finalize, observe and record one lane admission.

        The one settlement path for admissions decided in a region or
        multi-region lane, shared by a normal drain and the unwind of a
        failed one, so the governor sees every admission that stood.
        """
        self.manager.adopt_decision(request.als, job.decision, time_ns=now_ns)
        self.queue.finalize(request, job.decision, now_ns=now_ns)
        if request.status is not RequestStatus.CANCELLED:
            # A raced cancellation rolled the admission back; an admission
            # that never stood must not feed the window.
            self._observe(request, True)
        lane = MULTI_REGION_LANE if isinstance(job, _MultiRegionJob) else request.lane
        self._record(now_ns, request, outcome, lane=lane)

    def _record(
        self,
        time_ns: float,
        request: QueuedRequest,
        outcome: EngineOutcome,
        lane: str | None = None,
    ) -> None:
        """Append a settled request to the outcome (parked requests stay open).

        ``lane`` names the lane that settled the request for the telemetry
        counters; it defaults to the request's home lane (expiries, end-of-
        workload flushes).
        """
        if not request.status.is_final:
            return  # parked rejection: still pending, not an outcome yet
        root = self._roots.pop(request.ticket, None)
        if root is not None:
            self._queue_waited.discard(request.ticket)
            root.attrs["status"] = request.status.value
            record = self.tracer.end(root)
            if self.metrics is not None:
                self.metrics.observe(
                    "engine.request_latency_s", record.duration_ns / 1e9
                )
        outcome.telemetry.count(lane if lane is not None else request.lane, request.status)
        outcome.records.append(
            EngineRecord(
                time_ns=time_ns,
                ticket=request.ticket,
                application=request.application,
                status=request.status,
                reason=request.reason,
                priority=request.priority,
            )
        )
        decision = request.decision
        if decision is not None:
            outcome.mapping_runtime_s += decision.mapping_runtime_s
        if request.status is RequestStatus.ADMITTED and decision is not None:
            assert decision.result is not None
            outcome.energy.start(
                request.application,
                time_ns,
                decision.result.energy_nj_per_iteration,
                request.als.period_ns,
            )
