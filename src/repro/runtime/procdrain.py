"""Worker-side protocol of the process-parallel region drain.

The engine decides on one thread; the only parallelism is in drain worker
processes.  This module is the other half of
:class:`~repro.runtime.engine.ProcessRegionExecutor` — the part that runs
*inside* a drain worker process and the framing both sides share.  Each
worker is single-threaded too: it mutates only its own resident copies of
region state, never the engine's.

Workers are **stateful**: each keeps the region-local
:class:`~repro.platform.state.PlatformState` it last rebuilt resident
between drains, keyed by lane.  The engine therefore has two per-lane
dispatch frames:

* :class:`SnapshotDispatch` — the bootstrap (and fallback) frame: a full
  :class:`~repro.platform.state.RegionSnapshot` of the lane's region.  The
  worker rebuilds the region state from it and replaces its resident.
* :class:`DeltaDispatch` — the steady-state frame: the ordered chain of
  :class:`~repro.platform.state.RegionDeltaOp` committed on the region
  since the worker's last acknowledged (seq, fingerprint-digest)
  watermark.  The worker verifies its resident fingerprint digest
  (:func:`~repro.platform.state.fingerprint_digest` — fingerprints cross
  the wire only as 20-byte digests; the raw tuples grow with region
  occupancy) against the dispatch base,
  replays the chain (each op re-validating seq continuity and its target
  fingerprint), and decides against the updated resident.  Any mismatch —
  missing resident, wrong base, broken chain — yields a *resync* answer
  instead of decisions; the engine then re-dispatches a counted full
  snapshot, never silently.

Per drain, every lane routed to one worker is batched into a single
:class:`WorkerDispatch` frame (one ``send_bytes`` round-trip per worker);
the worker answers with one frame holding every lane's
:class:`LaneResult`.  Each lane dispatch is nested as its own pickle blob
inside the batch, so both sides meter exact per-lane byte counts on real
payloads, not estimates.

Decisions work exactly as before: the worker runs the ordinary
``pipeline.decide(candidates=(region,))`` against its resident state, job
by job, committing locally so later jobs in the lane see earlier ones, and
ships back per admitted job the commit's
:class:`~repro.platform.state.AllocationDelta` tagged with the digest of
the region fingerprint the decision was based on.  The engine folds each
delta only if that base digest still matches; anything stale is re-decided on
the engine process.  The lane result carries the digest of the
resident's final fingerprint — the worker's acknowledgement the engine
turns into the next watermark.

Worker-side determinism notes:

* The worker's pipeline is rebuilt from :class:`WorkerSettings` (platform,
  partition, library, mapper config) — all plain picklable data.  A custom
  ``mapper_factory`` cannot cross the boundary; the executor refuses to
  start workers for one.
* The :class:`~repro.spatialmapper.cache.MapperCache` pins ALS/library
  *object identity*; unpickling would break that, so the worker interns
  unpickled objects by payload digest.  Digests are computed once on the
  engine side and watermarked per worker: a blob already shipped travels
  as its digest alone (the worker never re-hashes anything), and the
  engine orders an intern-table clear (``WorkerDispatch.clear_interned``)
  when its shipped-digest window fills, so both sides stay in lockstep.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback
from dataclasses import dataclass

from repro.appmodel.library import ImplementationLibrary
from repro.exceptions import PlatformError
from repro.obs import MetricsRegistry, ObsConfig, SpanRecord, TraceContext, Tracer
from repro.platform.platform import Platform
from repro.platform.regions import RegionPartition
from repro.platform.state import (
    AllocationDelta,
    PlatformState,
    RegionDeltaOp,
    RegionSnapshot,
    fingerprint_digest,
)
from repro.runtime.pipeline import AdmissionPipeline
from repro.spatialmapper.config import MapperConfig

#: Pickle protocol of every frame (highest shared by 3.11/3.12).
PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Sentinel frame asking a worker to exit its receive loop.
SHUTDOWN_FRAME = b""

#: Interned-object table bound: far above any benchmark's working set, but
#: a week-long run with ever-fresh applications must not grow unbounded.
#: The *engine* enforces it — when its per-worker shipped-digest window
#: reaches the limit it clears the window and sets
#: :attr:`WorkerDispatch.clear_interned`, so the worker table is wiped at a
#: frame boundary and can never disagree with the engine about what is
#: interned.
INTERN_LIMIT = 4096


# --------------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class WorkerSettings:
    """Everything a drain worker needs to rebuild the admission pipeline.

    Plain picklable data only — this is the worker's whole world.
    ``config`` ships the full :class:`~repro.spatialmapper.config.MapperConfig`, so
    worker-side mappers are rescue-enabled exactly when the engine's are
    (rescue seeds derive from request fingerprints, keeping worker and
    serial-reference decisions bit-identical).
    """

    platform: Platform
    partition: RegionPartition
    library: ImplementationLibrary
    config: MapperConfig
    require_feasible: bool
    cache_size: int
    #: Observability config of the run (``None`` = obs off).  Workers build
    #: their own :class:`~repro.obs.trace.Tracer` from it — span ids are
    #: namespaced by process name, so engine and worker spans never collide.
    obs: ObsConfig | None = None


@dataclass(frozen=True)
class JobSpec:
    """One request of a lane dispatch, with its inputs as digested payloads.

    The ALS/library travel as nested pickle bytes keyed by an engine-side
    digest: the worker interns the unpickled object under the digest —
    object identity is what keys the mapper cache's pinning — and a blob
    the engine already shipped to this worker travels as ``None`` (digest
    only), which is what keeps steady-state job specs tiny.
    """

    ticket: int
    als_digest: bytes
    als_blob: bytes | None
    library_digest: bytes | None = None
    library_blob: bytes | None = None
    #: Trace context of a sampled request, parented on the engine's
    #: ``dispatch`` span; ``None`` for unsampled requests / obs off.  The
    #: worker's ``decide`` span tree hangs off it, which is what stitches
    #: engine dispatch → worker decide → engine fold into one tree.
    trace: TraceContext | None = None


@dataclass(frozen=True)
class SnapshotDispatch:
    """Bootstrap/fallback frame: one lane's full region snapshot plus jobs."""

    lane: str
    snapshot: RegionSnapshot
    jobs: tuple[JobSpec, ...]


@dataclass(frozen=True)
class DeltaDispatch:
    """Steady-state frame: the delta-op chain since the worker's watermark.

    ``base_seq`` / ``base_fingerprint`` name the watermark the chain
    starts from: the worker's resident state's fingerprint must digest to
    ``base_fingerprint``, and ``ops`` (possibly empty) are the journal ops
    with consecutive seqs ``base_seq+1 ..``.  Replay validation is the
    worker's job — a resident/base mismatch or a broken chain answers with
    a resync instead of decisions.
    """

    lane: str
    base_seq: int
    base_fingerprint: bytes
    ops: tuple[RegionDeltaOp, ...]
    jobs: tuple[JobSpec, ...]


@dataclass(frozen=True)
class WorkerDispatch:
    """One drain's batch for one worker: every lane frame in one round-trip.

    ``frames`` holds each lane's :class:`SnapshotDispatch` /
    :class:`DeltaDispatch` as its own pickle blob so per-lane bytes are
    metered exactly; ``clear_interned`` orders the worker to wipe its
    intern table *before* processing the frames (engine-driven eviction —
    see :data:`INTERN_LIMIT`).
    """

    frames: tuple[bytes, ...]
    clear_interned: bool = False


@dataclass(frozen=True)
class JobResponse:
    """What the worker decided for one job.

    ``base_fingerprint`` is the digest of the region fingerprint of the
    worker's local state *immediately before* this job was decided (so
    within a lane the digests chain: job *i*'s base includes jobs
    ``0..i-1``'s local commits).  The engine folds ``delta_blob`` only
    while its own region fingerprint digests to this base — the
    stale-snapshot rule.
    """

    ticket: int
    base_fingerprint: bytes
    decision_blob: bytes | None
    delta_blob: bytes | None
    mapper_invocations: int
    wall_s: float
    error: str | None = None


@dataclass(frozen=True)
class LaneResult:
    """A worker's answer to one lane dispatch (responses in job order).

    A lane aborts on its first error, mirroring the serial executor's
    discipline: jobs after the failed one get no response.
    ``final_fingerprint`` is the digest of the resident state's region
    fingerprint after the lane's local commits — the acknowledgement the engine records as
    this worker's next delta watermark.  ``resync`` (a reason string)
    means the worker could not honour a :class:`DeltaDispatch` and decided
    nothing; the engine must re-dispatch a full snapshot.
    """

    lane: str
    responses: tuple[JobResponse, ...]
    final_fingerprint: bytes | None = None
    resync: str | None = None
    #: Worker-clock span records of this lane's decides (empty when obs is
    #: off or nothing was sampled).  The engine re-anchors them onto its own
    #: timeline before adopting them — see :func:`repro.obs.trace.reanchor_spans`.
    spans: tuple[SpanRecord, ...] = ()
    #: Delta of the worker pipeline's step-4 analysis counters over this
    #: lane (``None`` only for resync answers, which decide nothing).
    #: Shipped *unconditionally* — engine telemetry must account worker-side
    #: analysis work with observability off too.
    analysis: dict[str, int] | None = None
    #: Snapshot of the worker's per-lane metrics registry (obs on) — folded
    #: into the engine's run registry like any other delta.
    metrics: dict | None = None


def dump_frame(payload) -> bytes:
    """Pickle one frame for the pipe."""
    return pickle.dumps(payload, protocol=PICKLE_PROTOCOL)


def load_frame(blob: bytes):
    """Unpickle one frame from the pipe."""
    return pickle.loads(blob)


# --------------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------------- #
def build_worker_pipeline(settings: WorkerSettings) -> AdmissionPipeline:
    """The worker's private pipeline, equivalent to the engine's for
    region-restricted decisions (explicit candidates bypass stage 2, so
    the fallback knob is irrelevant here)."""
    return AdmissionPipeline(
        settings.platform,
        settings.library,
        settings.config,
        state=PlatformState(settings.platform),
        partition=settings.partition,
        require_feasible=settings.require_feasible,
        cache_size=settings.cache_size,
    )


def _intern(table: dict[bytes, object], digest: bytes, blob: bytes | None):
    """The interned object for an engine-computed digest.

    The blob is unpickled at most once per digest; a ``None`` blob asserts
    the engine already shipped it to this worker — finding the digest
    missing then is a protocol violation (the engine clears the worker
    table only via :attr:`WorkerDispatch.clear_interned`, in lockstep with
    its own shipped-digest window), surfaced as a job error.
    """
    cached = table.get(digest)
    if cached is None:
        if blob is None:
            raise PlatformError(
                "dispatch referenced an interned payload this worker never "
                "received (digest watermark out of sync)"
            )
        cached = table[digest] = pickle.loads(blob)
    return cached


def decide_jobs(
    pipeline: AdmissionPipeline,
    region,
    jobs: tuple[JobSpec, ...],
    interned: dict[bytes, object],
) -> tuple[JobResponse, ...]:
    """Decide a lane's jobs in order against ``pipeline.state`` (the resident).

    Commits land in the resident state, so later jobs see earlier ones —
    the same left-fold the engine performs when it folds the deltas back.
    """
    state = pipeline.state
    responses: list[JobResponse] = []
    for job in jobs:
        base = fingerprint_digest(region.fingerprint(state))
        invocations_before = pipeline.mapper_invocations
        started = time.perf_counter()
        try:
            als = _intern(interned, job.als_digest, job.als_blob)
            library = (
                _intern(interned, job.library_digest, job.library_blob)
                if job.library_digest is not None
                else None
            )
            decision = pipeline.decide(
                als, library, candidates=(region,), trace=job.trace
            )
        except Exception:
            responses.append(
                JobResponse(
                    ticket=job.ticket,
                    base_fingerprint=base,
                    decision_blob=None,
                    delta_blob=None,
                    mapper_invocations=pipeline.mapper_invocations - invocations_before,
                    wall_s=time.perf_counter() - started,
                    error=traceback.format_exc(),
                )
            )
            break  # serial lane-abort discipline: skip the rest of the lane
        wall_s = time.perf_counter() - started
        delta_blob = None
        if decision.admitted:
            processes, links = pipeline.allocation_records(
                decision.application, decision.result.mapping
            )
            delta_blob = dump_frame(
                AllocationDelta(decision.application, processes, links)
            )
        responses.append(
            JobResponse(
                ticket=job.ticket,
                base_fingerprint=base,
                decision_blob=dump_frame(decision),
                delta_blob=delta_blob,
                mapper_invocations=pipeline.mapper_invocations - invocations_before,
                wall_s=wall_s,
            )
        )
    return tuple(responses)


def handle_lane(
    pipeline: AdmissionPipeline,
    dispatch: SnapshotDispatch | DeltaDispatch,
    interned: dict[bytes, object],
    residents: dict[str, PlatformState],
) -> LaneResult:
    """Serve one lane dispatch against (or rebuilding) the resident state.

    A :class:`SnapshotDispatch` replaces the lane's resident outright; a
    :class:`DeltaDispatch` is honoured only when the resident exists, its
    fingerprint equals the dispatch base, and the op chain replays without
    a gap or fingerprint divergence — otherwise the resident is dropped
    and a resync result (no decisions) is returned.
    """
    # Intern every blob that reached this worker *before* deciding the
    # lane's fate: the engine marks a digest as shipped the moment it
    # assembles the frame, so even a resync answer must retain the payloads
    # — the follow-up snapshot dispatch will reference them by digest only.
    for job in dispatch.jobs:
        if job.als_blob is not None:
            _intern(interned, job.als_digest, job.als_blob)
        if job.library_blob is not None and job.library_digest is not None:
            _intern(interned, job.library_digest, job.library_blob)
    region = pipeline.partition.region(dispatch.lane)
    if isinstance(dispatch, SnapshotDispatch):
        state = dispatch.snapshot.build_state(pipeline.platform)
        residents[dispatch.lane] = state
    else:
        state = residents.get(dispatch.lane)
        if state is None:
            return LaneResult(dispatch.lane, (), resync="no resident state")
        if fingerprint_digest(region.fingerprint(state)) != dispatch.base_fingerprint:
            residents.pop(dispatch.lane, None)
            return LaneResult(
                dispatch.lane, (), resync="resident fingerprint != dispatch base"
            )
        if dispatch.ops:
            try:
                state.replay_region_ops(
                    dispatch.ops,
                    tuple(region.tile_names),
                    tuple(region.link_names),
                    expected_seq=dispatch.base_seq + 1,
                )
            except PlatformError as error:
                residents.pop(dispatch.lane, None)
                return LaneResult(
                    dispatch.lane, (), resync=f"delta replay failed: {error}"
                )
    pipeline.state = state
    if pipeline.metrics is not None:
        # Fresh registry per lane: the snapshot shipped back is exactly this
        # lane's delta, so the engine folds it without double counting.
        pipeline.metrics = MetricsRegistry()
    analysis_before = pipeline.analysis.snapshot()
    responses = decide_jobs(pipeline, region, dispatch.jobs, interned)
    analysis_after = pipeline.analysis.snapshot()
    if pipeline.metrics is not None:
        pipeline.metrics.count("worker.jobs", float(len(responses)))
    return LaneResult(
        lane=dispatch.lane,
        responses=responses,
        final_fingerprint=fingerprint_digest(region.fingerprint(state)),
        spans=tuple(pipeline.tracer.drain()) if pipeline.tracer.enabled else (),
        analysis={
            key: analysis_after[key] - analysis_before[key] for key in analysis_after
        },
        metrics=pipeline.metrics.snapshot() if pipeline.metrics is not None else None,
    )


def drain_worker(conn, settings_blob: bytes) -> None:
    """Entry point of one drain worker process.

    Receives :class:`WorkerDispatch` frames until the shutdown sentinel
    (or EOF, should the engine die first) and answers each with one frame
    holding a :class:`LaneResult` per nested lane dispatch, in dispatch
    order.  The pipeline — and with it the mapper cache's region-scoped
    warm state, the interning table and the resident region states —
    persists across dispatches for the worker's lifetime.
    """
    settings: WorkerSettings = load_frame(settings_blob)
    pipeline = build_worker_pipeline(settings)
    if settings.obs is not None and settings.obs.enabled:
        pipeline.tracer = Tracer(
            settings.obs, process=multiprocessing.current_process().name
        )
        if settings.obs.metrics:
            # Replaced with a fresh per-lane registry in ``handle_lane``;
            # non-None is the switch.
            pipeline.metrics = MetricsRegistry()
    interned: dict[bytes, object] = {}
    residents: dict[str, PlatformState] = {}
    try:
        while True:
            try:
                frame = conn.recv_bytes()
            except (EOFError, OSError):
                break
            if frame == SHUTDOWN_FRAME:
                break
            dispatch: WorkerDispatch = load_frame(frame)
            if dispatch.clear_interned:
                interned.clear()
            results = tuple(
                handle_lane(pipeline, load_frame(blob), interned, residents)
                for blob in dispatch.frames
            )
            conn.send_bytes(dump_frame(results))
    finally:
        conn.close()
