"""The staged admission pipeline behind the run-time resource manager.

PR 1 made a *single* admission cheap (O(1) aggregates, journaled
transactions).  This module turns those primitives into the scaling
architecture: every start request flows through an explicit pipeline of
stages —

1. **fingerprint / cache lookup** — the platform state digests to a cheap
   per-region fingerprint; a previously answered (application, region
   fingerprint) question is served from the
   :class:`~repro.spatialmapper.cache.MapperCache` without re-running the
   search;
2. **region selection** — with a :class:`~repro.platform.regions.RegionPartition`
   configured, a region qualifies when it contains the application's pinned
   tiles and can plausibly host its processes.  A tile lies in exactly one
   region, so an application with a pinned tile has at most one home
   region; unpinned applications try the qualifying regions
   least-filled-first;
3. **spatial map (region-scoped)** — the four-step mapper runs restricted to
   the selected region's tiles and routers, so the work (and the fingerprint
   that keys its result) is local to the shard;
4. **transactional commit** — allocations are written under a transaction
   scoped to the region, so admissions into disjoint regions never touch
   each other's journals.

The :class:`~repro.runtime.manager.RuntimeResourceManager` is a thin façade
over this pipeline, and the :class:`~repro.runtime.queue.AdmissionQueue`
feeds it request by request.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro.appmodel.library import ImplementationLibrary
from repro.csdf.analysis.budget import AnalysisEngine
from repro.exceptions import PlatformError
from repro.kpn.als import ApplicationLevelSpec
from repro.mapping.mapping import Mapping
from repro.mapping.result import MappingResult, MappingStatus
from repro.obs import NULL_TRACER, TraceContext
from repro.platform.platform import Platform
from repro.platform.regions import Region, RegionPartition
from repro.platform.state import LinkAllocation, PlatformState, ProcessAllocation
from repro.spatialmapper.cache import MapperCache
from repro.spatialmapper.config import MapperConfig
from repro.spatialmapper.mapper import SpatialMapper

#: How many qualifying regions an unpinned application tries before the
#: global fallback (a pinned application has at most one).
MAX_REGION_ATTEMPTS = 2


@dataclass
class AdmissionDecision:
    """Per-application outcome of one trip through the admission pipeline.

    :meth:`AdmissionPipeline.decide` returns every decision in its
    :meth:`settled` form: an admitted decision carries the mapping with its
    status, energy, feasibility report, diagnostics and runtime, but not
    the mapped CSDF graph or the mapper's pending feedback.  The same
    object settles the request on the serial executor, in the engine's
    lanes and, pickled, across the process boundary; the queue and the
    running registry keep it for as long as they keep the request.
    """

    application: str
    admitted: bool
    reason: str
    result: MappingResult | None = None
    mapping_runtime_s: float = 0.0
    #: Which stage produced the decision: ``"pipeline"`` (region attempts /
    #: global fallback) or ``"interregion"`` (the corridor planner).  The
    #: engine's telemetry attributes settlements by this, not by the
    #: free-text ``reason``.
    origin: str = "pipeline"

    def settled(self) -> "AdmissionDecision":
        """This decision with its result in :meth:`MappingResult.settled` form.

        A decision without a result (every rejection) is returned as is.
        """
        if self.result is None:
            return self
        return replace(self, result=self.result.settled())


class AdmissionPipeline:
    """Maps and commits start requests through the staged admission path.

    Parameters
    ----------
    platform:
        The managed platform.
    library:
        Default implementation library (per-request libraries may override).
    config:
        Mapper configuration shared by every created mapper.
    state:
        The live allocation state; a fresh one is created when omitted.
    partition:
        Optional region sharding.  Without it every request maps and commits
        globally (the pre-pipeline behaviour, now expressed as one global
        "region" of ``None``).
    mapper_factory:
        ``(platform, library, config) -> mapper`` hook, e.g. for baselines.
        It receives :attr:`mapper_config`.
        Region-scoped mapping requires the produced mapper to accept
        ``map(als, state, region=...)``; factories used without a partition
        only need the plain ``map(als, state)`` interface.
    require_feasible:
        When ``True`` only feasible mappings are admitted; otherwise
        adherent mappings pass as well.
    cache_size:
        Capacity of the shared mapper-result cache; ``0`` disables caching.
    region_fallback:
        Whether a request that no single region admits is retried with an
        unrestricted (global) mapping.  The global attempt commits under an
        unscoped transaction, which is the explicit path for cross-region
        allocations.
    """

    def __init__(
        self,
        platform: Platform,
        library: ImplementationLibrary | None = None,
        config: MapperConfig | None = None,
        *,
        state: PlatformState | None = None,
        partition: RegionPartition | None = None,
        mapper_factory=None,
        require_feasible: bool = True,
        cache_size: int = 128,
        region_fallback: bool = True,
    ) -> None:
        self.platform = platform
        self.library = library if library is not None else ImplementationLibrary()
        self.config = config or MapperConfig()
        #: What the pipeline's mappers are built with: its config without
        #: the step-2 trace, which no runtime stage reads.
        self.mapper_config = replace(self.config, keep_step2_trace=False)
        self.state = state if state is not None else PlatformState(platform)
        self.partition = partition
        self.require_feasible = require_feasible
        self.region_fallback = region_fallback
        #: How many times the mapping stage ran (cache hits included): the
        #: "wasted mapper calls" currency of the load-shedding benchmark.
        self.mapper_invocations = 0
        self.cache: MapperCache | None = MapperCache(cache_size) if cache_size else None
        #: Step-4 analysis engine shared by every mapper this pipeline
        #: creates: one simulation-verdict cache across regions, refinement
        #: iterations and admission requests, and the source of the
        #: engine-level ``analysis`` telemetry counters.
        self.analysis = AnalysisEngine.from_config(self.config)
        self._uses_default_factory = mapper_factory is None
        self._mapper_factory = mapper_factory or (
            lambda platform_, library_, config_: SpatialMapper(
                platform_, library_, config_, cache=self.cache, analysis=self.analysis
            )
        )
        # The mapper for the pipeline's own library is cached for the
        # pipeline's lifetime; per-request libraries get a single most-recent
        # slot so a long-lived pipeline does not accumulate one mapper per
        # transient library (the cached mapper keeps its library alive, which
        # is what makes the identity comparison in `mapper_for` safe).
        self._default_mapper = None
        self._custom_mapper: tuple[ImplementationLibrary, object] | None = None
        #: Regions each running application's allocations landed in
        #: (observability: which shard an admission was served from).
        self._regions_of_app: dict[str, tuple[str, ...]] = {}
        #: Optional inter-region planner (duck-typed:
        #: :class:`repro.interregion.planner.InterRegionPlanner`).  When set,
        #: a request no single region can host is planned over budgeted
        #: boundary corridors *before* the unrestricted global fallback.
        self.interregion = None
        #: Observability hooks.  The engine (or a drain worker) installs its
        #: :class:`~repro.obs.trace.Tracer` / per-run
        #: :class:`~repro.obs.metrics.MetricsRegistry` here; the defaults keep
        #: an un-instrumented pipeline allocation-free on the hot path.
        self.tracer = NULL_TRACER
        self.metrics = None

    # ------------------------------------------------------------------ #
    # Stage 1 — fingerprints
    # ------------------------------------------------------------------ #
    def fingerprint(self, region: Region | None = None) -> tuple:
        """Digest of the current state of ``region`` (or of the whole platform)."""
        if region is not None:
            return region.fingerprint(self.state)
        return self.state.fingerprint()

    # ------------------------------------------------------------------ #
    # Stage 2 — region selection
    # ------------------------------------------------------------------ #
    def candidate_regions(
        self,
        als: ApplicationLevelSpec,
        library: ImplementationLibrary | None = None,
    ) -> tuple[Region | None, ...]:
        """Regions worth attempting for this application, best first.

        A region qualifies when it contains every pinned tile of the
        application, has at least as many free slots as the application has
        mappable processes, and offers — per process — some implementation
        whose tile type still has a free-slot tile inside the region.  A
        tile lies in exactly one region, so an application with a pinned
        tile has at most one qualifying region, its home region.  Unpinned
        applications try up to :data:`MAX_REGION_ATTEMPTS` qualifying
        regions least-filled-first (ties broken by name).  ``None`` (the
        global, unrestricted attempt) is appended when fallback is enabled,
        and is the only candidate without a partition.  With fallback
        disabled and no qualifying region, the tuple is empty and
        :meth:`decide` rejects the request without mapping.
        """
        if self.partition is None:
            return (None,)
        effective = library if library is not None else self.library
        mappable = [p.name for p in als.kpn.mappable_processes()]
        pinned_tiles = [
            p.pinned_tile for p in als.kpn.pinned_processes() if p.pinned_tile
        ]
        qualifying: list[tuple[float, str, Region]] = []
        for region in self.partition:
            if any(tile not in region for tile in pinned_tiles):
                continue
            view = region.view(self.state)
            if view.free_process_slots() < len(mappable):
                continue
            free_types = {
                self.platform.tile(name).type_name
                for name in region.processing_tile_names()
                if self.state.free_process_slots(name) > 0
            }
            if not all(
                any(
                    implementation.tile_type in free_types
                    for implementation in effective.implementations_for(process)
                )
                for process in mappable
            ):
                continue
            qualifying.append((view.fill_level(), region.name, region))
        qualifying.sort(key=lambda item: (item[0], item[1]))
        candidates: list[Region | None] = [
            region for _, _, region in qualifying[:MAX_REGION_ATTEMPTS]
        ]
        if self.region_fallback:
            candidates.append(None)
        return tuple(candidates)

    # ------------------------------------------------------------------ #
    # Stage 3 — spatial mapping
    # ------------------------------------------------------------------ #
    def mapper_for(self, library: ImplementationLibrary | None):
        """The (cached) mapper instance for the given library."""
        effective = library if library is not None else self.library
        if effective is self.library:
            if self._default_mapper is None:
                self._default_mapper = self._mapper_factory(
                    self.platform, effective, self.mapper_config
                )
            return self._default_mapper
        custom = self._custom_mapper
        if custom is not None and custom[0] is effective:
            return custom[1]
        mapper = self._mapper_factory(self.platform, effective, self.mapper_config)
        self._custom_mapper = (effective, mapper)
        return mapper

    def map_stage(
        self,
        als: ApplicationLevelSpec,
        library: ImplementationLibrary | None,
        region: Region | None,
    ) -> MappingResult:
        """Run the (possibly region-scoped, possibly cached) mapper."""
        self.mapper_invocations += 1
        mapper = self.mapper_for(library)
        if region is None:
            result = mapper.map(als, self.state)
        else:
            result = mapper.map(als, self.state, region=region)
        self._count_rescue_metrics(mapper)
        return result

    def _count_rescue_metrics(self, mapper) -> None:
        """Fold the last computed call's rescue-lane counters into metrics.

        Worker-process pipelines count into their local registry, whose
        snapshot ships back in ``LaneResult.metrics`` and folds engine-side,
        so the counters aggregate across executors without extra plumbing.
        Cache hits carry a marked empty trace and count nothing.
        """
        metrics = self.metrics
        if metrics is None:
            return
        trace = getattr(mapper, "last_trace", None)
        if trace is None or trace.cache_hit or not trace.rescue_searchers_run:
            return
        metrics.count("mapper.rescue.searchers", float(trace.rescue_searchers_run))
        metrics.count("mapper.rescue.candidates", float(trace.rescue_candidates))
        metrics.count("mapper.rescue.energy_cut", float(trace.rescue_energy_cut))
        metrics.count("mapper.rescue.floor_cut", float(trace.rescue_floor_cut))
        metrics.count("mapper.rescue.feasible", float(trace.rescue_feasible))
        if trace.rescue_adopted:
            metrics.count("mapper.rescue.adopted", 1.0)
        if trace.rescue_budget_exhausted:
            metrics.count("mapper.rescue.budget_exhausted", 1.0)

    # ------------------------------------------------------------------ #
    # Stage 4 — transactional commit
    # ------------------------------------------------------------------ #
    def commit(
        self,
        als: ApplicationLevelSpec,
        result: MappingResult,
        region: Region | None = None,
    ) -> None:
        """Write the mapping's allocations into the state atomically.

        With a region, the transaction is scoped to that region's tiles and
        internal links: a failure (or a concurrent sibling's rollback) can
        never disturb other regions' journals.  Raises
        :class:`~repro.exceptions.PlatformError` when any allocation no
        longer fits; the transaction guarantees nothing half-applied leaks.
        """
        mapping = result.mapping
        with self.state.transaction(region):
            records = self.write_allocations(als.name, mapping)
        # Journal only once the transaction committed: a rolled-back commit
        # must leave the region delta chains untouched.
        self.state.journal_mapping_commit(als.name, *records)
        self._note_commit(als.name, mapping)

    def allocation_records(
        self, application: str, mapping: Mapping
    ) -> tuple[tuple[ProcessAllocation, ...], tuple[LinkAllocation, ...]]:
        """The allocation records a mapping commits, in commit order.

        This is the single translation from a mapping to state mutations:
        :meth:`write_allocations` applies it locally, and the process drain
        ships it across the boundary as an
        :class:`~repro.platform.state.AllocationDelta` — so a worker-side
        commit and the engine-side fold of its delta write bit-identical
        records in the same order.
        """
        processes = tuple(
            ProcessAllocation(
                application=application,
                process=assignment.process,
                tile=assignment.tile,
                memory_bytes=assignment.implementation.memory_bytes,
                compute_cycles_per_iteration=assignment.implementation.total_wcet_cycles,
            )
            for assignment in mapping.assignments
            if assignment.implementation is not None
        )
        links = tuple(
            LinkAllocation(
                application=application,
                channel=route.channel,
                link=self.platform.noc.link(a, b).name,
                bits_per_s=route.required_bits_per_s,
            )
            for route in mapping.routes
            for a, b in zip(route.path, route.path[1:])
        )
        return processes, links

    def write_allocations(
        self, application: str, mapping: Mapping
    ) -> tuple[tuple[ProcessAllocation, ...], tuple[LinkAllocation, ...]]:
        """Allocate a mapping's processes and routed links into the state.

        Writes into whatever transaction scope the caller holds open —
        :meth:`commit` uses it under a region scope, the inter-region
        planner under its corridor scope (and for tentative scratch work).
        Keeping this the single allocation writer means planner-committed
        and pipeline-committed state can never diverge in bookkeeping.
        Returns the written records so callers that must journal them
        (:meth:`commit`) do not translate the mapping twice.
        """
        processes, links = self.allocation_records(application, mapping)
        for allocation in processes:
            self.state.allocate_process(allocation)
        for allocation in links:
            self.state.allocate_link(allocation)
        return processes, links

    # ------------------------------------------------------------------ #
    # The full pipeline
    # ------------------------------------------------------------------ #
    def decide(
        self,
        als: ApplicationLevelSpec,
        library: ImplementationLibrary | None = None,
        *,
        candidates: tuple[Region | None, ...] | None = None,
        use_interregion: bool = True,
        trace: TraceContext | None = None,
    ) -> AdmissionDecision:
        """Run stages 1-4 for one request and return its decision.

        Candidate regions are attempted in order; the first admissible,
        committable mapping wins.  ``mapping_runtime_s`` accumulates the
        mapper time of every attempt, so per-admission latency reported by
        benchmarks reflects the real pipeline cost.

        ``candidates`` overrides stage 2: the caller dictates exactly which
        regions to attempt (the engine's region workers pass their single
        lane region so a parallel attempt can never leave its shard).

        When an inter-region planner is attached, the global-fallback slot
        first attempts a planned cross-region admission over budgeted
        boundary corridors; only a planner rejection falls through to the
        unrestricted global mapping, so the global lane remains the
        differential reference.  ``use_interregion=False`` skips the
        planner attempt (used by callers that already ran it).

        ``trace`` attaches the request's trace context: the decision then
        emits a ``decide`` span with region-selection / per-attempt map /
        cache-lookup / mapper-step / commit children.  Tracing only ever
        observes — decisions are bit-identical with it on or off.

        The decision comes back in its :meth:`AdmissionDecision.settled`
        form on every path (region attempt, global fallback, planner).
        """
        tracer = self.tracer
        metrics = self.metrics
        span = (
            tracer.start("decide", trace, attrs={"application": als.name})
            if trace is not None and tracer.enabled
            else None
        )
        if span is None and metrics is None:
            return self._decide(
                als, library, candidates=candidates, use_interregion=use_interregion
            ).settled()
        start_ns = span.start_ns if span is not None else time.perf_counter_ns()
        decision = self._decide(
            als,
            library,
            candidates=candidates,
            use_interregion=use_interregion,
            trace=span.context() if span is not None else None,
        ).settled()
        end_ns = time.perf_counter_ns()
        if span is not None:
            span.attrs["admitted"] = decision.admitted
            span.attrs["origin"] = decision.origin
            tracer.end(span, end_ns=end_ns)
        if metrics is not None:
            metrics.observe("pipeline.decide_s", (end_ns - start_ns) / 1e9)
            metrics.count(f"pipeline.decisions[admitted={decision.admitted}]")
        return decision

    def _decide(
        self,
        als: ApplicationLevelSpec,
        library: ImplementationLibrary | None = None,
        *,
        candidates: tuple[Region | None, ...] | None = None,
        use_interregion: bool = True,
        trace: TraceContext | None = None,
    ) -> AdmissionDecision:
        """The un-instrumented pipeline walk behind :meth:`decide`.

        ``trace`` here is the *child* context of the already-open ``decide``
        span (or ``None``); stage spans parent onto it.
        """
        tracer = self.tracer
        runtime_s = 0.0
        best: MappingResult | None = None
        if candidates is None:
            selection_start_ns = time.perf_counter_ns() if trace is not None else 0
            candidates = self.candidate_regions(als, library)
            if trace is not None:
                tracer.record(
                    "region_selection",
                    trace,
                    selection_start_ns,
                    time.perf_counter_ns(),
                    attrs={
                        "candidates": ",".join(
                            region.name if region is not None else "global"
                            for region in candidates
                        )
                    },
                )
        if not candidates:
            return AdmissionDecision(
                als.name,
                False,
                "no region can host the application (global fallback disabled)",
            )
        for region in candidates:
            if region is None and use_interregion and self.interregion is not None:
                plan_start_ns = time.perf_counter_ns() if trace is not None else 0
                planned = self.interregion.decide(als, library)
                if trace is not None:
                    tracer.record(
                        "interregion_plan",
                        trace,
                        plan_start_ns,
                        time.perf_counter_ns(),
                        attrs={"admitted": planned.admitted},
                    )
                runtime_s += planned.mapping_runtime_s
                if planned.admitted:
                    planned.mapping_runtime_s = runtime_s
                    return planned
            map_start_ns = time.perf_counter_ns() if trace is not None else 0
            result = self.map_stage(als, library, region)
            if trace is not None:
                self._trace_map_attempt(
                    trace, region, library, map_start_ns, time.perf_counter_ns(), result
                )
            runtime_s += result.runtime_s
            admissible = (
                result.status is MappingStatus.FEASIBLE
                if self.require_feasible
                else result.status.at_least(MappingStatus.ADHERENT)
            )
            if not admissible:
                if best is None or (
                    result.status.at_least(best.status)
                    and (
                        result.status is not best.status
                        or result.energy_nj_per_iteration < best.energy_nj_per_iteration
                    )
                ):
                    best = result
                continue
            commit_start_ns = time.perf_counter_ns() if trace is not None else 0
            try:
                self.commit(als, result, region)
            except PlatformError as error:
                if trace is not None:
                    tracer.record(
                        "commit",
                        trace,
                        commit_start_ns,
                        time.perf_counter_ns(),
                        attrs={"committed": False},
                    )
                return AdmissionDecision(
                    als.name,
                    False,
                    f"commit failed: {error}",
                    mapping_runtime_s=runtime_s,
                )
            if trace is not None:
                tracer.record(
                    "commit",
                    trace,
                    commit_start_ns,
                    time.perf_counter_ns(),
                    attrs={"committed": True},
                )
            return AdmissionDecision(
                als.name,
                True,
                "admitted",
                result=result,
                mapping_runtime_s=runtime_s,
            )
        assert best is not None  # candidate_regions always yields >= 1 attempt
        reason = (
            best.feasibility.reason
            if best.feasibility and best.feasibility.reason
            else f"mapping status {best.status.value}"
        )
        return AdmissionDecision(
            als.name,
            False,
            reason,
            mapping_runtime_s=runtime_s,
        )

    def _trace_map_attempt(
        self,
        trace: TraceContext,
        region: Region | None,
        library: ImplementationLibrary | None,
        start_ns: int,
        end_ns: int,
        result: MappingResult,
    ) -> None:
        """Emit the spans of one mapping attempt (map → cache lookup / steps).

        Rebuilt after the fact from the mapper's cheap, always-on
        ``perf_counter_ns`` stamps (:attr:`SpatialMapper.last_lookup` and
        ``MapperTrace.step_windows``), so the mapper itself stays free of
        tracer plumbing.  On a cache hit the mapper leaves a marked empty
        trace (``MapperTrace.cache_hit``) and only the lookup span is
        emitted.
        """
        tracer = self.tracer
        name = region.name if region is not None else "global"
        span = tracer.record(
            f"map:{name}",
            trace,
            start_ns,
            end_ns,
            attrs={"status": result.status.value},
        )
        ctx = trace.child(span.span_id)
        mapper = self.mapper_for(library)
        lookup = getattr(mapper, "last_lookup", None)
        hit = False
        if lookup is not None:
            lookup_start_ns, lookup_end_ns, hit = lookup
            tracer.record(
                "cache_lookup", ctx, lookup_start_ns, lookup_end_ns, attrs={"hit": hit}
            )
        if hit:
            return
        mapper_trace = getattr(mapper, "last_trace", None)
        if mapper_trace is None or mapper_trace.cache_hit:
            # Cache hits reset the trace to a marked empty one; nothing ran.
            return
        for step_name, step_start_ns, step_end_ns in mapper_trace.step_windows:
            tracer.record(step_name, ctx, step_start_ns, step_end_ns)

    def release(self, application: str) -> int:
        """Release every allocation of an application, transactionally.

        Teardown runs inside a (global) transaction so a partially released
        application can never survive an exception.  Cache invalidation is
        automatic: the release changes the touched regions' fingerprints, so
        entries for the pre-release state can no longer be served for the
        post-release state — while entries computed for an *earlier*
        occurrence of the post-release state become servable again, which is
        exactly the churn (start/stop/start) case the cache exists for.
        """
        regions = self._regions_of_app.get(application)
        with self.state.transaction():
            removed = self.state.release_application(application)
        if removed:
            # Journal the *logical* release into the delta chains (a replay
            # re-sums survivors exactly like the engine-side release did).
            # Unknown placement broadcasts — replaying a release of an
            # absent application is a fingerprint-preserving no-op.
            self.state.journal_release(application, regions or None)
        if self.interregion is not None:
            self.interregion.budgets.release_application(application)
        self._regions_of_app.pop(application, None)
        return removed

    def decide_interregion(
        self,
        als: ApplicationLevelSpec,
        library: ImplementationLibrary | None = None,
        *,
        scope: tuple[str, ...] | None = None,
    ) -> AdmissionDecision:
        """Run only the inter-region planner stage for one request.

        The engine's multi-region lane calls this with the request's
        planner scope; a rejection is final for this stage only — the
        caller retries through the serialized global lane.  Like
        :meth:`decide`, it returns the settled form.
        """
        if self.interregion is None:
            return AdmissionDecision(
                als.name, False, "inter-region: no planner configured"
            )
        return self.interregion.decide(als, library, scope=scope).settled()

    def regions_of(self, application: str) -> tuple[str, ...]:
        """Names of the regions a running application's allocations landed in."""
        return self._regions_of_app.get(application, ())

    def record_commit(self, application: str, mapping: Mapping) -> None:
        """Record a commit performed outside :meth:`commit`.

        Both out-of-band commit paths — the inter-region planner's corridor
        commit and the engine's fold of a worker delta — land here after
        their transaction closed, so this is also where the committed
        records enter the region delta journals.
        """
        if self.state.region_journals:
            processes, links = self.allocation_records(application, mapping)
            self.state.journal_mapping_commit(application, processes, links)
        self._note_commit(application, mapping)

    # ------------------------------------------------------------------ #
    def _note_commit(self, application: str, mapping: Mapping) -> None:
        """Record which regions the committed allocations fall into.

        The commit itself invalidates affected cache entries by changing the
        touched regions' fingerprints (entries are keyed by fingerprint, so
        a stale entry simply never matches again); entries of untouched
        regions deliberately stay live — that is what makes region sharding
        and caching compose.
        """
        self._regions_of_app[application] = self._touched_regions(mapping)

    def _touched_regions(self, mapping: Mapping) -> tuple[str, ...]:
        """Names of the regions a mapping's allocations fall into."""
        if self.partition is None:
            return ()
        names: dict[str, None] = {}
        for assignment in mapping.assignments:
            names.setdefault(self.partition.region_of_tile(assignment.tile).name)
        for route in mapping.routes:
            for position in route.path:
                region = self.partition.region_of_position(position)
                if region is not None:
                    names.setdefault(region.name)
        return tuple(names.keys())
