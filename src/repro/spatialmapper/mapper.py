"""The spatial mapper: hierarchical search with iterative refinement.

:class:`SpatialMapper` wires the four steps together.  Each refinement
iteration runs steps 1-4 in order; when a step fails it emits feedback which
the mapper translates into exclusions (banned implementations or banned
placements) before restarting from step 1 — "the feedback from a lower level
may result in a completely different mapping on a higher level in a next
iteration" (paper, section 3).  The best mapping seen so far (by status, then
energy) is kept and returned when the iteration budget runs out.
"""

from __future__ import annotations

import time

from repro.appmodel.library import ImplementationLibrary
from repro.csdf.analysis.budget import AnalysisEngine
from repro.exceptions import NoFeasibleMappingError
from repro.kpn.als import ApplicationLevelSpec
from repro.mapping.cost import manhattan_cost, mapping_energy_nj
from repro.mapping.mapping import Mapping
from repro.mapping.properties import adherence_violations
from repro.mapping.result import MappingResult, MappingStatus
from repro.platform.platform import Platform
from repro.platform.state import PlatformState
from repro.spatialmapper.cache import MapperCache
from repro.spatialmapper.config import MapperConfig
from repro.spatialmapper.feedback import ExclusionSet, Feedback, FeedbackKind
from repro.spatialmapper.rescue import rescue_search
from repro.spatialmapper.step1_implementation import select_implementations
from repro.spatialmapper.step2_tile_assignment import refine_tile_assignment
from repro.spatialmapper.step3_routing import route_channels
from repro.spatialmapper.step4_feasibility import check_feasibility
from repro.spatialmapper.trace import MapperTrace


class SpatialMapper:
    """Run-time spatial mapper for one platform and implementation library.

    The mapper is stateless between calls: every :meth:`map` call receives
    the application and the *current* platform state and returns a
    :class:`~repro.mapping.result.MappingResult`; committing the resulting
    allocations is the job of the run-time resource manager
    (:mod:`repro.runtime`).
    """

    def __init__(
        self,
        platform: Platform,
        library: ImplementationLibrary,
        config: MapperConfig | None = None,
        *,
        cache: MapperCache | None = None,
        analysis: AnalysisEngine | None = None,
    ) -> None:
        self.platform = platform
        self.library = library
        self.config = config or MapperConfig()
        #: Optional fingerprint-keyed result cache; when set, :meth:`map`
        #: serves repeated (application, region, state-fingerprint) questions
        #: without re-running the search.
        self.cache = cache
        #: Shared step-4 analysis engine (simulation cache, cycle exit,
        #: budgets).  Passing one in shares its verdict cache across mappers;
        #: by default each mapper owns a fresh engine built from its config.
        self.analysis = analysis if analysis is not None else AnalysisEngine.from_config(self.config)
        #: Trace of the most recent :meth:`map` call (step-2 iterations, feedback log).
        #: A cache hit resets this to an empty trace with
        #: :attr:`~repro.spatialmapper.trace.MapperTrace.cache_hit` set, so
        #: step windows and rescue counters can never be attributed to the
        #: wrong request.
        self.last_trace: MapperTrace = MapperTrace()
        #: ``(start_ns, end_ns, hit)`` of the most recent call's cache
        #: lookup, or ``None`` when caching is disabled.  Consumers (the
        #: admission pipeline's tracer) use ``hit`` to know whether
        #: :attr:`last_trace` belongs to this call or is a stale leftover
        #: of the last computed one.
        self.last_lookup: tuple[int, int, bool] | None = None

    # ------------------------------------------------------------------ #
    def map(
        self,
        als: ApplicationLevelSpec,
        state: PlatformState | None = None,
        *,
        region=None,
        raise_on_failure: bool = False,
    ) -> MappingResult:
        """Produce a spatial mapping for ``als`` given the current platform state.

        Parameters
        ----------
        als:
            The application to start.
        state:
            Current allocations of already-running applications; ``None``
            means an idle platform.
        region:
            Optional :class:`~repro.platform.regions.Region` restriction:
            processes are only placed on the region's tiles and channels only
            routed over the region's routers.  A region-restricted search is
            bit-identical for identical region states, which is what makes
            the result cacheable per (application, region fingerprint).
        raise_on_failure:
            When ``True``, raise
            :class:`~repro.exceptions.NoFeasibleMappingError` instead of
            returning a non-feasible result.
        """
        start_time = time.perf_counter()
        state = state if state is not None else PlatformState(self.platform)

        cache_key = None
        self.last_lookup = None
        if self.cache is not None:
            lookup_start_ns = time.perf_counter_ns()
            fingerprint = (
                region.fingerprint(state) if region is not None else state.fingerprint()
            )
            cache_key = MapperCache.key(
                als.name, region.name if region is not None else None, fingerprint
            )
            cached = self.cache.lookup(cache_key, als, self.library)
            self.last_lookup = (
                lookup_start_ns,
                time.perf_counter_ns(),
                cached is not None,
            )
            if cached is not None:
                # ``lookup`` returns a fresh clone, so stamping the runtime
                # never rewrites the stored entry (pinned by regression test).
                cached.runtime_s = time.perf_counter() - start_time
                self.last_trace = MapperTrace(cache_hit=True)
                if raise_on_failure and cached.status is not MappingStatus.FEASIBLE:
                    raise NoFeasibleMappingError(
                        f"no feasible mapping found for application {als.name!r}: "
                        + (
                            cached.feasibility.reason
                            if cached.feasibility
                            else cached.status.value
                        )
                    )
                return cached

        exclusions = ExclusionSet()
        trace = MapperTrace()
        analysis_before = self.analysis.snapshot()
        best: MappingResult | None = None
        diagnostics: list[str] = []

        for iteration in range(1, self.config.max_feedback_iterations + 1):
            trace.refinement_iterations = iteration
            candidate = self._single_pass(
                als, state, exclusions, trace, diagnostics, region
            )
            candidate.iterations = iteration
            best = self._better(best, candidate)
            if candidate.status is MappingStatus.FEASIBLE:
                best = candidate
                break
            if not self._apply_feedback(candidate, exclusions, trace, diagnostics):
                diagnostics.append(
                    f"iteration {iteration}: no applicable feedback left; stopping refinement"
                )
                break

        assert best is not None
        if (
            best.status is not MappingStatus.FEASIBLE
            and self.config.rescue_searchers > 0
            and self.config.run_feasibility_analysis
        ):
            best = self._rescue(als, state, region, best, trace, diagnostics)
        best.runtime_s = time.perf_counter() - start_time
        best.diagnostics = diagnostics + best.diagnostics
        analysis_after = self.analysis.snapshot()
        trace.simulations_run = analysis_after["simulations_run"] - analysis_before["simulations_run"]
        trace.simulated_events = analysis_after["simulated_events"] - analysis_before["simulated_events"]
        trace.analysis_cache_hits = analysis_after["cache_hits"] - analysis_before["cache_hits"]
        self.last_trace = trace
        if cache_key is not None:
            self.cache.store(cache_key, als, self.library, best)
        if raise_on_failure and best.status is not MappingStatus.FEASIBLE:
            raise NoFeasibleMappingError(
                f"no feasible mapping found for application {als.name!r}: "
                + (best.feasibility.reason if best.feasibility else best.status.value)
            )
        return best

    # ------------------------------------------------------------------ #
    def _rescue(
        self,
        als: ApplicationLevelSpec,
        state: PlatformState,
        region,
        best: MappingResult,
        trace: MapperTrace,
        diagnostics: list[str],
    ) -> MappingResult:
        """Run the stochastic rescue lane and adopt its result if feasible.

        Called when the refinement loop ends without a feasible mapping (see
        :mod:`repro.spatialmapper.rescue`).  Seeds derive from the same
        fingerprint the cache keys on, so the lane is deterministic per
        request and its outcome stays cacheable.
        """
        step_start_ns = time.perf_counter_ns()
        fingerprint = (
            region.fingerprint(state) if region is not None else state.fingerprint()
        )
        outcome = rescue_search(
            als,
            self.platform,
            self.library,
            state,
            config=self.config,
            analysis=self.analysis,
            region=region,
            fingerprint=fingerprint,
        )
        trace.step_windows.append(
            ("mapper.rescue", step_start_ns, time.perf_counter_ns())
        )
        trace.rescue_searchers_run = outcome.searchers_run
        trace.rescue_candidates = outcome.candidates
        trace.rescue_energy_cut = outcome.energy_cut
        trace.rescue_floor_cut = outcome.floor_cut
        trace.rescue_feasible = outcome.feasible_found
        trace.rescue_budget_exhausted = outcome.budget_exhausted
        if outcome.result is not None:
            trace.rescue_adopted = True
            outcome.result.iterations = best.iterations
            diagnostics.append(
                f"rescue: adopted seeded random placement "
                f"({outcome.feasible_found} feasible of {outcome.candidates} candidates, "
                f"{outcome.events_used} analysis events)"
            )
            return outcome.result
        diagnostics.append(
            f"rescue: no feasible placement among {outcome.candidates} candidates"
            + (" (budget exhausted)" if outcome.budget_exhausted else "")
        )
        return best

    # ------------------------------------------------------------------ #
    def _single_pass(
        self,
        als: ApplicationLevelSpec,
        state: PlatformState,
        exclusions: ExclusionSet,
        trace: MapperTrace,
        diagnostics: list[str],
        region=None,
    ) -> MappingResult:
        """One pass through steps 1-4 under the current exclusions."""
        allowed_tiles = frozenset(region.tile_names) if region is not None else None
        allowed_positions = region.positions if region is not None else None

        # Step 1 — implementations and first-fit tiles.
        step_start_ns = time.perf_counter_ns()
        step1 = select_implementations(
            als,
            self.platform,
            self.library,
            state=state,
            config=self.config,
            exclusions=exclusions,
            allowed_tiles=allowed_tiles,
        )
        trace.step_windows.append(
            ("mapper.step1", step_start_ns, time.perf_counter_ns())
        )
        if not step1.succeeded:
            for feedback in step1.feedback:
                diagnostics.append(f"step 1: {feedback.message}")
            return self._result_for(step1.mapping, als, state, MappingStatus.FAILED, step1.feedback)

        # Step 2 — local-search refinement of the tile assignment.
        step_start_ns = time.perf_counter_ns()
        step2 = refine_tile_assignment(
            step1.mapping,
            als,
            self.platform,
            state=state,
            config=self.config,
            exclusions=exclusions,
            allowed_tiles=allowed_tiles,
        )
        trace.step2_traces.append(step2.trace)
        trace.step_windows.append(
            ("mapper.step2", step_start_ns, time.perf_counter_ns())
        )

        # Step 3 — channel routing.
        step_start_ns = time.perf_counter_ns()
        step3 = route_channels(
            step2.mapping,
            als,
            self.platform,
            state=state,
            config=self.config,
            allowed_positions=allowed_positions,
        )
        trace.step_windows.append(
            ("mapper.step3", step_start_ns, time.perf_counter_ns())
        )
        if not step3.succeeded:
            for feedback in step3.feedback:
                diagnostics.append(f"step 3: {feedback.message}")
            return self._result_for(
                step3.mapping, als, state, MappingStatus.ADEQUATE, step3.feedback
            )

        violations = adherence_violations(
            step3.mapping, self.platform, self.library, state, als
        )
        if violations:
            feedback = [
                Feedback(kind=FeedbackKind.INADHERENT, step=3, message=v) for v in violations
            ]
            diagnostics.extend(f"adherence: {v}" for v in violations)
            return self._result_for(step3.mapping, als, state, MappingStatus.ADEQUATE, feedback)

        # Step 4 — QoS feasibility on the mapped CSDF graph.
        if not self.config.run_feasibility_analysis:
            # The caller analyses feasibility itself (e.g. on a composed
            # multi-region graph); adherent is the best this pass can claim.
            return self._result_for(step3.mapping, als, state, MappingStatus.ADHERENT, [])
        step_start_ns = time.perf_counter_ns()
        step4 = check_feasibility(
            step3.mapping,
            als,
            self.platform,
            self.library,
            state=state,
            config=self.config,
            analysis=self.analysis,
        )
        trace.step_windows.append(
            ("mapper.step4", step_start_ns, time.perf_counter_ns())
        )
        trace.step4_floor_rejections += step4.floor_overflow
        status = MappingStatus.FEASIBLE if step4.feasible else MappingStatus.ADHERENT
        if not step4.feasible:
            diagnostics.append(f"step 4: {step4.report.reason}")
        result = self._result_for(step4.mapping, als, state, status, step4.feedback)
        result.feasibility = step4.report
        result.mapped_csdf = step4.mapped_csdf
        return result

    # ------------------------------------------------------------------ #
    def _result_for(
        self,
        mapping: Mapping,
        als: ApplicationLevelSpec,
        state: PlatformState,
        status: MappingStatus,
        feedback: list[Feedback],
    ) -> MappingResult:
        """Assemble a :class:`MappingResult` with costs for a (partial) mapping."""
        result = MappingResult(
            mapping=mapping,
            status=status,
            energy_nj_per_iteration=mapping_energy_nj(
                mapping, als, self.platform, self.config.cost_model
            ),
            manhattan_cost=manhattan_cost(mapping, als, self.platform),
        )
        result.diagnostics = [f.message for f in feedback]
        result.pending_feedback = feedback
        return result

    def _better(
        self, best: MappingResult | None, candidate: MappingResult
    ) -> MappingResult:
        """The better of two results: higher status first, lower energy second."""
        if best is None:
            return candidate
        if candidate.status.at_least(best.status) and candidate.status is not best.status:
            return candidate
        if candidate.status is best.status and (
            candidate.energy_nj_per_iteration < best.energy_nj_per_iteration
        ):
            return candidate
        return best

    def _apply_feedback(
        self,
        result: MappingResult,
        exclusions: ExclusionSet,
        trace: MapperTrace,
        diagnostics: list[str],
    ) -> bool:
        """Translate the feedback of a failed pass into exclusions.

        Returns ``True`` when at least one new exclusion was added (so a new
        refinement iteration is worthwhile), ``False`` otherwise.
        """
        feedback_list: list[Feedback] = result.pending_feedback
        added = False
        for feedback in feedback_list:
            if feedback.kind is FeedbackKind.THROUGHPUT_VIOLATED and feedback.culprit_process:
                if feedback.culprit_tile_type and exclusions.implementation_allowed(
                    feedback.culprit_process, feedback.culprit_tile_type
                ):
                    exclusions.ban_implementation(
                        feedback.culprit_process, feedback.culprit_tile_type
                    )
                    message = (
                        f"feedback: banning implementation of {feedback.culprit_process!r} on "
                        f"tile type {feedback.culprit_tile_type!r} (throughput bottleneck)"
                    )
                    trace.record_feedback(message)
                    diagnostics.append(message)
                    added = True
            elif feedback.kind is FeedbackKind.ROUTING_FAILED and feedback.culprit_process:
                tile = feedback.culprit_tile or (
                    result.mapping.tile_of(feedback.culprit_process)
                    if result.mapping.is_assigned(feedback.culprit_process)
                    else None
                )
                if tile and exclusions.placement_allowed(feedback.culprit_process, tile):
                    exclusions.ban_placement(feedback.culprit_process, tile)
                    message = (
                        f"feedback: banning placement of {feedback.culprit_process!r} on tile "
                        f"{tile!r} (routing failed)"
                    )
                    trace.record_feedback(message)
                    diagnostics.append(message)
                    added = True
            elif feedback.kind is FeedbackKind.BUFFER_OVERFLOW and feedback.culprit_tile:
                for process in result.mapping.processes_on(feedback.culprit_tile):
                    assignment = result.mapping.assignment(process)
                    if assignment.implementation is None:
                        continue
                    if exclusions.placement_allowed(process, feedback.culprit_tile):
                        exclusions.ban_placement(process, feedback.culprit_tile)
                        message = (
                            f"feedback: banning placement of {process!r} on tile "
                            f"{feedback.culprit_tile!r} (buffer overflow)"
                        )
                        trace.record_feedback(message)
                        diagnostics.append(message)
                        added = True
                        break
            elif feedback.kind is FeedbackKind.INADHERENT and feedback.culprit_process:
                if result.mapping.is_assigned(feedback.culprit_process):
                    tile = result.mapping.tile_of(feedback.culprit_process)
                    if exclusions.placement_allowed(feedback.culprit_process, tile):
                        exclusions.ban_placement(feedback.culprit_process, tile)
                        message = (
                            f"feedback: banning placement of {feedback.culprit_process!r} "
                            f"on tile {tile!r} (inadherent)"
                        )
                        trace.record_feedback(message)
                        diagnostics.append(message)
                        added = True
        return added
