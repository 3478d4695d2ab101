"""The stochastic rescue lane, plus the mapper feedback/trace bugfixes.

Covers the rescue lane itself (seeding and the name-free shape fingerprint
it derives from, adoption, rollback, replay determinism, cacheability, the
energy bound before routing), the
feedback-recording symmetry of ``_apply_feedback`` (every branch must log
to *both* the trace and the diagnostics — the INADHERENT branch used to
record neither), and the
cache-hit fixes (``last_trace`` resets to a marked empty trace; hits are
clones whose stored ``runtime_s`` is never overwritten).
"""

import dataclasses
import random
from collections import deque
from dataclasses import replace

import pytest

from repro.appmodel.library import ImplementationLibrary
from repro.csdf.analysis.budget import AnalysisEngine
from repro.exceptions import ConfigurationError
from repro.kpn.als import ApplicationLevelSpec
from repro.kpn.graph import KPNGraph
from repro.mapping.assignment import ProcessAssignment
from repro.mapping.cost import mapping_energy_lower_bound_nj, mapping_energy_nj
from repro.mapping.mapping import Mapping
from repro.mapping.result import MappingStatus
from repro.obs.metrics import MetricsRegistry
from repro.platform.builder import PlatformBuilder
from repro.platform.regions import RegionPartition
from repro.platform.state import PlatformState
from repro.platform.topology import build_torus_noc
from repro.runtime.manager import RuntimeResourceManager
from repro.spatialmapper import rescue as rescue_module
from repro.spatialmapper.cache import MapperCache
from repro.spatialmapper.config import MapperConfig
from repro.spatialmapper.feedback import ExclusionSet, Feedback, FeedbackKind
from repro.spatialmapper.mapper import SpatialMapper
from repro.spatialmapper.rescue import rescue_search, rescue_seed, shape_fingerprint
from repro.spatialmapper.step4_feasibility import check_feasibility
from repro.spatialmapper.trace import MapperTrace
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_application,
    generate_region_mesh,
)
from tests.harness import make_app

BASE = MapperConfig(analysis_iterations=3)
RESCUE = replace(BASE, rescue_searchers=6, rescue_attempts=4)


def packing_app(seed, name="app", io_tile="io_r0_0", stages=4):
    """A memory-heavy application for the packing regime (see fixture)."""
    config = SyntheticConfig(
        stages=stages,
        period_ns=60_000.0,
        tokens_range=(16, 64),
        tile_types=("GPP", "DSP"),
        memory_choices=(2048, 4096, 8192, 12288),
    )
    return generate_application(
        seed, config, name=name, source_tile=io_tile, sink_tile=io_tile
    )


def assignments_of(result):
    """Name-level view of a mapping for equality assertions."""
    return sorted(
        (
            a.process,
            a.tile,
            a.implementation.tile_type if a.implementation else None,
        )
        for a in result.mapping.assignments
    )


def packing_rejections(arrivals=120):
    """The applications a greedy manager rejects in a deterministic churny
    arrival sequence on a multi-slot, memory-tight mesh, as
    ``(arrival, platform, state, region, app)`` with the live state.

    This is the packing regime where the first-fit front end strands memory
    and channel buffers overflow placement-dependently.  Everything is
    seeded, so every run meets the same (state, application) pairs.
    """
    platform = generate_region_mesh(
        2, 3, max_processes_per_tile=4, tile_memory_bytes=16 * 1024
    )
    partition = RegionPartition.grid(platform, 2, 2)
    manager = RuntimeResourceManager(platform, config=BASE, partition=partition)
    running = deque()
    rng = random.Random(7)
    cells = [(0, 0), (1, 0), (0, 1), (1, 1)]
    for index in range(1, arrivals + 1):
        while len(running) >= 12:
            manager.stop(running.popleft())
        cell = cells[(index - 1) % 4]
        io_tile = f"io_r{cell[0]}_{cell[1]}"
        app = packing_app(
            900 + index,
            name=f"app{index}",
            io_tile=io_tile,
            stages=rng.choice((3, 4, 5, 6)),
        )
        decision = manager.admit(app.als, library=app.library)
        if decision.admitted:
            running.append(app.als.name)
            continue
        region = next(r for r in partition.regions if io_tile in r.tile_names)
        yield index, platform, manager.state, region, app


@pytest.fixture(scope="module")
def rescue_case():
    """A live platform state plus an application the greedy mapper rejects
    but the rescue lane admits: the first such arrival of
    :func:`packing_rejections`."""
    for _, platform, state, region, app in packing_rejections():
        mapper = SpatialMapper(platform, app.library, RESCUE)
        result = mapper.map(app.als, state, region=region)
        if result.status is MappingStatus.FEASIBLE:
            return platform, state, region, app
    pytest.fail("no rescueable rejection found in 120 arrivals")


#: The rescue lane under the 20 000-event ledger of the packing benchmark.
LEDGER = replace(RESCUE, rescue_budget=20_000)


@pytest.fixture(scope="module")
def exhausting_case():
    """Arrival 35 of :func:`packing_rejections`.  Under :data:`LEDGER`, when
    every candidate past the energy bound still reached step 4, its rescue
    call ran out of events after 11 candidates."""
    for index, platform, state, region, app in packing_rejections(35):
        if index == 35:
            return platform, state, region, app
    pytest.fail("arrival 35 was admitted without rescue")


class TestRescueSeed:
    def test_replay_deterministic(self):
        app = packing_app(5)
        fingerprint = ("state", 123)
        first = rescue_seed(app.als, app.library, fingerprint, 0)
        assert rescue_seed(app.als, app.library, fingerprint, 0) == first
        assert rescue_seed(app.als, app.library, fingerprint, 1) != first

    def test_rename_stable(self):
        """Identically-shaped applications draw identical seeds regardless
        of their names — the seed sees only the name-free shape fingerprint."""
        alpha = packing_app(5, name="alpha")
        beta = packing_app(5, name="beta")
        fingerprint = ("state", 123)
        for searcher in range(4):
            assert rescue_seed(
                alpha.als, alpha.library, fingerprint, searcher
            ) == rescue_seed(beta.als, beta.library, fingerprint, searcher)

    def test_state_fingerprint_enters_the_seed(self):
        app = packing_app(5)
        assert rescue_seed(app.als, app.library, ("state", 1), 0) != rescue_seed(
            app.als, app.library, ("state", 2), 0
        )


def renamed_copy(app, suffix="_renamed"):
    """The same application with every process (and channel) renamed."""
    mapping = {p.name: f"{p.name}{suffix}" for p in app.als.kpn.processes}
    kpn = KPNGraph(f"{app.als.kpn.name}{suffix}")
    for process in app.als.kpn.processes:
        kpn.add_process(dataclasses.replace(process, name=mapping[process.name]))
    for channel in app.als.kpn.channels:
        kpn.add_channel(
            dataclasses.replace(
                channel,
                name=f"{channel.name}{suffix}",
                source=mapping[channel.source],
                target=mapping[channel.target],
            )
        )
    library = ImplementationLibrary(
        dataclasses.replace(
            implementation, process=mapping[implementation.process], name=""
        )
        for implementation in app.library.implementations()
    )
    als = ApplicationLevelSpec(kpn=kpn, qos=app.als.qos, name=f"{app.als.name}{suffix}")
    return als, library


class TestShapeFingerprint:
    def test_stable_under_renaming(self):
        app = make_app(7, "original", "io_l")
        als, library = renamed_copy(app)
        assert shape_fingerprint(app.als, app.library) == shape_fingerprint(als, library)

    def test_differs_for_different_shapes(self):
        left = make_app(7, "one", "io_l")
        right = make_app(8, "two", "io_l")
        assert shape_fingerprint(left.als, left.library) != shape_fingerprint(
            right.als, right.library
        )

    def test_sensitive_to_pinned_tile(self):
        left = make_app(7, "one", "io_l")
        right = make_app(7, "one", "io_r")
        assert shape_fingerprint(left.als, left.library) != shape_fingerprint(
            right.als, right.library
        )


class TestRescueLane:
    def test_greedy_fails_but_rescue_adopts(self, rescue_case):
        platform, state, region, app = rescue_case
        greedy = SpatialMapper(platform, app.library, BASE).map(
            app.als, state, region=region
        )
        assert greedy.status is not MappingStatus.FEASIBLE

        mapper = SpatialMapper(platform, app.library, RESCUE)
        result = mapper.map(app.als, state, region=region)
        assert result.status is MappingStatus.FEASIBLE
        trace = mapper.last_trace
        assert trace.rescue_adopted
        assert trace.rescue_searchers_run >= 1
        assert trace.rescue_candidates >= trace.rescue_feasible >= 1
        assert any(d.startswith("rescue: adopted") for d in result.diagnostics)
        assert any(name == "mapper.rescue" for name, _, _ in trace.step_windows)

    def test_replay_is_bit_identical(self, rescue_case):
        platform, state, region, app = rescue_case
        first = SpatialMapper(platform, app.library, RESCUE)
        second = SpatialMapper(platform, app.library, RESCUE)
        result_a = first.map(app.als, state, region=region)
        result_b = second.map(app.als, state, region=region)
        assert assignments_of(result_a) == assignments_of(result_b)
        assert result_a.energy_nj_per_iteration == result_b.energy_nj_per_iteration
        for counter in (
            "rescue_searchers_run",
            "rescue_candidates",
            "rescue_feasible",
            "rescue_adopted",
            "rescue_budget_exhausted",
        ):
            assert getattr(first.last_trace, counter) == getattr(
                second.last_trace, counter
            )

    def test_scratch_transactions_leave_state_untouched(self, rescue_case):
        platform, state, region, app = rescue_case
        before = state.fingerprint()
        SpatialMapper(platform, app.library, RESCUE).map(app.als, state, region=region)
        assert state.fingerprint() == before

    def test_disabled_by_default_changes_nothing(self, rescue_case):
        """``rescue_searchers=0`` (the default) must be decision-inert: the
        result is the plain refinement-loop result, untouched."""
        platform, state, region, app = rescue_case
        mapper = SpatialMapper(platform, app.library, BASE)
        result = mapper.map(app.als, state, region=region)
        assert result.status is not MappingStatus.FEASIBLE
        assert mapper.last_trace.rescue_searchers_run == 0
        assert not mapper.last_trace.rescue_adopted
        assert not any(d.startswith("rescue:") for d in result.diagnostics)
        assert not any(
            name == "mapper.rescue" for name, _, _ in mapper.last_trace.step_windows
        )

    def test_rescued_result_is_cacheable(self, rescue_case):
        platform, state, region, app = rescue_case
        cache = MapperCache()
        mapper = SpatialMapper(platform, app.library, RESCUE, cache=cache)
        computed = mapper.map(app.als, state, region=region)
        assert computed.status is MappingStatus.FEASIBLE
        hit = mapper.map(app.als, state, region=region)
        assert cache.stats.hits == 1
        assert hit.status is MappingStatus.FEASIBLE
        assert assignments_of(hit) == assignments_of(computed)
        assert mapper.last_trace.cache_hit


def run_rescue(platform, state, region, app, config=RESCUE):
    """One rescue-lane call on a fresh analysis engine."""
    return rescue_search(
        app.als,
        platform,
        app.library,
        state,
        config=config,
        analysis=AnalysisEngine.from_config(config),
        region=region,
        fingerprint=region.fingerprint(state) if region is not None else None,
    )


class TestBoundBeforeRouting:
    """The energy bound cuts candidates before routing without changing
    what the lane decides, counts or charges."""

    def test_outcome_equals_the_values_pinned_before_the_bound(self, rescue_case):
        """Captured on the lane that routed every candidate and cut only
        after costing the routed mapping."""
        platform, state, region, app = rescue_case
        outcome = run_rescue(platform, state, region, app)
        assert outcome.searchers_run == 6
        assert outcome.candidates == 24
        assert outcome.feasible_found == 4
        assert outcome.events_used == 12227
        assert not outcome.budget_exhausted
        result = outcome.result
        assert assignments_of(result) == [
            ("k0", "gpp6", "GPP"),
            ("k1", "dsp7", "DSP"),
            ("k2", "gpp1", "GPP"),
            ("k3", "dsp7", "DSP"),
            ("k4", "gpp11", "GPP"),
            ("sink", "io_r0_0", None),
            ("source", "io_r0_0", None),
        ]
        assert result.energy_nj_per_iteration == float.fromhex("0x1.552a9eac6f5dap+10")
        assert result.manhattan_cost == 12.0
        assert sorted((r.channel, r.path) for r in result.mapping.routes) == [
            ("c0_source_k0", ((0, 0), (0, 1), (1, 1))),
            ("c1_k0_k1", ((1, 1), (2, 1))),
            ("c2_k1_k2", ((2, 1), (1, 1), (1, 0))),
            ("c3_k2_k3", ((1, 0), (1, 1), (2, 1))),
            ("c4_k3_k4", ((2, 1), (1, 1), (0, 1), (0, 2))),
            ("c5_k4_sink", ((0, 2), (0, 1), (0, 0))),
        ]

    def test_a_cut_candidate_never_reaches_routing(self, rescue_case, monkeypatch):
        platform, state, region, app = rescue_case
        candidates: list[dict] = []
        best: list[float] = []

        def placement(*args, **kwargs):
            mapping = real_placement(*args, **kwargs)
            if mapping is not None:
                candidates.append({"routed": False, "cut": False})
            return mapping

        def bound(*args, **kwargs):
            value = real_bound(*args, **kwargs)
            candidates[-1]["cut"] = value >= best[-1]
            return value

        def route(*args, **kwargs):
            candidates[-1]["routed"] = True
            return real_route(*args, **kwargs)

        def evaluate(*args, **kwargs):
            result = real_evaluate(*args, **kwargs)
            if result is not None:
                best.append(result.energy_nj_per_iteration)
            return result

        real_placement = rescue_module._random_placement
        real_bound = rescue_module.mapping_energy_lower_bound_nj
        real_route = rescue_module.route_channels
        real_evaluate = rescue_module._evaluate
        monkeypatch.setattr(rescue_module, "_random_placement", placement)
        monkeypatch.setattr(rescue_module, "mapping_energy_lower_bound_nj", bound)
        monkeypatch.setattr(rescue_module, "route_channels", route)
        monkeypatch.setattr(rescue_module, "_evaluate", evaluate)
        outcome = run_rescue(platform, state, region, app)

        assert len(candidates) == outcome.candidates == 24
        cut = [c for c in candidates if c["cut"]]
        assert len(cut) == 20
        assert not any(c["routed"] for c in cut)
        assert all(c["routed"] for c in candidates if not c["cut"])

    def test_a_wrapped_route_below_manhattan_is_not_cut(self, monkeypatch):
        """On a torus the wrap-around link makes ``far`` one hop from the
        I/O tile, three fewer than Manhattan.  Placed second, behind a
        feasible placement on ``near`` (two hops), it is cheaper once
        routed, so the bound must keep it; a Manhattan bound would cut it."""
        platform = (
            PlatformBuilder("torus")
            .noc(build_torus_noc(5, 3))
            .tile_type("IO", is_processing=False)
            .tile_type("GPP")
            .tile("io", "IO", (0, 0))
            .tile("near", "GPP", (2, 0), max_processes=4)
            .tile("far", "GPP", (4, 0), max_processes=4)
            .build()
        )
        app = generate_application(
            3,
            SyntheticConfig(stages=2, period_ns=1e6, tile_types=("GPP",)),
            source_tile="io",
            sink_tile="io",
        )

        def placed_on(tile):
            mapping = Mapping(app.als.name)
            for process in app.als.kpn.pinned_processes():
                mapping.assign(ProcessAssignment(process.name, process.pinned_tile))
            for process in app.als.kpn.mappable_processes():
                (implementation,) = app.library.implementations_for(process.name)
                mapping.assign(ProcessAssignment(process.name, tile, implementation))
            return mapping

        near, far = placed_on("near"), placed_on("far")
        proposals = iter([near, far])
        monkeypatch.setattr(
            rescue_module, "_random_placement", lambda *args: next(proposals, None)
        )
        routed = []
        real_route = rescue_module.route_channels
        monkeypatch.setattr(
            rescue_module,
            "route_channels",
            lambda mapping, *args, **kwargs: routed.append(mapping)
            or real_route(mapping, *args, **kwargs),
        )
        config = replace(BASE, rescue_searchers=1, rescue_attempts=2)
        outcome = run_rescue(platform, PlatformState(platform), None, app, config)

        assert routed == [near, far]
        assert outcome.feasible_found == 2
        assert {a.tile for a in outcome.result.mapping.assignments} == {"io", "far"}
        near_energy = mapping_energy_nj(near, app.als, platform, config.cost_model)
        # On the idle torus every channel routes on a shortest path, so the
        # bound is tight; the Manhattan energy lies above the near placement.
        assert mapping_energy_lower_bound_nj(
            far, app.als, platform, config.cost_model
        ) == outcome.result.energy_nj_per_iteration < near_energy
        assert mapping_energy_nj(far, app.als, platform, config.cost_model) > near_energy


#: Arrival 35's rescue call under :data:`LEDGER` when every candidate past
#: the energy bound reached step 4: it analysed 11 candidates before the
#: ledger ran out and adopted this energy.
LEDGER_CANDIDATES_WITHOUT_FLOOR = 11
LEDGER_ENERGY_WITHOUT_FLOOR = float.fromhex("0x1.542a4ca0e2154p+10")


class TestFloorBeforeRouting:
    """The stream-buffer floor cuts placements whose buffers cannot fit
    before routing them, so the ledger pays only for candidates that can
    still be feasible."""

    def test_the_ledger_lasts_for_more_candidates(self, exhausting_case):
        outcome = run_rescue(*exhausting_case, config=LEDGER)
        assert not outcome.budget_exhausted
        assert outcome.candidates == 24 >= LEDGER_CANDIDATES_WITHOUT_FLOOR
        energy = outcome.result.energy_nj_per_iteration
        assert energy == float.fromhex("0x1.384c2946adb38p+10")
        assert energy <= LEDGER_ENERGY_WITHOUT_FLOOR
        assert outcome.feasible_found == 2
        assert outcome.events_used == 7260

    def test_cuts_and_analysed_candidates_add_up(self, exhausting_case, monkeypatch):
        analysed = []
        real_evaluate = rescue_module._evaluate
        monkeypatch.setattr(
            rescue_module,
            "_evaluate",
            lambda *args, **kwargs: analysed.append(args[0])
            or real_evaluate(*args, **kwargs),
        )
        outcome = run_rescue(*exhausting_case, config=LEDGER)
        assert (outcome.energy_cut, outcome.floor_cut, len(analysed)) == (14, 8, 2)
        assert outcome.energy_cut + outcome.floor_cut + len(analysed) == outcome.candidates

    def test_a_floor_cut_candidate_never_reaches_routing(
        self, exhausting_case, monkeypatch
    ):
        candidates: list[dict] = []

        def placement(*args, **kwargs):
            mapping = real_placement(*args, **kwargs)
            if mapping is not None:
                candidates.append({"mapping": mapping, "floor": None, "routed": False})
            return mapping

        def floor(*args, **kwargs):
            overflow = real_floor(*args, **kwargs)
            candidates[-1]["floor"] = overflow or False
            return overflow

        def route(*args, **kwargs):
            candidates[-1]["routed"] = True
            return real_route(*args, **kwargs)

        real_placement = rescue_module._random_placement
        real_floor = rescue_module.stream_buffer_floor_overflow
        real_route = rescue_module.route_channels
        monkeypatch.setattr(rescue_module, "_random_placement", placement)
        monkeypatch.setattr(rescue_module, "stream_buffer_floor_overflow", floor)
        monkeypatch.setattr(rescue_module, "route_channels", route)
        outcome = run_rescue(*exhausting_case, config=LEDGER)

        assert len(candidates) == outcome.candidates
        cut = [c for c in candidates if c["floor"]]
        assert len(cut) == outcome.floor_cut == 8
        assert not any(c["routed"] for c in cut)
        assert all(c["routed"] for c in candidates if c["floor"] is False)

        # Every cut placement that routes ends in step 4's floor overflow,
        # on the tile the cut named.
        platform, state, region, app = exhausting_case
        monkeypatch.undo()
        checked = 0
        for candidate in cut:
            step3 = real_route(
                candidate["mapping"], app.als, platform,
                state=state, allowed_positions=region.positions,
            )
            if not step3.succeeded:
                continue
            step4 = check_feasibility(
                step3.mapping, app.als, platform, app.library, state=state, config=LEDGER
            )
            if step4.report.achieved_period_ns > app.als.period_ns:
                continue
            assert step4.floor_overflow
            assert step4.feedback[0].culprit_tile == candidate["floor"][0]
            checked += 1
        assert checked

    def test_trace_and_pipeline_count_the_cuts(self, exhausting_case):
        platform, state, region, app = exhausting_case
        mapper = SpatialMapper(platform, app.library, LEDGER)
        result = mapper.map(app.als, state, region=region)
        assert result.status is MappingStatus.FEASIBLE
        trace = mapper.last_trace
        assert trace.rescue_adopted and not trace.rescue_budget_exhausted
        assert (
            trace.rescue_candidates,
            trace.rescue_energy_cut,
            trace.rescue_floor_cut,
        ) == (24, 14, 8)

        pipeline = RuntimeResourceManager(platform, config=LEDGER).pipeline
        pipeline.metrics = MetricsRegistry()
        pipeline._count_rescue_metrics(mapper)
        counters = {
            name: pipeline.metrics.counter_value(f"mapper.rescue.{name}")
            for name in ("candidates", "energy_cut", "floor_cut", "adopted")
        }
        assert counters == {
            "candidates": 24.0, "energy_cut": 14.0, "floor_cut": 8.0, "adopted": 1.0,
        }


class TestCacheHitTraceAndRuntime:
    """Satellites: cache hits reset ``last_trace`` to a marked empty trace,
    are served as clones, and never overwrite the stored ``runtime_s``."""

    @pytest.fixture()
    def cached_mapper(self):
        app = packing_app(1, stages=3)
        platform = generate_region_mesh(2, 2)
        mapper = SpatialMapper(platform, app.library, BASE, cache=MapperCache())
        return mapper, app

    def test_cache_hit_resets_last_trace_to_marked_empty(self, cached_mapper):
        mapper, app = cached_mapper
        mapper.map(app.als)
        computed_trace = mapper.last_trace
        assert not computed_trace.cache_hit
        assert computed_trace.step_windows

        mapper.map(app.als)
        trace = mapper.last_trace
        assert trace.cache_hit
        assert trace is not computed_trace
        assert trace.step_windows == []
        assert trace.refinement_iterations == 0
        assert trace.rescue_searchers_run == 0
        assert mapper.last_lookup is not None and mapper.last_lookup[2]

    def test_hits_are_clones_and_stored_runtime_survives(self, cached_mapper):
        mapper, app = cached_mapper
        computed = mapper.map(app.als)
        key = MapperCache.key(
            app.als.name, None, PlatformState(mapper.platform).fingerprint()
        )
        stored_runtime = mapper.cache._entries[key].result.runtime_s
        assert stored_runtime == computed.runtime_s

        hit = mapper.map(app.als)
        assert hit is not computed
        assert hit.mapping is not computed.mapping
        # The hit's runtime is stamped fresh on the clone...
        hit.runtime_s = 123.0
        hit.diagnostics.append("junk")
        # ...and neither the stamp nor any caller mutation reaches the
        # stored entry or later hits.
        assert mapper.cache._entries[key].result.runtime_s == stored_runtime
        second = mapper.map(app.als)
        assert second.runtime_s != 123.0
        assert "junk" not in second.diagnostics


class TestFeedbackRecordingSymmetry:
    """Every ``_apply_feedback`` branch that adds an exclusion must record
    the same message in the trace's feedback log *and* the diagnostics —
    the INADHERENT branch used to ban silently."""

    @pytest.fixture(scope="class")
    def mapped(self):
        app = packing_app(1, stages=3)
        platform = generate_region_mesh(2, 2)
        mapper = SpatialMapper(platform, app.library, BASE)
        result = mapper.map(app.als)
        assert result.status is MappingStatus.FEASIBLE
        return mapper, result

    def apply_one(self, mapper, result, feedback):
        work = replace(result)
        work.pending_feedback = [feedback]
        trace = MapperTrace()
        diagnostics = []
        added = mapper._apply_feedback(work, ExclusionSet(), trace, diagnostics)
        return added, trace, diagnostics

    def test_every_branch_records_to_trace_and_diagnostics(self, mapped):
        mapper, result = mapped
        assignment = next(
            a for a in result.mapping.assignments if a.implementation is not None
        )
        cases = [
            Feedback(
                kind=FeedbackKind.THROUGHPUT_VIOLATED,
                step=4,
                message="m",
                culprit_process=assignment.process,
                culprit_tile_type=assignment.implementation.tile_type,
            ),
            Feedback(
                kind=FeedbackKind.ROUTING_FAILED,
                step=3,
                message="m",
                culprit_process=assignment.process,
                culprit_tile=assignment.tile,
            ),
            Feedback(
                kind=FeedbackKind.BUFFER_OVERFLOW,
                step=4,
                message="m",
                culprit_tile=assignment.tile,
            ),
            Feedback(
                kind=FeedbackKind.INADHERENT,
                step=3,
                message="m",
                culprit_process=assignment.process,
            ),
        ]
        for feedback in cases:
            added, trace, diagnostics = self.apply_one(mapper, result, feedback)
            assert added, feedback.kind
            assert len(trace.feedback_log) == 1, feedback.kind
            assert diagnostics == trace.feedback_log, feedback.kind
            assert diagnostics[0].startswith("feedback: banning"), feedback.kind

    def test_inadherent_branch_names_the_banned_placement(self, mapped):
        mapper, result = mapped
        assignment = next(
            a for a in result.mapping.assignments if a.implementation is not None
        )
        feedback = Feedback(
            kind=FeedbackKind.INADHERENT,
            step=3,
            message="m",
            culprit_process=assignment.process,
        )
        added, trace, diagnostics = self.apply_one(mapper, result, feedback)
        assert added
        assert "(inadherent)" in diagnostics[0]
        assert repr(assignment.process) in diagnostics[0]
        assert repr(assignment.tile) in diagnostics[0]


class TestRescueConfigValidation:
    def test_negative_searchers_rejected(self):
        with pytest.raises(ConfigurationError):
            MapperConfig(rescue_searchers=-1)

    def test_zero_attempts_rejected(self):
        with pytest.raises(ConfigurationError):
            MapperConfig(rescue_attempts=0)

    def test_zero_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            MapperConfig(rescue_budget=0)

    def test_unlimited_budget_allowed(self):
        assert MapperConfig(rescue_budget=None).rescue_budget is None
