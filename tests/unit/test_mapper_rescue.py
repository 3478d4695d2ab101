"""The stochastic rescue lane, plus the mapper feedback/trace bugfixes.

Covers the rescue lane itself (seeding and the name-free shape fingerprint
it derives from, adoption, rollback, replay determinism, cacheability, the
best-first energy-bound order with its ties and ledger, the stream-buffer
floor), the
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
from repro.platform.state import LinkAllocation, PlatformState
from repro.platform.topology import build_mesh_noc, build_torus_noc
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
from tests.harness import make_app, packing_app

BASE = MapperConfig(analysis_iterations=3)
RESCUE = replace(BASE, rescue_searchers=6, rescue_attempts=4)


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

    def test_every_searcher_draws_from_its_rescue_seed(self, rescue_case, monkeypatch):
        """The lane derives the per-request digest once per call; each
        searcher's generator is still seeded with exactly ``rescue_seed``."""
        platform, state, region, app = rescue_case
        seeds = []

        class RecordingRandom(random.Random):
            def __init__(self, seed):
                seeds.append(seed)
                super().__init__(seed)

        monkeypatch.setattr(rescue_module, "Random", RecordingRandom)
        result = SpatialMapper(platform, app.library, RESCUE).map(
            app.als, state, region=region
        )
        assert result.status is MappingStatus.FEASIBLE
        fingerprint = region.fingerprint(state)
        assert seeds == [
            rescue_seed(app.als, app.library, fingerprint, searcher)
            for searcher in range(RESCUE.rescue_searchers)
        ]

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
    """The lane evaluates its placements in ``(bound, draw index)`` order
    and stops at the first bound that cannot win: a placement past the
    stop is never routed, and the adopted mapping is the one the draw-order
    lane adopted."""

    def test_outcome_equals_the_values_pinned_before_the_bound(self, rescue_case):
        """The adopted assignments, routes and energy were captured on the
        lane that routed every candidate in draw order and cut only after
        costing the routed mapping.  On this idle-enough region every route
        takes a shortest path, so each bound equals its routed energy.
        Draw 19 has the lowest bound, is reached first and is feasible; the
        next bound (draw 8) is above its energy, so the call stops there.
        It analyses one candidate: one feasible found (the draw-order lane
        found draws 0, 1, 8 and 19 feasible in turn), 2,420 events (draw
        19's analysis alone; draw order charged 12,227) and 23 candidates
        never reached."""
        platform, state, region, app = rescue_case
        outcome = run_rescue(platform, state, region, app)
        assert outcome.searchers_run == 6
        assert outcome.candidates == 24
        assert outcome.feasible_found == 1
        assert outcome.events_used == 2420
        assert (outcome.energy_cut, outcome.floor_cut) == (23, 0)
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
        """A candidate whose bound lies above the adopted energy can never
        win, and no such candidate is routed; every other one is, in
        ascending bound order.  Here only draw 19 lies at or below the
        adopted energy, so 23 of the 24 candidates are cut (20 in draw
        order, which routed draws 0, 1, 8 and 19)."""
        platform, state, region, app = rescue_case
        drawn: list[Mapping] = []
        bounds: dict[int, float] = {}
        routed: list[Mapping] = []

        def placement(*args, **kwargs):
            mapping = real_placement(*args, **kwargs)
            if mapping is not None:
                drawn.append(mapping)
            return mapping

        def bound(mapping, *args, **kwargs):
            value = real_bound(mapping, *args, **kwargs)
            bounds[id(mapping)] = value
            return value

        def route(mapping, *args, **kwargs):
            routed.append(mapping)
            return real_route(mapping, *args, **kwargs)

        real_placement = rescue_module._random_placement
        real_bound = rescue_module.mapping_energy_lower_bound_nj
        real_route = rescue_module.route_channels
        monkeypatch.setattr(rescue_module, "_random_placement", placement)
        monkeypatch.setattr(rescue_module, "mapping_energy_lower_bound_nj", bound)
        monkeypatch.setattr(rescue_module, "route_channels", route)
        outcome = run_rescue(platform, state, region, app)

        assert len(drawn) == len(bounds) == outcome.candidates == 24
        adopted = outcome.result.energy_nj_per_iteration
        cut = [m for m in drawn if bounds[id(m)] > adopted]
        assert len(cut) == outcome.energy_cut == 23
        assert not any(m in routed for m in cut)
        assert all(m in routed for m in drawn if m not in cut)
        assert routed == [drawn[19]]
        routed_bounds = [bounds[id(m)] for m in routed]
        assert routed_bounds == sorted(routed_bounds)

    def test_a_wrapped_route_below_manhattan_is_not_cut(self, monkeypatch):
        """On a torus the wrap-around link makes ``far`` one hop from the
        I/O tile, three fewer than Manhattan, and two hops ``near`` needs.
        Its bound is therefore the lower one, so ``far`` is routed first
        and adopted although ``near`` was drawn first, and ``near`` is cut
        by the bound without routing.  A Manhattan bound would have put
        ``far`` last."""
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
        near, far = placed_on(app, "near"), placed_on(app, "far")
        routed = propose_and_watch_routing(monkeypatch, [near, far])
        config = replace(BASE, rescue_searchers=1, rescue_attempts=2)
        outcome = run_rescue(platform, PlatformState(platform), None, app, config)

        assert routed == [far]
        assert outcome.feasible_found == 1
        assert (outcome.energy_cut, outcome.floor_cut) == (1, 0)
        assert {a.tile for a in outcome.result.mapping.assignments} == {"io", "far"}
        near_energy = mapping_energy_nj(near, app.als, platform, config.cost_model)
        # On the idle torus every channel routes on a shortest path, so the
        # bound is tight; the Manhattan energy lies above the near placement.
        assert mapping_energy_lower_bound_nj(
            far, app.als, platform, config.cost_model
        ) == outcome.result.energy_nj_per_iteration < near_energy
        assert mapping_energy_nj(far, app.als, platform, config.cost_model) > near_energy


def placed_on(app, tile):
    """Every mappable process of ``app`` on ``tile``, with its only
    implementation; pinned processes on their pinned tiles."""
    mapping = Mapping(app.als.name)
    for process in app.als.kpn.pinned_processes():
        mapping.assign(ProcessAssignment(process.name, process.pinned_tile))
    for process in app.als.kpn.mappable_processes():
        (implementation,) = app.library.implementations_for(process.name)
        mapping.assign(ProcessAssignment(process.name, tile, implementation))
    return mapping


def propose_and_watch_routing(monkeypatch, proposals):
    """Make the lane draw ``proposals`` in order and return the list that
    collects every mapping it routes."""
    proposals = iter(proposals)
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
    return routed


class TestBestFirstOrder:
    """Ties keep the earliest draw, and an exhausted ledger still returns
    the best found so far."""

    @staticmethod
    def line_platform():
        """Three routers in a row, the I/O tile in the middle: ``west`` and
        ``east`` lie one hop from it, mirror images of each other."""
        return (
            PlatformBuilder("line")
            .noc(build_mesh_noc(3, 1))
            .tile_type("IO", is_processing=False)
            .tile_type("GPP")
            .tile("io", "IO", (1, 0))
            .tile("west", "GPP", (0, 0), max_processes=4)
            .tile("east", "GPP", (2, 0), max_processes=4)
            .build()
        )

    @pytest.mark.parametrize("first", ["west", "east"])
    def test_the_earlier_of_two_equal_energies_is_adopted(self, first, monkeypatch):
        """``west`` and ``east`` cost the same energy and are both feasible;
        whichever was drawn first is adopted, and the other is skipped on
        its tie without routing."""
        platform = self.line_platform()
        app = generate_application(
            3,
            SyntheticConfig(stages=2, period_ns=1e6, tile_types=("GPP",)),
            source_tile="io",
            sink_tile="io",
        )
        second = "east" if first == "west" else "west"
        mappings = [placed_on(app, first), placed_on(app, second)]
        energies = {
            mapping_energy_nj(m, app.als, platform, BASE.cost_model) for m in mappings
        }
        assert len(energies) == 1
        routed = propose_and_watch_routing(monkeypatch, mappings)
        config = replace(BASE, rescue_searchers=1, rescue_attempts=2)
        outcome = run_rescue(platform, PlatformState(platform), None, app, config)

        assert routed == mappings[:1]
        assert outcome.feasible_found == 1
        assert (outcome.energy_cut, outcome.floor_cut) == (1, 0)
        assert {a.tile for a in outcome.result.mapping.assignments} == {"io", first}
        assert outcome.result.energy_nj_per_iteration in energies

    @staticmethod
    def detour_case(tokens_range=(8, 64)):
        """A 2x2 mesh with the I/O tile at (0, 0), ``near`` one hop and
        ``far`` two hops away, and the link from ``near`` back to the I/O
        tile loaded to capacity.  ``near``'s return channel detours over
        three hops, so its bound lies below ``far``'s and its routed
        energy is not below it: above with the default token counts,
        equal with equal ones."""
        platform = (
            PlatformBuilder("square")
            .noc(build_mesh_noc(2, 2))
            .tile_type("IO", is_processing=False)
            .tile_type("GPP")
            .tile("io", "IO", (0, 0))
            .tile("near", "GPP", (1, 0), max_processes=4)
            .tile("far", "GPP", (1, 1), max_processes=4)
            .build()
        )
        state = PlatformState(platform)
        link = platform.noc.link_by_name("L1_0__0_0")
        state.allocate_link(
            LinkAllocation("background", "b", link.name, link.capacity_bits_per_s)
        )
        app = generate_application(
            3,
            SyntheticConfig(
                stages=1, period_ns=1e6, tile_types=("GPP",), tokens_range=tokens_range
            ),
            source_tile="io",
            sink_tile="io",
        )
        return platform, state, app

    def run_detour(self, monkeypatch, rescue_budget, tokens_range=(8, 64)):
        """The lane on :meth:`detour_case`, drawing ``far`` before ``near``;
        returns the outcome, the routed mappings, ``far``, ``near`` and
        ``near``'s routed energy minus ``far``'s."""
        platform, state, app = self.detour_case(tokens_range)
        far, near = placed_on(app, "far"), placed_on(app, "near")
        model = BASE.cost_model
        near_routed = rescue_module.route_channels(near, app.als, platform, state=state)
        far_energy = mapping_energy_nj(far, app.als, platform, model)
        near_energy = mapping_energy_nj(near_routed.mapping, app.als, platform, model)
        assert (
            mapping_energy_lower_bound_nj(near, app.als, platform, model)
            < mapping_energy_lower_bound_nj(far, app.als, platform, model)
            == far_energy
            <= near_energy
        )
        routed = propose_and_watch_routing(monkeypatch, [far, near])
        config = replace(
            BASE, rescue_searchers=1, rescue_attempts=2, rescue_budget=rescue_budget
        )
        outcome = run_rescue(platform, state, None, app, config)
        return outcome, routed, far, near, near_energy - far_energy

    def test_a_loose_bound_reaches_the_next_candidate(self, monkeypatch):
        """With an unlimited ledger ``near`` is routed first (lowest bound)
        and found feasible; ``far``'s bound lies below ``near``'s routed
        energy, so ``far`` is routed too and wins."""
        outcome, routed, far, near, gap = self.run_detour(monkeypatch, None)
        assert gap > 0
        assert routed == [near, far]
        assert outcome.feasible_found == 2
        assert not outcome.budget_exhausted
        assert {a.tile for a in outcome.result.mapping.assignments} == {"io", "far"}

    def test_an_exhausted_ledger_returns_the_best_so_far(self, monkeypatch):
        """A one-event ledger runs out on ``near``'s analysis.  The lane
        stops before ``far`` although its bound could still win, and
        returns ``near``, the best found so far, with the ledger marked
        exhausted.  ``far`` counts as never reached."""
        outcome, routed, far, near, _ = self.run_detour(monkeypatch, 1)
        assert routed == [near]
        assert outcome.budget_exhausted
        assert outcome.events_used > 1
        assert outcome.feasible_found == 1
        assert (outcome.energy_cut, outcome.floor_cut) == (1, 0)
        assert {a.tile for a in outcome.result.mapping.assignments} == {"io", "near"}

    def test_an_equal_energy_reached_later_wins_from_an_earlier_draw(self, monkeypatch):
        """With equal token counts on both channels ``near``'s detoured
        energy equals ``far``'s bound and energy.  ``near`` (drawn second)
        is reached first and found feasible.  ``far``'s bound ties with the
        best energy from an earlier draw, so ``far`` is reached, routed and
        adopted: the earlier draw wins the tie, as in draw order."""
        outcome, routed, far, near, gap = self.run_detour(
            monkeypatch, None, tokens_range=(32, 32)
        )
        assert gap == 0
        assert routed == [near, far]
        assert outcome.feasible_found == 2
        assert {a.tile for a in outcome.result.mapping.assignments} == {"io", "far"}


#: Arrival 35's rescue call under :data:`LEDGER` when every candidate past
#: the energy bound reached step 4: it analysed 11 candidates before the
#: ledger ran out and adopted this energy.
LEDGER_CANDIDATES_WITHOUT_FLOOR = 11
LEDGER_ENERGY_WITHOUT_FLOOR = float.fromhex("0x1.542a4ca0e2154p+10")


class TestFloorBeforeRouting:
    """The stream-buffer floor cuts a reached placement whose buffers
    cannot fit before routing it, so the ledger pays only for candidates
    that can still be feasible."""

    def test_the_ledger_lasts_for_more_candidates(self, exhausting_case):
        """In bound order the first five placements (draws 1, 6, 15, 5 and
        21) fail the floor and draw 11 is reached next, feasible at the
        energy draw order adopted.  Draw 13's bound lies above it, so the
        call stops: one feasible found (draw order found draws 2 and 11)
        and 4,374 events (draw 11's analysis; draw order also paid 2,886
        for draw 2, 7,260 in all)."""
        outcome = run_rescue(*exhausting_case, config=LEDGER)
        assert not outcome.budget_exhausted
        assert outcome.candidates == 24 >= LEDGER_CANDIDATES_WITHOUT_FLOOR
        energy = outcome.result.energy_nj_per_iteration
        assert energy == float.fromhex("0x1.384c2946adb38p+10")
        assert energy <= LEDGER_ENERGY_WITHOUT_FLOOR
        assert outcome.feasible_found == 1
        assert outcome.events_used == 4374

    def test_cuts_and_analysed_candidates_add_up(self, exhausting_case, monkeypatch):
        """Five floor cuts, one analysed candidate (draw 11) and 18 never
        reached (draw order: 8 floor cuts, 2 analysed, 14 bound cuts)."""
        analysed = []
        real_evaluate = rescue_module._evaluate
        monkeypatch.setattr(
            rescue_module,
            "_evaluate",
            lambda *args, **kwargs: analysed.append(args[0])
            or real_evaluate(*args, **kwargs),
        )
        outcome = run_rescue(*exhausting_case, config=LEDGER)
        assert (outcome.energy_cut, outcome.floor_cut, len(analysed)) == (18, 5, 1)
        assert outcome.energy_cut + outcome.floor_cut + len(analysed) == outcome.candidates

    def test_a_floor_cut_candidate_never_reaches_routing(
        self, exhausting_case, monkeypatch
    ):
        """The floor is taken when a candidate is reached, so only the five
        placements ahead of draw 11 in bound order meet it and fail (draw
        order met 8 failures).  None of them is routed, and each that
        routes ends in step 4's floor overflow on the tile the cut named."""
        drawn: list[Mapping] = []
        floors: dict[int, object] = {}
        routed: list[Mapping] = []

        def placement(*args, **kwargs):
            mapping = real_placement(*args, **kwargs)
            if mapping is not None:
                drawn.append(mapping)
            return mapping

        def floor(mapping, *args, **kwargs):
            overflow = real_floor(mapping, *args, **kwargs)
            floors[id(mapping)] = overflow
            return overflow

        def route(mapping, *args, **kwargs):
            routed.append(mapping)
            return real_route(mapping, *args, **kwargs)

        real_placement = rescue_module._random_placement
        real_floor = rescue_module.stream_buffer_floor_overflow
        real_route = rescue_module.route_channels
        monkeypatch.setattr(rescue_module, "_random_placement", placement)
        monkeypatch.setattr(rescue_module, "stream_buffer_floor_overflow", floor)
        monkeypatch.setattr(rescue_module, "route_channels", route)
        outcome = run_rescue(*exhausting_case, config=LEDGER)

        assert len(drawn) == outcome.candidates
        cut = [m for m in drawn if floors.get(id(m))]
        assert cut == [drawn[i] for i in (1, 5, 6, 15, 21)]
        assert len(cut) == outcome.floor_cut == 5
        assert not any(m in routed for m in cut)
        assert routed == [m for m in drawn if id(m) in floors and not floors[id(m)]]

        # Every cut placement that routes ends in step 4's floor overflow,
        # on the tile the cut named.
        platform, state, region, app = exhausting_case
        monkeypatch.undo()
        checked = 0
        for mapping in cut:
            step3 = real_route(
                mapping, app.als, platform,
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
            assert step4.feedback[0].culprit_tile == floors[id(mapping)][0]
            checked += 1
        assert checked

    def test_trace_and_pipeline_count_the_cuts(self, exhausting_case):
        """The trace and the pipeline's metrics carry the counts of
        :meth:`test_cuts_and_analysed_candidates_add_up` (draw order:
        14 energy cuts, 8 floor cuts)."""
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
        ) == (24, 18, 5)

        pipeline = RuntimeResourceManager(platform, config=LEDGER).pipeline
        pipeline.metrics = MetricsRegistry()
        pipeline._count_rescue_metrics(mapper)
        counters = {
            name: pipeline.metrics.counter_value(f"mapper.rescue.{name}")
            for name in ("candidates", "energy_cut", "floor_cut", "adopted")
        }
        assert counters == {
            "candidates": 24.0, "energy_cut": 18.0, "floor_cut": 5.0, "adopted": 1.0,
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
