"""The inter-region planner: decomposition, commit atomicity, budgets, scope."""

import pytest

from repro.exceptions import PlatformError
from repro.interregion.planner import CorridorScope, InterRegionPlanner
from repro.platform.regions import RegionPartition
from repro.platform.state import LinkAllocation, ProcessAllocation
from repro.runtime.manager import RuntimeResourceManager
from repro.runtime.pipeline import AdmissionPipeline
from repro.spatialmapper.config import MapperConfig
from repro.workloads.synthetic import SyntheticConfig, generate_application, generate_region_mesh

CONFIG = SyntheticConfig(stages=4, period_ns=100_000.0, tile_types=("GPP", "DSP"))


def make_manager(*, fraction=0.5, regions=2, span=4):
    platform = generate_region_mesh(regions, span)
    partition = RegionPartition.grid(platform, regions, regions)
    return RuntimeResourceManager(
        platform,
        config=MapperConfig(analysis_iterations=3),
        partition=partition,
        cross_region_planner=True,
        corridor_budget_fraction=fraction,
    )


def cross_app(seed, name, source="io_r0_0", sink="io_r1_1"):
    return generate_application(seed, CONFIG, name=name, source_tile=source, sink_tile=sink)


def regional_app(seed, name, io="io_r0_0"):
    return generate_application(seed, CONFIG, name=name, source_tile=io, sink_tile=io)


class TestApplicability:
    def test_single_region_app_is_out_of_scope(self):
        manager = make_manager()
        planner = manager.pipeline.interregion
        app = regional_app(1, "local")
        assert planner.scope_for(app.als) is None
        decision = planner.decide(app.als, app.library)
        assert not decision.admitted and "not applicable" in decision.reason

    def test_scope_covers_anchors_and_corridor_path(self):
        manager = make_manager()
        planner = manager.pipeline.interregion
        app = cross_app(2, "diag")
        scope = planner.scope_for(app.als)
        assert scope is not None
        assert {"r0_0", "r1_1"} <= set(scope)
        # Diagonal anchors need at least one intermediate region.
        assert len(scope) >= 3

    def test_planner_requires_a_partition(self):
        platform = generate_region_mesh(2, 4)
        pipeline = AdmissionPipeline(platform)
        with pytest.raises(PlatformError):
            InterRegionPlanner(pipeline)

    def test_manager_flag_requires_partition(self):
        platform = generate_region_mesh(2, 4)
        with pytest.raises(PlatformError):
            RuntimeResourceManager(platform, cross_region_planner=True)


class TestAdmission:
    def test_cross_region_admission_is_complete_and_committed(self):
        manager = make_manager()
        planner = manager.pipeline.interregion
        app = cross_app(7, "xapp")
        decision = manager.admit(app.als, library=app.library)
        assert decision.admitted, decision.reason
        result = decision.result
        assert result.mapping.is_complete(app.als)
        assert result.status.value == "feasible"
        # Only real application keys survive: the boundary pseudo-endpoints
        # and pseudo-channels of segment mapping never leak into the result.
        assert all(
            app.als.kpn.has_process(a.process) for a in result.mapping.assignments
        ), [a.process for a in result.mapping.assignments]
        assert all(
            app.als.kpn.has_channel(r.channel) for r in result.mapping.routes
        )
        # Allocations really landed in several regions, with a corridor.
        touched = manager.pipeline.regions_of("xapp")
        assert len(touched) >= 2
        reserved = [
            pair for pair in planner.budgets.pairs()
            if planner.budgets.reserved_bits_per_s(*pair) > 0
        ]
        assert reserved, "no corridor budget was reserved"
        # Every route connects its endpoint tiles contiguously over real links.
        noc = manager.platform.noc
        for route in result.mapping.routes:
            assert route.path[0] == manager.platform.tile(route.source_tile).position
            assert route.path[-1] == manager.platform.tile(route.target_tile).position
            for a, b in zip(route.path, route.path[1:]):
                assert noc.has_link(a, b)

    def test_stop_releases_allocations_and_budgets(self):
        manager = make_manager()
        planner = manager.pipeline.interregion
        empty = planner.budgets.fingerprint()
        app = cross_app(8, "ephemeral")
        assert manager.admit(app.als, library=app.library).admitted
        manager.stop("ephemeral")
        assert planner.budgets.fingerprint() == empty
        assert manager.state.occupied_tiles() == ()
        assert manager.state.link_loads() == {}

    def test_batch_with_duplicate_keeps_a_releasable_reservation(self):
        """Every corridor reservation a batch leaves behind belongs to a
        running application, so stopping it frees the budgets again."""
        manager = make_manager()
        planner = manager.pipeline.interregion
        empty = planner.budgets.fingerprint()
        app = cross_app(7, "xapp")
        outcome = manager.start_many([(app.als, app.library)] * 2)
        assert [d.admitted for d in outcome.decisions] == [True, False]
        assert planner.budgets.applications() == ("xapp",)
        manager.stop("xapp")
        assert planner.budgets.applications() == ()
        assert planner.budgets.fingerprint() == empty

    def test_exhausted_budget_rejects_and_falls_back_globally(self):
        # A vanishingly small corridor budget: the planner cannot reserve,
        # but the admission still succeeds through the global fallback.
        manager = make_manager(fraction=1e-9)
        app = cross_app(9, "fallback")
        planned = manager.pipeline.interregion.decide(app.als, app.library)
        assert not planned.admitted
        assert "corridor" in planned.reason or "budget" in planned.reason
        decision = manager.admit(app.als, library=app.library)
        assert decision.admitted, decision.reason
        # The fallback committed nothing through the planner's budgets.
        assert manager.pipeline.interregion.budgets.applications() == ()

    def test_rejected_plan_leaves_state_untouched(self):
        manager = make_manager(fraction=1e-9)
        fingerprint = manager.state.fingerprint()
        app = cross_app(10, "spotless")
        decision = manager.pipeline.interregion.decide(app.als, app.library)
        assert not decision.admitted
        assert manager.state.fingerprint() == fingerprint
        assert manager.state.occupied_tiles() == ()

    def test_planner_decisions_are_deterministic(self):
        app = cross_app(11, "det")
        mappings = []
        for _ in range(2):
            manager = make_manager()
            decision = manager.pipeline.interregion.decide(app.als, app.library)
            assert decision.admitted
            mappings.append(
                (
                    tuple(
                        (a.process, a.tile) for a in decision.result.mapping.assignments
                    ),
                    tuple(
                        (r.channel, r.path) for r in decision.result.mapping.routes
                    ),
                )
            )
        assert mappings[0] == mappings[1]


class TestCorridorScope:
    def test_scope_covers_regions_and_boundary_links(self):
        manager = make_manager()
        partition = manager.partition
        regions = (partition.region("r0_0"), partition.region("r0_1"))
        boundary = manager.pipeline.interregion.budgets.links_between("r0_0", "r0_1")
        scope = CorridorScope(regions, frozenset(boundary[:1]))
        assert scope.covers_tile(regions[0].tile_names[0])
        assert scope.covers_link(regions[1].link_names[0])
        assert scope.covers_link(boundary[0])
        assert not scope.covers_link(boundary[1])
        outside = partition.region("r1_1")
        assert not scope.covers_tile(outside.tile_names[0])

    def _scoped_commit_parts(self):
        """A state, a two-region corridor scope over its first boundary link,
        and the boundary links the scope leaves out."""
        manager = make_manager()
        partition = manager.partition
        regions = (partition.region("r0_0"), partition.region("r0_1"))
        boundary = manager.pipeline.interregion.budgets.links_between("r0_0", "r0_1")
        scope = CorridorScope(regions, frozenset(boundary[:1]))
        return manager, scope, boundary

    def test_scope_commit_rejects_a_tile_of_an_untouched_region(self):
        manager, scope, _ = self._scoped_commit_parts()
        state = manager.state
        outside = manager.partition.region("r1_1").processing_tile_names()[0]
        before = state.fingerprint()
        with pytest.raises(PlatformError, match="outside the scope"):
            with state.transaction(scope):
                state.allocate_process(
                    ProcessAllocation(application="x", process="p", tile=outside)
                )
        assert state.fingerprint() == before

    def test_scope_commit_rejects_an_unbudgeted_boundary_link(self):
        manager, scope, boundary = self._scoped_commit_parts()
        state = manager.state
        with pytest.raises(PlatformError, match="outside the scope"):
            with state.transaction(scope):
                state.allocate_link(
                    LinkAllocation(
                        application="x", channel="c", link=boundary[1], bits_per_s=1e6
                    )
                )
        assert state.link_load_bits_per_s(boundary[1]) == 0.0

    def test_scope_commit_accepts_its_own_keys(self):
        manager, scope, boundary = self._scoped_commit_parts()
        state = manager.state
        tile = manager.partition.region("r0_1").processing_tile_names()[0]
        with state.transaction(scope):
            state.allocate_process(
                ProcessAllocation(application="x", process="p", tile=tile)
            )
            state.allocate_link(
                LinkAllocation(
                    application="x", channel="c", link=boundary[0], bits_per_s=1e6
                )
            )
        assert state.used_process_slots(tile) == 1
        assert state.link_load_bits_per_s(boundary[0]) == pytest.approx(1e6)
