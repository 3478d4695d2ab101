"""Stage 2 of the admission pipeline: home regions and least-filled-first.

A region qualifies for a request when it contains every pinned tile, has
enough free process slots, and offers each mappable process a free tile of
a type it has an implementation for.  A pinned application therefore has
at most one qualifying region, its home region; an unpinned one tries up
to ``MAX_REGION_ATTEMPTS`` qualifying regions, least-filled first.
"""

import pytest

from repro.platform.regions import GLOBAL_LANE, RegionPartition
from repro.platform.state import LinkAllocation, ProcessAllocation
from repro.runtime.manager import RuntimeResourceManager
from repro.runtime.pipeline import MAX_REGION_ATTEMPTS, AdmissionPipeline
from repro.runtime.queue import AdmissionQueue
from repro.spatialmapper.config import MapperConfig
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_application,
    generate_region_mesh,
)
from tests.harness import (
    TWO_STAGE_CONFIG,
    build_two_region_platform,
    make_app,
    make_manager,
    make_unpinned_app,
)

#: Pinned I/O tile, its home region and the other region of the harness.
HOMES = [("io_l", "r0_0", "r1_0"), ("io_r", "r1_0", "r0_0")]

#: GPP tiles of each harness region (one process slot each).
GPP_TILES = {
    "r0_0": ("gpp_l0", "gpp_l1", "gpp_l2"),
    "r1_0": ("gpp_r0", "gpp_r1", "gpp_r2"),
}


def occupy(state, *tiles):
    """Burn one process slot on each tile (bookkeeping-only occupant)."""
    for tile in tiles:
        state.allocate_process(
            ProcessAllocation(application="filler", process=f"f_{tile}", tile=tile)
        )


def names(candidates):
    """Candidate list as names, ``None`` for the global fallback."""
    return [region.name if region is not None else None for region in candidates]


def mesh_pipeline():
    """A pipeline over the 2x2-region mesh (GPP and DSP tiles per region)."""
    platform = generate_region_mesh(2, 2)
    return AdmissionPipeline(
        platform,
        config=MapperConfig(analysis_iterations=3),
        partition=RegionPartition.grid(platform, 2, 2),
    )


class TestHomeRegion:
    @pytest.mark.parametrize("io_tile, home, _other", HOMES)
    def test_pinned_application_is_offered_only_its_home_region(
        self, io_tile, home, _other
    ):
        manager = make_manager()
        app = make_app(11, "probe", io_tile)
        candidates = manager.pipeline.candidate_regions(app.als, app.library)
        assert names(candidates) == [home, None]

    @pytest.mark.parametrize("io_tile, home, other", HOMES)
    def test_home_region_is_kept_when_the_other_region_is_emptier(
        self, io_tile, home, other
    ):
        manager = make_manager()
        occupy(manager.state, GPP_TILES[home][0])
        pipeline = manager.pipeline
        assert (
            manager.partition.region(home).view(manager.state).fill_level()
            > manager.partition.region(other).view(manager.state).fill_level()
        )
        app = make_app(11, "probe", io_tile)
        assert names(pipeline.candidate_regions(app.als, app.library)) == [home, None]

    @pytest.mark.parametrize("free_slots", [0, 1])
    def test_home_region_short_of_slots_does_not_qualify(self, free_slots):
        manager = make_manager()
        occupy(manager.state, *GPP_TILES["r0_0"][free_slots:])
        app = make_app(11, "probe", "io_l")
        assert len(app.als.kpn.mappable_processes()) > free_slots
        # The emptier right region cannot host an io_l-pinned application.
        assert manager.pipeline.candidate_regions(app.als, app.library) == (None,)

    def test_full_home_region_without_fallback_leaves_no_candidate(self):
        manager = make_manager(region_fallback=False)
        occupy(manager.state, *GPP_TILES["r0_0"])
        app = make_app(11, "probe", "io_l")
        assert manager.pipeline.candidate_regions(app.als, app.library) == ()
        decision = manager.admit(app.als, library=app.library)
        assert not decision.admitted
        assert "fallback disabled" in decision.reason
        # Rejected at stage 2: the mapping stage never ran.
        assert manager.pipeline.mapper_invocations == 0

    def test_home_region_without_a_free_tile_of_the_needed_type_does_not_qualify(
        self,
    ):
        pipeline = mesh_pipeline()
        app = generate_application(
            5,
            SyntheticConfig(stages=2, tile_types=("GPP",)),
            name="gpp_only",
            source_tile="io_r1_0",
            sink_tile="io_r1_0",
        )
        assert names(pipeline.candidate_regions(app.als, app.library)) == ["r1_0", None]
        # r1_0 has one GPP tile; with it taken, two DSP slots stay free —
        # enough slots, but of a type no implementation targets.
        occupy(pipeline.state, "gpp6")
        home = pipeline.partition.region("r1_0")
        assert home.view(pipeline.state).free_process_slots() >= len(
            app.als.kpn.mappable_processes()
        )
        assert pipeline.candidate_regions(app.als, app.library) == (None,)

    def test_saturated_links_do_not_disqualify_the_home_region(self):
        manager = make_manager()
        home = manager.partition.region("r0_0")
        for link_name in home.link_names:
            manager.state.allocate_link(
                LinkAllocation(
                    application="hog",
                    channel=f"c_{link_name}",
                    link=link_name,
                    bits_per_s=4e9 - 1.0,
                )
            )
        app = make_app(40, "straggler", "io_l")
        # Qualification looks at slots and tile types only: the home region
        # is still attempted, and routing inside it is what fails.
        assert names(manager.pipeline.candidate_regions(app.als, app.library)) == [
            "r0_0",
            None,
        ]
        decision = manager.admit(app.als, library=app.library)
        assert not decision.admitted
        assert manager.pipeline.mapper_invocations == 2  # home, then global

    def test_full_home_region_is_served_by_the_global_fallback(self):
        manager = make_manager()
        occupy(manager.state, *GPP_TILES["r0_0"][1:])
        app = make_app(11, "overflow", "io_l")
        result = manager.start(app.als, library=app.library)
        assert result.is_feasible
        # The pinned I/O stays in r0_0; the kernels overflow into r1_0.
        assert set(manager.pipeline.regions_of("overflow")) == {"r0_0", "r1_0"}


class TestUnpinnedOrder:
    def test_without_partition_the_global_attempt_is_the_only_candidate(self):
        platform = build_two_region_platform()
        manager = RuntimeResourceManager(platform, config=MapperConfig(analysis_iterations=3))
        als, library = make_unpinned_app("floater")
        assert manager.pipeline.candidate_regions(als, library) == (None,)

    @pytest.mark.parametrize("filled, expected", [("r0_0", "r1_0"), ("r1_0", "r0_0")])
    def test_least_filled_region_is_tried_first(self, filled, expected):
        manager = make_manager()
        occupy(manager.state, GPP_TILES[filled][0])
        als, library = make_unpinned_app("floater")
        assert names(manager.pipeline.candidate_regions(als, library)) == [
            expected,
            filled,
            None,
        ]

    def test_equal_fill_ties_break_by_region_name(self):
        pipeline = mesh_pipeline()
        als, library = make_unpinned_app("floater")
        candidates = pipeline.candidate_regions(als, library)
        assert names(candidates) == ["r0_0", "r0_1", None]

    def test_attempts_are_capped_at_the_least_filled_regions(self):
        pipeline = mesh_pipeline()
        # One occupant in each of r0_0 and r0_1: r1_0 and r1_1 are emptier.
        occupy(pipeline.state, "gpp1", "gpp10")
        als, library = make_unpinned_app("floater")
        candidates = pipeline.candidate_regions(als, library)
        assert len(candidates) == MAX_REGION_ATTEMPTS + 1
        assert names(candidates) == ["r1_0", "r1_1", None]

    def test_unpinned_application_needing_more_slots_skips_small_regions(self):
        pipeline = mesh_pipeline()
        # Two occupants leave r0_0 with one free slot, short of two.
        occupy(pipeline.state, "gpp1", "gpp3")
        als, library = make_unpinned_app("floater")
        assert "r0_0" not in names(pipeline.candidate_regions(als, library))


class TestHomeLanes:
    @pytest.mark.parametrize("io_tile, home, _other", HOMES)
    def test_pinned_request_queues_in_its_home_lane(self, io_tile, home, _other):
        queue = AdmissionQueue(make_manager())
        app = make_app(12, "queued", io_tile)
        ticket = queue.submit(app.als, library=app.library)
        assert queue.poll(ticket).lane == home
        assert list(queue.pending_by_lane()) == [home]

    def test_request_without_a_home_region_queues_in_the_global_lane(self):
        queue = AdmissionQueue(make_manager())
        spanning = generate_application(
            13, TWO_STAGE_CONFIG, name="spanning", source_tile="io_l", sink_tile="io_r"
        )
        ticket = queue.submit(spanning.als, library=spanning.library)
        assert queue.poll(ticket).lane == GLOBAL_LANE

    def test_request_whose_home_region_is_full_queues_in_the_global_lane(self):
        manager = make_manager()
        queue = AdmissionQueue(manager)
        occupy(manager.state, *GPP_TILES["r1_0"])
        app = make_app(14, "late", "io_r")
        ticket = queue.submit(app.als, library=app.library)
        assert queue.poll(ticket).lane == GLOBAL_LANE
