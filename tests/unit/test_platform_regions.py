"""Region partitions, per-region views and region-scoped transactions."""

import pytest

from repro.exceptions import PlatformError
from repro.platform.regions import Region, RegionPartition
from repro.platform.state import (
    AllocationDelta,
    LinkAllocation,
    PlatformState,
    ProcessAllocation,
)
from repro.workloads.synthetic import generate_platform


@pytest.fixture()
def platform():
    """A 4x4 synthetic mesh (io corners + random processing tiles)."""
    return generate_platform(seed=5, width=4, height=4)


@pytest.fixture()
def halves(platform):
    """The mesh split into a left and a right region."""
    return RegionPartition.grid(platform, 2, 1)


def _alloc(tile, application="app", process="p0"):
    return ProcessAllocation(
        application=application, process=process, tile=tile, memory_bytes=1024
    )


class TestRegionPartition:
    def test_grid_covers_every_tile_exactly_once(self, platform, halves):
        owners = {}
        for region in halves:
            for tile in region.tile_names:
                assert tile not in owners
                owners[tile] = region.name
        assert set(owners) == set(platform.tile_names)

    def test_region_of_tile_matches_membership(self, platform, halves):
        for tile in platform.tile_names:
            region = halves.region_of_tile(tile)
            assert tile in region
            assert halves.region_of_tile(tile) is region

    def test_internal_and_cross_links_partition_the_noc(self, platform, halves):
        internal = {name for region in halves for name in region.link_names}
        cross = set(halves.cross_link_names())
        every = {link.name for link in platform.noc.links}
        assert internal | cross == every
        assert internal & cross == set()
        assert cross  # a split mesh always has boundary links

    def test_single_partition_spans_everything(self, platform):
        partition = RegionPartition.single(platform)
        region = partition.regions[0]
        assert set(region.tile_names) == set(platform.tile_names)
        assert partition.cross_link_names() == ()

    def test_overlapping_regions_rejected(self, platform):
        a = Region("a", platform, platform.noc.positions)
        b = Region("b", platform, platform.noc.positions[:1])
        with pytest.raises(PlatformError):
            RegionPartition(platform, [a, b])

    def test_uncovered_tile_rejected(self, platform):
        some = Region("some", platform, platform.noc.positions[:1])
        with pytest.raises(PlatformError):
            RegionPartition(platform, [some])

    def test_grid_bounds_validated(self, platform):
        with pytest.raises(PlatformError):
            RegionPartition.grid(platform, 0, 1)
        with pytest.raises(PlatformError):
            RegionPartition.grid(platform, 5, 1)


class TestRegionView:
    def test_fill_level_tracks_allocations(self, platform, halves):
        state = PlatformState(platform)
        region = halves.regions[0]
        view = region.view(state)
        assert view.fill_level() == 0.0
        tile = region.processing_tile_names()[0]
        state.allocate_process(_alloc(tile))
        assert view.used_process_slots() == 1
        assert view.fill_level() > 0.0
        # The other region's view is untouched.
        assert halves.regions[1].view(state).used_process_slots() == 0

    def test_fingerprint_changes_and_restores(self, platform, halves):
        state = PlatformState(platform)
        region = halves.regions[0]
        other = halves.regions[1]
        empty = region.fingerprint(state)
        other_empty = other.fingerprint(state)
        tile = region.processing_tile_names()[0]
        state.allocate_process(_alloc(tile))
        assert region.fingerprint(state) != empty
        # Disjoint region: fingerprint untouched by the allocation.
        assert other.fingerprint(state) == other_empty
        state.release_application("app")
        assert region.fingerprint(state) == empty


class TestScopedTransactions:
    def test_sibling_region_scopes_keep_independent_journals(self, platform, halves):
        left, right = halves.regions
        state = PlatformState(platform)
        left_tile = left.processing_tile_names()[0]
        right_tile = right.processing_tile_names()[0]
        with state.transaction(left):
            state.allocate_process(_alloc(left_tile, application="l"))
            with state.transaction(right) as inner:
                state.allocate_process(_alloc(right_tile, application="r"))
                inner.rollback()
            # The right-region rollback must not disturb the left allocation.
            assert state.used_process_slots(left_tile) == 1
            assert state.used_process_slots(right_tile) == 0
        assert state.used_process_slots(left_tile) == 1

    def test_outer_region_rollback_spares_committed_sibling(self, platform, halves):
        left, right = halves.regions
        state = PlatformState(platform)
        left_tile = left.processing_tile_names()[0]
        right_tile = right.processing_tile_names()[0]
        with state.transaction(left) as outer:
            state.allocate_process(_alloc(left_tile, application="l"))
            with state.transaction(right):
                state.allocate_process(_alloc(right_tile, application="r"))
            outer.rollback()
        # Only the left-region mutation is undone; the committed right-region
        # admission survives — per-region commit isolation.
        assert state.used_process_slots(left_tile) == 0
        assert state.used_process_slots(right_tile) == 1

    def test_mutation_outside_every_open_scope_raises(self, platform, halves):
        left, right = halves.regions
        state = PlatformState(platform)
        right_tile = right.processing_tile_names()[0]
        with pytest.raises(PlatformError):
            with state.transaction(left):
                state.allocate_process(_alloc(right_tile))
        # The failed mutation never happened.
        assert state.used_process_slots(right_tile) == 0

    def test_enclosing_global_scope_catches_out_of_region_keys(self, platform, halves):
        left, right = halves.regions
        state = PlatformState(platform)
        right_tile = right.processing_tile_names()[0]
        with state.transaction() as outer:
            with state.transaction(left):
                # Outside `left`, but the enclosing global transaction covers it.
                state.allocate_process(_alloc(right_tile))
            outer.rollback()
        assert state.used_process_slots(right_tile) == 0

    def test_scoped_link_journal(self, platform, halves):
        left = halves.regions[0]
        state = PlatformState(platform)
        link_name = left.link_names[0]
        with state.transaction(left) as txn:
            state.allocate_link(
                LinkAllocation(
                    application="app", channel="c", link=link_name, bits_per_s=1e6
                )
            )
            txn.rollback()
        assert state.link_load_bits_per_s(link_name) == 0.0
        cross = halves.cross_link_names()[0]
        with pytest.raises(PlatformError):
            with state.transaction(left):
                state.allocate_link(
                    LinkAllocation(
                        application="app", channel="c", link=cross, bits_per_s=1e6
                    )
                )
        assert state.link_load_bits_per_s(cross) == 0.0

    def test_out_of_scope_tile_error_names_the_tile(self, platform, halves):
        left, right = halves.regions
        state = PlatformState(platform)
        right_tile = right.processing_tile_names()[0]
        with pytest.raises(PlatformError, match="outside the scope") as excinfo:
            with state.transaction(left):
                state.allocate_process(_alloc(right_tile))
        assert repr(right_tile) in str(excinfo.value)

    def test_out_of_scope_link_error_names_the_link(self, platform, halves):
        left, right = halves.regions
        state = PlatformState(platform)
        right_link = right.link_names[0]
        with pytest.raises(PlatformError, match="outside the scope") as excinfo:
            with state.transaction(left):
                state.allocate_link(
                    LinkAllocation(
                        application="app", channel="c", link=right_link, bits_per_s=1e6
                    )
                )
        assert repr(right_link) in str(excinfo.value)
        assert state.link_load_bits_per_s(right_link) == 0.0

    def test_out_of_scope_release_raises_and_keeps_the_allocation(
        self, platform, halves
    ):
        left, right = halves.regions
        state = PlatformState(platform)
        right_tile = right.processing_tile_names()[0]
        state.allocate_process(_alloc(right_tile, application="r"))
        with pytest.raises(PlatformError):
            with state.transaction(left):
                state.release_application("r")
        assert state.used_process_slots(right_tile) == 1
        assert state.applications() == ("r",)

    def test_mutation_without_open_transaction_is_unguarded(self, platform, halves):
        right = halves.regions[1]
        state = PlatformState(platform)
        right_tile = right.processing_tile_names()[0]
        state.allocate_process(_alloc(right_tile))
        assert state.used_process_slots(right_tile) == 1

    def test_guard_lifts_when_the_scope_closes(self, platform, halves):
        left, right = halves.regions
        state = PlatformState(platform)
        right_tile = right.processing_tile_names()[0]
        with state.transaction(left):
            with pytest.raises(PlatformError):
                state.allocate_process(_alloc(right_tile))
        state.allocate_process(_alloc(right_tile))
        assert state.used_process_slots(right_tile) == 1

    def test_delta_fold_into_foreign_region_raises(self, platform, halves):
        # The engine folds each worker delta under its lane's region scope;
        # a delta that writes another region's tile must not land.
        left, right = halves.regions
        state = PlatformState(platform)
        right_tile = right.processing_tile_names()[0]
        before = state.fingerprint()
        delta = AllocationDelta(
            application="app", processes=(_alloc(right_tile),), links=()
        )
        with pytest.raises(PlatformError, match="outside the scope"):
            with state.transaction(left):
                state.apply_delta(delta)
        assert state.fingerprint() == before

    def test_delta_fold_straddling_regions_rolls_back_whole(self, platform, halves):
        left, right = halves.regions
        state = PlatformState(platform)
        left_tile = left.processing_tile_names()[0]
        right_tile = right.processing_tile_names()[0]
        before = state.fingerprint()
        delta = AllocationDelta(
            application="app",
            processes=(_alloc(left_tile, process="p0"), _alloc(right_tile, process="p1")),
            links=(),
        )
        with pytest.raises(PlatformError):
            with state.transaction(left):
                state.apply_delta(delta)
        # The in-scope first record was undone with the failed fold.
        assert state.used_process_slots(left_tile) == 0
        assert state.fingerprint() == before
