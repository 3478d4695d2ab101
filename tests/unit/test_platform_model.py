"""Tile types, resources, tiles and the platform container."""

import pytest

from repro.exceptions import PlatformError
from repro.platform.platform import Platform
from repro.platform.resources import ResourceBudget, ResourceRequirement
from repro.platform.tile import Tile
from repro.platform.tile_type import TileType
from repro.platform.topology import build_mesh_noc


class TestTileType:
    def test_defaults(self):
        tile_type = TileType("ARM")
        assert tile_type.is_processing
        assert tile_type.frequency_hz == pytest.approx(100e6)

    def test_empty_name_rejected(self):
        with pytest.raises(PlatformError):
            TileType("")

    def test_non_positive_frequency_rejected(self):
        with pytest.raises(PlatformError):
            TileType("ARM", frequency_hz=0)

    def test_negative_idle_power_rejected(self):
        with pytest.raises(PlatformError):
            TileType("ARM", idle_power_mw=-1)


class TestResources:
    def test_requirement_fits_within_budget(self):
        budget = ResourceBudget(max_processes=1, memory_bytes=1000)
        assert ResourceRequirement(memory_bytes=500).fits_within(budget)
        assert not ResourceRequirement(memory_bytes=2000).fits_within(budget)

    def test_zero_slot_budget_fits_nothing(self):
        budget = ResourceBudget(max_processes=0)
        assert not ResourceRequirement().fits_within(budget)

    def test_cycle_budget_checked_when_period_known(self):
        budget = ResourceBudget()
        requirement = ResourceRequirement(compute_cycles_per_iteration=500)
        assert requirement.fits_within(budget, period_cycles=1000)
        assert not requirement.fits_within(budget, period_cycles=400)

    def test_negative_values_rejected(self):
        with pytest.raises(PlatformError):
            ResourceBudget(max_processes=-1)
        with pytest.raises(PlatformError):
            ResourceRequirement(memory_bytes=-1)


class TestTile:
    def test_tile_properties(self):
        tile = Tile("arm1", TileType("ARM", frequency_hz=2e8), (1, 2))
        assert tile.type_name == "ARM"
        assert tile.x == 1 and tile.y == 2
        assert tile.frequency_hz == 2e8
        assert tile.is_processing

    def test_non_processing_type(self):
        tile = Tile("adc", TileType("IO", is_processing=False), (0, 0))
        assert not tile.is_processing

    def test_zero_slots_means_not_processing(self):
        tile = Tile("arm", TileType("ARM"), (0, 0), resources=ResourceBudget(max_processes=0))
        assert not tile.is_processing

    def test_invalid_position_rejected(self):
        with pytest.raises(PlatformError):
            Tile("t", TileType("ARM"), (0, -1))

    def test_invalid_ni_capacity_rejected(self):
        with pytest.raises(PlatformError):
            Tile("t", TileType("ARM"), (0, 0), ni_capacity_bits_per_s=0)


class TestPlatform:
    def _platform(self):
        noc = build_mesh_noc(2, 2)
        platform = Platform("p", noc)
        arm = TileType("ARM")
        dsp = TileType("DSP")
        platform.add_tile(Tile("arm0", arm, (0, 0)))
        platform.add_tile(Tile("arm1", arm, (1, 0)))
        platform.add_tile(Tile("dsp0", dsp, (0, 1)))
        return platform

    def test_tile_lookup(self):
        platform = self._platform()
        assert platform.tile("arm0").position == (0, 0)
        assert "arm0" in platform
        assert len(platform) == 3

    def test_unknown_tile_raises(self):
        with pytest.raises(PlatformError):
            self._platform().tile("zz")

    def test_tile_must_sit_on_existing_router(self):
        platform = self._platform()
        with pytest.raises(PlatformError):
            platform.add_tile(Tile("far", TileType("ARM"), (5, 5)))

    def test_one_tile_per_router_by_default(self):
        platform = self._platform()
        with pytest.raises(PlatformError):
            platform.add_tile(Tile("other", TileType("DSP"), (0, 0)))

    def test_shared_routers_can_be_enabled(self):
        noc = build_mesh_noc(1, 1)
        platform = Platform("p", noc, allow_shared_routers=True)
        platform.add_tile(Tile("a", TileType("ARM"), (0, 0)))
        platform.add_tile(Tile("b", TileType("DSP"), (0, 0)))
        assert len(platform.tiles_at((0, 0))) == 2

    def test_tiles_of_type(self):
        platform = self._platform()
        assert [t.name for t in platform.tiles_of_type("ARM")] == ["arm0", "arm1"]
        assert [t.name for t in platform.tiles_of_type(TileType("DSP"))] == ["dsp0"]

    def test_tile_types_in_first_appearance_order(self):
        platform = self._platform()
        assert [t.name for t in platform.tile_types()] == ["ARM", "DSP"]

    def test_distance_between_tiles(self):
        platform = self._platform()
        assert platform.distance("arm0", "arm1") == 1
        assert platform.distance("arm0", "dsp0") == 1
        assert platform.distance("arm1", "dsp0") == 2

    def test_duplicate_tile_name_rejected(self):
        platform = self._platform()
        with pytest.raises(PlatformError):
            platform.add_tile(Tile("arm0", TileType("ARM"), (1, 1)))


class TestTileTables:
    """The per-type index behind ``tiles_of_type`` and the per-scope tables
    of processing tiles behind steps 1-2 and the rescue lane."""

    def _platform(self):
        noc = build_mesh_noc(3, 2)
        platform = Platform("p", noc)
        arm, dsp, io = TileType("ARM"), TileType("DSP"), TileType("IO", is_processing=False)
        platform.add_tile(Tile("dsp0", dsp, (0, 0)))
        platform.add_tile(Tile("arm0", arm, (1, 0)))
        platform.add_tile(Tile("io0", io, (2, 0)))
        platform.add_tile(Tile("arm1", arm, (0, 1)))
        platform.add_tile(Tile("off", arm, (1, 1), ResourceBudget(max_processes=0)))
        platform.add_tile(Tile("arm2", arm, (2, 1)))
        return platform

    def test_tiles_of_type_keeps_declaration_order(self):
        platform = self._platform()
        assert [t.name for t in platform.tiles_of_type("ARM")] == [
            "arm0", "arm1", "off", "arm2"
        ]
        assert platform.tiles_of_type("GPU") == ()

    def test_a_later_add_tile_resets_the_index_and_tables(self):
        noc = build_mesh_noc(2, 2)
        platform = Platform("p", noc)
        platform.add_tile(Tile("arm1", TileType("ARM"), (1, 1)))
        assert [t.name for t in platform.tiles_of_type("ARM")] == ["arm1"]
        assert platform.processing_tile_names("ARM") == ("arm1",)
        assert platform.tiles_of_type("DSP") == ()
        platform.add_tile(Tile("arm0", TileType("ARM"), (0, 0)))
        platform.add_tile(Tile("dsp0", TileType("DSP"), (1, 0)))
        assert [t.name for t in platform.tiles_of_type("ARM")] == ["arm1", "arm0"]
        assert [t.name for t in platform.tiles_of_type("DSP")] == ["dsp0"]
        assert platform.processing_tile_names("ARM") == ("arm1", "arm0")

    def test_scoped_table_omits_non_processing_and_out_of_scope_tiles(self):
        platform = self._platform()
        assert platform.processing_tile_names("ARM") == ("arm0", "arm1", "arm2")
        assert platform.processing_tile_names("IO") == ()
        scope = frozenset({"arm2", "io0", "off", "dsp0", "arm0"})
        assert platform.processing_tile_names("ARM", scope) == ("arm0", "arm2")
        assert platform.processing_tile_names("IO", scope) == ()
        assert platform.processing_tile_names("DSP", scope) == ("dsp0",)
        # One table per (type, scope): an equal scope is served the same table.
        assert platform.processing_tile_names("ARM", frozenset(scope)) is (
            platform.processing_tile_names("ARM", scope)
        )


def _rescanning_moves(mapping, als, platform, residuals, exclusions, allowed_tiles):
    """Step 2's move candidates filtered from every tile of the platform."""
    moves = []
    for process in als.kpn.mappable_processes():
        assignment = mapping.assignment(process.name)
        tile_type = platform.tile(assignment.tile).type_name
        for tile in platform.tiles:
            if tile.type_name != tile_type or not tile.is_processing:
                continue
            if tile.name == assignment.tile:
                continue
            if allowed_tiles is not None and tile.name not in allowed_tiles:
                continue
            if not exclusions.placement_allowed(process.name, tile.name):
                continue
            if residuals.free_slots(tile.name) < 1:
                continue
            if assignment.implementation.memory_bytes > residuals.free_memory(tile.name):
                continue
            moves.append((process.name, tile.name))
    return moves


def test_region_scoped_step2_moves_match_a_full_rescan():
    from repro.platform.regions import RegionPartition
    from repro.platform.state import PlatformState, ProcessAllocation
    from repro.spatialmapper.feedback import ExclusionSet
    from repro.spatialmapper.residuals import ResidualTracker
    from repro.spatialmapper.step1_implementation import select_implementations
    from repro.spatialmapper.step2_tile_assignment import _enumerate_candidates, _Move
    from repro.workloads.synthetic import (
        SyntheticConfig,
        generate_application,
        generate_region_mesh,
    )

    platform = generate_region_mesh(2, 3, max_processes_per_tile=2, tile_memory_bytes=16384)
    region = RegionPartition.grid(platform, 2, 2).regions[3]
    allowed_tiles = frozenset(region.tile_names)
    io_tile = next(name for name in region.tile_names if name.startswith("io"))
    app = generate_application(
        11,
        SyntheticConfig(stages=5, tile_types=("GPP", "DSP")),
        source_tile=io_tile,
        sink_tile=io_tile,
    )
    state = PlatformState(platform)
    state.allocate_process(
        ProcessAllocation("other", "hog", region.processing_tile_names()[0], memory_bytes=12000)
    )
    step1 = select_implementations(
        app.als, platform, app.library, state=state, allowed_tiles=allowed_tiles
    )
    assert step1.succeeded
    mapping = step1.mapping
    exclusions = ExclusionSet()
    exclusions.ban_placement("k1", region.processing_tile_names()[-1])
    residuals = ResidualTracker.for_mapping(platform, state, mapping)

    candidates = _enumerate_candidates(
        mapping, app.als, platform, residuals, exclusions, allowed_tiles
    )
    moves = [(c.process, c.target_tile) for c in candidates if isinstance(c, _Move)]
    assert moves == _rescanning_moves(
        mapping, app.als, platform, residuals, exclusions, allowed_tiles
    )
    assert moves and all(target in allowed_tiles for _, target in moves)
    unscoped = _rescanning_moves(mapping, app.als, platform, residuals, exclusions, None)
    assert len(unscoped) > len(moves)
