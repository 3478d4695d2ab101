"""Step 1: implementation selection and first-fit packing."""

import pytest

from repro.spatialmapper.config import MapperConfig
from repro.spatialmapper.feedback import ExclusionSet, FeedbackKind
from repro.spatialmapper.step1_implementation import eligible_tiles, select_implementations
from repro.platform.state import PlatformState, ProcessAllocation


class TestHiperlanStep1:
    def test_initial_assignment_matches_paper(self, case_study):
        als, platform, library = case_study
        result = select_implementations(als, platform, library)
        assert result.succeeded
        mapping = result.mapping
        assert mapping.tile_of("inverse_ofdm") == "montium1"
        assert mapping.tile_of("remainder") == "montium2"
        assert mapping.tile_of("prefix_removal") == "arm1"
        assert mapping.tile_of("freq_offset_correction") == "arm2"

    def test_assignment_order_follows_desirability(self, case_study):
        als, platform, library = case_study
        result = select_implementations(als, platform, library)
        assert result.order[:2] == ["inverse_ofdm", "remainder"]

    def test_montium_implementations_chosen_for_heavy_kernels(self, case_study):
        als, platform, library = case_study
        mapping = select_implementations(als, platform, library).mapping
        assert mapping.assignment("inverse_ofdm").implementation.tile_type == "MONTIUM"
        assert mapping.assignment("remainder").implementation.tile_type == "MONTIUM"
        assert mapping.assignment("prefix_removal").implementation.tile_type == "ARM"

    def test_pinned_processes_are_included(self, case_study):
        als, platform, library = case_study
        mapping = select_implementations(als, platform, library).mapping
        assert mapping.tile_of("adc") == "adc"
        assert mapping.tile_of("sink") == "sink"
        assert mapping.assignment("adc").implementation is None

    def test_occupied_montium_leaves_remaining_one_to_most_desirable(self, case_study):
        als, platform, library = case_study
        state = PlatformState(platform)
        state.allocate_process(ProcessAllocation("other", "x", "montium1"))
        result = select_implementations(als, platform, library, state=state)
        mapping = result.mapping
        # Only one Montium is left: the most desirable process (inverse OFDM)
        # takes it; every other assigned process falls back to an ARM
        # implementation (three processes then compete for two ARM tiles, so
        # one of them necessarily stays unassigned and raises feedback).
        assert mapping.tile_of("inverse_ofdm") == "montium2"
        for assignment in mapping.assignments:
            if assignment.implementation is None or assignment.process == "inverse_ofdm":
                continue
            assert assignment.implementation.tile_type == "ARM"
        assert not result.succeeded

    def test_fully_occupied_platform_produces_feedback(self, case_study):
        als, platform, library = case_study
        state = PlatformState(platform)
        state.allocate_process(ProcessAllocation("other", "x", "montium1"))
        state.allocate_process(ProcessAllocation("other", "y", "montium2"))
        result = select_implementations(als, platform, library, state=state)
        # With both Montiums taken only the two ARM tiles remain for four
        # processes, so at least two processes cannot be placed.
        assert not result.succeeded
        assert len(result.feedback) >= 2
        for assignment in result.mapping.assignments:
            if assignment.implementation is not None:
                assert assignment.implementation.tile_type == "ARM"

    def test_banned_implementation_is_skipped(self, case_study):
        als, platform, library = case_study
        exclusions = ExclusionSet()
        exclusions.ban_implementation("inverse_ofdm", "MONTIUM")
        result = select_implementations(als, platform, library, exclusions=exclusions)
        assert result.mapping.assignment("inverse_ofdm").implementation.tile_type == "ARM"

    def test_banned_placement_moves_process(self, case_study):
        als, platform, library = case_study
        exclusions = ExclusionSet()
        exclusions.ban_placement("inverse_ofdm", "montium1")
        result = select_implementations(als, platform, library, exclusions=exclusions)
        assert result.mapping.tile_of("inverse_ofdm") == "montium2"

    def test_no_tiles_at_all_produces_feedback(self, case_study):
        als, platform, library = case_study
        state = PlatformState(platform)
        for tile in platform.processing_tiles():
            state.allocate_process(ProcessAllocation("other", f"p_{tile.name}", tile.name))
        result = select_implementations(als, platform, library, state=state)
        assert not result.succeeded
        assert all(f.kind is FeedbackKind.NO_IMPLEMENTATION for f in result.feedback)


class TestEligibleTiles:
    def test_declaration_order(self, case_study):
        als, platform, library = case_study
        from repro.mapping.mapping import Mapping

        implementation = library.implementation_for("prefix_removal", "ARM")
        tiles = eligible_tiles(implementation, platform, None, Mapping("x"))
        assert tiles == ["arm1", "arm2"]

    def test_memory_limits_respected(self, case_study, hiperlan_library):
        als, platform, library = case_study
        from repro.mapping.mapping import Mapping

        state = PlatformState(platform)
        tile_budget = platform.tile("arm1").resources.memory_bytes
        state.allocate_process(
            ProcessAllocation("other", "hog", "arm1", memory_bytes=tile_budget)
        )
        implementation = hiperlan_library.implementation_for("prefix_removal", "ARM")
        tiles = eligible_tiles(implementation, platform, state, Mapping("x"))
        assert tiles == ["arm2"]


class SpyExclusions(ExclusionSet):
    """An exclusion set that counts how often it is consulted."""

    def __init__(self):
        super().__init__()
        self.queries = 0

    def placement_allowed(self, process, tile):
        self.queries += 1
        return super().placement_allowed(process, tile)

    def implementation_allowed(self, process, tile_type):
        self.queries += 1
        return super().implementation_allowed(process, tile_type)


class TestEmptyExclusionsAreKept:
    """An empty caller-owned ``ExclusionSet`` is falsy (it defines
    ``__len__``) but must still be the set the step consults, not be swapped
    for a fresh one."""

    def test_eligible_tiles_consults_an_empty_set(self, case_study):
        als, platform, library = case_study
        from repro.mapping.mapping import Mapping

        spy = SpyExclusions()
        assert not spy
        implementation = library.implementation_for("prefix_removal", "ARM")
        tiles = eligible_tiles(implementation, platform, None, Mapping("x"), exclusions=spy)
        assert tiles == ["arm1", "arm2"]
        assert spy.queries == 2

    def test_select_implementations_consults_an_empty_set(self, case_study):
        als, platform, library = case_study
        spy = SpyExclusions()
        result = select_implementations(als, platform, library, exclusions=spy)
        assert result.succeeded
        assert spy.queries > 0

    def test_refine_tile_assignment_consults_an_empty_set(self, case_study):
        from repro.spatialmapper.step2_tile_assignment import refine_tile_assignment

        als, platform, library = case_study
        mapping = select_implementations(als, platform, library).mapping
        spy = SpyExclusions()
        refine_tile_assignment(mapping, als, platform, exclusions=spy)
        assert spy.queries > 0
