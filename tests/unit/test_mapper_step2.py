"""Step 2: local-search refinement of the tile assignment."""

import pytest

from repro.mapping.cost import manhattan_cost
from repro.spatialmapper.config import MapperConfig, Step2Strategy
from repro.spatialmapper.feedback import ExclusionSet
from repro.spatialmapper.step1_implementation import select_implementations
from repro.spatialmapper import step2_tile_assignment as step2_module
from repro.spatialmapper.step2_tile_assignment import refine_tile_assignment
from repro.workloads.synthetic import SyntheticConfig, generate_application, generate_platform


@pytest.fixture()
def initial(case_study):
    als, platform, library = case_study
    result = select_implementations(als, platform, library)
    assert result.succeeded
    return als, platform, library, result.mapping


class TestPaperTrace:
    def test_cost_trajectory_matches_table2(self, initial):
        als, platform, library, mapping = initial
        result = refine_tile_assignment(mapping, als, platform)
        trace = result.trace
        assert trace.initial_cost == pytest.approx(11.0)
        improving = trace.improving_prefix()
        assert [row.cost for row in improving] == [11.0, 9.0, 7.0]
        assert [row.accepted for row in improving] == [False, True, True]
        assert trace.final_cost == pytest.approx(7.0)

    def test_first_iteration_is_the_arm_swap(self, initial):
        als, platform, library, mapping = initial
        trace = refine_tile_assignment(mapping, als, platform).trace
        first = trace.iterations[0]
        assert "prefix_removal" in first.description
        assert "freq_offset_correction" in first.description
        assert first.remark == "No improvement, revert"

    def test_second_iteration_swaps_the_montiums(self, initial):
        als, platform, library, mapping = initial
        trace = refine_tile_assignment(mapping, als, platform).trace
        second = trace.iterations[1]
        assert "inverse_ofdm" in second.description
        assert "remainder" in second.description
        assert second.accepted

    def test_final_assignment_matches_paper(self, initial):
        als, platform, library, mapping = initial
        refined = refine_tile_assignment(mapping, als, platform).mapping
        assert refined.tile_of("freq_offset_correction") == "arm1"
        assert refined.tile_of("prefix_removal") == "arm2"
        assert refined.tile_of("remainder") == "montium1"
        assert refined.tile_of("inverse_ofdm") == "montium2"

    def test_refinement_never_increases_cost(self, initial):
        als, platform, library, mapping = initial
        before = manhattan_cost(mapping, als, platform)
        result = refine_tile_assignment(mapping, als, platform)
        after = manhattan_cost(result.mapping, als, platform)
        assert after <= before

    def test_adequacy_preserved_by_construction(self, initial):
        als, platform, library, mapping = initial
        refined = refine_tile_assignment(mapping, als, platform).mapping
        for assignment in refined.assignments:
            if assignment.implementation is None:
                continue
            tile_type = platform.tile(assignment.tile).type_name
            assert assignment.implementation.tile_type == tile_type


class TestStrategiesAndConfig:
    def test_best_improvement_reaches_same_cost(self, initial):
        als, platform, library, mapping = initial
        config = MapperConfig(step2_strategy=Step2Strategy.BEST_IMPROVEMENT)
        result = refine_tile_assignment(mapping, als, platform, config=config)
        assert result.final_cost == pytest.approx(7.0)

    def test_best_improvement_needs_fewer_accepted_iterations(self, initial):
        als, platform, library, mapping = initial
        first = refine_tile_assignment(mapping, als, platform)
        best = refine_tile_assignment(
            mapping, als, platform,
            config=MapperConfig(step2_strategy=Step2Strategy.BEST_IMPROVEMENT),
        )
        assert len(best.trace.iterations) <= len(first.trace.iterations)

    def test_iteration_cap_respected(self, initial):
        als, platform, library, mapping = initial
        config = MapperConfig(step2_max_iterations=1)
        result = refine_tile_assignment(mapping, als, platform, config=config)
        assert len(result.trace.iterations) <= 1

    def test_min_gain_threshold_blocks_small_improvements(self, initial):
        als, platform, library, mapping = initial
        config = MapperConfig(step2_min_gain=100.0)
        result = refine_tile_assignment(mapping, als, platform, config=config)
        # No swap improves by 100 distance units, so nothing is accepted.
        assert result.final_cost == pytest.approx(result.trace.initial_cost)

    def test_trace_can_be_disabled(self, initial):
        als, platform, library, mapping = initial
        config = MapperConfig(keep_step2_trace=False)
        result = refine_tile_assignment(mapping, als, platform, config=config)
        assert result.trace.iterations == []
        # The refinement still happens even without a trace.
        assert manhattan_cost(result.mapping, als, platform) == pytest.approx(7.0)

    def test_excluded_placement_is_never_used(self, initial):
        als, platform, library, mapping = initial
        exclusions = ExclusionSet()
        exclusions.ban_placement("prefix_removal", "arm2")
        result = refine_tile_assignment(mapping, als, platform, exclusions=exclusions)
        assert result.mapping.tile_of("prefix_removal") != "arm2"

    def test_cost_trajectory_is_monotone_over_accepted_steps(self, initial):
        als, platform, library, mapping = initial
        trace = refine_tile_assignment(mapping, als, platform).trace
        accepted_costs = [row.cost for row in trace.accepted_iterations]
        assert accepted_costs == sorted(accepted_costs, reverse=True)


class TestLazyTrace:
    """A trace row stores only the candidate's moves; its description and
    assignment, derived on read, equal what the mapping said when the row
    was recorded."""

    @pytest.mark.parametrize("strategy", list(Step2Strategy))
    @pytest.mark.parametrize("seed", [0, 1, 4])
    def test_derived_rows_equal_the_mapping_at_record_time(
        self, seed, strategy, monkeypatch
    ):
        platform = generate_platform(seed, width=4, height=4)
        app = generate_application(seed, SyntheticConfig(stages=6))
        initial = select_implementations(app.als, platform, app.library).mapping
        mappable = [p.name for p in app.als.kpn.mappable_processes()]
        recorded = []

        def record(trace, config, iteration, candidate, mapping_before, cost, accepted):
            moves = step2_module._proposed_moves(mapping_before, candidate)
            assignment = {p: mapping_before.tile_of(p) for p in mappable}
            assignment.update(moves)
            tiles = {p: mapping_before.tile_of(p) for p in moves}
            recorded.append((assignment, tiles, moves))
            real_record(trace, config, iteration, candidate, mapping_before, cost, accepted)

        real_record = step2_module._record
        monkeypatch.setattr(step2_module, "_record", record)
        trace = refine_tile_assignment(
            initial, app.als, platform, config=MapperConfig(step2_strategy=strategy)
        ).trace

        assert len(trace.iterations) == len(recorded) > 0
        assert any(row.accepted for row in trace.iterations)
        for row, (assignment, tiles, moves) in zip(trace.iterations, recorded):
            assert row.assignment == assignment
            assert row.moves == tuple((p, tiles[p], moves[p]) for p in moves)
            if len(moves) == 1:
                ((process, target),) = moves.items()
                assert row.description == f"move {process} from {tiles[process]} to {target}"
            else:
                a, b = moves
                assert row.description == f"swap {a} ({tiles[a]}) with {b} ({tiles[b]})"
