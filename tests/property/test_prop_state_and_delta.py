"""Property tests of the incremental resource-accounting core.

Two invariants protect the O(1) fast paths introduced for run-time admission:

* the cached per-tile/per-link aggregates of :class:`PlatformState` must
  always equal the sums recomputed from the raw allocation lists, across
  arbitrary interleavings of allocate / release / transaction commit /
  transaction rollback;
* a rolled-back transaction must leave the state bit-identical to the
  snapshot taken before it opened;
* the delta cost used by the step-2 local search must equal the full
  Manhattan-cost recompute for random move/swap sequences, and the
  search's running cost table must equal one rebuilt from its mapping.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import PlatformError
from repro.mapping.cost import manhattan_cost
from repro.mapping.mapping import Mapping
from repro.platform.state import LinkAllocation, PlatformState, ProcessAllocation
from repro.spatialmapper import step2_tile_assignment as step2_module
from repro.spatialmapper.config import MapperConfig, Step2Strategy
from repro.spatialmapper.step1_implementation import select_implementations
from repro.spatialmapper.step2_tile_assignment import CostTable
from repro.workloads.synthetic import SyntheticConfig, generate_application, generate_platform


def _recomputed_aggregates(state: PlatformState):
    """Ground-truth aggregates, re-summed from the raw allocation lists."""
    tiles = {}
    for name, allocations in state._tile_occupants.items():
        tiles[name] = (
            len(allocations),
            sum(a.memory_bytes for a in allocations),
            sum(a.compute_cycles_per_iteration for a in allocations),
        )
    links = {
        name: sum(a.bits_per_s for a in allocations)
        for name, allocations in state._link_allocations.items()
    }
    return tiles, links


def _assert_aggregates_consistent(state: PlatformState) -> None:
    tiles, links = _recomputed_aggregates(state)
    for name, (slots, memory, cycles) in tiles.items():
        assert state.used_process_slots(name) == slots
        assert state.used_memory_bytes(name) == memory
        assert state.used_compute_cycles_per_iteration(name) == cycles
    for name, load in links.items():
        assert state.link_load_bits_per_s(name) == load


def _snapshot(state: PlatformState):
    """Bit-exact snapshot of everything observable about the state."""
    return (
        {name: tuple(a) for name, a in state._tile_occupants.items()},
        {name: tuple(a) for name, a in state._link_allocations.items()},
        dict(state._used_slots),
        dict(state._used_memory),
        dict(state._used_cycles),
        dict(state._link_load),
    )


# One operation: (kind, seed material) drawn from small integer spaces so
# sequences revisit the same tiles/links/applications often.
operations = st.lists(
    st.tuples(
        st.sampled_from(["process", "link", "release", "txn_commit", "txn_rollback"]),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=40,
)


class TestStateAggregates:
    @given(operations)
    @settings(max_examples=60, deadline=None)
    def test_aggregates_match_recomputed_sums(self, ops):
        platform = generate_platform(seed=7, width=3, height=3)
        state = PlatformState(platform)
        processing = [t.name for t in platform.processing_tiles()]
        links = [link.name for link in platform.noc.links]

        def apply_ops(remaining, depth=0):
            counter = 0
            while remaining:
                kind, a, b = remaining.pop(0)
                counter += 1
                application = f"app{b}"
                if kind == "process":
                    tile = processing[a % len(processing)]
                    try:
                        state.allocate_process(
                            ProcessAllocation(
                                application,
                                f"p{depth}_{counter}",
                                tile,
                                memory_bytes=(a + 1) * 512,
                                compute_cycles_per_iteration=float(a) * 10.5,
                            )
                        )
                    except PlatformError:
                        pass
                elif kind == "link":
                    link = links[a % len(links)]
                    try:
                        state.allocate_link(
                            LinkAllocation(application, f"c{depth}_{counter}", link, (a + 1) * 1e6)
                        )
                    except PlatformError:
                        pass
                elif kind == "release":
                    state.release_application(application)
                elif kind in ("txn_commit", "txn_rollback") and depth < 3:
                    inner = remaining[: a + 1]
                    del remaining[: a + 1]
                    before = _snapshot(state)
                    with state.transaction() as txn:
                        apply_ops(inner, depth + 1)
                        if kind == "txn_rollback":
                            txn.rollback()
                    if kind == "txn_rollback":
                        assert _snapshot(state) == before
                _assert_aggregates_consistent(state)

        apply_ops(list(ops))
        _assert_aggregates_consistent(state)

    @given(operations)
    @settings(max_examples=40, deadline=None)
    def test_rollback_restores_state_bit_identically(self, ops):
        platform = generate_platform(seed=11, width=3, height=3)
        state = PlatformState(platform)
        processing = [t.name for t in platform.processing_tiles()]
        links = [link.name for link in platform.noc.links]

        # Seed some committed load so rollbacks restore non-trivial entries.
        state.allocate_process(ProcessAllocation("base", "p0", processing[0], memory_bytes=256))
        state.allocate_link(LinkAllocation("base", "c0", links[0], 1e6))

        before = _snapshot(state)
        with state.transaction() as txn:
            for index, (kind, a, b) in enumerate(ops):
                try:
                    if kind in ("process", "release", "txn_commit"):
                        state.allocate_process(
                            ProcessAllocation(
                                f"app{b}",
                                f"q{index}",
                                processing[a % len(processing)],
                                memory_bytes=a * 128,
                            )
                        )
                    elif kind == "link":
                        state.allocate_link(
                            LinkAllocation(f"app{b}", f"d{index}", links[a % len(links)], 5e5)
                        )
                    else:
                        state.release_application("base")
                except PlatformError:
                    pass
            txn.rollback()
        assert _snapshot(state) == before

    def test_exception_rolls_back_automatically(self):
        platform = generate_platform(seed=13, width=3, height=3)
        state = PlatformState(platform)
        tile = platform.processing_tiles()[0].name
        before = _snapshot(state)
        try:
            with state.transaction():
                state.allocate_process(ProcessAllocation("app", "p", tile))
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert _snapshot(state) == before

    def test_committed_inner_transaction_undone_by_outer_rollback(self):
        platform = generate_platform(seed=17, width=3, height=3)
        state = PlatformState(platform)
        tile = platform.processing_tiles()[0].name
        before = _snapshot(state)
        with state.transaction() as outer:
            with state.transaction():
                state.allocate_process(ProcessAllocation("app", "p", tile))
            assert state.used_process_slots(tile) == 1
            outer.rollback()
        assert _snapshot(state) == before


def _placed_processes(mapping, als):
    return [
        p.name
        for p in als.kpn.mappable_processes()
        if mapping.is_assigned(p.name) and mapping.assignment(p.name).implementation
    ]


class TestDeltaCost:
    """Step 2's :class:`CostTable` scores a candidate as a delta over the
    channels it touches; applied, the delta must land exactly on the full
    :func:`manhattan_cost` recompute, and a table kept up to date through
    accepted candidates must equal one rebuilt from the mapping."""

    @given(
        st.integers(min_value=0, max_value=30),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7)),
            min_size=1,
            max_size=12,
        ),
        st.booleans(),
        st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_delta_equals_full_recompute_for_moves_and_swaps(self, seed, steps, weighted, unplaced):
        """Moves and swaps on a mapping with ``unplaced`` processes taken
        out (their channels do not count); the token weights are integral,
        so the sums are exact."""
        app = generate_application(seed, config=SyntheticConfig(stages=5, period_ns=50_000.0))
        platform = generate_platform(seed + 500, width=4, height=4)
        step1 = select_implementations(app.als, platform, app.library)
        mapping = step1.mapping
        for process_name in _placed_processes(mapping, app.als)[:unplaced]:
            mapping.unassign(process_name)
        processes = _placed_processes(mapping, app.als)
        if not processes:
            return
        table = CostTable(mapping, app.als, platform, weighted_by_tokens=weighted)
        tiles_by_type = {
            type_.name: [t.name for t in platform.tiles_of_type(type_.name) if t.is_processing]
            for type_ in platform.tile_types()
        }

        for a, b in steps:
            process_a = processes[a % len(processes)]
            process_b = processes[b % len(processes)]
            assignment_a = mapping.assignment(process_a)
            tile_type = assignment_a.implementation.tile_type
            same_type_tiles = tiles_by_type.get(tile_type, [])
            if process_a != process_b and (
                mapping.assignment(process_b).implementation.tile_type == tile_type
            ):
                # Swap the two processes.
                moves = {
                    process_a: mapping.tile_of(process_b),
                    process_b: mapping.tile_of(process_a),
                }
            elif same_type_tiles:
                moves = {process_a: same_type_tiles[b % len(same_type_tiles)]}
            else:
                continue

            before = manhattan_cost(mapping, app.als, platform, weighted_by_tokens=weighted)
            assert table.cost() == before
            delta = table.delta(moves)
            for process_name, tile_name in moves.items():
                mapping.assign(mapping.assignment(process_name).moved_to(tile_name))
                table.place(process_name, tile_name)
            after = manhattan_cost(mapping, app.als, platform, weighted_by_tokens=weighted)
            assert before + delta == after
            assert table.cost() == after

    def test_delta_on_partial_mapping_skips_unplaced_endpoints(self):
        app = generate_application(3, config=SyntheticConfig(stages=4, period_ns=50_000.0))
        platform = generate_platform(503, width=4, height=4)
        step1 = select_implementations(app.als, platform, app.library)
        mapping = step1.mapping
        processes = _placed_processes(mapping, app.als)
        victim = processes[-1]
        mover = processes[0]
        partial = Mapping(app.als.name)
        for assignment in mapping.assignments:
            if assignment.process != victim:
                partial.assign(assignment)
        table = CostTable(partial, app.als, platform)
        assert table.positions[victim] is None
        tile_type = mapping.assignment(mover).implementation.tile_type
        target = [
            t.name
            for t in platform.tiles_of_type(tile_type)
            if t.is_processing and t.name != partial.tile_of(mover)
        ]
        if not target:
            return
        moves = {mover: target[0]}
        before = manhattan_cost(partial, app.als, platform)
        delta = table.delta(moves)
        partial.assign(partial.assignment(mover).moved_to(target[0]))
        assert before + delta == manhattan_cost(partial, app.als, platform)

    @given(
        st.integers(min_value=0, max_value=200),
        st.sampled_from(tuple(Step2Strategy)),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_running_table_equals_a_rebuilt_one(self, seed, strategy, weighted):
        """After every candidate either search strategy accepts, the table
        it keeps equals one rebuilt from the refined mapping, and its cost
        equals the full recompute."""
        app = generate_application(seed, config=SyntheticConfig(stages=5, period_ns=50_000.0))
        platform = generate_platform(seed + 300, width=4, height=4)
        config = MapperConfig(step2_strategy=strategy, step2_weight_by_tokens=weighted)
        step1 = select_implementations(app.als, platform, app.library, config=config)
        accepted = []
        real_accept = step2_module._accept

        def accept(mapping, candidate, residuals, table):
            real_accept(mapping, candidate, residuals, table)
            rebuilt = CostTable(mapping, app.als, platform, weighted_by_tokens=weighted)
            assert table.positions == rebuilt.positions
            assert table.cost() == manhattan_cost(
                mapping, app.als, platform, weighted_by_tokens=weighted
            )
            accepted.append(candidate)

        step2_module._accept = accept
        try:
            result = step2_module.refine_tile_assignment(
                step1.mapping, app.als, platform, config=config
            )
        finally:
            step2_module._accept = real_accept
        assert len(accepted) == len(result.trace.accepted_iterations)
        assert result.final_cost == manhattan_cost(
            result.mapping, app.als, platform, weighted_by_tokens=weighted
        )


class TestStep2DeltaAgainstFullSearch:
    @given(st.integers(min_value=0, max_value=25))
    @settings(max_examples=15, deadline=None)
    def test_refinement_cost_matches_full_recompute(self, seed):
        """The cost step 2 reports after its delta-driven search must equal a
        from-scratch recompute on the refined mapping."""
        from repro.spatialmapper.step2_tile_assignment import refine_tile_assignment

        app = generate_application(seed, config=SyntheticConfig(stages=4, period_ns=50_000.0))
        platform = generate_platform(seed + 900, width=4, height=4)
        step1 = select_implementations(app.als, platform, app.library)
        result = refine_tile_assignment(step1.mapping, app.als, platform)
        assert result.final_cost == manhattan_cost(result.mapping, app.als, platform)

    @given(st.integers(min_value=0, max_value=25))
    @settings(max_examples=10, deadline=None)
    def test_step3_leaves_live_state_untouched(self, seed):
        """Routing journals its tentative reservations into the caller's state
        and must roll every one of them back."""
        from repro.spatialmapper.step3_routing import route_channels

        app = generate_application(seed, config=SyntheticConfig(stages=4, period_ns=50_000.0))
        platform = generate_platform(seed + 700, width=4, height=4)
        state = PlatformState(platform)
        tile = platform.processing_tiles()[0].name
        link = platform.noc.links[0].name
        state.allocate_process(ProcessAllocation("other", "p", tile, memory_bytes=64))
        state.allocate_link(LinkAllocation("other", "c", link, 2e6))
        step1 = select_implementations(app.als, platform, app.library, state=state)
        before = _snapshot(state)
        route_channels(step1.mapping, app.als, platform, state=state)
        assert _snapshot(state) == before
