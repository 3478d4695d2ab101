"""Property tests of the process drain's snapshot dispatch and delta fold.

Every lane dispatch of :class:`ProcessRegionExecutor` carries a
:class:`RegionSnapshot` out, and every admission comes back as an
:class:`AllocationDelta`.  The executor only stays decision-identical to
the serial executor if two serialization invariants hold *bit-exactly*:

* a :class:`RegionSnapshot` survives a pickle round-trip and rebuilds to a
  state whose region fingerprint equals the live state's — across
  arbitrary allocate / release histories (releases re-sum aggregates,
  allocations extend them incrementally, and the fingerprint is a
  float-sum digest, so list order and summation order both matter);
* committing allocations on the worker's rebuilt state and folding the
  same records as an :class:`AllocationDelta` into the engine's state
  produce bit-identical region fingerprints — the fold is exactly as good
  as having decided in-process.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import PlatformError
from repro.platform.regions import RegionPartition
from repro.platform.state import (
    AllocationDelta,
    LinkAllocation,
    PlatformState,
    ProcessAllocation,
)
from tests.harness import build_two_region_platform, two_region_partition

#: One history operation: (kind, tile/link pick, application pick).  Small
#: integer spaces so sequences revisit the same keys and applications often
#: (releases that actually remove something are what stress the re-summed
#: aggregates).
operations = st.lists(
    st.tuples(
        st.sampled_from(["process", "link", "release"]),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=0,
    max_size=40,
)


def _platform_and_partition():
    platform = build_two_region_platform()
    return platform, two_region_partition(platform)


def _apply_history(state: PlatformState, partition: RegionPartition, ops) -> None:
    """Drive the state through an arbitrary allocate/release history."""
    tiles = [
        name
        for region in partition
        for name in region.processing_tile_names()
    ]
    links = [name for region in partition for name in region.link_names]
    for index, (kind, a, b) in enumerate(ops):
        application = f"app{b}"
        try:
            if kind == "process":
                state.allocate_process(
                    ProcessAllocation(
                        application,
                        f"p{index}",
                        tiles[a % len(tiles)],
                        memory_bytes=(a + 1) * 512,
                        compute_cycles_per_iteration=float(a) * 7.25,
                    )
                )
            elif kind == "link":
                state.allocate_link(
                    LinkAllocation(
                        application, f"c{index}", links[a % len(links)], (a + 1) * 1e6
                    )
                )
            else:
                state.release_application(application)
        except PlatformError:
            pass  # full tiles/links are part of the history space


class TestSnapshotRoundTrip:
    @given(operations)
    @settings(max_examples=60, deadline=None)
    def test_pickle_round_trip_reproduces_fingerprint_bit_identically(self, ops):
        """snapshot -> pickle -> rebuild == live state, per region, bit-exact."""
        platform, partition = _platform_and_partition()
        state = PlatformState(platform)
        _apply_history(state, partition, ops)
        for region in partition:
            live = region.fingerprint(state)
            rebuilt = pickle.loads(pickle.dumps(region.snapshot(state))).build_state(platform)
            assert region.fingerprint(rebuilt) == live
            # The rebuilt state is observationally identical over the scope,
            # not just fingerprint-equal.
            for name in region.tile_names:
                assert rebuilt.occupants(name) == state.occupants(name)
            for name in region.link_names:
                assert rebuilt.link_load_bits_per_s(name) == state.link_load_bits_per_s(
                    name
                )

    @given(operations, operations)
    @settings(max_examples=60, deadline=None)
    def test_delta_fold_matches_in_process_commit(self, history, commits):
        """Worker-side commit + engine-side delta fold == in-process commit.

        Build one history, snapshot a region out, run fresh allocations on
        the rebuilt (worker) state, ship them back as an
        :class:`AllocationDelta`, and fold them into the engine state under
        a region transaction: both sides' region fingerprints must be
        bit-identical afterwards.
        """
        platform, partition = _platform_and_partition()
        engine_state = PlatformState(platform)
        _apply_history(engine_state, partition, history)
        region = next(iter(partition))
        worker_state = pickle.loads(
            pickle.dumps(region.snapshot(engine_state))
        ).build_state(platform)

        tiles = list(region.processing_tile_names())
        links = list(region.link_names)
        processes: list[ProcessAllocation] = []
        link_records: list[LinkAllocation] = []
        for index, (kind, a, b) in enumerate(commits):
            try:
                if kind == "link":
                    record = LinkAllocation(
                        f"new{b}", f"nc{index}", links[a % len(links)], (a + 1) * 5e5
                    )
                    worker_state.allocate_link(record)
                    link_records.append(record)
                else:  # treat "release" picks as process allocations too
                    record = ProcessAllocation(
                        f"new{b}",
                        f"np{index}",
                        tiles[a % len(tiles)],
                        memory_bytes=(a + 1) * 256,
                        compute_cycles_per_iteration=float(a) * 3.5,
                    )
                    worker_state.allocate_process(record)
                    processes.append(record)
            except PlatformError:
                pass  # the worker's pipeline would not have produced it

        delta = pickle.loads(
            pickle.dumps(
                AllocationDelta("new", tuple(processes), tuple(link_records))
            )
        )
        with engine_state.transaction(region):
            engine_state.apply_delta(delta)
        assert region.fingerprint(engine_state) == region.fingerprint(worker_state)

    @given(operations)
    @settings(max_examples=30, deadline=None)
    def test_conflicting_delta_rolls_back_cleanly(self, history):
        """A delta the live state rejects must leave no trace (the engine
        re-decides such jobs; a half-applied fold would corrupt the lane)."""
        platform, partition = _platform_and_partition()
        state = PlatformState(platform)
        _apply_history(state, partition, history)
        region = next(iter(partition))
        tile = region.processing_tile_names()[0]
        capacity = platform.tile(tile).resources.max_processes
        used = state.used_process_slots(tile)
        # One record too many: fill the tile, then one more.
        records = tuple(
            ProcessAllocation("overflow", f"op{i}", tile)
            for i in range(capacity - used + 1)
        )
        before = region.fingerprint(state)
        try:
            with state.transaction(region):
                state.apply_delta(AllocationDelta("overflow", records, ()))
        except PlatformError:
            pass
        else:  # pragma: no cover - the overflow record must always raise
            raise AssertionError("overflowing delta unexpectedly applied")
        assert region.fingerprint(state) == before
