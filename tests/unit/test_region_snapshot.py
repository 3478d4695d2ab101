"""Unit tests of the region snapshot and the stateless drain worker.

Every lane dispatch of the process drain ships one
:class:`RegionSnapshot`, and the worker rebuilds its region from it and
keeps nothing between drains.  The differential suites check the whole
round-trip through real worker processes; these tests pin, in-process,
the pieces they cannot isolate: what a snapshot holds and in which order,
that :func:`fingerprint_digest` is a canonical exact digest, that
:meth:`PlatformState.apply_delta` writes the records a direct commit
writes, and that :func:`procdrain.handle_lane` decides against the
dispatched snapshot alone.
"""

import hashlib
import pickle

import pytest

from repro.appmodel.library import ImplementationLibrary
from repro.exceptions import PlatformError
from repro.platform.state import (
    AllocationDelta,
    LinkAllocation,
    PlatformState,
    ProcessAllocation,
    RegionSnapshot,
    fingerprint_digest,
)
from repro.runtime import procdrain
from tests.harness import build_two_region_platform, make_app, make_manager, two_region_partition


@pytest.fixture()
def world():
    platform = build_two_region_platform()
    partition = two_region_partition(platform)
    left = next(region for region in partition if "io_l" in region.tile_names)
    right = next(region for region in partition if "io_r" in region.tile_names)
    return platform, left, right, PlatformState(platform)


def _process(application, tile, index=0, memory=1024, cycles=12.5):
    return ProcessAllocation(application, f"p_{application}_{index}", tile, memory, cycles)


def _fill(state, region, applications, start=0):
    """Allocate one process (one tile each, from the ``start``-th
    processing tile on) and one link reservation per application."""
    tiles = region.processing_tile_names()
    for index, application in enumerate(applications, start):
        state.allocate_process(_process(application, tiles[index % len(tiles)], index))
        state.allocate_link(
            LinkAllocation(application, f"c{index}", region.link_names[0], (index + 1) * 1e6)
        )


class TestSnapshotScope:
    def test_empty_state_snapshots_empty(self, world):
        platform, left, _, state = world
        snapshot = left.snapshot(state)
        assert snapshot == RegionSnapshot(tile_occupants=(), link_allocations=())
        assert left.fingerprint(snapshot.build_state(platform)) == ()

    def test_snapshot_holds_only_occupied_keys_of_its_scope(self, world):
        _, left, right, state = world
        _fill(state, left, ["a", "b"])
        _fill(state, right, ["c"])
        snapshot = left.snapshot(state)
        tiles = [name for name, _ in snapshot.tile_occupants]
        links = [name for name, _ in snapshot.link_allocations]
        assert set(tiles) <= set(left.tile_names)
        assert set(links) == {left.link_names[0]}
        assert all(held for _, held in snapshot.tile_occupants)
        assert "c" not in {a.application for _, held in snapshot.tile_occupants for a in held}
        # Keys appear in the scope's own order.
        assert tiles == [name for name in left.tile_names if name in tiles]

    def test_snapshot_keeps_the_live_list_order(self, world):
        _, left, _, state = world
        link = left.link_names[0]
        for index, application in enumerate(("x", "y", "z")):
            state.allocate_link(LinkAllocation(application, f"c{index}", link, 1e6))
        state.release_application("y")
        state.allocate_link(LinkAllocation("w", "c3", link, 1e6))
        allocations = dict(left.snapshot(state).link_allocations)[link]
        assert [a.application for a in allocations] == ["x", "z", "w"]

    def test_snapshot_does_not_follow_later_mutations(self, world):
        _, left, _, state = world
        _fill(state, left, ["a"])
        snapshot = left.snapshot(state)
        before = pickle.dumps(snapshot)
        _fill(state, left, ["b"], start=1)
        state.release_application("a")
        assert pickle.dumps(snapshot) == before

    def test_rebuilt_state_is_empty_outside_the_scope(self, world):
        platform, left, right, state = world
        _fill(state, left, ["a", "b"])
        _fill(state, right, ["c", "d"])
        rebuilt = left.snapshot(state).build_state(platform)
        assert left.fingerprint(rebuilt) == left.fingerprint(state)
        assert right.fingerprint(rebuilt) == ()
        assert rebuilt.applications() == ("a", "b")

    def test_release_on_the_rebuilt_state_resums_identically(self, world):
        """Releasing on a worker's rebuilt state and on the engine state
        re-sums the aggregates to the same bits."""
        platform, left, _, state = world
        link = left.link_names[0]
        for index, load in enumerate([0.1, 0.2, 0.3, 1e-9, 7.25, 1e9]):
            state.allocate_link(LinkAllocation(f"app{index % 3}", f"c{index}", link, load))
        rebuilt = left.snapshot(state).build_state(platform)
        for application in ("app1", "app0", "app2"):
            assert rebuilt.release_application(application) == state.release_application(
                application
            )
            assert left.fingerprint(rebuilt) == left.fingerprint(state)
            assert rebuilt.link_load_bits_per_s(link) == state.link_load_bits_per_s(link)


class TestFingerprintDigest:
    def test_digest_is_the_sha1_of_the_canonical_repr(self):
        fingerprint = (("gpp_l0", 2, 2048, 25.0), ("link", 3e6))
        assert fingerprint_digest(fingerprint) == hashlib.sha1(
            repr(fingerprint).encode("utf-8")
        ).digest()
        assert len(fingerprint_digest(fingerprint)) == 20
        assert fingerprint_digest(()) == hashlib.sha1(b"()").digest()

    def test_equal_occupancy_digests_equally_across_states(self, world):
        platform, left, _, state = world
        other = PlatformState(platform)
        _fill(state, left, ["a"])
        _fill(other, left, ["a"])
        assert fingerprint_digest(left.fingerprint(state)) == fingerprint_digest(
            left.fingerprint(other)
        )

    def test_any_occupancy_change_moves_the_digest(self, world):
        _, left, _, state = world
        seen = {fingerprint_digest(left.fingerprint(state))}
        _fill(state, left, ["a"])
        seen.add(fingerprint_digest(left.fingerprint(state)))
        state.allocate_link(LinkAllocation("a", "extra", left.link_names[0], 1.0))
        seen.add(fingerprint_digest(left.fingerprint(state)))
        state.release_application("a")
        assert fingerprint_digest(left.fingerprint(state)) in seen
        assert len(seen) == 3


class TestApplyDelta:
    def test_delta_length_counts_every_record(self, world):
        _, left, _, _ = world
        tile = left.processing_tile_names()[0]
        delta = AllocationDelta(
            "a",
            (_process("a", tile, 0), _process("a", tile, 1)),
            (LinkAllocation("a", "c0", left.link_names[0], 1e6),),
        )
        assert len(delta) == 3
        assert len(AllocationDelta("empty", (), ())) == 0

    def test_fold_writes_what_a_direct_commit_writes(self, world):
        platform, left, _, direct = world
        tiles = left.processing_tile_names()
        processes = (_process("a", tiles[0], 0, cycles=0.1), _process("a", tiles[1], 1))
        links = (LinkAllocation("a", "c0", left.link_names[0], 2.5e6),)
        for record in processes:
            direct.allocate_process(record)
        for record in links:
            direct.allocate_link(record)
        folded = PlatformState(platform)
        with folded.transaction(left):
            folded.apply_delta(pickle.loads(pickle.dumps(AllocationDelta("a", processes, links))))
        assert folded.fingerprint() == direct.fingerprint()
        for tile in tiles:
            assert folded.occupants(tile) == direct.occupants(tile)
        assert folded.link_loads() == direct.link_loads()

    def test_overflowing_fold_rolls_back_whole(self, world):
        _, left, _, state = world
        free, full = left.processing_tile_names()[:2]
        state.allocate_process(_process("resident", full))
        before = state.fingerprint()
        delta = AllocationDelta(
            "greedy",
            (_process("greedy", free, 0), _process("greedy", full, 1)),
            (LinkAllocation("greedy", "c0", left.link_names[0], 1e6),),
        )
        with pytest.raises(PlatformError, match="cannot host"):
            with state.transaction(left):
                state.apply_delta(delta)
        # The record that fitted was undone with the failed fold.
        assert state.fingerprint() == before
        assert state.occupants(free) == ()
        assert [a.application for a in state.occupants(full)] == ["resident"]


# --------------------------------------------------------------------------- #
# The stateless worker, driven in-process
# --------------------------------------------------------------------------- #
@pytest.fixture()
def worker():
    """A worker pipeline built from the settings the executor ships."""
    manager = make_manager(build_two_region_platform())
    pipeline = manager.pipeline
    settings = procdrain.WorkerSettings(
        platform=pipeline.platform,
        partition=pipeline.partition,
        library=ImplementationLibrary(),
        config=pipeline.config,
        require_feasible=pipeline.require_feasible,
        cache_size=0,
    )
    settings = procdrain.load_frame(procdrain.dump_frame(settings))
    return manager, procdrain.build_worker_pipeline(settings)


def _job(ticket, app):
    als_blob = pickle.dumps(app.als)
    library_blob = pickle.dumps(app.library)
    return procdrain.JobSpec(
        ticket=ticket,
        als_digest=hashlib.sha1(als_blob).digest(),
        als_blob=als_blob,
        library_digest=hashlib.sha1(library_blob).digest(),
        library_blob=library_blob,
    )


def _lane(manager, state, jobs, lane_tile="io_l"):
    region = manager.partition.region_of_tile(lane_tile)
    return procdrain.SnapshotDispatch(region.name, region.snapshot(state), tuple(jobs))


class TestStatelessWorker:
    def test_a_lane_decides_against_its_snapshot_only(self, worker):
        """Two dispatches of the same snapshot decide the same way: the
        first dispatch's commit does not survive into the second."""
        manager, pipeline = worker
        app = make_app(300, "again", "io_l")
        dispatch = _lane(manager, manager.state, [_job(0, app)])
        results = [procdrain.handle_lane(pipeline, dispatch, {}) for _ in range(2)]
        for result in results:
            (response,) = result.responses
            assert response.error is None and response.delta_blob is not None
        first, second = (result.responses[0] for result in results)
        assert first.base_fingerprint == second.base_fingerprint
        assert first.delta_blob == second.delta_blob

    def test_base_digests_chain_within_a_lane(self, worker):
        manager, pipeline = worker
        region = manager.partition.region_of_tile("io_l")
        apps = [make_app(310 + i, f"chain{i}", "io_l") for i in range(2)]
        result = procdrain.handle_lane(
            pipeline, _lane(manager, manager.state, [_job(i, a) for i, a in enumerate(apps)]), {}
        )
        first, second = result.responses
        assert first.base_fingerprint == fingerprint_digest(region.fingerprint(manager.state))
        # Folding the first delta into the engine state reaches the base
        # the worker decided the second job on.
        with manager.state.transaction(region):
            manager.state.apply_delta(procdrain.load_frame(first.delta_blob))
        assert second.base_fingerprint == fingerprint_digest(region.fingerprint(manager.state))

    def test_snapshot_occupancy_is_what_the_worker_sees(self, worker):
        """Residents shipped in the snapshot are in the worker's state; the
        response's base digest is the digest of the engine's region."""
        manager, pipeline = worker
        region = manager.partition.region_of_tile("io_l")
        tile = region.processing_tile_names()[0]
        manager.state.allocate_process(_process("ghost", tile, memory=4096, cycles=3.5))
        result = procdrain.handle_lane(
            pipeline, _lane(manager, manager.state, [_job(0, make_app(320, "seen", "io_l"))]), {}
        )
        assert pipeline.state.occupants(tile)[0] == manager.state.occupants(tile)[0]
        assert result.responses[0].base_fingerprint == fingerprint_digest(
            region.fingerprint(manager.state)
        )

    def test_every_blob_is_interned_before_a_lane_abort(self, worker):
        """A job whose payload the worker never received aborts the lane,
        yet the payloads of the skipped jobs are interned: the engine
        counts them as shipped and re-dispatches them by digest alone."""
        manager, pipeline = worker
        missing = procdrain.JobSpec(ticket=0, als_digest=b"never-shipped", als_blob=None)
        skipped = _job(1, make_app(330, "skipped", "io_l"))
        interned = {}
        result = procdrain.handle_lane(
            pipeline, _lane(manager, manager.state, [missing, skipped]), interned
        )
        (response,) = result.responses
        assert response.ticket == 0 and response.decision_blob is None
        assert "never received" in response.error
        assert {skipped.als_digest, skipped.library_digest} <= set(interned)
        retry = procdrain.JobSpec(
            ticket=1,
            als_digest=skipped.als_digest,
            als_blob=None,
            library_digest=skipped.library_digest,
        )
        again = procdrain.handle_lane(pipeline, _lane(manager, manager.state, [retry]), interned)
        assert again.responses[0].error is None

    def test_lane_result_reports_this_lane_only(self, worker):
        manager, pipeline = worker
        results = [
            procdrain.handle_lane(
                pipeline,
                _lane(manager, manager.state, [_job(0, make_app(340 + i, f"own{i}", "io_l"))]),
                {},
            )
            for i in range(2)
        ]
        for result in results:
            assert result.lane == manager.partition.region_of_tile("io_l").name
            assert len(result.responses) == 1
            assert result.metrics is None and result.spans == ()
            assert set(result.analysis) == set(pipeline.analysis.snapshot())
            assert all(value >= 0 for value in result.analysis.values())
        total = pipeline.analysis.snapshot()
        assert {
            key: results[0].analysis[key] + results[1].analysis[key] for key in total
        } == total

    def test_admission_records_do_not_outlive_their_dispatch(self, worker):
        """Releases happen on the engine only, so a worker that kept which
        regions its admissions landed in would grow one entry per admission
        for its whole lifetime.  The record is read from the state each
        dispatch rebuilds: after 30 single-job dispatches of the empty
        region only the last admission is recorded."""
        manager, pipeline = worker
        names = [f"leak{i}" for i in range(30)]
        for i, name in enumerate(names):
            result = procdrain.handle_lane(
                pipeline,
                _lane(manager, manager.state, [_job(i, make_app(350 + i, name, "io_l"))]),
                {},
            )
            assert result.responses[0].delta_blob is not None
        assert manager.state.applications() == ()
        assert pipeline.state.applications() == (names[-1],)
        assert [name for name in names if pipeline.regions_of(name)] == [names[-1]]
