"""The process-parallel region drain: executor lifecycle, fold discipline
and the snapshot dispatch.

The differential suites pin that :class:`ProcessRegionExecutor` is
decision-identical to the serial reference; these tests pin the edges the
differentials cannot reach — the stale-snapshot re-decide path, worker
error surfacing, the custom-factory refusal, pool lifecycle, and that
every lane dispatch carries a region snapshot holding whatever changed the
engine state since the last drain.
"""

import pytest

from repro.exceptions import PlatformError
from repro.platform.state import ProcessAllocation, fingerprint_digest
from repro.runtime import procdrain
from repro.runtime.engine import (
    ProcessRegionExecutor,
    SerialRegionExecutor,
    WorkloadEngine,
    _RegionJob,
)
from repro.runtime.events import StartEvent
from repro.runtime.queue import AdmissionQueue
from repro.runtime.scenario import Scenario
from tests.harness import build_two_region_platform, make_app, make_manager


@pytest.fixture()
def platform():
    return build_two_region_platform()


@pytest.fixture()
def manager(platform):
    return make_manager(platform)


def _region_job(manager, seed: int, name: str, io_tile: str = "io_l") -> _RegionJob:
    """A claimed phase-1 job for one synthetic request, via the real queue."""
    queue = AdmissionQueue(manager)
    app = make_app(seed, name, io_tile)
    queue.submit(app.als, library=app.library)
    _, ready = queue.take()
    request = ready[0]
    region = manager.partition.region(request.lane)
    return _RegionJob(request, region)


def _scenario(apps) -> Scenario:
    scenario = Scenario("procdrain-unit", duration_ns=4_000_000.0)
    for index, app in enumerate(apps):
        scenario.add(
            StartEvent(time_ns=float(index) * 1_000.0, als=app.als, library=app.library)
        )
    return scenario


def _worker_totals(outcome) -> dict[str, float]:
    """Sum the per-run worker telemetry deltas across all workers."""
    workers = outcome.telemetry.workers
    assert workers, "process executor runs must report per-worker stats"
    return {
        key: sum(values[key] for values in workers.values())
        for key in next(iter(workers.values()))
    }


class TestFoldDiscipline:
    def test_stale_snapshot_is_redecided_never_committed(self, manager):
        """A response whose base fingerprint mismatches must be re-decided on
        the engine process; its shipped delta must never be folded."""
        executor = ProcessRegionExecutor(manager.partition, workers=1)
        pipeline = manager.pipeline
        job = _region_job(manager, 200, "victim")
        # A delta for an application that never went through the pipeline:
        # were the stale response folded, 'phantom' would appear in state.
        from repro.platform.state import AllocationDelta, ProcessAllocation

        tile = job.region.processing_tile_names()[0]
        phantom = AllocationDelta(
            "phantom", (ProcessAllocation("phantom", "p0", tile),), ()
        )
        response = procdrain.JobResponse(
            ticket=job.request.ticket,
            base_fingerprint=b"definitely stale",
            decision_blob=procdrain.dump_frame(None),
            delta_blob=procdrain.dump_frame(phantom),
            mapper_invocations=1,
            wall_s=0.5,
        )
        stats = executor._stats_for("region-drain-0")
        executor._fold_lane(
            job.region.name,
            [job],
            procdrain.LaneResult(job.region.name, (response,)),
            pipeline,
            stats,
        )
        assert stats["stale_redecides"] == 1
        assert job.error is None
        assert job.decision is not None and job.decision.admitted
        assert job.decision.application == "victim"
        assert "phantom" not in pipeline.state.applications()
        executor.close()

    def test_conflicting_delta_triggers_engine_redecide(self, manager):
        """A matching fingerprint whose delta no longer fits re-decides too
        (the transaction rolls the partial fold back first)."""
        executor = ProcessRegionExecutor(manager.partition, workers=1)
        pipeline = manager.pipeline
        job = _region_job(manager, 201, "squeezed")
        from repro.platform.state import AllocationDelta, ProcessAllocation

        tile = job.region.processing_tile_names()[0]
        capacity = manager.platform.tile(tile).resources.max_processes
        overflow = AllocationDelta(
            "overflow",
            tuple(
                ProcessAllocation("overflow", f"p{i}", tile)
                for i in range(capacity + 1)
            ),
            (),
        )
        admitted = procdrain.dump_frame(
            pipeline.decide(job.request.als, job.request.library, candidates=(job.region,))
        )
        # Undo that probe decision's commit so the engine state is clean.
        pipeline.release("squeezed")
        response = procdrain.JobResponse(
            ticket=job.request.ticket,
            base_fingerprint=fingerprint_digest(job.region.fingerprint(pipeline.state)),
            decision_blob=admitted,
            delta_blob=procdrain.dump_frame(overflow),
            mapper_invocations=0,
            wall_s=0.0,
        )
        stats = executor._stats_for("region-drain-0")
        executor._fold_lane(
            job.region.name,
            [job],
            procdrain.LaneResult(job.region.name, (response,)),
            pipeline,
            stats,
        )
        assert stats["stale_redecides"] == 1
        assert job.decision is not None and job.decision.admitted
        assert "overflow" not in pipeline.state.applications()
        executor.close()

    def test_worker_error_surfaces_as_platform_error(self, manager):
        executor = ProcessRegionExecutor(manager.partition, workers=1)
        job = _region_job(manager, 202, "doomed")
        response = procdrain.JobResponse(
            ticket=job.request.ticket,
            base_fingerprint=fingerprint_digest(job.region.fingerprint(manager.pipeline.state)),
            decision_blob=None,
            delta_blob=None,
            mapper_invocations=0,
            wall_s=0.0,
            error="Traceback: synthetic worker explosion",
        )
        executor._fold_lane(
            job.region.name,
            [job],
            procdrain.LaneResult(job.region.name, (response,)),
            manager.pipeline,
            executor._stats_for("region-drain-0"),
        )
        assert isinstance(job.error, PlatformError)
        assert "synthetic worker explosion" in str(job.error)
        assert job.decision is None
        executor.close()

    def test_lane_abort_leaves_later_jobs_undecided(self, manager):
        """Jobs after a worker-aborted one get no decision (the engine
        requeues them), mirroring the serial lane-abort discipline."""
        executor = ProcessRegionExecutor(manager.partition, workers=1)
        first = _region_job(manager, 203, "first")
        second = _region_job(manager, 204, "second")
        response = procdrain.JobResponse(
            ticket=first.request.ticket,
            base_fingerprint=fingerprint_digest(first.region.fingerprint(manager.pipeline.state)),
            decision_blob=None,
            delta_blob=None,
            mapper_invocations=0,
            wall_s=0.0,
            error="boom",
        )
        executor._fold_lane(
            first.region.name,
            [first, second],
            procdrain.LaneResult(first.region.name, (response,)),
            manager.pipeline,
            executor._stats_for("region-drain-0"),
        )
        assert first.error is not None
        assert second.decision is None and second.error is None
        executor.close()


class TestExecutorLifecycle:
    def test_custom_mapper_factory_is_refused(self, platform):
        from repro.spatialmapper.mapper import SpatialMapper

        manager = make_manager(
            platform,
            mapper_factory=lambda p, lib, cfg: SpatialMapper(p, lib, cfg),
        )
        executor = ProcessRegionExecutor(manager.partition, workers=1)
        job = _region_job(manager, 210, "refused")
        with pytest.raises(PlatformError, match="default mapper factory"):
            executor.execute({job.region.name: [job]}, manager.pipeline)
        executor.close()

    def test_close_is_idempotent_and_pool_restarts(self, manager):
        executor = ProcessRegionExecutor(manager.partition, workers=1)
        engine = WorkloadEngine(manager, executor=executor)
        apps = [make_app(220 + i, f"cycle{i}", "io_l") for i in range(2)]
        outcome = engine.run(_scenario(apps))
        assert outcome.admitted == ["cycle0", "cycle1"]
        pool = executor._pool
        assert pool is not None and all(w.process.is_alive() for w in pool)
        executor.close()
        executor.close()  # idempotent
        assert executor._pool is None
        for worker in pool:
            assert not worker.process.is_alive()
        # Reuse after close starts a fresh pool transparently.
        for app in apps:
            manager.stop(app.als.name)
        again = engine.run(_scenario(apps))
        assert again.admitted == ["cycle0", "cycle1"]
        executor.close()

    def test_worker_count_defaults_are_bounded(self, manager):
        import os

        executor = ProcessRegionExecutor(manager.partition)
        assert 1 <= executor.workers <= max(
            1, min(len(manager.partition), os.cpu_count() or 1)
        )
        floor = ProcessRegionExecutor(manager.partition, workers=0)
        assert floor.workers == 1

    def test_engine_telemetry_reports_worker_stats(self, manager):
        executor = ProcessRegionExecutor(manager.partition, workers=2)
        engine = WorkloadEngine(manager, executor=executor)
        apps = [make_app(230 + i, f"tele{i}", tile) for i, tile in enumerate(["io_l", "io_r"])]
        outcome = engine.run(_scenario(apps))
        assert outcome.admitted == ["tele0", "tele1"]
        workers = outcome.telemetry.workers
        assert workers, "process executor runs must report per-worker stats"
        total = _worker_totals(outcome)
        assert set(total) == {
            "dispatches",
            "requests",
            "snapshot_bytes",
            "delta_dispatch_bytes",
            "delta_bytes",
            "stale_redecides",
            "worker_wall_s",
        }
        assert total["requests"] == 2
        assert total["dispatches"] >= 2
        assert total["snapshot_bytes"] > 0
        assert total["delta_dispatch_bytes"] == 0
        assert total["delta_bytes"] > 0
        assert total["stale_redecides"] == 0
        assert total["worker_wall_s"] > 0
        # A second run reports only its own delta, not the pool's lifetime.
        for app in apps:
            manager.stop(app.als.name)
        second = engine.run(_scenario(apps))
        assert second.telemetry.workers["region-drain-0"]["requests"] <= 2
        executor.close()


def _record_frames(executor) -> list[tuple[object, int]]:
    """Record every lane frame the executor assembles, decoded, with its size."""
    frames = []
    assemble = executor._assemble_lane

    def recording(*args, **kwargs):
        frame = assemble(*args, **kwargs)
        frames.append((procdrain.load_frame(frame), len(frame)))
        return frame

    executor._assemble_lane = recording
    return frames


def _release_then_fill(manager, run) -> str:
    """Two drains with an engine-side release and an out-of-band
    allocation between them: ``before`` is admitted, stopped, then every
    slot of one left-region tile is taken behind the pipeline's back, and
    ``after`` is admitted.  Returns the filled tile."""
    assert run([make_app(260, "before", "io_l")]).admitted == ["before"]
    manager.stop("before")
    region = next(r for r in manager.partition if "io_l" in r.tile_names)
    tile = region.processing_tile_names()[0]
    for slot in range(manager.platform.tile(tile).resources.max_processes):
        manager.state.allocate_process(ProcessAllocation("ghost", f"ghost{slot}", tile))
    assert run([make_app(261, "after", "io_l")]).admitted == ["after"]
    return tile


class TestSnapshotDispatch:
    """Every lane dispatch carries its region's snapshot; workers keep no
    region state between drains."""

    def test_every_dispatch_is_one_snapshot(self, manager):
        executor = ProcessRegionExecutor(manager.partition, workers=1)
        frames = _record_frames(executor)
        engine = WorkloadEngine(manager, executor=executor)
        apps = [
            make_app(250 + i, f"warm{i}", tile)
            for i, tile in enumerate(["io_l", "io_r"])
        ]
        totals = []
        for _ in range(2):
            outcome = engine.run(_scenario(apps))
            assert outcome.admitted == ["warm0", "warm1"]
            totals.append(_worker_totals(outcome))
            for app in apps:
                manager.stop(app.als.name)
        executor.close()
        assert all(isinstance(frame, procdrain.SnapshotDispatch) for frame, _ in frames)
        assert len(frames) == sum(total["dispatches"] for total in totals) == 4
        assert sum(size for _, size in frames) == sum(
            total["snapshot_bytes"] for total in totals
        )
        assert all(total["delta_dispatch_bytes"] == 0 for total in totals)

    def test_release_and_out_of_band_allocation_reach_the_worker(self, platform):
        """What changed the engine state between drains arrives with the
        next snapshot: the worker decides on it, so no response is stale,
        and the decisions equal the serial executor's."""
        serial_manager = make_manager(platform)
        serial_engine = WorkloadEngine(serial_manager, executor=SerialRegionExecutor())
        _release_then_fill(serial_manager, lambda apps: serial_engine.run(_scenario(apps)))

        manager = make_manager(build_two_region_platform())
        executor = ProcessRegionExecutor(manager.partition, workers=1)
        frames = _record_frames(executor)
        engine = WorkloadEngine(manager, executor=executor)
        outcomes = []

        def run(apps):
            outcomes.append(engine.run(_scenario(apps)))
            return outcomes[-1]

        try:
            tile = _release_then_fill(manager, run)
        finally:
            executor.close()
        last, _ = frames[-1]
        occupants = dict(last.snapshot.tile_occupants)
        assert {a.application for a in occupants[tile]} == {"ghost"}
        assert "before" not in {a.application for held in occupants.values() for a in held}
        assert _worker_totals(outcomes[-1])["stale_redecides"] == 0
        assert serial_manager.decisions == manager.decisions
        assert sorted(serial_manager.state.occupied_tiles()) == sorted(
            manager.state.occupied_tiles()
        )

    def test_restarted_pool_decides_like_serial(self, platform):
        """A pool torn down between drains restarts with fresh workers, and
        the decisions after the restart equal the serial executor's."""
        apps = [make_app(270 + i, f"sync{i}", tile) for i, tile in enumerate(["io_l", "io_r"])]
        later = [make_app(272, "sync2", "io_l"), apps[1]]

        def replay(manager, executor, between):
            engine = WorkloadEngine(manager, executor=executor)
            first = engine.run(_scenario(apps))
            between()
            manager.stop("sync1")
            return first, engine.run(_scenario(later))

        serial_manager = make_manager(platform)
        serial = replay(serial_manager, SerialRegionExecutor(), lambda: None)
        manager = make_manager(build_two_region_platform())
        executor = ProcessRegionExecutor(manager.partition, workers=2)
        try:
            process = replay(manager, executor, executor.close)
        finally:
            executor.close()
        for expected, got in zip(serial, process):
            assert expected.decision_log() == got.decision_log()
        assert serial_manager.decisions == manager.decisions
        assert sorted(serial_manager.state.occupied_tiles()) == sorted(
            manager.state.occupied_tiles()
        )

    def test_spawn_start_method_is_decision_identical_to_serial(self, platform):
        """The worker protocol must not lean on fork-inherited state: a
        spawn-started pool re-derives everything from the settings frame."""
        serial_manager = make_manager(platform)
        apps = [
            make_app(280 + i, f"spawned{i}", tile)
            for i, tile in enumerate(["io_l", "io_r"])
        ]
        serial = WorkloadEngine(serial_manager, executor=SerialRegionExecutor()).run(
            _scenario(apps)
        )
        spawn_manager = make_manager(build_two_region_platform())
        executor = ProcessRegionExecutor(
            spawn_manager.partition, workers=1, start_method="spawn"
        )
        assert executor.start_method == "spawn"
        try:
            spawned = WorkloadEngine(spawn_manager, executor=executor).run(
                _scenario(apps)
            )
        finally:
            executor.close()
        assert serial.decision_log() == spawned.decision_log()
        assert serial_manager.decisions == spawn_manager.decisions
        assert sorted(serial_manager.state.occupied_tiles()) == sorted(
            spawn_manager.state.occupied_tiles()
        )
