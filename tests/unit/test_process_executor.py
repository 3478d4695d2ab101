"""The process-parallel region drain: executor lifecycle and fold discipline.

The differential suites pin that :class:`ProcessRegionExecutor` is
decision-identical to the serial reference; these tests pin the edges the
differentials cannot reach — the stale-snapshot re-decide path, worker
error surfacing, the custom-factory refusal and pool lifecycle.
"""

import pytest

from repro.exceptions import PlatformError
from repro.platform.state import fingerprint_digest
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
        total = {
            key: sum(values[key] for values in workers.values())
            for key in next(iter(workers.values()))
        }
        assert total["requests"] == 2
        assert total["dispatches"] >= 2
        assert total["snapshot_bytes"] > 0
        assert total["delta_bytes"] > 0
        assert total["stale_redecides"] == 0
        assert total["worker_wall_s"] > 0
        # A second run reports only its own delta, not the pool's lifetime.
        for app in apps:
            manager.stop(app.als.name)
        second = engine.run(_scenario(apps))
        assert second.telemetry.workers["region-drain-0"]["requests"] <= 2
        executor.close()


def _worker_totals(outcome) -> dict[str, float]:
    """Sum the per-run worker telemetry deltas across all workers."""
    workers = outcome.telemetry.workers
    assert workers, "process executor runs must report per-worker stats"
    return {
        key: sum(values[key] for values in workers.values())
        for key in next(iter(workers.values()))
    }


def _fallback_reasons(totals: dict[str, float]) -> float:
    return (
        totals["full_bootstrap"]
        + totals["full_journal_stale"]
        + totals["full_watermark_gap"]
        + totals["full_resync"]
    )


class TestStatefulDispatch:
    """The snapshot-once / delta-forever protocol, per fallback reason.

    Every test also asserts the zero-silent-fallback invariant: each full
    dispatch is attributed to exactly one counted reason.
    """

    def test_steady_state_ships_deltas_after_the_bootstrap_snapshot(self, manager):
        executor = ProcessRegionExecutor(manager.partition, workers=1)
        engine = WorkloadEngine(manager, executor=executor)
        apps = [
            make_app(250 + i, f"warm{i}", tile)
            for i, tile in enumerate(["io_l", "io_r"])
        ]
        first = engine.run(_scenario(apps))
        assert first.admitted == ["warm0", "warm1"]
        t1 = _worker_totals(first)
        assert t1["full_bootstrap"] >= 1
        assert t1["full_dispatches"] == _fallback_reasons(t1)
        for app in apps:
            manager.stop(app.als.name)
        # Warm pool, journaled releases: the next drain bridges via deltas.
        second = engine.run(_scenario(apps))
        assert second.admitted == ["warm0", "warm1"]
        t2 = _worker_totals(second)
        assert t2["delta_dispatches"] >= 1
        assert t2["full_dispatches"] == 0
        assert t2["full_dispatches"] == _fallback_reasons(t2)
        assert t2["delta_dispatch_bytes"] > 0
        executor.close()

    def test_evicted_watermark_falls_back_to_a_counted_full(self, manager):
        """A worker whose watermark fell off the journal window is re-sent a
        snapshot, counted watermark_gap; the next drain bridges by delta."""
        region = next(r for r in manager.partition if "io_l" in r.tile_names)
        # A two-op window instead of JOURNAL_CAPACITY, so a few commits and
        # releases on the region evict the worker's watermark.
        journal = manager.state.region_journal(region, capacity=2)
        executor = ProcessRegionExecutor(manager.partition, workers=1)
        engine = WorkloadEngine(manager, executor=executor)
        first = engine.run(_scenario([make_app(290, "gap0", "io_l")]))
        assert first.admitted == ["gap0"]
        manager.stop("gap0")
        bystander = make_app(291, "gap1", "io_l")
        manager.start(bystander.als, library=bystander.library)
        manager.stop("gap1")
        assert journal.evictions >= 1
        second = engine.run(_scenario([make_app(292, "gap2", "io_l")]))
        assert second.admitted == ["gap2"]
        t2 = _worker_totals(second)
        assert t2["full_watermark_gap"] == t2["full_dispatches"] == 1
        assert t2["full_dispatches"] == _fallback_reasons(t2)
        manager.stop("gap2")
        third = engine.run(_scenario([make_app(293, "gap3", "io_l")]))
        assert third.admitted == ["gap3"]
        t3 = _worker_totals(third)
        assert t3["delta_dispatches"] >= 1
        assert t3["full_dispatches"] == 0
        executor.close()

    def test_unjournaled_mutation_falls_back_to_a_counted_full(self, manager):
        """State mutated behind the journal's back (tip fingerprint no longer
        the live region fingerprint) must resnapshot, counted journal_stale."""
        from repro.platform.state import ProcessAllocation

        executor = ProcessRegionExecutor(manager.partition, workers=1)
        engine = WorkloadEngine(manager, executor=executor)
        first = engine.run(_scenario([make_app(260, "stale0", "io_l")]))
        assert first.admitted == ["stale0"]
        manager.stop("stale0")
        region = next(r for r in manager.partition if "io_l" in r.tile_names)
        ghost_tile = region.processing_tile_names()[0]
        manager.state.allocate_process(
            ProcessAllocation("ghost", "ghost0", ghost_tile)
        )
        second = engine.run(_scenario([make_app(261, "stale1", "io_l")]))
        assert second.admitted == ["stale1"]
        t2 = _worker_totals(second)
        assert t2["full_journal_stale"] >= 1
        assert t2["full_dispatches"] == _fallback_reasons(t2)
        executor.close()

    def test_worker_restart_resyncs_with_a_counted_full(self, manager):
        """Watermarks that outlive the worker's resident state (manual pool
        teardown here; a crashed lane in production) are detected by the
        worker's resync answer and repaired with a counted full dispatch."""
        executor = ProcessRegionExecutor(manager.partition, workers=1)
        engine = WorkloadEngine(manager, executor=executor)
        first = engine.run(_scenario([make_app(270, "sync0", "io_l")]))
        assert first.admitted == ["sync0"]
        assert executor._watermarks
        # Kill the pool but keep the watermarks: the next drain attempts a
        # delta against workers whose resident state died with them.
        for worker in executor._pool:
            worker.stop()
        executor._pool = None
        manager.stop("sync0")
        second = engine.run(_scenario([make_app(271, "sync1", "io_l")]))
        assert second.admitted == ["sync1"]
        t2 = _worker_totals(second)
        assert t2["delta_dispatches"] >= 1  # the refused attempt is visible
        assert t2["full_resync"] >= 1
        assert t2["full_dispatches"] == _fallback_reasons(t2)
        executor.close()

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
