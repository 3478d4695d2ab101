"""The discrete-event workload engine and its region executors."""

import pytest

from repro.exceptions import PlatformError
from repro.runtime.admission_control import LoadSheddingGovernor
from repro.runtime.engine import SerialRegionExecutor, WorkloadEngine
from repro.runtime.events import ScenarioEvent, StartEvent, StopEvent
from repro.runtime.queue import AdmissionQueue, RequestStatus
from repro.runtime.scenario import Scenario
from tests.harness import (
    ReversedLaneExecutor,
    build_two_region_platform,
    make_app,
    make_manager,
)


@pytest.fixture()
def platform():
    return build_two_region_platform()


@pytest.fixture()
def manager(platform):
    return make_manager(platform)


class TestEventLoop:
    def test_arrivals_admit_and_departures_free_resources(self, manager):
        first = make_app(1, "first", "io_l")
        second = make_app(2, "second", "io_l")
        scenario = (
            Scenario("lifecycle", duration_ns=4_000_000.0)
            .add(StartEvent(time_ns=0.0, als=first.als, library=first.library))
            .add(StopEvent(time_ns=1_000_000.0, application="first"))
            .add(StartEvent(time_ns=2_000_000.0, als=second.als, library=second.library))
        )
        outcome = WorkloadEngine(manager).run(scenario)
        assert outcome.admitted == ["first", "second"]
        assert outcome.departures == [(1_000_000.0, "first")]
        assert outcome.admission_rate == 1.0
        assert outcome.energy.total_energy_nj > 0
        assert manager.is_running("second") and not manager.is_running("first")

    def test_empty_caller_queue_is_the_engines_queue(self, manager):
        # A new queue has length 0; the engine must keep it, not replace it.
        queue = AdmissionQueue(manager)
        assert len(queue) == 0
        engine = WorkloadEngine(manager, queue=queue)
        assert engine.queue is queue
        app = make_app(1, "only", "io_l")
        scenario = Scenario("own_queue", duration_ns=1_000_000.0).add(
            StartEvent(time_ns=0.0, als=app.als, library=app.library)
        )
        outcome = engine.run(scenario)
        assert outcome.admitted == ["only"]
        assert queue.poll(1).status is RequestStatus.ADMITTED

    def test_same_time_batch_runs_departures_before_arrivals(self, manager):
        # Batched mode treats same-timestamp events as concurrent, with the
        # DES convention that departures free resources before arrivals map.
        filler = [make_app(10 + i, f"filler{i}", "io_l") for i in range(2)]
        replacement = make_app(20, "replacement", "io_l")
        scenario = Scenario("handover", duration_ns=3_000_000.0)
        for app in filler:
            scenario.add(StartEvent(time_ns=0.0, als=app.als, library=app.library))
        scenario.add(StopEvent(time_ns=1_000_000.0, application="filler0"))
        scenario.add(StopEvent(time_ns=1_000_000.0, application="filler1"))
        scenario.add(
            StartEvent(time_ns=1_000_000.0, als=replacement.als, library=replacement.library)
        )
        outcome = WorkloadEngine(manager, drain_mode="batched").run(scenario)
        assert "replacement" in outcome.admitted

    def test_unknown_event_type_raises(self, manager):
        scenario = Scenario("bad").add(ScenarioEvent(time_ns=0.0))
        with pytest.raises(TypeError):
            WorkloadEngine(manager).run(scenario)

    def test_unknown_drain_mode_rejected(self, manager):
        with pytest.raises(ValueError):
            WorkloadEngine(manager, drain_mode="eager")

    def test_deadline_expires_in_engine(self, manager):
        blocker = make_app(30, "blocker", "io_l")
        hopeless = [make_app(31 + i, f"hopeless{i}", "io_l") for i in range(4)]
        scenario = Scenario("deadlines", duration_ns=10_000_000.0)
        scenario.add(StartEvent(time_ns=0.0, als=blocker.als, library=blocker.library))
        for app in hopeless:
            scenario.add(
                StartEvent(
                    time_ns=100.0,
                    als=app.als,
                    library=app.library,
                    deadline_ns=5_000.0,
                )
            )
        # A later event past every deadline forces an expiry sweep.
        scenario.add(StopEvent(time_ns=9_000_000.0, application="blocker"))
        engine = WorkloadEngine(manager, park_rejections=True)
        outcome = engine.run(scenario)
        assert "blocker" in outcome.admitted
        # Whatever was not admitted from the hopeless wave either expired at
        # the sweep or was finalised at the end; nothing is left pending.
        assert len(outcome.records) == 1 + len(hopeless)
        assert len(manager.state.applications()) == len(
            [a for a in manager.running_applications]
        )


class TestTwoPhaseDrain:
    def test_serial_and_reversed_lane_executors_decide_identically(self):
        apps = [
            make_app(40 + index, f"app{index}", "io_l" if index % 2 else "io_r")
            for index in range(8)
        ]
        scenario = Scenario("differential", duration_ns=2_000_000.0)
        for index, app in enumerate(apps):
            scenario.add(
                StartEvent(
                    time_ns=float(index // 4) * 1_000_000.0,
                    als=app.als,
                    library=app.library,
                )
            )

        serial_manager = make_manager(build_two_region_platform())
        serial = WorkloadEngine(serial_manager, executor=SerialRegionExecutor()).run(
            scenario
        )
        reversed_manager = make_manager(build_two_region_platform())
        reversed_lanes = WorkloadEngine(
            reversed_manager, executor=ReversedLaneExecutor()
        ).run(scenario)

        assert serial.decision_log() == reversed_lanes.decision_log()
        assert serial_manager.decisions == reversed_manager.decisions
        assert sorted(serial_manager.state.occupied_tiles()) == sorted(
            reversed_manager.state.occupied_tiles()
        )
        assert serial_manager.state.link_loads() == reversed_manager.state.link_loads()
        assert serial.energy.total_energy_nj == pytest.approx(
            reversed_lanes.energy.total_energy_nj
        )

    def test_duplicate_names_in_one_batch_are_serialized(self, manager):
        # Two same-named arrivals in the same batch, pinned to different
        # regions: the region lanes may own at most one; the other must be
        # rejected as already running, never double-admitted.
        left = make_app(50, "twin", "io_l")
        right = make_app(51, "twin", "io_r")
        scenario = (
            Scenario("twins", duration_ns=1_000_000.0)
            .add(StartEvent(time_ns=0.0, als=left.als, library=left.library))
            .add(StartEvent(time_ns=0.0, als=right.als, library=right.library))
        )
        outcome = WorkloadEngine(manager).run(scenario)
        assert len(outcome.admitted) == 1
        assert len(outcome.rejected) == 1
        assert outcome.rejected[0][1] == "application is already running"
        assert len(manager.state.applications()) == 1

    def test_worker_error_unwinds_and_requeues(self, manager, monkeypatch):
        good = make_app(60, "good", "io_l")
        exploder = make_app(61, "exploder", "io_r")
        scenario = (
            Scenario("explosive", duration_ns=1_000_000.0)
            .add(StartEvent(time_ns=0.0, als=good.als, library=good.library))
            .add(StartEvent(time_ns=0.0, als=exploder.als, library=exploder.library))
        )
        original_decide = manager.pipeline.decide

        def exploding_decide(als, library=None, *, candidates=None, trace=None):
            if als.name == "exploder":
                raise RuntimeError("mapper exploded")
            return original_decide(als, library, candidates=candidates, trace=trace)

        monkeypatch.setattr(manager.pipeline, "decide", exploding_decide)
        governor = LoadSheddingGovernor()
        samples_before = governor.snapshot()["samples"]
        engine = WorkloadEngine(manager, governor=governor)
        with pytest.raises(RuntimeError, match="mapper exploded"):
            engine.run(scenario)
        # The good lane's decision survived; the exploding request is back in
        # the queue for a later drain instead of being stranded in flight.
        assert manager.is_running("good")
        assert [r.application for r in engine.queue.pending] == ["exploder"]
        assert engine.queue.pending[0].status is RequestStatus.PENDING
        # The admission the unwind settled fed the governor's window, like
        # any admission a normal drain settles.
        assert governor.snapshot()["samples"] == samples_before + 1

    def test_failed_drain_does_not_observe_a_cancelled_admission(
        self, manager, monkeypatch
    ):
        # A client cancels "good" while its lane decides; the unwind of the
        # failed drain rolls the admission back and must not feed it to the
        # governor's window.
        good = make_app(62, "good", "io_l")
        exploder = make_app(63, "exploder", "io_r")
        scenario = (
            Scenario("cancelled-unwind", duration_ns=1_000_000.0)
            .add(StartEvent(time_ns=0.0, als=good.als, library=good.library))
            .add(StartEvent(time_ns=0.0, als=exploder.als, library=exploder.library))
        )
        governor = LoadSheddingGovernor()
        samples_before = governor.snapshot()["samples"]
        engine = WorkloadEngine(manager, governor=governor)
        tickets: dict[str, int] = {}
        original_submit = engine._submit

        def recording_submit(event):
            ticket = original_submit(event)
            tickets[event.als.name] = ticket
            return ticket

        original_decide = manager.pipeline.decide

        def cancelling_decide(als, library=None, *, candidates=None, trace=None):
            if als.name == "exploder":
                raise RuntimeError("mapper exploded")
            decision = original_decide(
                als, library, candidates=candidates, trace=trace
            )
            assert not engine.queue.cancel(tickets[als.name])
            return decision

        monkeypatch.setattr(engine, "_submit", recording_submit)
        monkeypatch.setattr(manager.pipeline, "decide", cancelling_decide)
        with pytest.raises(RuntimeError, match="mapper exploded"):
            engine.run(scenario)
        assert engine.queue.poll(tickets["good"]).status is RequestStatus.CANCELLED
        assert not manager.is_running("good")
        assert governor.snapshot()["samples"] == samples_before


class TestRegionCommitScope:
    """The region-scoped commit is the in-process guard of a lane decision."""

    def test_commit_under_a_foreign_region_raises_and_leaves_state(self, manager):
        app = make_app(100, "guarded", "io_r")
        own = manager.partition.region_of_tile("io_r")
        foreign = manager.partition.region_of_tile("io_l")
        result = manager.pipeline.map_stage(app.als, app.library, own)
        assert result.is_feasible
        before = manager.state.fingerprint()
        with pytest.raises(PlatformError, match="outside the scope"):
            manager.pipeline.commit(app.als, result, region=foreign)
        assert manager.state.fingerprint() == before
        assert manager.state.applications() == ()

    def test_commit_under_its_own_region_lands_inside_it(self, manager):
        app = make_app(101, "guarded", "io_r")
        own = manager.partition.region_of_tile("io_r")
        result = manager.pipeline.map_stage(app.als, app.library, own)
        manager.pipeline.commit(app.als, result, region=own)
        occupied = manager.state.occupied_tiles()
        assert occupied
        assert all(own.covers_tile(tile) for tile in occupied)


class TestParkedRetries:
    def test_rejection_parks_until_fingerprint_changes(self, manager, monkeypatch):
        # Fill the left region, then submit one more left-pinned app: it is
        # rejected once, parks, and must not be re-mapped by later drains
        # while the region (and platform) state is unchanged.
        fillers = [make_app(70 + i, f"filler{i}", "io_l") for i in range(3)]
        straggler = make_app(80, "straggler", "io_l")
        scenario = Scenario("parked", duration_ns=10_000_000.0)
        for app in fillers:
            scenario.add(StartEvent(time_ns=0.0, als=app.als, library=app.library))
        scenario.add(
            StartEvent(time_ns=1_000.0, als=straggler.als, library=straggler.library)
        )
        # Idle drains: stop events for an application that never ran force
        # drain ticks without changing any fingerprint.
        for index in range(5):
            scenario.add(StopEvent(time_ns=2_000.0 + index, application="ghost"))

        decide_calls = []
        original_decide = manager.pipeline.decide

        def counting_decide(als, library=None, *, candidates=None, trace=None):
            decide_calls.append(als.name)
            return original_decide(als, library, candidates=candidates, trace=trace)

        monkeypatch.setattr(manager.pipeline, "decide", counting_decide)
        outcome = WorkloadEngine(manager, park_rejections=True).run(scenario)

        straggler_attempts = decide_calls.count("straggler")
        assert outcome.parked_retries_skipped > 0
        # One parked rejection = at most one in-region attempt plus one full
        # fallback pass; idle drains must not add more.
        assert straggler_attempts <= 2
        assert ("straggler", "rejected") in [
            (r.application, r.status.value) for r in outcome.records
        ]

    def test_parked_request_retries_after_departure(self, manager):
        fillers = [make_app(90 + i, f"filler{i}", "io_l") for i in range(3)]
        straggler = make_app(95, "straggler", "io_l")
        scenario = Scenario("retry", duration_ns=10_000_000.0)
        for app in fillers:
            scenario.add(StartEvent(time_ns=0.0, als=app.als, library=app.library))
        scenario.add(
            StartEvent(time_ns=1_000.0, als=straggler.als, library=straggler.library)
        )
        # Departures free the region: the changed fingerprint un-parks the
        # straggler, which is then admitted.
        for index, app in enumerate(fillers):
            scenario.add(
                StopEvent(time_ns=2_000_000.0 + index, application=app.als.name)
            )
        outcome = WorkloadEngine(manager, park_rejections=True).run(scenario)
        assert "straggler" in outcome.admitted


class TestOutcomeStatusIndex:
    """The lazily built per-status index behind EngineOutcome's accessors."""

    @staticmethod
    def _outcome(count):
        from repro.runtime.engine import EngineOutcome, EngineRecord

        statuses = [
            RequestStatus.ADMITTED,
            RequestStatus.REJECTED,
            RequestStatus.EXPIRED,
            RequestStatus.CANCELLED,
            RequestStatus.SHED,
        ]
        outcome = EngineOutcome(workload="index")
        for ticket in range(count):
            outcome.records.append(
                EngineRecord(
                    time_ns=float(ticket),
                    ticket=ticket,
                    application=f"app{ticket}",
                    status=statuses[ticket % len(statuses)],
                )
            )
        return outcome

    def test_index_matches_linear_scan_at_10k_records(self):
        outcome = self._outcome(10_000)
        for status, accessor in (
            (RequestStatus.ADMITTED, lambda o: o.admitted),
            (RequestStatus.EXPIRED, lambda o: o.expired),
            (RequestStatus.CANCELLED, lambda o: o.cancelled),
            (RequestStatus.SHED, lambda o: o.shed),
        ):
            expected = [r.application for r in outcome.records if r.status is status]
            assert accessor(outcome) == expected
        assert outcome.rejected == [
            (r.application, r.reason)
            for r in outcome.records
            if r.status is RequestStatus.REJECTED
        ]
        assert outcome.decided == 6_000  # admitted + rejected + expired

    def test_index_built_once_and_invalidated_by_append(self):
        from repro.runtime.engine import EngineRecord

        outcome = self._outcome(100)
        assert len(outcome.admitted) == 20
        first_cache = outcome._status_cache
        outcome.rejected, outcome.expired  # further accesses reuse the index
        assert outcome._status_cache is first_cache
        outcome.records.append(
            EngineRecord(
                time_ns=100.0, ticket=100, application="late", status=RequestStatus.ADMITTED
            )
        )
        assert outcome.admitted[-1] == "late"  # append invalidated the index
        assert outcome._status_cache is not first_cache

    def test_accessors_stay_linear_not_quadratic(self):
        # Reporting loops hit every accessor per record; with the index a
        # full sweep over 10k records is ~one scan, without it ~50k scans.
        # Pin behaviour (not wall-clock): count index rebuilds via the
        # cache key.
        outcome = self._outcome(10_000)
        for _ in range(100):
            outcome.admitted
            outcome.rejected
            outcome.shed
        assert outcome._status_cache[0] == 10_000
