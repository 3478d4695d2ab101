"""The staged admission pipeline, region sharding and the admission queue."""

import threading

import pytest

from repro.exceptions import AdmissionError, AdmissionRejected, UnknownApplication
from repro.platform.builder import PlatformBuilder
from repro.platform.regions import RegionPartition
from repro.platform.state import PlatformState
from repro.runtime.manager import RuntimeResourceManager
from repro.runtime.queue import AdmissionQueue, RequestStatus
from repro.spatialmapper.config import MapperConfig
from repro.workloads.synthetic import SyntheticConfig, generate_application
from tests.harness import make_unpinned_app

CONFIG = SyntheticConfig(stages=2, period_ns=100_000.0, tile_types=("GPP",))


def build_two_region_platform():
    """A 4x2 mesh with one I/O tile and three GPP tiles per half."""
    builder = (
        PlatformBuilder("two_region")
        .mesh(4, 2, link_capacity_bits_per_s=4e9, router_frequency_mhz=200.0)
        .tile_type("IO", frequency_mhz=200.0, is_processing=False)
        .tile_type("GPP", frequency_mhz=200.0)
        .tile("io_l", "IO", (0, 0))
        .tile("io_r", "IO", (3, 0))
    )
    for index, position in enumerate([(0, 1), (1, 0), (1, 1)]):
        builder.tile(f"gpp_l{index}", "GPP", position, memory_bytes=128 * 1024)
    for index, position in enumerate([(2, 0), (2, 1), (3, 1)]):
        builder.tile(f"gpp_r{index}", "GPP", position, memory_bytes=128 * 1024)
    return builder.build()


def make_app(seed, name, io_tile):
    """A two-stage synthetic application pinned to one region's I/O tile."""
    return generate_application(
        seed, CONFIG, name=name, source_tile=io_tile, sink_tile=io_tile
    )


@pytest.fixture()
def platform():
    return build_two_region_platform()


@pytest.fixture()
def partition(platform):
    return RegionPartition.grid(platform, 2, 1)


@pytest.fixture()
def manager(platform, partition):
    return RuntimeResourceManager(
        platform,
        config=MapperConfig(analysis_iterations=3),
        partition=partition,
    )


class TestRegionShardedAdmission:
    def test_admission_lands_inside_the_pinned_region(self, manager):
        app = make_app(1, "left_app", "io_l")
        result = manager.start(app.als, library=app.library)
        assert result.is_feasible
        left = manager.partition.region("r0_0")
        assert manager.pipeline.regions_of("left_app") == ("r0_0",)
        for tile in manager.state.occupied_tiles():
            assert tile in left
        for link in manager.state.link_loads():
            assert left.covers_link(link)

    def test_independent_regions_admit_independently(self, manager):
        left = make_app(2, "left_app", "io_l")
        right = make_app(3, "right_app", "io_r")
        outcome = manager.start_many(
            [(left.als, left.library), (right.als, right.library)]
        )
        assert [d.admitted for d in outcome.decisions] == [True, True]
        assert manager.pipeline.regions_of("left_app") == ("r0_0",)
        assert manager.pipeline.regions_of("right_app") == ("r1_0",)

    def test_cross_region_pins_fall_back_to_global(self, manager):
        spanning = generate_application(
            4, CONFIG, name="spanning", source_tile="io_l", sink_tile="io_r"
        )
        # No single region contains both pinned tiles.
        candidates = manager.pipeline.candidate_regions(
            spanning.als, spanning.library
        )
        assert candidates == (None,)
        result = manager.start(spanning.als, library=spanning.library)
        assert result.is_feasible
        assert set(manager.pipeline.regions_of("spanning")) == {"r0_0", "r1_0"}

    def test_candidate_regions_prefer_less_filled(self, manager):
        als, library = make_unpinned_app("floater")
        first = manager.pipeline.candidate_regions(als, library)
        left_app = make_app(6, "filler", "io_l")
        manager.start(left_app.als, library=left_app.library)
        second = manager.pipeline.candidate_regions(als, library)
        # Empty platform: both regions qualify, tie broken by name; once the
        # left region fills, the emptier right region is preferred.
        assert [r.name for r in first if r is not None] == ["r0_0", "r1_0"]
        assert [r.name for r in second if r is not None][0] == "r1_0"

    def test_region_exhaustion_rejects_or_overflows_explicitly(self, manager):
        admitted = []
        for index in range(4):
            app = make_app(10 + index, f"left{index}", "io_l")
            decision = manager.admit(app.als, library=app.library)
            admitted.append(decision.admitted)
        # Three GPP slots on the left: the region fits one two-stage app
        # (plus possibly a second using the last slot pair across tiles);
        # eventually admission fails because the pinned region is full and
        # the global fallback cannot place processes elsewhere... unless it
        # can: the fallback may legally spill compute to the right half
        # while I/O stays pinned left.  Either way every decision is
        # explicit and the platform stays consistent.
        assert admitted[0] is True
        state_apps = set(manager.state.applications())
        running = {app.name for app in manager.running_applications}
        assert state_apps == running


class TestTypedExceptionsAndStop:
    def test_start_raises_typed_rejection(self, manager):
        apps = [make_app(20 + i, f"app{i}", "io_l") for i in range(5)]
        with pytest.raises(AdmissionRejected) as excinfo:
            for app in apps:
                manager.start(app.als, library=app.library)
        assert isinstance(excinfo.value, AdmissionError)  # backwards compatible

    def test_stop_unknown_application_is_typed(self, manager):
        with pytest.raises(UnknownApplication):
            manager.stop("ghost")

    def test_stop_releases_inside_a_transaction(self, manager, monkeypatch):
        app = make_app(30, "fragile", "io_l")
        manager.start(app.als, library=app.library)
        snapshot = (
            dict(manager.state._used_slots),
            dict(manager.state._link_load),
        )
        original = PlatformState.release_application

        def exploding_release(self, application):
            original(self, application)
            raise RuntimeError("interrupted teardown")

        monkeypatch.setattr(PlatformState, "release_application", exploding_release)
        with pytest.raises(RuntimeError):
            manager.stop("fragile")
        # The transaction rolled the half-done release back: the application
        # is still fully allocated and still tracked as running.
        assert (
            dict(manager.state._used_slots),
            dict(manager.state._link_load),
        ) == snapshot
        assert manager.is_running("fragile")
        monkeypatch.undo()
        manager.stop("fragile")
        assert manager.state.occupied_tiles() == ()


class TestMapperCacheInPipeline:
    def test_repeated_question_is_served_from_cache(self, manager):
        app = make_app(40, "repeat", "io_l")
        cache = manager.pipeline.cache
        assert cache is not None and len(cache) == 0
        decision = manager.pipeline.map_stage(
            app.als, app.library, manager.partition.region("r0_0")
        )
        assert decision.status.value == "feasible"
        misses = cache.stats.misses
        again = manager.pipeline.map_stage(
            app.als, app.library, manager.partition.region("r0_0")
        )
        assert cache.stats.hits >= 1
        assert cache.stats.misses == misses
        assert [
            (a.process, a.tile) for a in again.mapping.assignments
        ] == [(a.process, a.tile) for a in decision.mapping.assignments]

    def test_commit_invalidates_by_fingerprint_change(self, manager):
        app = make_app(41, "fingerprinted", "io_l")
        region = manager.partition.region("r0_0")
        cache = manager.pipeline.cache
        before = region.fingerprint(manager.state)
        manager.pipeline.map_stage(app.als, app.library, region)
        manager.start(app.als, library=app.library)
        # The admission itself was answered from the warm entry (same state,
        # same objects)...
        assert cache.stats.hits >= 1
        hits_after_commit = cache.stats.hits
        # ...but the commit changed the region fingerprint: the cached entry
        # for the empty region can no longer answer the new state.
        assert region.fingerprint(manager.state) != before
        sibling = make_app(41, "fingerprinted", "io_l")  # same name, new object
        decision = manager.pipeline.map_stage(sibling.als, sibling.library, region)
        assert cache.stats.hits == hits_after_commit  # no stale hit was served
        assert decision is not None

    def test_stop_restores_fingerprint_and_reenables_entries(self, manager):
        app = make_app(42, "churn", "io_l")
        region = manager.partition.region("r0_0")
        cache = manager.pipeline.cache
        empty = region.fingerprint(manager.state)
        manager.start(app.als, library=app.library)
        manager.stop("churn")
        assert region.fingerprint(manager.state) == empty
        hits = cache.stats.hits
        result = manager.start(app.als, library=app.library)
        # The restart is answered from the entry computed for the first
        # admission: same fingerprint, same ALS object.
        assert cache.stats.hits > hits
        assert result.is_feasible


class TestAdmissionQueue:
    def test_submit_poll_cancel_lifecycle(self, manager):
        queue = AdmissionQueue(manager)
        app = make_app(50, "queued", "io_l")
        ticket = queue.submit(app.als, library=app.library)
        assert queue.poll(ticket).status is RequestStatus.PENDING
        assert len(queue) == 1
        assert queue.cancel(ticket)
        assert queue.poll(ticket).status is RequestStatus.CANCELLED
        assert not queue.cancel(ticket)
        assert len(queue) == 0
        with pytest.raises(UnknownApplication):
            queue.poll(999)

    def test_priorities_drain_first(self, manager):
        queue = AdmissionQueue(manager)
        low = make_app(51, "low", "io_l")
        high = make_app(52, "high", "io_l")
        queue.submit(low.als, library=low.library, priority=0)
        queue.submit(high.als, library=high.library, priority=5)
        drained = queue.drain()
        assert [request.application for request in drained] == ["high", "low"]

    def test_deadline_expires_instead_of_admitting_late(self, manager):
        queue = AdmissionQueue(manager)
        app = make_app(53, "deadline", "io_l")
        ticket = queue.submit(app.als, library=app.library, deadline_ns=100.0)
        drained = queue.drain(now_ns=200.0)
        assert queue.poll(ticket).status is RequestStatus.EXPIRED
        assert drained[0].decision is None
        assert not manager.is_running("deadline")

    def test_drain_matches_direct_start_many(self, partition):
        """Queued admissions must decide exactly like a direct batch call."""
        apps = [
            make_app(60 + index, f"app{index}", "io_l" if index % 2 else "io_r")
            for index in range(6)
        ]

        direct_platform = build_two_region_platform()
        direct_manager = RuntimeResourceManager(
            direct_platform,
            config=MapperConfig(analysis_iterations=3),
            partition=RegionPartition.grid(direct_platform, 2, 1),
        )
        direct = direct_manager.start_many([(a.als, a.library) for a in apps])

        queued_platform = build_two_region_platform()
        queued_manager = RuntimeResourceManager(
            queued_platform,
            config=MapperConfig(analysis_iterations=3),
            partition=RegionPartition.grid(queued_platform, 2, 1),
        )
        queue = AdmissionQueue(queued_manager)
        tickets = [queue.submit(a.als, library=a.library) for a in apps]
        drained = queue.drain()

        assert [r.ticket for r in drained] == tickets
        direct_decisions = [
            (d.application, d.admitted, d.reason) for d in direct.decisions
        ]
        queued_decisions = [
            (r.decision.application, r.decision.admitted, r.decision.reason)
            for r in drained
        ]
        assert queued_decisions == direct_decisions
        assert queued_manager.decisions == direct_manager.decisions

    def test_region_fallback_disabled_rejects_without_global_mapping(
        self, platform, partition
    ):
        manager = RuntimeResourceManager(
            platform,
            config=MapperConfig(analysis_iterations=3),
            partition=partition,
            region_fallback=False,
        )
        spanning = generate_application(
            80, CONFIG, name="spanning", source_tile="io_l", sink_tile="io_r"
        )
        assert manager.pipeline.candidate_regions(spanning.als, spanning.library) == ()
        decision = manager.admit(spanning.als, library=spanning.library)
        assert not decision.admitted
        assert "fallback disabled" in decision.reason
        assert manager.state.occupied_tiles() == ()

    def test_drain_survives_mid_batch_exception(self, manager, monkeypatch):
        queue = AdmissionQueue(manager)
        good = make_app(81, "good", "io_l")
        exploder = make_app(82, "exploder", "io_l")
        trailing = make_app(83, "trailing", "io_r")
        first = queue.submit(good.als, library=good.library)
        boom = queue.submit(exploder.als, library=exploder.library)
        tail = queue.submit(trailing.als, library=trailing.library)

        original_decide = manager.pipeline.decide

        def exploding_decide(als, library=None, *, trace=None):
            if als.name == "exploder":
                raise RuntimeError("mapper exploded")
            return original_decide(als, library=library, trace=trace)

        monkeypatch.setattr(manager.pipeline, "decide", exploding_decide)
        with pytest.raises(RuntimeError):
            queue.drain()
        # The request decided before the explosion is finalised from the
        # audit trail; the exploding and trailing requests are back in the
        # queue, in order, for a later retry.
        assert queue.poll(first).status is RequestStatus.ADMITTED
        assert manager.is_running("good")
        assert [r.ticket for r in queue.pending] == [boom, tail]
        monkeypatch.undo()
        queue.cancel(boom)
        drained = queue.drain()
        assert [r.application for r in drained] == ["trailing"]
        assert queue.poll(tail).status is RequestStatus.ADMITTED

    def test_process_next_drains_one(self, manager):
        queue = AdmissionQueue(manager)
        a = make_app(70, "one", "io_l")
        b = make_app(71, "two", "io_r")
        queue.submit(a.als, library=a.library)
        queue.submit(b.als, library=b.library)
        first = queue.process_next()
        assert first.application == "one"
        assert len(queue) == 1
        assert queue.process_next().application == "two"
        assert queue.process_next() is None


class TestQueueTwoPhase:
    """The take/finalize primitives the workload engine drains through."""

    def test_take_marks_in_flight_and_finalize_settles(self, manager):
        queue = AdmissionQueue(manager)
        app = make_app(90, "twophase", "io_l")
        ticket = queue.submit(app.als, library=app.library)
        expired, ready = queue.take()
        assert expired == [] and [r.ticket for r in ready] == [ticket]
        request = ready[0]
        assert request.status is RequestStatus.IN_FLIGHT
        assert not request.status.is_final
        assert len(queue) == 0
        decision = manager.admit(app.als, library=app.library)
        queue.finalize(request, decision)
        assert request.status is RequestStatus.ADMITTED
        assert request.attempts == 1

    def test_expired_deadline_wins_over_take(self, manager):
        queue = AdmissionQueue(manager)
        app = make_app(91, "late", "io_l")
        ticket = queue.submit(app.als, library=app.library, deadline_ns=100.0)
        expired, ready = queue.take(now_ns=200.0)
        assert [r.ticket for r in expired] == [ticket]
        assert ready == []
        assert queue.poll(ticket).status is RequestStatus.EXPIRED
        assert not manager.is_running("late")

    def test_cancel_in_flight_rolls_back_late_admission(self, manager):
        # The race the engine must survive: the client cancels after the
        # worker claimed the request; the worker's admission lands anyway and
        # must be rolled back at finalize, leaving no allocations behind.
        queue = AdmissionQueue(manager)
        app = make_app(92, "raced", "io_l")
        ticket = queue.submit(app.als, library=app.library)
        _, ready = queue.take()
        request = ready[0]
        assert queue.cancel(ticket) is False  # too late to withdraw
        assert request.cancel_requested
        decision = manager.admit(app.als, library=app.library)
        assert decision.admitted and manager.is_running("raced")
        queue.finalize(request, decision)
        assert request.status is RequestStatus.CANCELLED
        assert "rolled back" in request.reason
        assert not manager.is_running("raced")
        assert manager.state.occupied_tiles() == ()
        assert manager.state.link_loads() == {}

    def test_cancel_in_flight_of_rejected_request(self, manager):
        queue = AdmissionQueue(manager)
        blocker = make_app(93, "blocker", "io_l")
        manager.start(blocker.als, library=blocker.library)
        tiles_before = manager.state.occupied_tiles()
        app = make_app(94, "raced", "io_l")
        ticket = queue.submit(app.als, library=app.library)
        _, ready = queue.take()
        request = ready[0]
        queue.cancel(ticket)
        decision = manager.admit(app.als, library=app.library)
        queue.finalize(request, decision)
        assert request.status is RequestStatus.CANCELLED
        # The raced rejection rolled nothing back — the blocker still runs.
        assert manager.is_running("blocker")
        assert manager.state.occupied_tiles() == tiles_before

    def test_cancel_race_under_concurrent_draining(self, manager):
        """A worker thread drains while the client cancels mid-decision."""
        queue = AdmissionQueue(manager)
        app = make_app(95, "concurrent", "io_l")
        ticket = queue.submit(app.als, library=app.library)
        taken = threading.Event()
        cancelled = threading.Event()
        settled: list[RequestStatus] = []

        def worker():
            _, ready = queue.take()
            request = ready[0]
            taken.set()
            # The worker only finishes deciding after the cancellation —
            # the exact race the intent flag exists for.
            assert cancelled.wait(timeout=5.0)
            decision = manager.admit(request.als, library=request.library)
            queue.finalize(request, decision)
            settled.append(request.status)

        thread = threading.Thread(target=worker)
        thread.start()
        assert taken.wait(timeout=5.0)
        assert queue.cancel(ticket) is False
        cancelled.set()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert settled == [RequestStatus.CANCELLED]
        assert not manager.is_running("concurrent")
        assert manager.state.occupied_tiles() == ()

    def test_requeue_returns_requests_to_the_head(self, manager):
        queue = AdmissionQueue(manager)
        first = make_app(96, "first", "io_l")
        second = make_app(97, "second", "io_l")
        queue.submit(first.als, library=first.library)
        queue.submit(second.als, library=second.library)
        _, ready = queue.take()
        queue.requeue(ready)
        assert [r.application for r in queue.pending] == ["first", "second"]
        assert all(r.status is RequestStatus.PENDING for r in queue.pending)


class TestParkedRejections:
    """Cache-aware rejection retries: park until the lane fingerprint moves."""

    def fill_left_region(self, manager):
        admitted = []
        for index in range(4):
            app = make_app(110 + index, f"filler{index}", "io_l")
            if manager.admit(app.als, library=app.library).admitted:
                admitted.append(app.als.name)
        assert admitted
        return admitted

    def test_rejection_parks_and_is_skipped_while_state_unchanged(self, manager):
        self.fill_left_region(manager)
        queue = AdmissionQueue(manager, park_rejections=True)
        app = make_app(120, "parked", "io_l")
        ticket = queue.submit(app.als, library=app.library)
        drained = queue.drain()
        # The rejection parked instead of finalising: still pending, with
        # the fingerprint it was rejected under recorded.
        assert drained == []
        request = queue.poll(ticket)
        assert request.status is RequestStatus.PENDING
        assert request.parked_fingerprint is not None
        assert request.attempts == 1
        # Unchanged state: further drains skip it without mapping work.
        for _ in range(3):
            assert queue.drain() == []
        assert queue.poll(ticket).attempts == 1

    def test_parked_request_retries_once_fingerprint_changes(self, manager):
        admitted = self.fill_left_region(manager)
        queue = AdmissionQueue(manager, park_rejections=True)
        app = make_app(121, "parked", "io_l")
        ticket = queue.submit(app.als, library=app.library)
        queue.drain()
        assert queue.poll(ticket).status is RequestStatus.PENDING
        for name in admitted:
            manager.stop(name)
        drained = queue.drain()
        assert [r.ticket for r in drained] == [ticket]
        assert queue.poll(ticket).status is RequestStatus.ADMITTED
        assert manager.is_running("parked")

    def test_parked_request_expires_past_deadline(self, manager):
        self.fill_left_region(manager)
        queue = AdmissionQueue(manager, park_rejections=True)
        app = make_app(122, "parked", "io_l")
        ticket = queue.submit(app.als, library=app.library, deadline_ns=1_000.0)
        queue.drain(now_ns=0.0)
        assert queue.poll(ticket).status is RequestStatus.PENDING
        drained = queue.drain(now_ns=2_000.0)
        assert [r.ticket for r in drained] == [ticket]
        assert queue.poll(ticket).status is RequestStatus.EXPIRED

    def test_flush_pending_finalises_parked_requests(self, manager):
        self.fill_left_region(manager)
        queue = AdmissionQueue(manager, park_rejections=True)
        app = make_app(123, "parked", "io_l")
        ticket = queue.submit(app.als, library=app.library)
        queue.drain()
        flushed = queue.flush_pending(now_ns=5_000.0)
        assert [r.ticket for r in flushed] == [ticket]
        request = queue.poll(ticket)
        assert request.status is RequestStatus.REJECTED
        assert request.reason  # keeps the real rejection reason
        assert len(queue) == 0
