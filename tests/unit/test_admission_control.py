"""The load-shedding governor and its engine/queue integration."""

import dataclasses
import threading

import pytest

from repro.platform.regions import RegionPartition
from repro.runtime.admission_control import (
    GovernorConfig,
    GovernorDecision,
    LoadSheddingGovernor,
)
from repro.runtime.engine import EngineOutcome, EngineRecord, WorkloadEngine
from repro.runtime.events import StartEvent
from repro.runtime.queue import AdmissionQueue, RequestStatus
from repro.runtime.scenario import Scenario
from repro.workloads.arrivals import generate_workload, priority_overload_mix
from repro.workloads.synthetic import SyntheticConfig, generate_region_mesh
from tests.harness import (
    MILLISECOND,
    make_app,
    make_engine,
    make_manager,
    two_region_classes,
    two_region_workload,
)

FAST = GovernorConfig(rate_floor=0.5, resume_margin=0.1, window=8, min_samples=4)


class TestGovernorConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate_floor": 0.0},
            {"rate_floor": 1.0},
            {"resume_margin": -0.1},
            {"window": 0},
            {"min_samples": 0},
            {"window": 4, "min_samples": 8},
            {"mode": "drop"},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GovernorConfig(**kwargs)


class TestGovernorStateMachine:
    def test_cold_window_never_sheds(self):
        governor = LoadSheddingGovernor(FAST)
        for _ in range(FAST.min_samples - 1):
            governor.observe(0, False)
        assert not governor.shedding
        assert governor.assess(0) == GovernorDecision.PROCEED

    def test_engages_below_floor_and_recovers_with_hysteresis(self):
        governor = LoadSheddingGovernor(FAST)
        for _ in range(4):
            governor.observe(0, False)
        assert governor.shedding
        assert governor.assess(0) == GovernorDecision.SHED
        # Priorities above the shed ceiling always proceed.
        assert governor.assess(1) == GovernorDecision.PROCEED
        # Recovery requires clearing floor + margin, not just the floor.
        governor.observe(0, True)
        governor.observe(0, True)
        governor.observe(0, True)
        governor.observe(0, True)  # rate now 4/8 = 0.5: at floor, not past margin
        assert governor.shedding
        governor.observe(0, True)  # 5/8 = 0.625 >= 0.6
        assert not governor.shedding
        assert governor.transitions == 2

    def test_per_priority_rates_tracked(self):
        governor = LoadSheddingGovernor(FAST)
        governor.observe(0, False)
        governor.observe(2, True)
        assert governor.admission_rate(0) == 0.0
        assert governor.admission_rate(2) == 1.0
        assert governor.admission_rate() == 0.5
        assert governor.admission_rate(7) == 1.0  # unmeasured: presumed healthy

    def test_defer_mode_and_counters(self):
        governor = LoadSheddingGovernor(GovernorConfig(mode="defer", window=4, min_samples=2))
        governor.observe(0, False)
        governor.observe(0, False)
        assert governor.assess(0) == GovernorDecision.DEFER
        assert governor.snapshot()["deferred"] == 1

    def test_disabled_governor_is_inert(self):
        governor = LoadSheddingGovernor(FAST, enabled=False)
        for _ in range(8):
            governor.observe(0, False)
        assert not governor.shedding
        assert governor.assess(0) == GovernorDecision.PROCEED


def overloaded_workload(seed=77):
    """The harness mix scaled far past the two-region platform's capacity."""
    classes = [
        traffic.scaled(6.0)
        for traffic in two_region_classes(hold_range_ns=(4 * MILLISECOND, 8 * MILLISECOND))
    ]
    # Give the left lane's Poisson class priority so shedding has a
    # protected tier and a sheddable tier.
    classes[0] = dataclasses.replace(classes[0], priority=2, name="left_hi")
    return two_region_workload(seed, 10 * MILLISECOND, classes, name="overload")


def shared_region_overload(governor, seed=1):
    """Both tiers of :func:`priority_overload_mix` in every region of a 2x2
    region mesh, scaled 8x for 15 ms: the shape the governor exists for.

    Protected (priority 2) and sheddable (priority 0) requests compete for
    the same tiles, so shedding the low tier frees capacity the high tier
    can use.  Returns the engine outcome with the given governor (or none).
    """
    platform = generate_region_mesh(2, 3, name="shared_region_overload")
    manager = make_manager(platform, partition=RegionPartition.grid(platform, 2, 2))
    classes = [
        traffic.scaled(8.0)
        for traffic in priority_overload_mix(
            2,
            high_rate_per_s=80.0,
            low_rate_per_s=240.0,
            config=SyntheticConfig(stages=2, period_ns=100_000.0, tile_types=("GPP", "DSP")),
            admission_window_ns=5 * MILLISECOND,
            hold_range_ns=(3 * MILLISECOND, 8 * MILLISECOND),
        )
    ]
    workload = generate_workload(
        seed=seed, horizon_ns=15 * MILLISECOND, classes=classes, name="shared_overload"
    )
    return make_engine(manager, governor=governor, park_rejections=True).run(workload)


class TestEngineIntegration:
    def test_governor_protects_the_high_tier_in_shared_regions(self):
        config = GovernorConfig(rate_floor=0.5)
        ungoverned = shared_region_overload(None)
        governed = shared_region_overload(LoadSheddingGovernor(config))
        assert not ungoverned.shed
        assert ungoverned.priority_admission_rate(2) < 1.0
        assert governed.priority_admission_rate(2) > ungoverned.priority_admission_rate(2)
        shed = [r for r in governed.records if r.status is RequestStatus.SHED]
        assert shed
        assert all(r.priority <= config.shed_max_priority for r in shed)

    def test_governor_sheds_only_low_priority_and_journals_telemetry(self):
        workload = overloaded_workload()
        manager = make_manager()
        governor = LoadSheddingGovernor(FAST)
        outcome = make_engine(manager, governor=governor, park_rejections=True).run(
            workload
        )
        assert outcome.shed, "overload was expected to trigger shedding"
        shed_records = [r for r in outcome.records if r.status is RequestStatus.SHED]
        assert all(r.priority <= FAST.shed_max_priority for r in shed_records)
        assert all("shed by load governor" in r.reason for r in shed_records)
        lanes_shed = sum(c.shed for c in outcome.telemetry.lanes.values())
        assert lanes_shed == len(shed_records)
        snapshot = outcome.telemetry.governor
        assert snapshot is not None
        assert snapshot["shed"] >= len(shed_records)
        assert snapshot["transitions"] >= 1
        assert 2 in snapshot["rate_by_priority"]

    def test_shed_requests_count_as_offered_in_admission_rates(self):
        outcome = make_engine(
            make_manager(), governor=LoadSheddingGovernor(FAST), park_rejections=True
        ).run(overloaded_workload())
        low = [r.status for r in outcome.records if r.priority == 0]
        assert low.count(RequestStatus.ADMITTED) == 2
        assert low.count(RequestStatus.SHED) == 67
        assert len(low) == 69
        # The shed tier reads 2 of 69 offered, not 2 of 2 decided.
        assert outcome.priority_admission_rate(0) == pytest.approx(2 / 69)
        offered = outcome.decided + len(outcome.shed)
        assert outcome.admission_rate == pytest.approx(len(outcome.admitted) / offered)
        assert outcome.admission_rate < len(outcome.admitted) / outcome.decided

    def test_governor_saves_mapper_invocations(self):
        workload = overloaded_workload()
        plain_manager = make_manager()
        make_engine(plain_manager, park_rejections=True).run(workload)
        governed_manager = make_manager()
        governed = make_engine(
            governed_manager,
            governor=LoadSheddingGovernor(FAST),
            park_rejections=True,
        ).run(workload)
        assert governed.shed
        assert (
            governed_manager.pipeline.mapper_invocations
            < plain_manager.pipeline.mapper_invocations
        )

    def test_defer_mode_leaves_no_shed_records(self):
        workload = overloaded_workload()
        manager = make_manager()
        governor = LoadSheddingGovernor(
            GovernorConfig(rate_floor=0.5, window=8, min_samples=4, mode="defer")
        )
        outcome = make_engine(manager, governor=governor, park_rejections=True).run(
            workload
        )
        # Defer mode never sheds mid-run (no terminal settlements before
        # the deadline or the end of the workload)...
        assert governor.shed_count == 0
        assert governor.deferred_count > 0
        # ...but deferred arrivals that never reached the mapper settle as
        # SHED at the end-of-run flush instead of being charged as
        # pipeline rejections.
        for record in outcome.records:
            if record.status is RequestStatus.SHED:
                assert "deferred until workload end" in record.reason
        # Every submitted request still settled exactly once by run end.
        assert len(outcome.records) == len(
            [e for e in workload.sorted_events() if isinstance(e, StartEvent)]
        )


class TestDeferredExpiryObservation:
    def test_expiry_of_governor_deferred_request_is_not_observed(self):
        # A request the governor deferred and that expires before ever
        # reaching the mapper must not feed the rate window: the failure is
        # the governor's own doing, and counting it would keep the window
        # depressed forever (a self-reinforcing shedding loop).
        manager = make_manager()
        governor = LoadSheddingGovernor(FAST)
        engine = make_engine(manager, governor=governor)
        app = make_app(900, "deferred", "io_l")
        engine.queue.submit(app.als, library=app.library, deadline_ns=10.0)
        _, taken = engine.queue.take(now_ns=0.0)
        assert engine.queue.defer(taken, now_ns=0.0) == []
        assert taken[0].deferred_by_governor
        samples_before = governor.snapshot()["samples"]
        outcome = EngineOutcome(workload="expiry")
        engine._drain(100.0, outcome)  # past the deadline: expiry sweep
        assert [r.status for r in outcome.records] == [RequestStatus.EXPIRED]
        assert governor.snapshot()["samples"] == samples_before


class TestShedCancelRaces:
    ROUNDS = 60

    def _race(self, queue, request, settle):
        """Race ``settle(request)`` against a concurrent client cancel."""
        barrier = threading.Barrier(2)
        results = {}

        def cancel_side():
            barrier.wait()
            results["cancelled"] = queue.cancel(request.ticket, now_ns=2.0)

        def settle_side():
            barrier.wait()
            settle(request)

        threads = [
            threading.Thread(target=cancel_side),
            threading.Thread(target=settle_side),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return results["cancelled"]

    def test_shed_vs_cancel_settles_exactly_once(self):
        manager = make_manager()
        queue = AdmissionQueue(manager)
        outcomes = set()
        for round_index in range(self.ROUNDS):
            app = make_app(1000 + round_index, f"race{round_index}", "io_l")
            queue.submit(app.als, library=app.library)
            _, (request,) = queue.take()
            assert request.status is RequestStatus.IN_FLIGHT
            cancelled = self._race(
                queue, request, lambda r: queue.shed(r, now_ns=1.0)
            )
            # Exactly one terminal settlement: CANCELLED xor SHED.
            assert request.status in (RequestStatus.CANCELLED, RequestStatus.SHED)
            if cancelled:
                # A successful synchronous cancel is impossible here: the
                # request was IN_FLIGHT when both sides started.
                pytest.fail("cancel() claimed a synchronous win on an in-flight request")
            if request.status is RequestStatus.SHED:
                assert not request.cancel_requested or request.decided_ns == 1.0
            assert request not in queue.pending
            outcomes.add(request.status)
        assert RequestStatus.SHED in outcomes  # the race is actually exercised

    def test_defer_vs_cancel_settles_exactly_once(self):
        manager = make_manager()
        queue = AdmissionQueue(manager)
        saw_cancel = saw_pending = False
        for round_index in range(self.ROUNDS):
            app = make_app(2000 + round_index, f"defer{round_index}", "io_l")
            queue.submit(app.als, library=app.library)
            _, (request,) = queue.take()
            self._race(queue, request, lambda r: queue.defer([r], now_ns=1.0))
            assert request.status in (RequestStatus.CANCELLED, RequestStatus.PENDING)
            if request.status is RequestStatus.CANCELLED:
                saw_cancel = True
                assert request not in queue.pending
                # A later defer of an already-settled request must be a no-op.
                assert queue.defer([request], now_ns=3.0) == []
                assert request.decided_ns != 3.0
            else:
                saw_pending = True
                # Back in the queue; the pending cancel intent (if the
                # cancel lost the race to the defer) settles it on the next
                # claim/finalise cycle, still exactly once.
                _, taken = queue.take()
                assert request in taken
                settled = queue.defer([request], now_ns=4.0)
                if request.cancel_requested:
                    assert settled == [request]
                    assert request.status is RequestStatus.CANCELLED
                else:
                    cancelled_now = queue.cancel(request.ticket, now_ns=5.0)
                    assert cancelled_now
                    assert request.status is RequestStatus.CANCELLED
            assert request.status is not RequestStatus.IN_FLIGHT
        assert saw_cancel or saw_pending


class TestEngineGovernorParameter:
    def test_engine_without_governor_has_no_snapshot(self):
        manager = make_manager()
        app = make_app(1, "solo", "io_l")
        scenario = Scenario("solo", duration_ns=1 * MILLISECOND).add(
            StartEvent(time_ns=0.0, als=app.als, library=app.library)
        )
        outcome = WorkloadEngine(manager).run(scenario)
        assert outcome.telemetry.governor is None
        assert outcome.shed == []


ADMITTED = RequestStatus.ADMITTED
REJECTED = RequestStatus.REJECTED
EXPIRED = RequestStatus.EXPIRED
CANCELLED = RequestStatus.CANCELLED
SHED = RequestStatus.SHED


def outcome_of(*settled):
    """An engine outcome holding one record per ``(status, priority)``."""
    return EngineOutcome(
        workload="rates",
        records=[
            EngineRecord(
                time_ns=float(ticket),
                ticket=ticket,
                application=f"app{ticket}",
                status=status,
                priority=priority,
            )
            for ticket, (status, priority) in enumerate(settled, start=1)
        ],
    )


class TestOutcomeRates:
    """Offered = admitted + rejected + expired + shed; cancellations excluded."""

    @pytest.mark.parametrize(
        "statuses, rate",
        [
            ([ADMITTED, ADMITTED], 1.0),
            ([ADMITTED, SHED], 0.5),
            ([ADMITTED, REJECTED, EXPIRED, SHED], 0.25),
            ([ADMITTED, CANCELLED], 1.0),
            ([SHED, SHED, SHED], 0.0),
            ([CANCELLED], 0.0),
            ([], 0.0),
        ],
    )
    def test_admission_rate(self, statuses, rate):
        outcome = outcome_of(*((status, 0) for status in statuses))
        assert outcome.admission_rate == pytest.approx(rate)

    @pytest.mark.parametrize("priority, rate", [(0, 1 / 4), (1, 2 / 3), (2, 0.0), (3, 0.0)])
    def test_priority_admission_rate(self, priority, rate):
        outcome = outcome_of(
            (ADMITTED, 0),
            (SHED, 0),
            (SHED, 0),
            (REJECTED, 0),
            (CANCELLED, 0),
            (ADMITTED, 1),
            (ADMITTED, 1),
            (EXPIRED, 1),
            (SHED, 2),
            (CANCELLED, 3),
        )
        assert outcome.priority_admission_rate(priority) == pytest.approx(rate)

    def test_decided_leaves_sheds_and_cancellations_out(self):
        outcome = outcome_of(
            (ADMITTED, 0), (REJECTED, 0), (EXPIRED, 0), (SHED, 0), (CANCELLED, 0)
        )
        assert outcome.decided == 3
        assert outcome.shed == ["app4"]
        assert outcome.cancelled == ["app5"]
