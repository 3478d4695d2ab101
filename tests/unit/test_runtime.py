"""Run-time resource manager, scenarios and energy accounting."""

import pytest

from repro.exceptions import AdmissionError
from repro.runtime.accounting import EnergyAccount
from repro.runtime.events import StartEvent, StopEvent
from repro.runtime.manager import RuntimeResourceManager
from repro.runtime.scenario import Scenario, run_scenario
from repro.spatialmapper.config import MapperConfig
from repro.workloads import hiperlan2
from repro.workloads.receivers import build_drm_library, build_drm_receiver_als
from tests.harness import make_app, make_manager


@pytest.fixture()
def manager(case_study):
    _, platform, library = case_study
    return RuntimeResourceManager(platform, library, MapperConfig(analysis_iterations=3))


class TestManager:
    def test_start_commits_allocations(self, manager, hiperlan_als):
        result = manager.start(hiperlan_als)
        assert result.is_feasible
        assert manager.is_running(hiperlan_als.name)
        assert manager.state.used_process_slots("montium1") == 1
        assert manager.state.link_loads()

    def test_double_start_rejected(self, manager, hiperlan_als):
        manager.start(hiperlan_als)
        with pytest.raises(AdmissionError):
            manager.start(hiperlan_als)

    def test_stop_releases_everything(self, manager, hiperlan_als):
        manager.start(hiperlan_als)
        manager.stop(hiperlan_als.name)
        assert not manager.is_running(hiperlan_als.name)
        assert manager.state.occupied_tiles() == ()
        assert manager.state.link_loads() == {}

    def test_stop_unknown_application_rejected(self, manager):
        with pytest.raises(AdmissionError):
            manager.stop("ghost")

    def test_second_instance_rejected_when_resources_taken(self, manager, hiperlan_als):
        manager.start(hiperlan_als)
        second = hiperlan2.build_receiver_als()
        second.name = "hiperlan2_rx_2"
        with pytest.raises(AdmissionError):
            manager.start(second)
        assert manager.decisions[-1][1] is False

    def test_restart_after_stop_succeeds(self, manager, hiperlan_als):
        manager.start(hiperlan_als)
        manager.stop(hiperlan_als.name)
        result = manager.start(hiperlan_als)
        assert result.is_feasible

    def test_try_start_returns_none_on_rejection(self, manager, hiperlan_als):
        manager.start(hiperlan_als)
        second = hiperlan2.build_receiver_als()
        second.name = "another"
        assert manager.try_start(second) is None

    def test_per_application_library_override(self, case_study):
        _, platform, _ = case_study
        manager = RuntimeResourceManager(platform, config=MapperConfig(analysis_iterations=3))
        drm = build_drm_receiver_als()
        result = manager.start(drm, library=build_drm_library())
        assert result.is_feasible

    def test_total_power_accumulates(self, manager, hiperlan_als):
        assert manager.total_power_mw() == 0.0
        manager.start(hiperlan_als)
        assert manager.total_power_mw() > 0.0

    def test_mapper_reused_across_starts(self, manager, hiperlan_als):
        first = manager._mapper_for(None)
        manager.start(hiperlan_als)
        manager.stop(hiperlan_als.name)
        manager.start(hiperlan_als)
        assert manager._mapper_for(None) is first


class TestBatchAdmission:
    def test_start_many_gives_per_application_decisions(self, manager):
        rx1 = hiperlan2.build_receiver_als()
        rx2 = hiperlan2.build_receiver_als()
        rx2.name = "second_rx"
        outcome = manager.start_many([rx1, rx2])
        assert [d.application for d in outcome.decisions] == [rx1.name, rx2.name]
        assert outcome.decisions[0].admitted
        assert not outcome.decisions[1].admitted
        assert outcome.admission_rate == pytest.approx(0.5)
        assert manager.is_running(rx1.name)
        assert not manager.is_running(rx2.name)

    def test_start_many_accepts_per_application_libraries(self, case_study):
        _, platform, _ = case_study
        manager = RuntimeResourceManager(platform, config=MapperConfig(analysis_iterations=3))
        drm = build_drm_receiver_als()
        outcome = manager.start_many([(drm, build_drm_library())])
        assert outcome.decisions[0].admitted
        assert manager.is_running(drm.name)

    def test_exception_mid_batch_keeps_earlier_admissions_consistent(self, manager):
        """If a request blows up mid-batch, the admissions decided before it
        stand, in the audit trail and in the state alike."""
        rx1 = hiperlan2.build_receiver_als()

        class ExplodingRequest:
            name = "exploder"

        with pytest.raises(AttributeError):
            manager.start_many([rx1, ExplodingRequest()])
        assert manager.is_running(rx1.name)
        assert manager.decisions == [(rx1.name, True, "admitted")]
        manager.stop(rx1.name)
        assert manager.state.occupied_tiles() == ()
        assert manager.state.link_loads() == {}

    def test_duplicate_of_a_running_application_leaves_it_in_place(self, manager):
        rx1 = hiperlan2.build_receiver_als()
        manager.start(rx1)
        tiles_before = manager.state.occupied_tiles()
        links_before = manager.state.link_loads()
        duplicate = hiperlan2.build_receiver_als()  # same name as rx1
        outcome = manager.start_many([duplicate])
        assert not outcome.decisions[0].admitted
        assert manager.is_running(rx1.name)
        assert manager.state.occupied_tiles() == tiles_before
        assert manager.state.link_loads() == links_before
        manager.stop(rx1.name)
        assert manager.state.occupied_tiles() == ()

    def test_a_rejection_does_not_end_the_batch(self):
        manager = make_manager(region_fallback=False)
        left = [make_app(50 + index, f"left{index}", "io_l") for index in range(3)]
        right = make_app(60, "right", "io_r")
        outcome = manager.start_many(
            [(app.als, app.library) for app in (*left, right)]
        )
        admitted = [decision.admitted for decision in outcome.decisions]
        # The first two-stage application takes two of the left region's
        # three one-slot GPP tiles, so the next two are rejected; the right
        # request after them is still decided, and admitted.
        assert admitted == [True, False, False, True]
        assert manager.is_running("left0") and manager.is_running("right")
        assert [entry[0] for entry in manager.decisions] == [
            "left0",
            "left1",
            "left2",
            "right",
        ]

    def test_start_many_decides_like_one_admit_per_request(self):
        apps = [
            make_app(70 + index, f"app{index}", io_tile)
            for index, io_tile in enumerate(["io_l", "io_r", "io_l", "io_r", "io_l"])
        ]
        batched = make_manager()
        batched.start_many([(app.als, app.library) for app in apps])
        looped = make_manager()
        for app in apps:
            looped.admit(app.als, library=app.library)
        assert batched.decisions == looped.decisions
        assert batched.state.occupied_tiles() == looped.state.occupied_tiles()
        assert batched.state.link_loads() == looped.state.link_loads()


class TestScenario:
    def test_scenario_player_runs_events_in_time_order(self, case_study):
        _, platform, library = case_study
        manager = RuntimeResourceManager(platform, library, MapperConfig(analysis_iterations=3))
        rx = hiperlan2.build_receiver_als()
        scenario = Scenario("basic", duration_ns=4_000_000.0)
        scenario.add(StopEvent(time_ns=2_000_000.0, application=rx.name))
        scenario.add(StartEvent(time_ns=0.0, als=rx))
        outcome = run_scenario(manager, scenario)
        assert outcome.admitted == [rx.name]
        assert outcome.rejected == []
        assert outcome.admission_rate == 1.0
        assert outcome.total_energy_nj > 0

    def test_rejections_are_recorded(self, case_study):
        _, platform, library = case_study
        manager = RuntimeResourceManager(platform, library, MapperConfig(analysis_iterations=3))
        rx1 = hiperlan2.build_receiver_als()
        rx2 = hiperlan2.build_receiver_als()
        rx2.name = "second_rx"
        scenario = Scenario("contention", duration_ns=1_000_000.0)
        scenario.add(StartEvent(time_ns=0.0, als=rx1))
        scenario.add(StartEvent(time_ns=100.0, als=rx2))
        outcome = run_scenario(manager, scenario)
        assert outcome.admitted == [rx1.name]
        assert len(outcome.rejected) == 1
        assert outcome.admission_rate == pytest.approx(0.5)

    def test_departure_frees_resources_for_later_arrival(self, case_study):
        _, platform, library = case_study
        manager = RuntimeResourceManager(platform, library, MapperConfig(analysis_iterations=3))
        rx1 = hiperlan2.build_receiver_als()
        rx2 = hiperlan2.build_receiver_als()
        rx2.name = "second_rx"
        scenario = Scenario("handover", duration_ns=3_000_000.0)
        scenario.add(StartEvent(time_ns=0.0, als=rx1))
        scenario.add(StopEvent(time_ns=1_000_000.0, application=rx1.name))
        scenario.add(StartEvent(time_ns=1_500_000.0, als=rx2))
        outcome = run_scenario(manager, scenario)
        assert outcome.admitted == [rx1.name, rx2.name]
        assert outcome.rejected == []

    def test_event_validation(self):
        with pytest.raises(ValueError):
            StartEvent(time_ns=-1.0, als=None)
        with pytest.raises(ValueError):
            StartEvent(time_ns=0.0, als=None)
        with pytest.raises(ValueError):
            StopEvent(time_ns=0.0, application="")

    def test_deadline_before_arrival_rejected(self, hiperlan_als):
        with pytest.raises(ValueError):
            StartEvent(time_ns=1_000.0, als=hiperlan_als, deadline_ns=500.0)

    def test_equal_time_ties_break_by_sequence_number(self, hiperlan_als):
        # Three same-time events created in a known order, added to the
        # scenario in a different order: sorted_events must replay them in
        # creation order via the monotonic sequence number, not insertion
        # or sort-stability accidents.
        first = StartEvent(time_ns=10.0, als=hiperlan_als)
        second = StopEvent(time_ns=10.0, application="a")
        third = StopEvent(time_ns=10.0, application="b")
        assert first.seq < second.seq < third.seq
        scenario = Scenario("ties")
        for event in (third, first, second):
            scenario.add(event)
        assert scenario.sorted_events() == [first, second, third]
        assert [e.order_key for e in scenario.sorted_events()] == sorted(
            e.order_key for e in scenario.events
        )


class TestEnergyAccount:
    def test_integration_over_time(self):
        account = EnergyAccount()
        account.start("app", time_ns=0.0, energy_nj_per_iteration=100.0, period_ns=1000.0)
        account.stop("app", time_ns=10_000.0)
        # 0.1 nJ/ns for 10 000 ns -> 1000 nJ.
        assert account.total_energy_nj == pytest.approx(1000.0)
        assert account.per_application_nj["app"] == pytest.approx(1000.0)

    def test_finish_closes_open_intervals(self):
        account = EnergyAccount()
        account.start("app", 0.0, 50.0, 1000.0)
        account.finish(2000.0)
        assert account.total_energy_nj == pytest.approx(100.0)

    def test_stop_unknown_application_is_noop(self):
        account = EnergyAccount()
        account.stop("ghost", 100.0)
        assert account.total_energy_nj == 0.0

    def test_average_power(self):
        account = EnergyAccount()
        account.start("app", 0.0, 100.0, 1000.0)   # 0.1 nJ/ns = 100 mW
        account.finish(1_000_000.0)
        assert account.average_power_mw(1_000_000.0) == pytest.approx(100.0)

    def test_average_power_of_empty_duration(self):
        assert EnergyAccount().average_power_mw(0.0) == 0.0
