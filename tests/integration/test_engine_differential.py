"""Differential tests: engine vs legacy player, parallel vs serial draining.

Two equivalences anchor the engine refactor:

* :func:`run_scenario` (now a thin adapter over the engine in immediate
  drain mode) must be decision-for-decision — and energy-for-energy —
  identical to the legacy player that called the manager directly; the
  reference implementation is inlined here, frozen at its PR 2 behaviour.
* Draining the region lanes in reverse order — and with the
  process-parallel executor, which ships a region snapshot per lane — must be
  decision-identical to the serial executor on the same event stream,
  across generated workloads, with and without rejection parking.
"""

import pytest

from repro.exceptions import AdmissionError
from repro.platform.regions import RegionPartition
from repro.runtime.accounting import EnergyAccount
from repro.runtime.engine import SerialRegionExecutor, WorkloadEngine
from repro.runtime.events import StartEvent, StopEvent
from repro.runtime.manager import RuntimeResourceManager
from repro.runtime.scenario import ScenarioOutcome, run_scenario
from repro.spatialmapper.config import MapperConfig
from repro.workloads.arrivals import (
    PoissonArrivals,
    TrafficClass,
    generate_workload,
    offered_rate_per_s,
)
from repro.workloads.synthetic import SyntheticConfig, generate_region_mesh
from tests.harness import (
    MILLISECOND,
    TWO_STAGE_CONFIG as CONFIG,
    make_executor,
    make_manager,
    two_region_classes as workload_classes,
)


def legacy_run_scenario(manager, scenario):
    """The PR 2 scenario player, frozen as the differential reference."""
    outcome = ScenarioOutcome(scenario=scenario.name)
    for event in scenario.sorted_events():
        if isinstance(event, StartEvent):
            try:
                result = manager.start(
                    event.als, library=event.library, time_ns=event.time_ns
                )
            except AdmissionError as error:
                outcome.rejected.append((event.application, str(error)))
                continue
            outcome.admitted.append(event.application)
            outcome.energy.start(
                event.application,
                event.time_ns,
                result.energy_nj_per_iteration,
                event.als.period_ns,
            )
        elif isinstance(event, StopEvent):
            if manager.is_running(event.application):
                manager.stop(event.application)
                outcome.energy.stop(event.application, event.time_ns)
    outcome.end_time_ns = scenario.end_time_ns()
    outcome.energy.finish(outcome.end_time_ns)
    return outcome


class TestScenarioAdapterDifferential:
    @pytest.mark.parametrize("seed", [3, 21])
    def test_run_scenario_matches_legacy_player(self, seed):
        # No deadlines/priorities: the legacy player predates both.
        classes = [
            TrafficClass(
                "left",
                PoissonArrivals(rate_per_s=700.0),
                config=CONFIG,
                source_tile="io_l",
                sink_tile="io_l",
                hold_range_ns=(2 * MILLISECOND, 4 * MILLISECOND),
            ),
            TrafficClass(
                "right",
                PoissonArrivals(rate_per_s=700.0),
                config=CONFIG,
                source_tile="io_r",
                sink_tile="io_r",
                hold_range_ns=(2 * MILLISECOND, 4 * MILLISECOND),
            ),
        ]
        scenario = generate_workload(seed, 15 * MILLISECOND, classes, name="diff")

        legacy_manager = make_manager()
        legacy = legacy_run_scenario(legacy_manager, scenario)
        adapter_manager = make_manager()
        adapter = run_scenario(adapter_manager, scenario)

        assert adapter.admitted == legacy.admitted
        assert adapter.rejected == legacy.rejected
        assert adapter.admission_rate == pytest.approx(legacy.admission_rate)
        assert adapter.total_energy_nj == pytest.approx(legacy.total_energy_nj)
        assert adapter.end_time_ns == pytest.approx(legacy.end_time_ns)
        assert adapter_manager.decisions == legacy_manager.decisions
        assert sorted(adapter_manager.state.occupied_tiles()) == sorted(
            legacy_manager.state.occupied_tiles()
        )
        assert isinstance(adapter.energy, EnergyAccount)


class TestParallelDrainDifferential:
    @pytest.mark.parametrize("seed", [5, 17])
    @pytest.mark.parametrize("park", [False, True])
    @pytest.mark.parametrize("kind", ["reversed", "process"])
    def test_parallel_drain_is_decision_identical_to_serial(self, seed, park, kind):
        scenario = generate_workload(
            seed, 12 * MILLISECOND, workload_classes(), name="parallel-diff"
        )

        serial_manager = make_manager()
        serial = WorkloadEngine(
            serial_manager,
            executor=SerialRegionExecutor(),
            park_rejections=park,
        ).run(scenario)

        parallel_manager = make_manager()
        executor = make_executor(kind, parallel_manager.partition)
        try:
            parallel = WorkloadEngine(
                parallel_manager,
                executor=executor,
                park_rejections=park,
            ).run(scenario)
        finally:
            if kind == "process":
                executor.close()

        assert serial.decision_log() == parallel.decision_log()
        assert serial_manager.decisions == parallel_manager.decisions
        assert sorted(serial_manager.state.occupied_tiles()) == sorted(
            parallel_manager.state.occupied_tiles()
        )
        assert serial_manager.state.link_loads() == parallel_manager.state.link_loads()
        assert serial.energy.total_energy_nj == pytest.approx(
            parallel.energy.total_energy_nj
        )
        assert serial.departures == parallel.departures
        if kind == "process":
            # The snapshot dispatch must report its traffic.
            workers = parallel.telemetry.workers
            assert workers and sum(w["requests"] for w in workers.values()) > 0

    def test_parking_changes_work_not_decisions_visible_to_clients(self):
        # With parking on, hopeless requests are skipped between state
        # changes — admitted sets must match the non-parking engine run on
        # the same stream (rejections may differ in *when* they settle).
        scenario = generate_workload(
            9, 12 * MILLISECOND, workload_classes(), name="park-diff"
        )
        plain_manager = make_manager()
        plain = WorkloadEngine(plain_manager, park_rejections=False).run(scenario)
        parked_manager = make_manager()
        parked = WorkloadEngine(parked_manager, park_rejections=True).run(scenario)
        assert set(parked.admitted) <= set(plain.admitted) | set(
            r for r, _ in plain.rejected
        )
        assert parked.parked_retries_skipped >= 0
        assert plain.decided == parked.decided


class TestRescueLaneDifferential:
    """Serial vs reversed-lane vs process drains with the rescue lane enabled.

    The stochastic rescue lane must not cost executor decision identity:
    its searcher seeds derive from the request fingerprints (never from
    global RNG state or the wall clock), so the serial, reversed-lane and
    process drains of one event stream must decide identically — down to
    bit-identical platform-state fingerprints — even while rescue
    adoptions are flipping rejections into admissions.  The platform is
    the packing regime (multi-slot tiles, tight memories) where the lane
    actually fires; a rescue-off serial run pins that it did.
    """

    RESCUE_CONFIG = MapperConfig(
        analysis_iterations=3, rescue_searchers=3, rescue_attempts=3
    )

    def make_rescue_manager(self, config):
        platform = generate_region_mesh(
            2, 2, max_processes_per_tile=3, tile_memory_bytes=12 * 1024
        )
        partition = RegionPartition.grid(platform, 2, 2)
        return RuntimeResourceManager(platform, config=config, partition=partition)

    def rescue_workload(self):
        app_config = SyntheticConfig(
            stages=4,
            period_ns=60_000.0,
            tokens_range=(16, 64),
            tile_types=("GPP", "DSP"),
            memory_choices=(2048, 4096, 8192, 12288),
        )
        classes = [
            TrafficClass(
                f"r{cx}_{cy}",
                PoissonArrivals(rate_per_s=900.0),
                config=app_config,
                source_tile=f"io_r{cx}_{cy}",
                sink_tile=f"io_r{cx}_{cy}",
                hold_range_ns=(3 * MILLISECOND, 8 * MILLISECOND),
            )
            for cx in range(2)
            for cy in range(2)
        ]
        return generate_workload(11, 7 * MILLISECOND, classes, name="rescue-diff")

    def run_one(self, kind, config):
        manager = self.make_rescue_manager(config)
        executor = make_executor(kind, manager.partition)
        try:
            outcome = WorkloadEngine(
                manager, executor=executor, park_rejections=True
            ).run(self.rescue_workload())
        finally:
            if kind == "process":
                executor.close()
        return manager, outcome

    @pytest.fixture(scope="class")
    def serial_rescue(self):
        """The serial reference drain, shared by both differential tests."""
        return self.run_one("serial", self.RESCUE_CONFIG)

    def test_rescue_enabled_drains_are_decision_identical(self, serial_rescue):
        serial_manager, serial = serial_rescue
        for kind in ("reversed", "process"):
            manager, outcome = self.run_one(kind, self.RESCUE_CONFIG)
            assert serial.decision_log() == outcome.decision_log(), kind
            assert serial_manager.decisions == manager.decisions, kind
            assert sorted(serial_manager.state.occupied_tiles()) == sorted(
                manager.state.occupied_tiles()
            ), kind
            assert (
                serial_manager.state.link_loads() == manager.state.link_loads()
            ), kind
            # Bit-identical end states, not just equal-looking ones.
            assert (
                serial_manager.state.fingerprint() == manager.state.fingerprint()
            ), kind
            assert serial.departures == outcome.departures, kind

    def test_rescue_actually_fired_on_this_stream(self, serial_rescue):
        """The differential must exercise the lane, not an idle code path:
        with rescue on, the same stream admits strictly more than with the
        lane disabled (every extra admission is a rescue adoption)."""
        _, without = self.run_one("serial", MapperConfig(analysis_iterations=3))
        _, with_rescue = serial_rescue
        assert with_rescue.decided == without.decided
        assert len(with_rescue.admitted) > len(without.admitted)


class TestOfferedLoadCurve:
    def test_admission_rate_degrades_with_offered_load(self):
        rates = {}
        for factor in (0.25, 4.0):
            classes = [c.scaled(factor) for c in workload_classes()]
            scenario = generate_workload(
                31, 10 * MILLISECOND, classes, name=f"load-{factor}"
            )
            manager = make_manager()
            outcome = WorkloadEngine(manager, park_rejections=True).run(scenario)
            rates[factor] = outcome.admission_rate
            assert outcome.decided > 0
        assert offered_rate_per_s(
            [c.scaled(4.0) for c in workload_classes()]
        ) > offered_rate_per_s([c.scaled(0.25) for c in workload_classes()])
        # More offered load cannot improve the admission rate.
        assert rates[4.0] <= rates[0.25] + 1e-9
