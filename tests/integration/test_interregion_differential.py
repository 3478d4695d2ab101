"""Differential: the inter-region planner against the global-lane reference.

The global lane (unrestricted whole-platform mapping under an unscoped
transaction) remains in the codebase as the planner's differential reference.
These tests pin the equivalence the tentpole promises:

* for *single-region* applications the planner never engages, so a
  planner-enabled engine is decision-for-decision identical to a planner-
  free one;
* for *cross-region* applications, planner and global lane agree on
  feasibility (admit/reject), and an admitted plan's energy stays within
  tolerance of the global mapping's — corridors trade a bounded amount of
  route energy for not serializing the platform;
* a planner rejection falls back to the global lane, so enabling the
  planner can never lose an admission the global lane would have made.
"""

import pytest

from repro.platform.regions import GLOBAL_LANE, RegionPartition
from repro.runtime.engine import SerialRegionExecutor, WorkloadEngine
from repro.runtime.manager import RuntimeResourceManager
from repro.spatialmapper.config import MapperConfig
from repro.workloads.arrivals import (
    PoissonArrivals,
    TrafficClass,
    cross_region_classes,
    generate_workload,
)
from repro.workloads.synthetic import SyntheticConfig, generate_application, generate_region_mesh
from tests.harness import make_executor

REGIONS = 2
SPAN = 4
CONFIG = SyntheticConfig(stages=4, period_ns=100_000.0, tile_types=("GPP", "DSP"))
#: Energy tolerance of an admitted plan vs the global mapping of the same
#: application on the same state.  Corridors may detour; the pseudo-endpoint
#: pull keeps the overhead bounded.
ENERGY_TOLERANCE = 1.35


def make_manager(*, planner: bool):
    platform = generate_region_mesh(REGIONS, SPAN)
    partition = RegionPartition.grid(platform, REGIONS, REGIONS)
    return RuntimeResourceManager(
        platform,
        config=MapperConfig(analysis_iterations=3),
        partition=partition,
        cross_region_planner=planner,
    )


def single_region_workload():
    classes = [
        TrafficClass(
            f"r{cx}_{cy}",
            PoissonArrivals(rate_per_s=500.0),
            config=CONFIG,
            source_tile=f"io_r{cx}_{cy}",
            sink_tile=f"io_r{cx}_{cy}",
            hold_range_ns=(3e6, 8e6),
            admission_window_ns=5e6,
        )
        for cx in range(REGIONS)
        for cy in range(REGIONS)
    ]
    return generate_workload(77, 1.5e7, classes, name="single-region-only")


class TestSingleRegionIdentity:
    def test_planner_engine_is_decision_identical_for_single_region_apps(self):
        """The planner must be inert for apps it does not apply to."""
        workload = single_region_workload()
        outcomes = {}
        for label, planner in (("off", False), ("on", True)):
            manager = make_manager(planner=planner)
            engine = WorkloadEngine(
                manager, executor=SerialRegionExecutor(), park_rejections=True
            )
            outcomes[label] = engine.run(workload)
        assert outcomes["on"].decision_log() == outcomes["off"].decision_log()
        assert outcomes["on"].departures == outcomes["off"].departures
        assert outcomes["on"].energy.total_energy_nj == pytest.approx(
            outcomes["off"].energy.total_energy_nj
        )
        # And nothing ever settled in the multi-region lane.
        assert "__multi__" not in outcomes["on"].telemetry.lanes

    def test_parallel_planner_engines_match_serial(self):
        """The multi-region lane preserves executor decision-identity."""
        classes = [
            TrafficClass(
                "r0_0",
                PoissonArrivals(rate_per_s=400.0),
                config=CONFIG,
                source_tile="io_r0_0",
                sink_tile="io_r0_0",
                hold_range_ns=(3e6, 8e6),
            )
        ] + cross_region_classes(
            REGIONS, 400.0, config=CONFIG, hold_range_ns=(3e6, 8e6)
        )
        workload = generate_workload(78, 1.5e7, classes, name="mixed")
        outcomes = {}
        for kind in ("serial", "reversed", "process"):
            manager = make_manager(planner=True)
            executor = make_executor(kind, manager.partition)
            engine = WorkloadEngine(manager, executor=executor, park_rejections=True)
            try:
                outcomes[kind] = engine.run(workload)
            finally:
                if kind == "process":
                    executor.close()
        for kind in ("reversed", "process"):
            assert outcomes["serial"].decision_log() == outcomes[kind].decision_log()
            assert outcomes["serial"].departures == outcomes[kind].departures
        multi = outcomes["serial"].telemetry.lanes.get("__multi__")
        assert multi is not None and multi.admitted > 0
        # Against the same stream without the planner: as many requests are
        # decided, and the serialized global lane settles strictly fewer.
        engine = WorkloadEngine(
            make_manager(planner=False), executor=SerialRegionExecutor(), park_rejections=True
        )
        without = engine.run(workload)
        assert without.decided == outcomes["serial"].decided

        def global_settled(outcome):
            lane = outcome.telemetry.lanes.get(GLOBAL_LANE)
            return lane.settled() if lane is not None else 0

        assert global_settled(outcomes["serial"]) < global_settled(without)


class TestCrossRegionEquivalence:
    def test_planner_and_global_agree_per_application(self):
        """Admit/reject parity and bounded energy divergence, app by app.

        Each application is offered to a *fresh* platform under both
        disciplines, so the comparison is exact (no state divergence).
        """
        compared = 0
        for seed in range(12):
            app = generate_application(
                1000 + seed,
                CONFIG,
                name=f"x{seed}",
                source_tile="io_r0_0",
                sink_tile="io_r1_1",
            )
            with_planner = make_manager(planner=True)
            planned = with_planner.pipeline.interregion.decide(app.als, app.library)
            reference = make_manager(planner=False)
            global_decision = reference.admit(app.als, library=app.library)
            if planned.admitted:
                # Feasibility equivalence: what the planner admits, the
                # global lane admits too.
                assert global_decision.admitted, global_decision.reason
                ratio = (
                    planned.result.energy_nj_per_iteration
                    / global_decision.result.energy_nj_per_iteration
                )
                assert ratio <= ENERGY_TOLERANCE, (seed, ratio)
                compared += 1
            else:
                # A planner rejection is allowed (corridors are stricter),
                # but the full pipeline must then match the reference via
                # its global fallback.
                fallback = make_manager(planner=True).admit(app.als, library=app.library)
                assert fallback.admitted == global_decision.admitted
        assert compared >= 8, "too few admitted plans to compare energies"

    def test_pipeline_with_planner_never_loses_admissions(self):
        """Full pipeline decisions (planner + fallback) match the reference."""
        for seed in range(8):
            app = generate_application(
                2000 + seed,
                CONFIG,
                name=f"y{seed}",
                source_tile="io_r1_0",
                sink_tile="io_r0_1",
            )
            with_planner = make_manager(planner=True)
            reference = make_manager(planner=False)
            ours = with_planner.admit(app.als, library=app.library)
            theirs = reference.admit(app.als, library=app.library)
            assert ours.admitted == theirs.admitted, (seed, ours.reason, theirs.reason)
