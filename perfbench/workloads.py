"""The three benchmark workloads: inputs from a seed, rounds, checks.

A workload is run as a sequence of *rounds*.  A round first calls
``build()``, which makes fresh inputs and a fresh system (timed as
set-up), then ``play()``, which runs the timed part on a
:class:`~speed.ReferenceClock` and returns a :class:`Round` with the
program-time window of every request, decision counts and the exact work
counts of that round.  Each workload states the ``sensitivity`` its clock
converts with (speed.py).  Every round of one invocation replays the
same seed, so the exact counts of its rounds must agree.

* ``paper_cold`` -- nine cold :meth:`SpatialMapper.map` calls on the
  idle Figure-2 MPSoC (one caller, closed loop).
* ``region_churn`` -- a fixed virtual-time schedule replayed through the
  :class:`WorkloadEngine` on :class:`ProcessRegionExecutor(workers=2)`.
* ``packing_rescue`` -- the high-fill packing regime with the rescue
  lane on, replayed through the engine on :class:`SerialRegionExecutor`.
"""

from __future__ import annotations

import hashlib
import os
import random
from collections import Counter
from dataclasses import dataclass, field

from repro import MapperConfig, ObsConfig, ProcessRegionExecutor, RuntimeResourceManager
from repro.mapping.result import MappingStatus
from repro.platform.regions import RegionPartition
from repro.runtime.engine import SerialRegionExecutor, WorkloadEngine
from repro.runtime.events import StartEvent, StopEvent
from repro.runtime.queue import RequestStatus
from repro.runtime.scenario import Scenario
from repro.spatialmapper.mapper import SpatialMapper
from repro.workloads import hiperlan2, receivers
from repro.workloads.arrivals import (
    PeriodicArrivals,
    TrafficClass,
    cross_region_classes,
    generate_workload,
)
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_application,
    generate_region_mesh,
)
from speed import ReferenceClock

MILLISECOND = 1e6

#: Paper Table 2: the step-2 cost column of the default-mode HiperLAN/2 map
#: (initial greedy assignment, then the first three evaluated iterations).
TABLE2_COSTS = [11.0, 11.0, 9.0, 7.0]

#: region_churn: virtual length of the replayed schedule.
CHURN_HORIZON_NS = 300 * MILLISECOND
#: At most two drain workers, and no more than the CPUs this process may
#: run on: more busy processes than CPUs would measure the scheduler.
CHURN_WORKERS = min(2, len(os.sched_getaffinity(0)))

#: packing_rescue: a fixed resident set fills the mesh, then one probe
#: arrives per virtual millisecond and leaves before the next one arrives.
PACKING_BASE_SEED = 900
PACKING_RESIDENTS = 4
PACKING_PROBES = 700
PACKING_CELLS = ((0, 0), (1, 0), (0, 1), (1, 1))
PACKING_STAGES = (3, 4, 5, 6)
PACKING_HOLD_NS = 0.5 * MILLISECOND
PACKING_RESCUE_BUDGET = 20_000


@dataclass
class Round:
    """What one round measured, in program time (see speed.py)."""

    #: Start and end of the timed play.
    window: tuple[float, float]
    #: Start and end of every answered request.
    requests: list[tuple[float, float]]
    attempted: int
    decided: int
    admitted: int
    failed: int
    energies_nj: list[float]
    #: Work counts that must repeat exactly for the same seed and code.
    exact: dict[str, object]
    #: Settlement problems found in this round (empty when correct).
    errors: list[str] = field(default_factory=list)
    #: Spans and telemetry the traced run reads (not part of the result).
    spans: int = 0
    telemetry: object = None
    analysis: dict[str, int] = field(default_factory=dict)
    cache_stats: tuple[int, int] = (0, 0)
    #: Simulated events of the benchmark process alone (no drain workers).
    engine_side_events: int = 0

    @property
    def wall_s(self) -> float:
        return self.window[1] - self.window[0]


def _digest(items) -> str:
    return hashlib.sha1(repr(items).encode("utf-8")).hexdigest()[:16]


# --------------------------------------------------------------------------- #
# paper_cold
# --------------------------------------------------------------------------- #
def _receivers() -> list[tuple[str, object, object]]:
    """(label, ALS, library) of the nine receivers mapped by paper_cold."""
    apps = [
        (
            f"hiperlan2_{mode}",
            hiperlan2.build_receiver_als(mode),
            hiperlan2.build_implementation_library(mode),
        )
        for mode in hiperlan2.HIPERLAN2_MODES
    ]
    apps.append(("drm", receivers.build_drm_receiver_als(), receivers.build_drm_library()))
    apps.append(
        ("image", receivers.build_image_pipeline_als(), receivers.build_image_library())
    )
    return apps


class PaperCold:
    """Cold maps of the nine receivers, in a seed-shuffled order."""

    name = "paper_cold"
    start_method = None
    workers = 0
    sensitivity = 1.0

    def __init__(self, seed: int) -> None:
        self.order = list(range(len(_receivers())))
        random.Random(seed).shuffle(self.order)

    def build(self):
        """The idle MPSoC, the nine receivers and one fresh mapper each."""
        platform = hiperlan2.build_mpsoc()
        apps = _receivers()
        mappers = [SpatialMapper(platform, library, MapperConfig()) for _, _, library in apps]
        return apps, mappers

    def play(self, built, clock: ReferenceClock) -> Round:
        apps, mappers = built
        requests, energies, log = [], [], []
        events = hits = simulations = 0
        started = clock.now()
        for index in self.order:
            label, als, _ = apps[index]
            mapper = mappers[index]
            clock.tick()
            begin = clock.now()
            result = mapper.map(als)
            requests.append((begin, clock.now()))
            trace = mapper.last_trace
            events += trace.simulated_events
            hits += trace.analysis_cache_hits
            simulations += trace.simulations_run
            log.append((label, result.status.value, result.energy_nj_per_iteration))
            if result.status is MappingStatus.FEASIBLE:
                energies.append(result.energy_nj_per_iteration)
        return Round(
            window=(started, clock.now()),
            requests=requests,
            attempted=len(self.order),
            decided=len(self.order),
            admitted=len(energies),
            failed=0,
            energies_nj=energies,
            exact={
                "csdf.events": events,
                "mapper.map.calls": len(self.order),
                "procdrain.frame_bytes": 0,
                "decisions.digest": _digest(sorted(log)),
            },
            analysis={
                "simulated_events": events,
                "simulations_run": simulations,
                "cache_hits": hits,
            },
            engine_side_events=events,
        )

    def check(self, rounds: list[Round]) -> list[str]:
        """The default-mode map is FEASIBLE with Table 2's step-2 costs."""
        als, platform, library = hiperlan2.build_case_study()
        mapper = SpatialMapper(platform, library, MapperConfig())
        result = mapper.map(als)
        errors = []
        if result.status is not MappingStatus.FEASIBLE:
            errors.append(f"default-mode HiperLAN/2 map is {result.status.value}")
        step2 = mapper.last_trace.step2_traces[0]
        costs = [step2.initial_cost] + [i.cost for i in step2.iterations[:3]]
        if costs != TABLE2_COSTS:
            errors.append(f"step-2 cost trajectory {costs} != {TABLE2_COSTS}")
        return errors


# --------------------------------------------------------------------------- #
# Engine workloads
# --------------------------------------------------------------------------- #
class _Settlement:
    """Latency hook on one engine's queue: submit -> terminal finalize.

    Installed on the instance the engine already owns (``engine.queue``),
    so it does not depend on how the engine was handed its queue.  The
    clock may probe just before a submit, never inside a request's window.
    """

    def __init__(self, queue, clock: ReferenceClock) -> None:
        self.submitted: dict[int, float] = {}
        self.settled: dict[int, tuple[float, float]] = {}
        self.energies_nj: list[float] = []
        self.errors: list[str] = []
        submit, finalize = queue.submit, queue.finalize

        def timed_submit(*args, **kwargs):
            clock.tick()
            started = clock.now()
            ticket = submit(*args, **kwargs)
            self.submitted[ticket] = started
            return ticket

        def timed_finalize(request, decision, **kwargs):
            settled = finalize(request, decision, **kwargs)
            if settled.status.is_final:
                ticket = settled.ticket
                if ticket in self.settled:
                    self.errors.append(f"ticket {ticket} finalized twice")
                self.settled[ticket] = (self.submitted[ticket], clock.now())
                if settled.status is RequestStatus.ADMITTED:
                    result = decision.result
                    if result is None or result.status is not MappingStatus.FEASIBLE:
                        self.errors.append(f"ticket {ticket} admitted without a feasible mapping")
                    else:
                        self.energies_nj.append(result.energy_nj_per_iteration)
            return settled

        queue.submit = timed_submit
        queue.finalize = timed_finalize


def _engine_round(engine, workload, close, clock: ReferenceClock) -> Round:
    """Replay one engine workload and account its settlement.

    A request counts as failed when it expired or was still unanswered
    when the workload ended (no terminal ``finalize``).  An exception
    raised by the engine ends the whole run instead.
    """
    hook = _Settlement(engine.queue, clock)
    pipeline = engine.manager.pipeline
    try:
        started = clock.now()
        outcome = engine.run(workload)
        window = (started, clock.now())
    finally:
        close()

    errors = list(hook.errors)
    tickets = Counter(record.ticket for record in outcome.records)
    if set(tickets) != set(hook.submitted):
        errors.append(
            f"{len(set(hook.submitted) - set(tickets))} submitted requests never settled"
        )
    repeated = [ticket for ticket, count in tickets.items() if count != 1]
    if repeated:
        errors.append(f"{len(repeated)} requests settled more than once")
    failed = sum(1 for record in outcome.records if record.ticket not in hook.settled)
    frame_bytes = sum(
        int(stats[key])
        for stats in outcome.telemetry.workers.values()
        for key in ("snapshot_bytes", "delta_dispatch_bytes", "delta_bytes")
    )
    analysis = dict(outcome.telemetry.analysis)
    cache = pipeline.cache.stats if pipeline.cache is not None else None
    return Round(
        window=window,
        requests=list(hook.settled.values()),
        attempted=len(hook.submitted),
        decided=outcome.decided,
        admitted=len(outcome.admitted),
        failed=failed,
        energies_nj=hook.energies_nj,
        exact={
            "csdf.events": analysis.get("simulated_events", 0),
            "pipeline.mapper_invocations": pipeline.mapper_invocations,
            "procdrain.frame_bytes": frame_bytes,
            "decisions.digest": _digest(
                (outcome.decision_log(), outcome.departures, hook.energies_nj)
            ),
        },
        errors=errors,
        spans=len(outcome.spans),
        telemetry=outcome.telemetry,
        analysis=analysis,
        cache_stats=(cache.hits, cache.misses) if cache is not None else (0, 0),
        engine_side_events=pipeline.analysis.snapshot()["simulated_events"],
    )


def _churn_classes() -> list[TrafficClass]:
    """Four region-pinned periodic 2-stage streams plus 6-stage spanning apps."""
    hold = (3 * MILLISECOND, 12 * MILLISECOND)
    local = SyntheticConfig(stages=2, period_ns=100_000.0, tile_types=("GPP", "DSP"))
    spanning = SyntheticConfig(stages=6, period_ns=100_000.0, tile_types=("GPP", "DSP"))
    classes = []
    for cx in range(2):
        for cy in range(2):
            io_tile = f"io_r{cx}_{cy}"
            classes.append(
                TrafficClass(
                    f"r{cx}_{cy}",
                    PeriodicArrivals(period_ns=1 * MILLISECOND),
                    config=local,
                    source_tile=io_tile,
                    sink_tile=io_tile,
                    hold_range_ns=hold,
                )
            )
    classes.extend(cross_region_classes(2, 500.0, config=spanning, hold_range_ns=hold))
    return classes


class RegionChurn:
    """Engine replay on the process executor with full-sampling observability."""

    name = "region_churn"
    workers = CHURN_WORKERS
    sensitivity = 0.45

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.start_method = None

    def build(self, executor_kind: str = "process"):
        """Mesh, manager, executor, engine and the generated schedule."""
        platform = generate_region_mesh(2, 4, name="churn_mesh")
        partition = RegionPartition.grid(platform, 2, 2)
        manager = RuntimeResourceManager(
            platform,
            config=MapperConfig(analysis_iterations=3),
            partition=partition,
            cross_region_planner=True,
        )
        if executor_kind == "process":
            executor = ProcessRegionExecutor(partition, workers=CHURN_WORKERS)
            self.start_method = executor.start_method
            close = executor.close
        else:
            executor = SerialRegionExecutor()
            close = lambda: None  # noqa: E731
        engine = WorkloadEngine(
            manager, executor=executor, obs=ObsConfig(enabled=True, sample_rate=1.0)
        )
        workload = generate_workload(
            self.seed, CHURN_HORIZON_NS, _churn_classes(), name="region_churn"
        )
        return engine, workload, close

    def play(self, built, clock: ReferenceClock) -> Round:
        return _engine_round(*built, clock)

    def check(self, rounds: list[Round]) -> list[str]:
        """Regression oracle: the serial executor settles the same decisions."""
        serial = self.play(self.build("serial"), ReferenceClock(self.sensitivity))
        errors = list(serial.errors)
        if serial.exact["decisions.digest"] != rounds[0].exact["decisions.digest"]:
            errors.append("process-executor decision log differs from the serial executor's")
        return errors


class PackingRescue:
    """High-fill packing regime with the rescue lane, on the serial executor."""

    name = "packing_rescue"
    start_method = None
    workers = 0
    sensitivity = 0.45

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def _app(self, rng: random.Random, name: str, index: int):
        """One memory-heavy 3-6 stage application pinned to a region's I/O tile.

        Regions take turns, and each region sees every stage count in turn,
        so the seed changes the applications but not their mix.
        """
        cell = PACKING_CELLS[index % len(PACKING_CELLS)]
        io_tile = f"io_r{cell[0]}_{cell[1]}"
        config = SyntheticConfig(
            stages=PACKING_STAGES[index // len(PACKING_CELLS) % len(PACKING_STAGES)],
            period_ns=60_000.0,
            tokens_range=(16, 64),
            tile_types=("GPP", "DSP"),
            memory_choices=(2048, 4096, 8192, 12288),
        )
        return generate_application(
            rng.randint(0, 2**31 - 1), config, name=name, source_tile=io_tile, sink_tile=io_tile
        )

    def _workload(self) -> Scenario:
        """A fixed resident set, then seed-drawn probes that each see it alone."""
        events = []
        base_rng = random.Random(PACKING_BASE_SEED)
        for index in range(PACKING_RESIDENTS):
            app = self._app(base_rng, f"resident{index}", index)
            events.append(
                StartEvent(time_ns=index * MILLISECOND, als=app.als, library=app.library)
            )
        rng = random.Random(self.seed)
        for index in range(PACKING_PROBES):
            app = self._app(rng, f"probe{index}", index)
            arrival = (PACKING_RESIDENTS + index) * MILLISECOND
            events.append(StartEvent(time_ns=arrival, als=app.als, library=app.library))
            events.append(StopEvent(time_ns=arrival + PACKING_HOLD_NS, application=app.als.name))
        horizon = (PACKING_RESIDENTS + PACKING_PROBES + 1) * MILLISECOND
        return Scenario("packing_rescue", duration_ns=horizon).extend(events)

    def build(self):
        """Tight multi-slot mesh, rescue-lane manager, engine and schedule."""
        platform = generate_region_mesh(
            2, 3, name="packing_mesh", max_processes_per_tile=4, tile_memory_bytes=16 * 1024
        )
        partition = RegionPartition.grid(platform, 2, 2)
        config = MapperConfig(
            analysis_iterations=3,
            rescue_searchers=6,
            rescue_attempts=4,
            rescue_budget=PACKING_RESCUE_BUDGET,
        )
        manager = RuntimeResourceManager(platform, config=config, partition=partition)
        engine = WorkloadEngine(manager, executor=SerialRegionExecutor())
        return engine, self._workload(), lambda: None

    def play(self, built, clock: ReferenceClock) -> Round:
        return _engine_round(*built, clock)

    def check(self, rounds: list[Round]) -> list[str]:
        return []


WORKLOADS = {
    PaperCold.name: PaperCold,
    RegionChurn.name: RegionChurn,
    PackingRescue.name: PackingRescue,
}
