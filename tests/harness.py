"""Reusable scenario harness for engine, inter-region and admission tests.

The engine differential tests, the engine unit tests, the admission-control
tests and the benchmark suite all need the same scaffolding: a small
region-partitioned platform, synthetic applications pinned to one region's
I/O tile, a manager wired to that platform, deterministic generated
workloads, and an engine over a chosen executor.  Those pieces used to be
copy-pasted per file; this module is the single home.

Everything is deterministic given its explicit seeds — two calls with equal
arguments build equal platforms/workloads (event sequence numbers aside,
which only break equal-time ties deterministically).

The module doubles as a pytest fixture source: ``case_study`` and
``fast_config`` are defined here once and re-exported by the test and
benchmark ``conftest.py`` files.
"""

from __future__ import annotations

import pytest

from repro.appmodel.implementation import DEFAULT_PORT, Implementation
from repro.appmodel.library import ImplementationLibrary
from repro.csdf.phase import PhaseVector
from repro.kpn.als import ApplicationLevelSpec
from repro.kpn.channel import Channel
from repro.kpn.graph import KPNGraph
from repro.kpn.process import Process
from repro.kpn.qos import QoSConstraints
from repro.platform.builder import PlatformBuilder
from repro.platform.regions import RegionPartition
from repro.runtime.engine import (
    ProcessRegionExecutor,
    SerialRegionExecutor,
    WorkloadEngine,
)
from repro.runtime.events import StartEvent, StopEvent
from repro.runtime.manager import RuntimeResourceManager
from repro.runtime.scenario import Scenario
from repro.spatialmapper.config import MapperConfig
from repro.workloads import hiperlan2
from repro.workloads.arrivals import (
    BurstyArrivals,
    PoissonArrivals,
    TrafficClass,
    generate_workload,
)
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_application,
    generate_region_mesh,
)

MILLISECOND = 1e6

#: Shape of the harness's synthetic applications: two GPP stages.
TWO_STAGE_CONFIG = SyntheticConfig(stages=2, period_ns=100_000.0, tile_types=("GPP",))


# --------------------------------------------------------------------------- #
# Platform / application / manager factories
# --------------------------------------------------------------------------- #
def build_two_region_platform():
    """A 4x2 mesh with one I/O tile and three GPP tiles per half.

    Split down the middle by :func:`two_region_partition`, each half hosts
    one region lane's traffic (pinned through ``io_l`` / ``io_r``).
    """
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


def two_region_partition(platform) -> RegionPartition:
    """The 2x1 grid partition of :func:`build_two_region_platform`."""
    return RegionPartition.grid(platform, 2, 1)


def make_app(seed: int, name: str, io_tile: str, config: SyntheticConfig | None = None):
    """A synthetic application pinned to one region's I/O tile."""
    return generate_application(
        seed,
        config or TWO_STAGE_CONFIG,
        name=name,
        source_tile=io_tile,
        sink_tile=io_tile,
    )


def make_unpinned_app(name: str):
    """A two-process GPP application with no pinned tiles (any region may host it).

    Returns ``(als, library)``.  Every workload pins its source and sink, so
    this shape is the only one whose region selection has more than one
    region to order.
    """
    kpn = KPNGraph(name)
    kpn.add_process(Process("a"))
    kpn.add_process(Process("b"))
    kpn.add_channel(Channel("c0", "a", "b", tokens_per_iteration=4))
    als = ApplicationLevelSpec(kpn=kpn, qos=QoSConstraints(period_ns=100_000.0))
    library = ImplementationLibrary()
    for process in ("a", "b"):
        library.add(
            Implementation(
                process=process,
                tile_type="GPP",
                wcet_cycles=PhaseVector([1.0, 50.0, 1.0]),
                input_rates={DEFAULT_PORT: PhaseVector([4, 0, 0])},
                output_rates={DEFAULT_PORT: PhaseVector([0, 0, 4])},
                energy_nj_per_iteration=10.0,
                memory_bytes=1024,
            )
        )
    return als, library


def make_manager(platform=None, **kwargs) -> RuntimeResourceManager:
    """A manager over the two-region platform (fresh by default).

    Keyword arguments are forwarded to :class:`RuntimeResourceManager`
    (e.g. ``cross_region_planner=True``); ``config``
    and ``partition`` default to the harness's fast mapper configuration
    and the two-region grid.
    """
    platform = platform if platform is not None else build_two_region_platform()
    kwargs.setdefault("config", MapperConfig(analysis_iterations=3))
    kwargs.setdefault("partition", two_region_partition(platform))
    return RuntimeResourceManager(platform, **kwargs)


class ReversedLaneExecutor(SerialRegionExecutor):
    """Test-only executor: drain region lanes in reverse-sorted order.

    Each lane is confined to its own region, so lanes commute and any lane
    order must reach the serial executor's decisions and end state.  The
    differential suites pin that claim with this order.
    """

    def execute(self, lane_jobs, pipeline) -> None:
        for lane in sorted(lane_jobs, reverse=True):
            for job in lane_jobs[lane]:
                job.run(pipeline)
                if job.error is not None:
                    break


def make_executor(kind: str, partition: RegionPartition | None):
    """A region executor by name: ``"serial"``, ``"reversed"`` or ``"process"``.

    The process executor gets a pinned two-worker pool so tests behave the
    same on any core count; callers should ``close()`` it (or rely on
    garbage collection) when done.
    """
    if kind == "serial":
        return SerialRegionExecutor()
    if kind == "reversed":
        return ReversedLaneExecutor()
    if kind == "process":
        return ProcessRegionExecutor(partition, workers=2)
    raise ValueError(f"unknown executor kind {kind!r}")


def make_engine(
    manager: RuntimeResourceManager,
    *,
    executor: str = "serial",
    **kwargs,
) -> WorkloadEngine:
    """An engine over the manager with a named executor kind.

    ``executor`` is any :func:`make_executor` kind; remaining keyword
    arguments (``park_rejections``, ``governor``, ``drain_mode``, ...) are
    forwarded to :class:`WorkloadEngine`.
    """
    return WorkloadEngine(
        manager, executor=make_executor(executor, manager.partition), **kwargs
    )


# --------------------------------------------------------------------------- #
# Workload factories
# --------------------------------------------------------------------------- #
def two_region_classes(
    *,
    priority: int = 0,
    hold_range_ns: tuple[float, float] = (2 * MILLISECOND, 5 * MILLISECOND),
) -> list[TrafficClass]:
    """The harness's standard two-lane mix: Poisson left, bursty right."""
    return [
        TrafficClass(
            "left",
            PoissonArrivals(rate_per_s=900.0),
            config=TWO_STAGE_CONFIG,
            priority=priority,
            source_tile="io_l",
            sink_tile="io_l",
            hold_range_ns=hold_range_ns,
        ),
        TrafficClass(
            "right",
            BurstyArrivals(burst_rate_per_s=250.0, burst_size_range=(2, 4)),
            config=TWO_STAGE_CONFIG,
            priority=priority,
            source_tile="io_r",
            sink_tile="io_r",
            hold_range_ns=hold_range_ns,
        ),
    ]


def two_region_workload(
    seed: int,
    horizon_ns: float = 12 * MILLISECOND,
    classes: list[TrafficClass] | None = None,
    *,
    name: str = "harness",
):
    """A deterministic generated workload over the two-region mix."""
    return generate_workload(
        seed, horizon_ns, classes if classes is not None else two_region_classes(), name=name
    )


# --------------------------------------------------------------------------- #
# The packing regime: a memory-tight multi-slot mesh with the rescue lane
# --------------------------------------------------------------------------- #
#: Mapper configuration of the packing regime: the rescue lane under a
#: 20 000-event ledger.
PACKING_CONFIG = MapperConfig(
    analysis_iterations=3, rescue_searchers=6, rescue_attempts=4, rescue_budget=20_000
)
PACKING_CELLS = ((0, 0), (1, 0), (0, 1), (1, 1))


def packing_app(seed, name="app", io_tile="io_r0_0", stages=4):
    """A memory-heavy application for the packing regime."""
    config = SyntheticConfig(
        stages=stages,
        period_ns=60_000.0,
        tokens_range=(16, 64),
        tile_types=("GPP", "DSP"),
        memory_choices=(2048, 4096, 8192, 12288),
    )
    return generate_application(
        seed, config, name=name, source_tile=io_tile, sink_tile=io_tile
    )


def packing_manager(**kwargs) -> RuntimeResourceManager:
    """A manager over a fresh 2x2-region packing mesh (4 slots, 16 kB per tile).

    Keyword arguments are forwarded to :class:`RuntimeResourceManager`;
    ``config`` defaults to :data:`PACKING_CONFIG`.
    """
    platform = generate_region_mesh(
        2, 3, max_processes_per_tile=4, tile_memory_bytes=16 * 1024
    )
    kwargs.setdefault("config", PACKING_CONFIG)
    return RuntimeResourceManager(
        platform, partition=RegionPartition.grid(platform, 2, 2), **kwargs
    )


def packing_workload(probes: int, seed: int = 7) -> Scenario:
    """Four residents fill the mesh, then one probe per millisecond.

    Regions take turns; each probe stays 0.5 ms, so every probe meets the
    residents alone, and its stage count cycles through 3-6.
    """
    events = []
    for index in range(4 + probes):
        resident = index < 4
        cell = PACKING_CELLS[index % 4]
        app = packing_app(
            (900 if resident else seed * 1000) + index,
            name=f"resident{index}" if resident else f"probe{index - 4}",
            io_tile=f"io_r{cell[0]}_{cell[1]}",
            stages=3 + index // 4 % 4,
        )
        arrival = index * MILLISECOND
        events.append(StartEvent(time_ns=arrival, als=app.als, library=app.library))
        if not resident:
            events.append(
                StopEvent(time_ns=arrival + 0.5 * MILLISECOND, application=app.als.name)
            )
    return Scenario("packing", duration_ns=(probes + 5) * MILLISECOND).extend(events)


# --------------------------------------------------------------------------- #
# Shared fixtures (re-exported by tests/conftest.py and benchmarks/conftest.py)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="session")
def case_study():
    """The HiperLAN/2 case study: (ALS, platform, implementation library)."""
    return hiperlan2.build_case_study()


@pytest.fixture(scope="session")
def fast_config():
    """Mapper configuration with a reduced analysis horizon for benchmarking."""
    return MapperConfig(analysis_iterations=4)
