"""repro — run-time spatial mapping of streaming applications to heterogeneous MPSoCs.

A complete, self-contained Python reproduction of

    P.K.F. Hölzenspies, J.L. Hurink, J. Kuper, G.J.M. Smit,
    "Run-time Spatial Mapping of Streaming Applications to a Heterogeneous
    Multi-Processor System-on-Chip (MPSOC)", DATE 2008.

The public API re-exports the most commonly used classes; see
``examples/quickstart.py`` for a quickstart and ARCHITECTURE.md for the
system's layers.

Typical use::

    from repro import SpatialMapper
    from repro.workloads import hiperlan2

    als, platform, library = hiperlan2.build_case_study()
    result = SpatialMapper(platform, library).map(als)
    print(result.summary())
"""

from repro.kpn import (
    ApplicationLevelSpec,
    Channel,
    KPNGraph,
    Process,
    ProcessKind,
    QoSConstraints,
)
from repro.csdf import CSDFActor, CSDFBuilder, CSDFEdge, CSDFGraph, PhaseVector
from repro.platform import (
    NoC,
    Platform,
    PlatformBuilder,
    PlatformState,
    Tile,
    TileType,
    build_mesh_noc,
)
from repro.appmodel import Implementation, ImplementationLibrary
from repro.obs import MetricsRegistry, ObsConfig, Tracer
from repro.mapping import (
    ChannelRoute,
    CostModel,
    Mapping,
    MappingResult,
    MappingStatus,
    ProcessAssignment,
)
from repro.spatialmapper import MapperConfig, SpatialMapper, Step2Strategy
from repro.runtime import (
    ProcessRegionExecutor,
    RuntimeResourceManager,
    Scenario,
    StartEvent,
    StopEvent,
    WorkloadEngine,
    run_scenario,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # application model
    "Process",
    "ProcessKind",
    "Channel",
    "KPNGraph",
    "QoSConstraints",
    "ApplicationLevelSpec",
    # CSDF
    "PhaseVector",
    "CSDFActor",
    "CSDFEdge",
    "CSDFGraph",
    "CSDFBuilder",
    # platform
    "TileType",
    "Tile",
    "NoC",
    "build_mesh_noc",
    "Platform",
    "PlatformBuilder",
    "PlatformState",
    # implementations
    "Implementation",
    "ImplementationLibrary",
    # mapping
    "ProcessAssignment",
    "ChannelRoute",
    "Mapping",
    "MappingResult",
    "MappingStatus",
    "CostModel",
    # mapper
    "SpatialMapper",
    "MapperConfig",
    "Step2Strategy",
    # observability
    "MetricsRegistry",
    "ObsConfig",
    "Tracer",
    # runtime
    "RuntimeResourceManager",
    "Scenario",
    "StartEvent",
    "StopEvent",
    "WorkloadEngine",
    "ProcessRegionExecutor",
    "run_scenario",
]
