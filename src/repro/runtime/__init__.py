"""Run-time resource management on top of the spatial mapper.

The paper places the spatial mapper inside a run-time resource manager: the
mapping is performed "always when a new streaming application is started"
(section 1.3) against the *current* allocation state.  This package provides
that surrounding machinery: an admission-controlling
:class:`~repro.runtime.manager.RuntimeResourceManager`, scenario descriptions
(sequences of application start/stop events) and accounting of energy and
utilisation over a scenario, which the run-time-versus-design-time benchmark
builds on.
"""

from repro.runtime.pipeline import AdmissionDecision, AdmissionPipeline
from repro.runtime.admission_control import (
    GovernorConfig,
    GovernorDecision,
    LoadSheddingGovernor,
)
from repro.runtime.manager import (
    BatchAdmissionOutcome,
    RuntimeResourceManager,
    RunningApplication,
)
from repro.runtime.queue import AdmissionQueue, QueuedRequest, RequestStatus
from repro.runtime.events import ScenarioEvent, StartEvent, StopEvent
from repro.runtime.engine import (
    MULTI_REGION_LANE,
    EngineOutcome,
    EngineRecord,
    EngineTelemetry,
    LaneCounters,
    ProcessRegionExecutor,
    SerialRegionExecutor,
    WorkloadEngine,
)
from repro.runtime.scenario import Scenario, ScenarioOutcome, run_scenario
from repro.runtime.accounting import EnergyAccount

__all__ = [
    "AdmissionDecision",
    "AdmissionPipeline",
    "GovernorConfig",
    "GovernorDecision",
    "LoadSheddingGovernor",
    "AdmissionQueue",
    "QueuedRequest",
    "RequestStatus",
    "BatchAdmissionOutcome",
    "RuntimeResourceManager",
    "RunningApplication",
    "ScenarioEvent",
    "StartEvent",
    "StopEvent",
    "WorkloadEngine",
    "EngineOutcome",
    "EngineRecord",
    "EngineTelemetry",
    "LaneCounters",
    "MULTI_REGION_LANE",
    "ProcessRegionExecutor",
    "SerialRegionExecutor",
    "Scenario",
    "ScenarioOutcome",
    "run_scenario",
    "EnergyAccount",
]
