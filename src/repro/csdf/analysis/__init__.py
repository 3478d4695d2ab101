"""Analyses of CSDF graphs: self-timed simulation, throughput, buffers, latency.

These analyses implement step 4 of the paper's spatial-mapping algorithm: the
mapped application (processes plus router actors, Figure 3) is checked against
its QoS constraints and the buffer capacities B_i are computed.  The buffer
computation is a functional substitute for the analysis of Wiggers et al.
(DAC 2007) referenced by the paper, built on a conservative self-timed
execution of the graph (see ARCHITECTURE.md, "Self-timed simulator").
"""

from repro.csdf.analysis.simulation import (
    FiringRecord,
    SimulationResult,
    SelfTimedSimulator,
    simulate,
)
from repro.csdf.analysis.feedforward import feed_forward_run, is_feed_forward
from repro.csdf.analysis.throughput import (
    actor_loads_ns,
    minimal_period_ns,
    is_period_sustainable,
    processor_bound_period_ns,
)
from repro.csdf.analysis.buffers import (
    sufficient_buffer_capacities,
    apply_buffer_capacities,
)
from repro.csdf.analysis.latency import end_to_end_latency_ns
from repro.csdf.analysis.budget import (
    AnalysisBudget,
    AnalysisEngine,
    SimulationCache,
    SimulationCacheStats,
)

__all__ = [
    "FiringRecord",
    "SimulationResult",
    "SelfTimedSimulator",
    "simulate",
    "feed_forward_run",
    "is_feed_forward",
    "actor_loads_ns",
    "minimal_period_ns",
    "is_period_sustainable",
    "processor_bound_period_ns",
    "sufficient_buffer_capacities",
    "apply_buffer_capacities",
    "end_to_end_latency_ns",
    "AnalysisBudget",
    "AnalysisEngine",
    "SimulationCache",
    "SimulationCacheStats",
]
