"""Configuration of the spatial mapper."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError
from repro.mapping.cost import CostModel


class Step2Strategy(enum.Enum):
    """Local-search strategy of step 2.

    The paper evaluates one reassignment per iteration and keeps it only when
    it improves the cost (Table 2 shows an evaluated-and-reverted iteration),
    which corresponds to :attr:`FIRST_IMPROVEMENT`.  :attr:`BEST_IMPROVEMENT`
    evaluates every candidate each iteration and applies the best one; it is
    used by the ablation benchmarks.
    """

    FIRST_IMPROVEMENT = "first_improvement"
    BEST_IMPROVEMENT = "best_improvement"


class DesirabilityMetric(enum.Enum):
    """What the step-1 desirability is computed from.

    ``ENERGY`` uses only the implementations' computation energy (the Table 1
    column), which is what the worked example of the paper uses.
    ``ENERGY_AND_COMMUNICATION`` adds the Manhattan-distance communication
    estimate towards already-placed neighbours, an extension evaluated in the
    ablation benchmarks.
    """

    ENERGY = "energy"
    ENERGY_AND_COMMUNICATION = "energy_and_communication"


@dataclass(frozen=True)
class MapperConfig:
    """All tunables of the four-step mapper.

    Parameters
    ----------
    step2_strategy:
        Local-search strategy (see :class:`Step2Strategy`).
    step2_min_gain:
        Minimum cost improvement for accepting a reassignment; iterations
        improving by less are reverted ("a minimum gain from the current
        iteration", section 3).
    step2_max_iterations:
        Hard cap on evaluated reassignments in step 2.
    step2_weight_by_tokens:
        Whether the Manhattan metric weights each channel by its token volume.
    desirability_metric:
        Basis of the step-1 desirability ordering.
    max_feedback_iterations:
        Maximum number of outer refinement iterations (step 4 / step 3
        failures feeding back into steps 1-2).
    analysis_iterations:
        Number of graph iterations simulated by the step-4 dataflow analysis.
    run_feasibility_analysis:
        Whether step 4 runs at all.  ``False`` caps results at ``ADHERENT``
        (steps 1-3 plus the adherence check) — used by callers that perform
        their own feasibility analysis on a composed graph, e.g. the
        inter-region planner validating whole applications after mapping
        their per-region segments.
    analysis_cache_size:
        Capacity of the step-4 simulation-verdict cache
        (:class:`~repro.csdf.analysis.budget.SimulationCache`); ``0``
        disables caching.
    cost_model:
        Weights of the full energy objective.
    keep_step2_trace:
        Record every step-2 iteration (needed to regenerate Table 2).
    rescue_searchers:
        Number of seeded random-placement searchers the rescue lane runs
        when the refinement loop ends without a feasible mapping; ``0``
        (the default) disables the lane entirely, leaving every decision
        exactly as it was without it.  Seeds derive deterministically from
        the request fingerprint, so the lane keeps the serial and process
        executors decision-identical and results cacheable.
    rescue_attempts:
        Full placements each rescue searcher proposes and scores.
    rescue_budget:
        Ceiling on simulated events the whole rescue lane (all searchers of
        one :meth:`~repro.spatialmapper.mapper.SpatialMapper.map` call
        combined) may charge through the analysis engine; ``None`` is
        unlimited.  It is charged with the events of the analyses that run:
        cache hits charge their stored cost, so the trajectory is
        cache-warmth independent, and a candidate cut before step 4 (by the
        energy bound or the stream-buffer floor) charges nothing, so the
        events go to candidates that can still be feasible (anytime:
        exhaustion returns the best feasible candidate found so far).
    """

    step2_strategy: Step2Strategy = Step2Strategy.FIRST_IMPROVEMENT
    step2_min_gain: float = 1e-9
    step2_max_iterations: int = 1000
    step2_weight_by_tokens: bool = False
    desirability_metric: DesirabilityMetric = DesirabilityMetric.ENERGY
    max_feedback_iterations: int = 8
    analysis_iterations: int = 6
    run_feasibility_analysis: bool = True
    analysis_cache_size: int = 256
    cost_model: CostModel = field(default_factory=CostModel)
    keep_step2_trace: bool = True
    rescue_searchers: int = 0
    rescue_attempts: int = 4
    rescue_budget: int | None = 250_000

    def __post_init__(self) -> None:
        if self.step2_min_gain < 0:
            raise ConfigurationError("step2_min_gain must be non-negative")
        if self.step2_max_iterations < 1:
            raise ConfigurationError("step2_max_iterations must be at least 1")
        if self.max_feedback_iterations < 1:
            raise ConfigurationError("max_feedback_iterations must be at least 1")
        if self.analysis_iterations < 1:
            raise ConfigurationError("analysis_iterations must be at least 1")
        if self.analysis_cache_size < 0:
            raise ConfigurationError("analysis_cache_size must be non-negative")
        if self.rescue_searchers < 0:
            raise ConfigurationError("rescue_searchers must be non-negative")
        if self.rescue_attempts < 1:
            raise ConfigurationError("rescue_attempts must be at least 1")
        if self.rescue_budget is not None and self.rescue_budget < 1:
            raise ConfigurationError("rescue_budget must be positive or None")
