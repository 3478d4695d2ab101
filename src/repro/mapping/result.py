"""Result objects returned by mappers."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.csdf.graph import CSDFGraph
from repro.mapping.mapping import Mapping

if TYPE_CHECKING:  # imported lazily: spatialmapper depends on this module
    from repro.spatialmapper.feedback import Feedback


class MappingStatus(enum.Enum):
    """Outcome classification of a mapping attempt, ordered from best to worst."""

    #: Adherent and all QoS constraints verified by the dataflow analysis.
    FEASIBLE = "feasible"
    #: Structurally valid (adequate + resource budgets respected) but the QoS
    #: check failed or was not run.
    ADHERENT = "adherent"
    #: Every process has an implementation for its tile type, but some
    #: resource budget is violated.
    ADEQUATE = "adequate"
    #: Some process is mapped to a tile type it has no implementation for, or
    #: could not be mapped at all.
    FAILED = "failed"

    def at_least(self, other: "MappingStatus") -> bool:
        """Whether this status is at least as good as ``other``."""
        order = [
            MappingStatus.FAILED,
            MappingStatus.ADEQUATE,
            MappingStatus.ADHERENT,
            MappingStatus.FEASIBLE,
        ]
        return order.index(self) >= order.index(other)


@dataclass
class FeasibilityReport:
    """Details of the step-4 dataflow analysis."""

    required_period_ns: float
    achieved_period_ns: float | None = None
    latency_ns: float | None = None
    #: Sized capacity, in tokens, of each buffer ``B_i`` of Figure 3: per
    #: mapped-graph edge into a consuming actor (one per channel), keyed by
    #: edge name.  Edges into router-hop actors hold no tile buffer and are
    #: not sized.
    buffer_capacities: dict[str, int] = field(default_factory=dict)
    satisfied: bool = False
    reason: str = ""


@dataclass
class MappingResult:
    """Everything a mapper returns about one mapping attempt.

    Attributes
    ----------
    mapping:
        The spatial mapping that was produced (possibly partial on failure).
    status:
        Outcome classification.
    energy_nj_per_iteration:
        Value of the full energy objective for this mapping.
    manhattan_cost:
        The step-2 communication metric (sum of Manhattan distances).
    feasibility:
        Step-4 analysis report, when the analysis ran.
    mapped_csdf:
        The mapped CSDF graph (application actors + router actors), when
        constructed — this is the paper's Figure 3 artefact.  Only a direct
        :meth:`~repro.spatialmapper.mapper.SpatialMapper.map` call returns
        it; the :meth:`settled` form the runtime keeps drops it.
    iterations:
        Number of outer feedback iterations the mapper performed.
    runtime_s:
        Wall-clock time spent producing this result.
    diagnostics:
        Free-form log of decisions and violations, for reports and debugging.
    pending_feedback:
        Feedback raised by the failing step of this attempt, which the
        mapper's refinement loop translates into exclusions for the next
        iteration.
    """

    mapping: Mapping
    status: MappingStatus
    energy_nj_per_iteration: float = 0.0
    manhattan_cost: float = 0.0
    feasibility: FeasibilityReport | None = None
    mapped_csdf: CSDFGraph | None = None
    iterations: int = 0
    runtime_s: float = 0.0
    diagnostics: list[str] = field(default_factory=list)
    pending_feedback: list["Feedback"] = field(default_factory=list)

    def settled(self) -> "MappingResult":
        """This result without its search artefacts: the form the runtime keeps.

        The mapped CSDF graph and the pending step feedback are dropped;
        the mapping, status, energy and Manhattan figures, feasibility
        report, iterations, runtime and (copied) diagnostics are kept.  No
        settlement, cache hit or differential key reads the dropped two,
        and a kept graph would make memory grow with every settled request.
        """
        return replace(
            self,
            mapped_csdf=None,
            pending_feedback=[],
            diagnostics=list(self.diagnostics),
        )

    @property
    def is_feasible(self) -> bool:
        """Whether the produced mapping is feasible."""
        return self.status is MappingStatus.FEASIBLE

    def summary(self) -> str:
        """One-line human-readable summary."""
        feasible = "feasible" if self.is_feasible else self.status.value
        return (
            f"{self.mapping.application}: {feasible}, "
            f"energy={self.energy_nj_per_iteration:.1f} nJ/iter, "
            f"manhattan={self.manhattan_cost:g}, iterations={self.iterations}"
        )
