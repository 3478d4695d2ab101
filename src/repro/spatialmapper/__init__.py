"""The run-time spatial mapper — the paper's core contribution.

The mapper decomposes the NP-complete spatial-mapping problem (a Generalised
Assignment Problem once tile heterogeneity is considered) into four
hierarchical steps with iterative refinement:

1. :mod:`~repro.spatialmapper.step1_implementation` — choose an
   implementation (and thereby a tile type) per process, ordered by
   *desirability*, with a first-fit packing onto concrete tiles;
2. :mod:`~repro.spatialmapper.step2_tile_assignment` — improve the concrete
   tile assignment by local search over moves and same-type swaps, using the
   Manhattan-distance communication estimate;
3. :mod:`~repro.spatialmapper.step3_routing` — route channels, heaviest
   first, over NoC links with sufficient residual capacity;
4. :mod:`~repro.spatialmapper.step4_feasibility` — build the mapped CSDF
   graph (Figure 3), verify the QoS constraints by dataflow analysis and
   compute buffer capacities.

Any step that fails emits :class:`~repro.spatialmapper.feedback.Feedback`
which the :class:`~repro.spatialmapper.mapper.SpatialMapper` feeds back into
earlier steps (exclusion of implementations or tiles) and retries, keeping the
best feasible mapping found.
"""

from repro.spatialmapper.cache import CacheStats, MapperCache
from repro.spatialmapper.config import MapperConfig, Step2Strategy
from repro.spatialmapper.desirability import desirability, assignment_options
from repro.spatialmapper.feedback import Feedback, FeedbackKind, ExclusionSet
from repro.spatialmapper.rescue import (
    RescueOutcome,
    rescue_search,
    rescue_seed,
    shape_fingerprint,
)
from repro.spatialmapper.trace import Step2Iteration, Step2Trace, MapperTrace
from repro.spatialmapper.step1_implementation import select_implementations
from repro.spatialmapper.step2_tile_assignment import refine_tile_assignment
from repro.spatialmapper.step3_routing import route_channels
from repro.spatialmapper.step4_feasibility import check_feasibility
from repro.spatialmapper.csdf_construction import build_mapped_csdf
from repro.spatialmapper.mapper import SpatialMapper

__all__ = [
    "CacheStats",
    "MapperCache",
    "MapperConfig",
    "Step2Strategy",
    "desirability",
    "assignment_options",
    "Feedback",
    "FeedbackKind",
    "ExclusionSet",
    "RescueOutcome",
    "rescue_search",
    "rescue_seed",
    "shape_fingerprint",
    "Step2Iteration",
    "Step2Trace",
    "MapperTrace",
    "select_implementations",
    "refine_tile_assignment",
    "route_channels",
    "check_feasibility",
    "build_mapped_csdf",
    "SpatialMapper",
]
