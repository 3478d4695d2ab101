"""Cross-region interconnect planning: budgeted boundary corridors.

This package turns cross-region admission from a whole-platform
serialization (the engine's global lane) into a scoped, budgeted pipeline
stage:

* :mod:`repro.interregion.budgets` — the boundary-link inventory per
  ordered region pair, with journaled, reservable corridor budgets;
* :mod:`repro.interregion.corridors` — corridor selection (region paths and
  boundary-link choice) under routing-pressure scoring;
* :mod:`repro.interregion.planner` — the :class:`InterRegionPlanner`, which
  decomposes a multi-region application into per-region segments plus
  budgeted boundary hops and commits the composed mapping atomically.

The planner runs on the engine's decider thread, confined to the region
scope :meth:`InterRegionPlanner.scope_for` computes; its
:class:`CorridorScope` commit raises on any mutation outside that scope.
"""

from repro.interregion.budgets import BudgetTransaction, CorridorBudgets
from repro.interregion.corridors import Corridor, CorridorHop, CorridorSelector
from repro.interregion.planner import CorridorScope, InterRegionPlanner

__all__ = [
    "BudgetTransaction",
    "CorridorBudgets",
    "Corridor",
    "CorridorHop",
    "CorridorSelector",
    "CorridorScope",
    "InterRegionPlanner",
]
