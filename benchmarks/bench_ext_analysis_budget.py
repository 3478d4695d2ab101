"""Extension experiment `ext-analysis-budget` — cached, early-exit step 4.

Step 4 re-answers the same dataflow questions over and over: the runtime
remaps an application whenever its region's state changes, and whenever the
resulting mapped graph is structurally unchanged every simulation of the
feasibility check is a repeat of one already run.  The analysis engine
(:mod:`repro.csdf.analysis.budget`) memoises those verdicts behind the
graph's structural fingerprint and lets each simulation stop early (backlog
abort, state-cycle exit).  This benchmark pins the tentpole claim on the
HiperLAN/2 case study with buffer minimisation on:

* over ``ANALYSIS_BUDGET_ROUNDS`` recurrent step-4 rounds (one cold, the
  rest re-asking the question the runtime re-asks), the budgeted engine
  simulates >= ``ANALYSIS_BUDGET_MIN_REDUCTION`` (default 2x) fewer events
  per round than the uncached full-simulation baseline;
* the buffer-capacity vector is bit-identical to the baseline's — the
  speedup never buys a different answer;
* a generated two-region workload drained with ``minimize_buffers`` on
  settles identically under the baseline and budgeted configurations and
  across the serial and process executors.

The trajectory is written to ``BENCH_analysis_budget.json`` at the
repository root (override with ``$ANALYSIS_BUDGET_JSON``); the env knobs
let the CI smoke step run a shrunken, assertion-relaxed version without
overwriting the tracked numbers.
"""

import json
import os

import pytest

from repro.platform.state import PlatformState
from repro.runtime.manager import RuntimeResourceManager
from repro.spatialmapper.config import MapperConfig
from repro.spatialmapper.mapper import SpatialMapper
from tests.harness import (
    build_two_region_platform,
    make_engine,
    two_region_partition,
    two_region_workload,
)

ROUNDS = int(os.environ.get("ANALYSIS_BUDGET_ROUNDS", 4))
MIN_REDUCTION = float(os.environ.get("ANALYSIS_BUDGET_MIN_REDUCTION", 2.0))
SEED = 7

BASELINE_KNOBS = dict(analysis_early_exit=False, analysis_cache_size=0)


def step4_rounds(case_study, rounds, **knobs):
    """Map the case-study receiver ``rounds`` times on one mapper.

    Every round after the first re-asks step 4 the question the runtime
    re-asks after unrelated state churn: the mapped graph is structurally
    unchanged, so the budgeted engine answers from its verdict cache while
    the baseline re-simulates everything.  Returns the final mapping result
    plus the engine's counters.
    """
    als, platform, library = case_study
    config = MapperConfig(analysis_iterations=6, minimize_buffers=True, **knobs)
    mapper = SpatialMapper(platform, library, config)
    result = None
    for _ in range(rounds):
        result = mapper.map(als, PlatformState(platform))
    return result, mapper.analysis.snapshot()


def run_workload(executor, **knobs):
    """Drain the harness workload with buffer minimisation on."""
    platform = build_two_region_platform()
    manager = RuntimeResourceManager(
        platform,
        config=MapperConfig(analysis_iterations=3, minimize_buffers=True, **knobs),
        partition=two_region_partition(platform),
    )
    engine = make_engine(manager, executor=executor, park_rejections=True)
    try:
        return engine.run(two_region_workload(SEED))
    finally:
        if executor == "process":
            engine.executor.close()


def test_ext_analysis_budget(benchmark, case_study):
    results = {}

    def run_all():
        for label, knobs in (("baseline", BASELINE_KNOBS), ("budgeted", {})):
            results[label] = step4_rounds(case_study, ROUNDS, **knobs)
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    (base_result, base_stats) = results["baseline"]
    (budget_result, budget_stats) = results["budgeted"]

    # Decision identity first: the capacity vector must be bit-identical.
    assert base_result.status is budget_result.status
    assert base_result.feasibility.buffer_capacities == budget_result.feasibility.buffer_capacities
    assert budget_stats["budget_exhausted"] == 0  # default budgets are unlimited

    per_round_base = base_stats["simulated_events"] / ROUNDS
    per_round_budget = budget_stats["simulated_events"] / ROUNDS
    reduction = per_round_base / max(per_round_budget, 1e-9)
    comparison = {
        label: {
            "rounds": ROUNDS,
            "simulations_run": stats["simulations_run"],
            "simulated_events": stats["simulated_events"],
            "cache_hits": stats["cache_hits"],
            "events_per_step4_round": round(stats["simulated_events"] / ROUNDS, 1),
        }
        for label, (_, stats) in results.items()
    }
    benchmark.extra_info["comparison"] = comparison
    benchmark.extra_info["event_reduction"] = round(reduction, 3)

    # Recurrent rounds must actually hit the cache, not re-simulate.
    assert budget_stats["cache_hits"] > 0
    assert base_stats["cache_hits"] == 0

    # The tentpole target: >= 2x fewer simulated events per step-4 round on
    # the case study (relaxed via $ANALYSIS_BUDGET_MIN_REDUCTION for the CI
    # smoke run).
    assert reduction >= MIN_REDUCTION, comparison

    # Differential: with minimize_buffers on, the analysis changes must not
    # shift a single admission — baseline vs budgeted, and budgeted across
    # both executors.
    serial_base = run_workload("serial", **BASELINE_KNOBS)
    executor_logs = {}
    for executor in ("serial", "process"):
        outcome = run_workload(executor)
        executor_logs[executor] = outcome.decision_log()
        assert outcome.decision_log() == serial_base.decision_log(), executor
    assert executor_logs["process"] == executor_logs["serial"]
    benchmark.extra_info["workload_decisions"] = len(serial_base.decision_log())

    payload = {
        "rounds": ROUNDS,
        "event_reduction_per_step4_round": round(reduction, 3),
        "capacity_vector_identical": True,
        "workload_decisions": len(serial_base.decision_log()),
        "comparison": comparison,
    }
    # Tracked at the repository root; shrunken smoke runs (env overrides, no
    # explicit redirect) must not overwrite the representative numbers.
    out_path = os.environ.get("ANALYSIS_BUDGET_JSON")
    shrunken = bool(
        os.environ.get("ANALYSIS_BUDGET_ROUNDS")
        or os.environ.get("ANALYSIS_BUDGET_MIN_REDUCTION")
    )
    if not out_path and not shrunken:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        out_path = os.path.join(root, "BENCH_analysis_budget.json")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")


if __name__ == "__main__":  # pragma: no cover - convenience entry point
    raise SystemExit(pytest.main([__file__, "-q"]))
