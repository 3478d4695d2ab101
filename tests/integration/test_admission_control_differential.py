"""Differential pins for adaptive admission control.

Three equivalences anchor the subsystem:

* the composite region scorer at its *neutral* policy (``fill_only``, no
  feedback memory) must order — and therefore decide — exactly like the
  historic least-filled-first selection stage, on the serial,
  reversed-lane and process executors alike;
* an engine with a *disabled* governor (and one with no governor at all)
  must be decision-inert: bit-identical outcomes to the pre-governor
  engine;
* with the full adaptive configuration (composite scoring, rejection
  feedback, governor shedding) the process executor and a reversed lane
  order must stay decision-identical to the serial reference — feedback
  updates and governor state both live on the decider thread in
  settlement order, and this test is what keeps them there.
"""

import pytest

from repro.runtime.admission_control import GovernorConfig, LoadSheddingGovernor
from repro.spatialmapper.region_score import RegionScorePolicy, RegionScorer
from tests.harness import make_engine, make_manager, two_region_workload


def outcome_key(manager, outcome):
    """Everything a differential comparison should pin about one run."""
    return (
        outcome.decision_log(),
        manager.decisions,
        sorted(manager.state.occupied_tiles()),
        manager.state.link_loads(),
        outcome.departures,
    )


def run(seed, *, executor="serial", scorer=None, governor=None, park=True):
    manager = make_manager(region_scorer=scorer)
    engine = make_engine(
        manager, executor=executor, governor=governor, park_rejections=park
    )
    try:
        outcome = engine.run(two_region_workload(seed, name=f"acd-{seed}"))
    finally:
        close = getattr(engine.executor, "close", None)
        if close is not None:
            close()
    return manager, outcome


class TestNeutralScorerDifferential:
    @pytest.mark.parametrize("seed", [5, 17, 29])
    @pytest.mark.parametrize("executor", ["serial", "reversed", "process"])
    def test_fill_only_scorer_reproduces_fill_level_decisions(self, seed, executor):
        baseline_manager, baseline = run(seed, executor=executor)
        scored_manager, scored = run(
            seed,
            executor=executor,
            scorer=RegionScorer(RegionScorePolicy.fill_only()),
            governor=LoadSheddingGovernor(enabled=False),
        )
        assert outcome_key(scored_manager, scored) == outcome_key(
            baseline_manager, baseline
        )
        assert scored.energy.total_energy_nj == pytest.approx(
            baseline.energy.total_energy_nj
        )

    def test_candidate_ordering_matches_historic_stage(self):
        from tests.harness import make_app

        baseline = make_manager()
        scored = make_manager(region_scorer=RegionScorer(RegionScorePolicy.fill_only()))
        # Partially fill to make fill levels diverge, identically on both.
        for manager in (baseline, scored):
            for index in range(2):
                app = make_app(60 + index, f"fill{index}", "io_l")
                manager.admit(app.als, library=app.library)
        probe = make_app(70, "probe", "io_r")
        names = lambda cs: [r.name if r is not None else None for r in cs]  # noqa: E731
        assert names(scored.pipeline.candidate_regions(probe.als, probe.library)) == names(
            baseline.pipeline.candidate_regions(probe.als, probe.library)
        )


class TestGovernorInertness:
    @pytest.mark.parametrize("seed", [7, 23])
    def test_disabled_governor_is_decision_inert(self, seed):
        baseline_manager, baseline = run(seed, governor=None)
        governed_manager, governed = run(
            seed,
            governor=LoadSheddingGovernor(
                GovernorConfig(rate_floor=0.9, resume_margin=0.05, min_samples=1),
                enabled=False,
            ),
        )
        assert outcome_key(governed_manager, governed) == outcome_key(
            baseline_manager, baseline
        )
        # The disabled governor still reports telemetry — inert in
        # decisions, not invisible.
        assert governed.telemetry.governor is not None
        assert governed.telemetry.governor["shed"] == 0


class TestAdaptiveExecutorIdentity:
    @pytest.mark.parametrize("seed", [11, 41])
    @pytest.mark.parametrize("executor", ["reversed", "process"])
    def test_full_adaptive_config_is_executor_invariant(self, seed, executor):
        def adaptive_run(kind):
            return run(
                seed,
                executor=kind,
                scorer=RegionScorer.adaptive(),
                governor=LoadSheddingGovernor(
                    GovernorConfig(rate_floor=0.5, window=16, min_samples=4)
                ),
            )

        serial_manager, serial = adaptive_run("serial")
        parallel_manager, parallel = adaptive_run(executor)
        assert outcome_key(serial_manager, serial) == outcome_key(
            parallel_manager, parallel
        )
        assert serial.telemetry.governor == parallel.telemetry.governor
