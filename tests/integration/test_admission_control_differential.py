"""Differential pins for adaptive admission control.

Two equivalences anchor the load-shedding governor:

* an engine with a *disabled* governor (and one with no governor at all)
  must be decision-inert: bit-identical outcomes to the pre-governor
  engine;
* with an active, shedding governor the process executor and a reversed
  lane order must stay decision-identical to the serial reference —
  governor state lives on the decider thread in settlement order, and
  this test is what keeps it there.
"""

import pytest

from repro.runtime.admission_control import GovernorConfig, LoadSheddingGovernor
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


def run(seed, *, executor="serial", governor=None, park=True):
    manager = make_manager()
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


class TestGovernedExecutorIdentity:
    @pytest.mark.parametrize("seed", [11, 41])
    @pytest.mark.parametrize("executor", ["reversed", "process"])
    def test_governed_run_is_executor_invariant(self, seed, executor):
        def governed_run(kind):
            return run(
                seed,
                executor=kind,
                governor=LoadSheddingGovernor(
                    GovernorConfig(rate_floor=0.5, window=16, min_samples=4)
                ),
            )

        serial_manager, serial = governed_run("serial")
        parallel_manager, parallel = governed_run(executor)
        assert outcome_key(serial_manager, serial) == outcome_key(
            parallel_manager, parallel
        )
        assert serial.telemetry.governor == parallel.telemetry.governor
