"""Extension experiment `ext-dispatch-bytes` — the delta-dispatch byte claim.

The stateful process executor's entire reason to exist is that a drain's
engine-to-worker traffic should scale with *what changed*, not with how
much state is resident.  This benchmark pins that claim end to end:

* a resident population of applications is admitted once (the warm-up
  epoch: counted bootstrap snapshots, ALS blobs interned), then
* a small churn set is admitted and stopped over several steady-state
  epochs — the same drains, replayed under three engine configurations:
  serial, process with delta dispatch disabled (the
  re-snapshot-every-drain baseline) and process stateful.

Acceptance: every configuration is decision-identical (and ends on a
bit-identical platform fingerprint), the stateful steady-state epochs
ship **zero** full snapshots with every fallback accounted by reason, and
the per-epoch engine-to-worker bytes drop by at least
``$DISPATCH_BYTES_MIN_RATIO`` (default 5x; the CI smoke pins 2x on a
shrunken run) against the full-snapshot baseline.  The per-epoch byte
table is written to ``BENCH_dispatch_delta.json`` at the repository root
(``$DISPATCH_BYTES_JSON`` redirects it).
"""

import json
import os

from repro.platform.regions import RegionPartition
from repro.runtime.engine import (
    ProcessRegionExecutor,
    SerialRegionExecutor,
    WorkloadEngine,
)
from repro.runtime.events import StartEvent
from repro.runtime.manager import RuntimeResourceManager
from repro.runtime.scenario import Scenario
from repro.spatialmapper.config import MapperConfig
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_application,
    generate_region_mesh,
)

REGIONS = 2        # 2x2 grid over a 10x10 mesh
REGION_SPAN = 5
PREFILL_PER_REGION = 10  # resident apps that make snapshots heavy
CHURN_PER_REGION = 1     # apps cycled through every steady-state epoch

APP_CONFIG = SyntheticConfig(
    stages=2, period_ns=100_000.0, tile_types=("GPP", "DSP")
)

FALLBACK_REASONS = (
    "full_bootstrap",
    "full_disabled",
    "full_journal_stale",
    "full_watermark_gap",
    "full_resync",
)


def build_population():
    """Per-region resident and churn application pools (deterministic)."""
    prefill, churn = [], []
    for cx in range(REGIONS):
        for cy in range(REGIONS):
            io_tile = f"io_r{cx}_{cy}"
            for index in range(PREFILL_PER_REGION):
                prefill.append(
                    generate_application(
                        7000 + 100 * (REGIONS * cx + cy) + index,
                        APP_CONFIG,
                        name=f"base_r{cx}{cy}_{index}",
                        source_tile=io_tile,
                        sink_tile=io_tile,
                    )
                )
            for index in range(CHURN_PER_REGION):
                churn.append(
                    generate_application(
                        9000 + 100 * (REGIONS * cx + cy) + index,
                        APP_CONFIG,
                        name=f"churn_r{cx}{cy}_{index}",
                        source_tile=io_tile,
                        sink_tile=io_tile,
                    )
                )
    return prefill, churn


def scenario_of(name, apps):
    scenario = Scenario(name, duration_ns=1e6)
    for index, app in enumerate(apps):
        scenario.add(
            StartEvent(time_ns=1000.0 * index, als=app.als, library=app.library)
        )
    return scenario


def worker_totals(outcome):
    """Per-run worker telemetry deltas summed across the pool (or None)."""
    workers = outcome.telemetry.workers
    if not workers:
        return None
    return {
        key: sum(values[key] for values in workers.values())
        for key in next(iter(workers.values()))
    }


def run_mode(kind, epochs, workers):
    """Replay warm-up + steady-state epochs under one engine configuration.

    Returns the per-epoch decision logs, per-epoch worker telemetry deltas
    (None for in-process executors), the final platform fingerprint, and
    the executor's resolved start method (process kinds only).
    """
    platform = generate_region_mesh(REGIONS, REGION_SPAN, name="dispatch_mesh")
    partition = RegionPartition.grid(platform, REGIONS, REGIONS)
    manager = RuntimeResourceManager(
        platform, config=MapperConfig(analysis_iterations=3), partition=partition
    )
    if kind == "serial":
        executor = SerialRegionExecutor()
    else:
        executor = ProcessRegionExecutor(
            partition, workers=workers, delta_dispatch=(kind == "process-stateful")
        )
    engine = WorkloadEngine(manager, executor=executor)
    prefill, churn = build_population()
    logs, stats = [], []
    start_method = getattr(executor, "start_method", None)
    try:
        # Warm-up: admit the resident population (bootstrap snapshots).
        outcome = engine.run(scenario_of("dispatch-warmup", prefill))
        logs.append(outcome.decision_log())
        stats.append(worker_totals(outcome))
        # Steady state: cycle the churn set through otherwise-stable regions.
        for epoch in range(epochs):
            outcome = engine.run(scenario_of(f"dispatch-epoch-{epoch}", churn))
            logs.append(outcome.decision_log())
            stats.append(worker_totals(outcome))
            for app in churn:
                if manager.is_running(app.als.name):
                    manager.stop(app.als.name)
        fingerprint = manager.state.fingerprint()
    finally:
        if kind.startswith("process"):
            executor.close()
    return logs, stats, fingerprint, start_method


def dispatched_bytes(totals):
    """Engine-to-worker bytes of one epoch (full frames + delta frames)."""
    return totals["snapshot_bytes"] + totals["delta_dispatch_bytes"]


def test_ext_dispatch_byte_reduction(benchmark):
    epochs = int(os.environ.get("DISPATCH_BYTES_EPOCHS", "5"))
    min_ratio = float(os.environ.get("DISPATCH_BYTES_MIN_RATIO", "5.0"))
    cpu_count = os.cpu_count() or 1
    workers = min(2, cpu_count)
    results = {}

    def run_all():
        for kind in ("serial", "process-full", "process-stateful"):
            results[kind] = run_mode(kind, epochs, workers)
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    # Bit-identical decisions and end state across all three configurations,
    # epoch by epoch — byte savings that changed a single decision would be
    # worthless.
    serial_logs, _, serial_fp, _ = results["serial"]
    for kind in ("process-full", "process-stateful"):
        logs, _, fingerprint, _ = results[kind]
        assert logs == serial_logs, f"{kind} diverged from the serial drain"
        assert fingerprint == serial_fp, f"{kind} ended on a different state"
    assert any(log for log in serial_logs), "the workload decided nothing"

    _, full_stats, _, _ = results["process-full"]
    _, delta_stats, _, start_method = results["process-stateful"]
    assert all(full_stats) and all(delta_stats)

    # Zero silent fallbacks, every epoch: each full dispatch is attributed
    # to exactly one counted reason.
    for totals in delta_stats + full_stats:
        attributed = sum(totals[reason] for reason in FALLBACK_REASONS)
        assert totals["full_dispatches"] == attributed, totals

    # The warm-up epoch bootstraps; from then on the stateful executor must
    # never fall back — steady state is deltas only.
    assert delta_stats[0]["full_bootstrap"] >= 1
    steady = delta_stats[1:]
    for totals in steady:
        assert totals["full_dispatches"] == 0, totals
        assert totals["delta_dispatches"] >= 1, totals

    table = [
        {
            "epoch": "warmup" if index == 0 else index - 1,
            "full_mode_bytes": dispatched_bytes(full_stats[index]),
            "stateful_bytes": dispatched_bytes(delta_stats[index]),
            "stateful_full_dispatches": int(delta_stats[index]["full_dispatches"]),
            "stateful_delta_dispatches": int(delta_stats[index]["delta_dispatches"]),
            "stateful_bytes_saved": int(delta_stats[index]["dispatch_bytes_saved"]),
        }
        for index in range(len(delta_stats))
    ]

    full_steady = sum(dispatched_bytes(t) for t in full_stats[1:])
    delta_steady = sum(dispatched_bytes(t) for t in steady)
    assert delta_steady > 0
    ratio = full_steady / delta_steady
    per_drain = {
        "full_mode_bytes_per_epoch": round(full_steady / epochs, 1),
        "stateful_bytes_per_epoch": round(delta_steady / epochs, 1),
    }

    payload = {
        "cpu_count": cpu_count,
        "workers": workers,
        "start_method": start_method,
        "regions": REGIONS * REGIONS,
        "resident_applications": REGIONS * REGIONS * PREFILL_PER_REGION,
        "churn_applications": REGIONS * REGIONS * CHURN_PER_REGION,
        "steady_epochs": epochs,
        "byte_table": table,
        "steady_state": per_drain,
        "byte_reduction_ratio": round(ratio, 2),
        "min_ratio": min_ratio,
        "decisions_identical": True,
        "silent_fallbacks": 0,
    }
    benchmark.extra_info.update(payload)

    out_path = os.environ.get("DISPATCH_BYTES_JSON")
    if not out_path:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        out_path = os.path.join(root, "BENCH_dispatch_delta.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    assert ratio >= min_ratio, payload
