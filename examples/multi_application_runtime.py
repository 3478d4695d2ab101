#!/usr/bin/env python3
"""Run-time resource management under a generated bursty workload.

The paper's motivation (section 1.3) is that the set of co-running
applications is only known at run time.  This example makes that concrete
at engine scale: a region-sharded MPSoC receives a *generated* bursty
workload — one traffic class per region plus a cross-region mix whose
applications pin their source and sink into different regions — driven
through the discrete-event workload engine with the serial region
executor, the inter-region corridor planner and cache-aware rejection
parking.  The engine's per-lane telemetry shows where requests settle
(region lanes, the multi-region lane, the residual global lane); the same
workload is then replayed on the process-parallel executor, which ships
each lane's region snapshot to a drain worker (decision-identical, with
per-worker traffic telemetry) and the offered load is swept to trace the
admission-rate-versus-load curve the run-time mapper exists to bend.

Run with:  python examples/multi_application_runtime.py
"""

from repro import (
    MapperConfig,
    ObsConfig,
    ProcessRegionExecutor,
    RuntimeResourceManager,
    WorkloadEngine,
)
from repro.obs.metrics import split_name
from repro.platform.regions import RegionPartition
from repro.reporting import format_table
from repro.runtime import SerialRegionExecutor
from repro.runtime.admission_control import GovernorConfig, LoadSheddingGovernor
from repro.workloads.arrivals import (
    BurstyArrivals,
    TrafficClass,
    cross_region_classes,
    generate_workload,
    offered_rate_per_s,
    priority_overload_mix,
)
from repro.workloads.synthetic import SyntheticConfig, generate_region_mesh

MILLISECOND = 1e6
REGIONS = 2  # 2x2 grid
SPAN = 3     # routers per region edge


def build_platform():
    """A 6x6 mesh split into four regions, one I/O tile per region."""
    return generate_region_mesh(REGIONS, SPAN, name="bursty_mpsoc")


def traffic_classes(load_factor=1.0):
    """Bursty per-region classes plus a cross-region pair mix."""
    config = SyntheticConfig(stages=2, period_ns=100_000.0, tile_types=("GPP", "DSP"))
    classes = []
    for cx in range(REGIONS):
        for cy in range(REGIONS):
            io_tile = f"io_r{cx}_{cy}"
            classes.append(
                TrafficClass(
                    f"r{cx}_{cy}",
                    BurstyArrivals(burst_rate_per_s=120.0, burst_size_range=(2, 4)),
                    config=config,
                    source_tile=io_tile,
                    sink_tile=io_tile,
                    hold_range_ns=(3 * MILLISECOND, 8 * MILLISECOND),
                    admission_window_ns=5 * MILLISECOND,
                ).scaled(load_factor)
            )
    classes.extend(
        traffic.scaled(load_factor)
        for traffic in cross_region_classes(
            REGIONS,
            360.0,
            config=config,
            admission_window_ns=5 * MILLISECOND,
            hold_range_ns=(3 * MILLISECOND, 8 * MILLISECOND),
        )
    )
    return classes


def run_workload(load_factor, executor="serial"):
    """Play one generated workload through the engine; returns its outcome."""
    platform = build_platform()
    partition = RegionPartition.grid(platform, REGIONS, REGIONS)
    manager = RuntimeResourceManager(
        platform,
        config=MapperConfig(analysis_iterations=3),
        partition=partition,
        cross_region_planner=True,
    )
    if executor == "process":
        backend = ProcessRegionExecutor(partition, workers=2)
    else:
        backend = SerialRegionExecutor()
    engine = WorkloadEngine(
        manager, executor=backend, park_rejections=True, obs=ObsConfig()
    )
    workload = generate_workload(
        seed=2008,
        horizon_ns=25 * MILLISECOND,
        classes=traffic_classes(load_factor),
        name=f"bursty_x{load_factor:g}",
    )
    try:
        return engine.run(workload)
    finally:
        if executor == "process":
            backend.close()


def _pivot_counters(counters, prefix):
    """Group ``"<prefix>.<field>[<label>=<row>]"`` counters by row label.

    Returns ``{row: {field: value}}`` — the flat labelled names of the
    metrics registry pivoted back into per-entity rows for the tables.
    """
    rows = {}
    for name, value in counters.items():
        base, labels = split_name(name)
        if not base.startswith(prefix + ".") or not labels:
            continue
        row = next(iter(labels.values()))
        rows.setdefault(row, {})[base[len(prefix) + 1:]] = value
    return rows


def print_telemetry(outcome):
    """Render every telemetry table from the run's metrics registry snapshot.

    One source: the engine's folded :class:`~repro.obs.MetricsRegistry`
    (``outcome.metrics``) — lane settlements, per-worker executor
    traffic and step-4 analysis work all arrive through the same fold, so the tables below are pivots of one flat counter namespace.
    """
    counters = outcome.metrics["counters"]
    lanes = {}
    for name, value in counters.items():
        base, labels = split_name(name)
        if base == "engine.settled":
            lanes.setdefault(labels["lane"], {})[labels["status"]] = value
    print(format_table(
        ["Lane", "Admitted", "Rejected", "Expired", "Parked"],
        [
            (
                lane,
                str(int(statuses.get("admitted", 0))),
                str(int(statuses.get("rejected", 0))),
                str(int(statuses.get("expired", 0))),
                str(int(statuses.get("parked", 0))),
            )
            for lane, statuses in sorted(lanes.items())
        ],
        title="Engine telemetry (per settlement lane)",
    ))
    workers = _pivot_counters(counters, "executor")
    worker_rows = [
        (
            worker,
            f"{int(stats.get('dispatches', 0))}",
            f"{int(stats.get('requests', 0))}",
            f"{stats.get('snapshot_bytes', 0) / 1024:.1f} KiB",
            f"{stats.get('delta_bytes', 0) / 1024:.1f} KiB",
            f"{int(stats.get('stale_redecides', 0))}",
            f"{stats.get('worker_wall_s', 0.0) * 1e3:.2f} ms",
        )
        for worker, stats in sorted(workers.items())
    ]
    if worker_rows:
        print(format_table(
            ["Drain worker", "Dispatches", "Requests", "Snapshots out",
             "Deltas in", "Stale", "Wall"],
            worker_rows,
            title="Process-executor telemetry (per worker)",
        ))
    analysis = {
        split_name(name)[0][len("analysis."):]: value
        for name, value in counters.items()
        if name.startswith("analysis.")
    }
    if analysis:
        print(format_table(
            ["Simulations", "Simulated events", "Cache hits"],
            [(
                str(int(analysis.get("simulations_run", 0))),
                str(int(analysis.get("simulated_events", 0))),
                str(int(analysis.get("cache_hits", 0))),
            )],
            title="Step-4 analysis telemetry (engine + workers)",
        ))
    latency = outcome.metrics["histograms"].get("engine.request_latency_s")
    if latency and latency["count"]:
        mean_ms = latency["sum"] / latency["count"] * 1e3
        print(f"  request decide latency: {latency['count']} settled, "
              f"mean {mean_ms:.3f} ms (registry histogram)")


def run_overload(governor):
    """An 8x two-tier overload, with or without the shedding governor.

    High-priority (2) and low-priority (0) Poisson classes per region; the
    engine, when given a governor, sheds low-priority arrivals before
    mapping work once the windowed admission rate drops below the floor.
    """
    platform = build_platform()
    partition = RegionPartition.grid(platform, REGIONS, REGIONS)
    manager = RuntimeResourceManager(
        platform,
        config=MapperConfig(analysis_iterations=3),
        partition=partition,
    )
    engine = WorkloadEngine(manager, park_rejections=True, governor=governor)
    classes = [
        traffic.scaled(8.0)
        for traffic in priority_overload_mix(
            REGIONS,
            high_rate_per_s=80.0,
            low_rate_per_s=240.0,
            config=SyntheticConfig(
                stages=2, period_ns=100_000.0, tile_types=("GPP", "DSP")
            ),
            admission_window_ns=5 * MILLISECOND,
            hold_range_ns=(3 * MILLISECOND, 8 * MILLISECOND),
        )
    ]
    workload = generate_workload(
        seed=2026, horizon_ns=25 * MILLISECOND, classes=classes, name="overload_x8"
    )
    return engine.run(workload)


def print_shedding_comparison():
    """Governor off vs on under the same 8x overload stream."""
    print("Load shedding under 8x overload:")
    rows = []
    for label, governor in (
        ("governor off", None),
        ("governor on", LoadSheddingGovernor(GovernorConfig(rate_floor=0.5))),
    ):
        outcome = run_overload(governor)
        rows.append(
            (
                label,
                f"{outcome.priority_admission_rate(2):6.1%}",
                f"{outcome.priority_admission_rate(0):6.1%}",
                str(len(outcome.shed)),
                str(len(outcome.expired)),
            )
        )
        if outcome.telemetry.governor is not None:
            snapshot = outcome.telemetry.governor
            print(
                f"  governor: shed={snapshot['shed']} transitions={snapshot['transitions']} "
                f"windowed rates={snapshot['rate_by_priority']}"
            )
    print(format_table(
        ["Config", "High-prio admit", "Low-prio admit", "Shed", "Expired"],
        rows,
        title="Protected-tier admission under overload",
    ))


def main():
    print("Bursty workload on a 4-region MPSoC, nominal load (x1):")
    outcome = run_workload(1.0)
    rows = []
    for record in outcome.records[:12]:
        rows.append(
            (
                f"{record.time_ns / MILLISECOND:6.2f} ms",
                record.application,
                record.status.value,
                record.reason[:44],
            )
        )
    print(format_table(["Time", "Application", "Outcome", "Reason"], rows,
                       title=f"Workload {outcome.workload!r} (first 12 outcomes)"))
    print()
    print(f"requests decided     : {outcome.decided}")
    print(f"admitted / rejected  : {len(outcome.admitted)} / "
          f"{len(outcome.rejected)} (+{len(outcome.expired)} expired)")
    print(f"departures           : {len(outcome.departures)}")
    print(f"parked re-maps saved : {outcome.parked_retries_skipped}")
    print(f"admission rate       : {outcome.admission_rate:.0%}")
    print(f"total energy         : {outcome.energy.total_energy_nj / 1e6:.3f} mJ over "
          f"{outcome.end_time_ns / MILLISECOND:.0f} ms")
    print()
    print_telemetry(outcome)
    print()

    print("Same workload, process-parallel drain (one region snapshot per lane):")
    process_outcome = run_workload(1.0, executor="process")
    identical = (
        process_outcome.decision_log() == outcome.decision_log()
        and process_outcome.departures == outcome.departures
    )
    print(f"  decision-identical to the serial run: {identical}")
    print_telemetry(process_outcome)
    print()

    print("Admission rate vs offered load:")
    curve = []
    for factor in (0.5, 1.0, 2.0, 4.0):
        outcome = run_workload(factor)
        offered = offered_rate_per_s(traffic_classes(factor))
        curve.append((factor, offered, outcome))
    width = 40
    for factor, offered, outcome in curve:
        bar = "#" * round(outcome.admission_rate * width)
        print(
            f"  x{factor:<4g} {offered:7.0f} req/s  "
            f"[{bar:<{width}}] {outcome.admission_rate:6.1%}  "
            f"({len(outcome.admitted)}/{outcome.decided} admitted)"
        )
    print()
    print_shedding_comparison()


if __name__ == "__main__":
    main()
