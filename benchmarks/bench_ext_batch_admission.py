"""Extension experiment `ext-batch` — batch admission at run time.

The paper's run-time premise only scales to many co-running applications if
an admission decision stays cheap while the platform fills up.  This
benchmark drives :meth:`RuntimeResourceManager.start_many` over a workload of
dozens of synthetic applications on a large mesh and asserts the two
properties the incremental resource-accounting core guarantees:

* the batch admits a production-sized workload (>= 50 applications) with
  per-application accept/reject decisions in one call, and
* the per-admission mapping time does not grow with the allocation-list
  lengths of the already-running applications — resource queries hit the
  O(1) cached aggregates, so the 10 admissions onto a platform already
  hosting ~50 applications cost about the same as the first 10 onto an empty
  platform.

The *fill sweep* (`test_ext_admission_fill_sweep`) extends this to the
fragmentation/heterogeneity regime the staged pipeline targets: a churny
workload (starts interleaved with stops and re-starts) over a region-sharded
heterogeneous mesh, measured at rising fill levels, for four pipeline
configurations — the PR 1 baseline (no sharding, no caching), caching only,
sharding only, and sharding + caching.  Per-admission latency and admission
rate per fill band are attached as a JSON-serialisable trajectory in
``extra_info`` (and optionally written to ``$ADMISSION_SWEEP_JSON``).
``$ADMISSION_SWEEP_CONFIGS`` (comma-separated labels) restricts the sweep to
a subset — the CI smoke step runs one tiny configuration this way; the
cross-configuration assertions only fire when their configurations ran.

The *rescue sweep* (`test_ext_rescue_lane_fill_sweep`) replays one churny
schedule on a multi-slot, memory-tight mesh with the stochastic rescue lane
off and on, and asserts the lane's admission-rate gain in the high-fill band
(``$RESCUE_MIN_GAIN`` relaxes the floor, ``$RESCUE_ARRIVALS`` shrinks the
stream for CI, and the trajectory lands in ``BENCH_rescue_lane.json``).

Two event-driven companions exercise the workload engine on the same
platform: `test_ext_engine_drain_parallelism` replays one generated
workload through the unsharded pipeline and the sharded serial executor —
asserting that region-scoped admission over the 4-region partition
delivers a measurable per-admission wall-clock improvement — and
`test_ext_admission_rate_vs_offered_load` sweeps the offered load of a
Poisson mix to produce the paper-style admission-rate-versus-load curve
(optionally written to ``$ADMISSION_LOAD_CURVE_JSON``).
"""

import itertools
import json
import os
import random
from collections import deque
from dataclasses import replace

import pytest

from repro.obs import ObsConfig
from repro.platform.regions import RegionPartition
from repro.runtime.admission_control import GovernorConfig, LoadSheddingGovernor
from repro.runtime.engine import (
    ProcessRegionExecutor,
    SerialRegionExecutor,
    WorkloadEngine,
)
from repro.runtime.manager import RuntimeResourceManager
from repro.spatialmapper.config import MapperConfig
from repro.workloads.arrivals import (
    PoissonArrivals,
    TrafficClass,
    generate_workload,
    offered_rate_per_s,
    priority_overload_mix,
)
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_application,
    generate_platform,
    generate_region_mesh,
    generate_scenario,
)

APPLICATIONS = 60
MIN_ADMITTED = 50


@pytest.fixture(scope="module")
def workload():
    """Sixty small streaming applications and a 12x12 mesh to host them."""
    config = SyntheticConfig(stages=2, period_ns=100_000.0)
    applications = generate_scenario(seed=9, application_count=APPLICATIONS, config=config)
    platform = generate_platform(seed=21, width=12, height=12)
    return applications, platform


def test_ext_batch_start_many_admits_workload(benchmark, workload):
    applications, platform = workload
    outcomes = {}

    def run_batch():
        manager = RuntimeResourceManager(
            platform, config=MapperConfig(analysis_iterations=3), require_feasible=True
        )
        outcome = manager.start_many([(app.als, app.library) for app in applications])
        outcomes["last"] = (manager, outcome)
        return outcome

    benchmark.pedantic(run_batch, rounds=1, iterations=1)
    manager, outcome = outcomes["last"]

    admitted = outcome.admitted
    assert len(outcome.decisions) == APPLICATIONS
    assert len(admitted) >= MIN_ADMITTED
    assert all(manager.is_running(d.application) for d in admitted)

    # Per-admission mapping time must not trend upward as the platform fills:
    # with O(1) aggregate queries the cost of an admission depends on the
    # application and platform size, not on how many applications (and how
    # many allocation-list entries) are already resident.
    times = [d.mapping_runtime_s for d in outcome.decisions]
    first = sum(times[:10]) / 10
    last = sum(times[-10:]) / 10
    assert last <= 3.0 * first, (
        f"per-admission time grew from {first * 1e3:.2f} ms to {last * 1e3:.2f} ms "
        "while the platform filled up"
    )

    benchmark.extra_info["applications"] = APPLICATIONS
    benchmark.extra_info["admitted"] = len(admitted)
    benchmark.extra_info["admission_rate"] = round(outcome.admission_rate, 3)
    benchmark.extra_info["first10_admission_ms"] = round(first * 1e3, 3)
    benchmark.extra_info["last10_admission_ms"] = round(last * 1e3, 3)
    benchmark.extra_info["growth_ratio"] = round(last / first, 3) if first else None


def test_ext_batch_all_or_nothing_rolls_back(benchmark, workload):
    """An all-or-nothing batch that cannot fully fit must leave the platform
    bit-identical to an empty one — the transactional commit path."""
    applications, _ = workload
    # A deliberately tiny platform so the batch cannot fit entirely.
    small = generate_platform(seed=33, width=3, height=3)

    def run_batch():
        manager = RuntimeResourceManager(
            small, config=MapperConfig(analysis_iterations=3), require_feasible=True
        )
        outcome = manager.start_many(
            [(app.als, app.library) for app in applications[:12]], all_or_nothing=True
        )
        return manager, outcome

    manager, outcome = benchmark.pedantic(run_batch, rounds=1, iterations=1)
    assert len(outcome.rejected) >= 1
    assert manager.state.occupied_tiles() == ()
    assert manager.state.link_loads() == {}
    assert not manager.running_applications
    benchmark.extra_info["attempted"] = len(outcome.decisions)
    benchmark.extra_info["first_rejection"] = outcome.rejected[0].application


# --------------------------------------------------------------------------- #
# Fill-level sweep: fragmentation/heterogeneity, sharding and caching
# --------------------------------------------------------------------------- #

SWEEP_REGIONS = 2  # 2x2 grid
SWEEP_SPAN = 4     # routers per region edge (8x8 mesh)
APPS_PER_REGION = 9


def build_sweep_platform():
    """An 8x8 heterogeneous mesh with one I/O tile per 4x4 region."""
    return generate_region_mesh(SWEEP_REGIONS, SWEEP_SPAN, name="sweep_mesh")


def build_sweep_workload():
    """Per-region pools of two-stage applications pinned to their region's I/O."""
    config = SyntheticConfig(stages=2, period_ns=100_000.0, tile_types=("GPP", "DSP"))
    pools = {}
    for cx in range(SWEEP_REGIONS):
        for cy in range(SWEEP_REGIONS):
            region = f"r{cx}_{cy}"
            io_tile = f"io_{region}"
            pools[region] = [
                generate_application(
                    1000 * cx + 100 * cy + index,
                    config,
                    name=f"{region}_app{index}",
                    source_tile=io_tile,
                    sink_tile=io_tile,
                )
                for index in range(APPS_PER_REGION)
            ]
    return pools


def churn_schedule(pools):
    """A deterministic churny schedule: (op, region, app) triples.

    Three admission waves per region interleaved round-robin; between waves,
    the most recent admissions are stopped in exact reverse order and then
    re-admitted in the original order.  The unwinding returns the platform
    (and each region) to fingerprints that were already seen when those
    applications were first mapped, so their re-admissions are exactly the
    recurring questions the mapper cache answers — while the stop/start
    holes exercise fragmentation on the way.
    """
    regions = sorted(pools)
    ops = []

    def admit_wave(indices):
        for index in indices:
            for region in regions:
                ops.append(("start", region, pools[region][index]))

    def churn(indices):
        for index in reversed(indices):
            for region in reversed(regions):
                ops.append(("stop", region, pools[region][index]))
        for index in indices:
            for region in regions:
                ops.append(("start", region, pools[region][index]))

    admit_wave(range(0, 3))
    churn(range(1, 3))
    admit_wave(range(3, 6))
    churn(range(4, 6))
    admit_wave(range(6, APPS_PER_REGION))
    churn(range(6, APPS_PER_REGION))
    return ops


def slot_fill(manager):
    """Fraction of processing slots currently occupied."""
    tiles = manager.platform.processing_tiles()
    capacity = sum(tile.resources.max_processes for tile in tiles)
    used = sum(manager.state.used_process_slots(tile.name) for tile in tiles)
    return used / capacity if capacity else 0.0


def run_sweep_config(label, partition_regions, cache_size):
    """Run the churn schedule under one pipeline configuration."""
    platform = build_sweep_platform()
    partition = (
        RegionPartition.grid(platform, partition_regions, partition_regions)
        if partition_regions
        else None
    )
    manager = RuntimeResourceManager(
        platform,
        config=MapperConfig(analysis_iterations=3),
        partition=partition,
        mapper_cache_size=cache_size,
    )
    pools = build_sweep_workload()
    samples = []
    for op, region, app in churn_schedule(pools):
        if op == "stop":
            if manager.is_running(app.als.name):
                manager.stop(app.als.name)
            continue
        fill = slot_fill(manager)
        decision = manager.admit(app.als, library=app.library)
        samples.append(
            {
                "config": label,
                "fill": round(fill, 4),
                "region": region,
                "admitted": decision.admitted,
                "latency_ms": decision.mapping_runtime_s * 1e3,
            }
        )
    cache = manager.pipeline.cache
    stats = {
        "hits": cache.stats.hits if cache else 0,
        "misses": cache.stats.misses if cache else 0,
    }
    return samples, stats


def band_of(fill):
    """Coarse fill band: low (< 1/3), mid, or high (>= 2/3)."""
    if fill < 1 / 3:
        return "low"
    if fill < 2 / 3:
        return "mid"
    return "high"


def summarise(samples, band=band_of):
    """Per-fill-band admission rate and latency (mean + noise-robust median)."""
    bands = {}
    for sample in samples:
        bands.setdefault(band(sample["fill"]), []).append(sample)
    summary = {}
    for band, rows in bands.items():
        latencies = sorted(row["latency_ms"] for row in rows)
        middle = len(latencies) // 2
        median = (
            latencies[middle]
            if len(latencies) % 2
            else (latencies[middle - 1] + latencies[middle]) / 2
        )
        summary[band] = {
            "admissions": len(rows),
            "admitted": sum(1 for row in rows if row["admitted"]),
            "mean_latency_ms": sum(latencies) / len(latencies),
            "median_latency_ms": median,
        }
    return summary


SWEEP_CONFIGS = [
    ("baseline", 0, 0),           # PR 1: no sharding, no caching
    ("cached", 0, 128),           # fingerprint-keyed mapper cache only
    ("sharded", SWEEP_REGIONS, 0),        # region-scoped pipeline only
    ("sharded+cached", SWEEP_REGIONS, 128),
]


def selected_sweep_configs():
    """The sweep configurations to run (CI smoke narrows via env var)."""
    selection = os.environ.get("ADMISSION_SWEEP_CONFIGS")
    if not selection:
        return SWEEP_CONFIGS
    wanted = {label.strip() for label in selection.split(",") if label.strip()}
    unknown = wanted - {label for label, _, _ in SWEEP_CONFIGS}
    assert not unknown, f"unknown sweep configs requested: {sorted(unknown)}"
    return [entry for entry in SWEEP_CONFIGS if entry[0] in wanted]


def test_ext_admission_fill_sweep(benchmark):
    configs = selected_sweep_configs()
    results = {}

    def run_all():
        for label, regions, cache_size in configs:
            samples, stats = run_sweep_config(label, regions, cache_size)
            results[label] = {
                "samples": samples,
                "cache": stats,
                "summary": summarise(samples),
            }
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    trajectory = [
        {
            "config": label,
            "band": band,
            **{key: round(value, 4) for key, value in row.items()},
        }
        for label, data in results.items()
        for band, row in sorted(data["summary"].items())
    ]
    benchmark.extra_info["trajectory"] = trajectory
    for label, data in results.items():
        benchmark.extra_info[f"{label}_cache"] = data["cache"]

    # Every configuration processed the same schedule.
    counts = {label: len(data["samples"]) for label, data in results.items()}
    assert len(set(counts.values())) == 1, counts

    improvement = None
    if "baseline" in results and "sharded+cached" in results:
        baseline = results["baseline"]["summary"]
        pipeline = results["sharded+cached"]["summary"]
        assert "high" in baseline and "high" in pipeline, (baseline, pipeline)

        # The workload must actually stress the platform: the high band
        # should still admit applications under every configuration.
        assert pipeline["high"]["admitted"] >= 1
        assert pipeline["high"]["admitted"] >= baseline["high"]["admitted"] * 0.75

        # Acceptance: per-admission latency stays flat (or improves) as the
        # fill level rises for the sharded+cached pipeline, and — with the
        # platform split into >= 4 regions — *improves measurably* on the
        # PR 1 baseline at high fill.  Medians with generous factors: single
        # stray scheduling hiccups on a loaded CI machine must not flip the
        # verdict (the real effect — cache hits plus region-local search —
        # is a multiple, not a few percent).
        assert (
            pipeline["high"]["median_latency_ms"]
            <= 2.5 * pipeline["low"]["median_latency_ms"]
        ), pipeline
        assert SWEEP_REGIONS * SWEEP_REGIONS >= 4
        improvement = (
            baseline["high"]["median_latency_ms"]
            / pipeline["high"]["median_latency_ms"]
        )
        benchmark.extra_info["high_fill_improvement"] = round(improvement, 3)
        assert improvement >= 1.1, (pipeline["high"], baseline["high"])

    # The trajectory is tracked across PRs at the repository root; an env
    # var can redirect it (the CI smoke step keeps the tracked file as-is).
    out_path = os.environ.get("ADMISSION_SWEEP_JSON")
    if not out_path and not os.environ.get("ADMISSION_SWEEP_CONFIGS"):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        out_path = os.path.join(root, "BENCH_admission_fill_sweep.json")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(
                {label: data["summary"] for label, data in results.items()}
                | {
                    "samples": [s for d in results.values() for s in d["samples"]],
                    "high_fill_improvement": improvement,
                },
                handle,
                indent=2,
            )
            handle.write("\n")

    # The cache must actually serve hits under churn.
    for label in ("sharded+cached", "cached"):
        if label in results:
            assert results[label]["cache"]["hits"] > 0


# --------------------------------------------------------------------------- #
# Event-driven engine: parallel drain comparison and offered-load curve
# --------------------------------------------------------------------------- #

ENGINE_SEED = 42
ENGINE_HORIZON_NS = 20e6


def engine_traffic_classes(load_factor=1.0):
    """One Poisson class per region, pinned to that region's I/O tile."""
    config = SyntheticConfig(stages=2, period_ns=100_000.0, tile_types=("GPP", "DSP"))
    classes = []
    for cx in range(SWEEP_REGIONS):
        for cy in range(SWEEP_REGIONS):
            io_tile = f"io_r{cx}_{cy}"
            classes.append(
                TrafficClass(
                    f"r{cx}_{cy}",
                    PoissonArrivals(rate_per_s=400.0),
                    config=config,
                    source_tile=io_tile,
                    sink_tile=io_tile,
                    hold_range_ns=(3e6, 8e6),
                    admission_window_ns=5e6,
                ).scaled(load_factor)
            )
    return classes


def run_engine_config(
    workload, *, sharded, executor_kind, park=True, workers=None, info=None, obs=None
):
    """Replay one workload on a fresh manager under one engine configuration.

    ``info``, when given, receives executor facts the outcome does not carry
    (currently the process executor's resolved ``start_method``).  ``obs``
    is forwarded to the engine (``None`` = observability fully off).
    """
    platform = build_sweep_platform()
    partition = (
        RegionPartition.grid(platform, SWEEP_REGIONS, SWEEP_REGIONS)
        if sharded
        else None
    )
    manager = RuntimeResourceManager(
        platform, config=MapperConfig(analysis_iterations=3), partition=partition
    )
    if executor_kind == "process":
        executor = ProcessRegionExecutor(partition, workers=workers)
    else:
        executor = SerialRegionExecutor()
    if info is not None:
        info["start_method"] = getattr(executor, "start_method", None)
    engine = WorkloadEngine(
        manager, executor=executor, park_rejections=park, obs=obs
    )
    try:
        return engine.run(workload)
    finally:
        if executor_kind == "process":
            executor.close()


def test_ext_engine_drain_parallelism(benchmark):
    """Unsharded vs sharded serial drain of one event stream over 4 regions.

    Pins that region-scoped admission over the 4-region partition is
    measurably cheaper per admission (wall clock) than the unsharded
    pipeline on the same stream.  Executor decision identity is pinned by
    the differential suites and by the process-drain benchmark.
    """
    workload = generate_workload(
        ENGINE_SEED,
        ENGINE_HORIZON_NS,
        engine_traffic_classes(load_factor=3.0),
        name="engine-drain",
    )
    results = {}

    def run_all():
        results["unsharded"] = run_engine_config(
            workload, sharded=False, executor_kind="serial"
        )
        results["serial"] = run_engine_config(
            workload, sharded=True, executor_kind="serial"
        )
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    comparison = {}
    for label, outcome in results.items():
        assert outcome.decided > 0
        comparison[label] = {
            "decided": outcome.decided,
            "admitted": len(outcome.admitted),
            "admission_rate": round(outcome.admission_rate, 4),
            "drain_wall_ms": round(outcome.drain_wall_s * 1e3, 3),
            "per_admission_wall_ms": round(
                outcome.drain_wall_s / outcome.decided * 1e3, 4
            ),
            "mapping_runtime_ms": round(outcome.mapping_runtime_s * 1e3, 3),
        }
    benchmark.extra_info["drain_comparison"] = comparison
    benchmark.extra_info["regions"] = SWEEP_REGIONS * SWEEP_REGIONS

    # Region scoping must pay: a measurable per-admission wall-clock
    # improvement over the unsharded pipeline with >= 4 regions (the
    # locally measured effect is ~1.5x; 1.1x keeps CI noise out).
    speedup = (
        comparison["unsharded"]["per_admission_wall_ms"]
        / comparison["serial"]["per_admission_wall_ms"]
    )
    benchmark.extra_info["sharded_speedup"] = round(speedup, 3)
    assert speedup >= 1.1, comparison

    out_path = os.environ.get("ADMISSION_SWEEP_JSON")
    if out_path and os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["drain_comparison"] = comparison
        payload["sharded_speedup"] = speedup
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)


def test_ext_process_drain_throughput(benchmark):
    """Serial vs process drain of one stream over 4 regions.

    The process executor is the runtime's only parallel back-end: region
    lanes ship out as snapshots, decide in worker processes, and fold back
    as allocation deltas.  This benchmark replays one generated 4-region
    workload through both executors, asserts they are decision-identical, and records the drain throughput comparison in
    ``BENCH_process_drain.json`` at the repository root (with
    ``os.cpu_count()`` — the speedup claim only makes sense on a
    multi-core runner).

    The speedup floor defaults to 1.8x on runners with >= 4 cores and is
    waived elsewhere; ``$PROCESS_DRAIN_MIN_SPEEDUP`` overrides it either
    way (the CI smoke step pins ``0`` — it asserts the protocol, not the
    hardware).  The artifact records the floor and the waiver reason when
    one applied, plus the pool's resolved start method and the average
    bytes of one snapshot frame vs one delta frame, so the JSON states
    exactly what was (and was not) measured.
    """
    cpu_count = os.cpu_count() or 1
    workers = int(os.environ.get("PROCESS_DRAIN_WORKERS", "0")) or min(4, cpu_count)
    workload = generate_workload(
        ENGINE_SEED,
        ENGINE_HORIZON_NS,
        engine_traffic_classes(load_factor=3.0),
        name="process-drain",
    )
    results = {}
    process_info = {}
    obs_walls = {}

    def run_all():
        results["serial"] = run_engine_config(
            workload, sharded=True, executor_kind="serial"
        )
        # The observability cost columns: the same process drain with the
        # obs layer absent, constructed-but-disabled, and fully on at
        # sample rate 1.0.  Each configuration runs twice, interleaved, and
        # the overhead comparison takes each configuration's best drain —
        # machine-load drift hits all three alike, a one-sided spike only
        # one, so best-of-interleaved is the noise-robust estimator.
        obs_configs = (
            ("process", None),
            ("process_obs_disabled", ObsConfig(enabled=False)),
            ("process_obs_on", ObsConfig(sample_rate=1.0)),
        )
        for _ in range(2):
            for label, obs in obs_configs:
                outcome = run_engine_config(
                    workload,
                    sharded=True,
                    executor_kind="process",
                    workers=workers,
                    info=process_info if label == "process" else None,
                    obs=obs,
                )
                results[label] = outcome
                obs_walls.setdefault(label, []).append(outcome.drain_wall_s)
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    # Identical decisions across executors and obs settings — the
    # differential suites pin this on small workloads; the benchmark
    # re-pins it at scale.
    for kind in ("process", "process_obs_disabled", "process_obs_on"):
        assert results["serial"].decision_log() == results[kind].decision_log()
        assert results["serial"].departures == results[kind].departures
    # The obs-on run must actually have traced and metered the drain.
    assert results["process_obs_on"].spans
    assert results["process_obs_on"].metrics is not None
    assert results["process_obs_disabled"].spans == []

    comparison = {}
    for label, outcome in results.items():
        assert outcome.decided > 0
        comparison[label] = {
            "decided": outcome.decided,
            "admitted": len(outcome.admitted),
            "drain_wall_ms": round(outcome.drain_wall_s * 1e3, 3),
            "per_admission_wall_ms": round(
                outcome.drain_wall_s / outcome.decided * 1e3, 4
            ),
        }
    worker_stats = results["process"].telemetry.workers
    speedup = (
        comparison["serial"]["drain_wall_ms"] / comparison["process"]["drain_wall_ms"]
    )

    # Per-dispatch byte honesty: what one full (snapshot) frame and one
    # delta frame actually cost on the wire, averaged over the run.
    full_dispatches = sum(w["full_dispatches"] for w in worker_stats.values())
    delta_dispatches = sum(w["delta_dispatches"] for w in worker_stats.values())
    snapshot_bytes = sum(w["snapshot_bytes"] for w in worker_stats.values())
    delta_bytes = sum(w["delta_dispatch_bytes"] for w in worker_stats.values())
    dispatch_bytes = {
        "full_dispatches": int(full_dispatches),
        "delta_dispatches": int(delta_dispatches),
        "snapshot_bytes_total": int(snapshot_bytes),
        "delta_bytes_total": int(delta_bytes),
        "snapshot_bytes_per_full_dispatch": round(
            snapshot_bytes / full_dispatches, 1
        )
        if full_dispatches
        else None,
        "delta_bytes_per_delta_dispatch": round(delta_bytes / delta_dispatches, 1)
        if delta_dispatches
        else None,
    }

    # The speedup floor and, when it is waived, the reason — recorded in
    # the artifact so a green run on a starved runner cannot masquerade as
    # a measured parallel win.
    floor_override = os.environ.get("PROCESS_DRAIN_MIN_SPEEDUP")
    min_speedup = float(
        floor_override
        if floor_override is not None
        else ("1.8" if cpu_count >= 4 else "0")
    )
    if floor_override is not None:
        waiver = f"floor overridden via PROCESS_DRAIN_MIN_SPEEDUP={floor_override}"
    elif cpu_count < 4:
        waiver = (
            f"cpu_count={cpu_count} < 4: parallel speedup not expected on "
            "this runner, protocol asserted only"
        )
    else:
        waiver = None

    # Observability cost, against the obs-off process drain: the disabled
    # layer must be near-free (CI pins <= 3%) and full-sampling tracing +
    # metrics must stay within the documented <= 5% budget.  Shared runners
    # are noisy, so both floors are env-overridable and an absolute slack
    # (default 25 ms) keeps sub-millisecond deltas from failing on jitter.
    baseline_wall_ms = min(obs_walls["process"]) * 1e3
    slack_ms = float(os.environ.get("PROCESS_DRAIN_OBS_SLACK_MS", "50"))
    max_off_pct = float(os.environ.get("PROCESS_DRAIN_MAX_OBS_OFF_OVERHEAD_PCT", "3"))
    max_on_pct = float(os.environ.get("PROCESS_DRAIN_MAX_OBS_OVERHEAD_PCT", "5"))
    # Like the speedup floor: on a starved runner (fewer cores than the
    # engine + workers need) drain wall-clock is scheduler noise, so the
    # overhead floors are recorded but waived, with the reason in the
    # artifact.  $PROCESS_DRAIN_OBS_STRICT=1 forces them anywhere.
    if os.environ.get("PROCESS_DRAIN_OBS_STRICT"):
        overhead_waiver = None
    elif cpu_count < 4:
        overhead_waiver = (
            f"cpu_count={cpu_count} < 4: drain wall-clock is scheduler noise "
            "on this runner, overhead recorded but not asserted"
        )
    else:
        overhead_waiver = None
    obs_overhead = {
        "baseline_drain_wall_ms": round(baseline_wall_ms, 3),
        "slack_ms": slack_ms,
        "repeats": len(obs_walls["process"]),
        "overhead_waiver": overhead_waiver,
    }
    for label, max_pct in (
        ("process_obs_disabled", max_off_pct),
        ("process_obs_on", max_on_pct),
    ):
        wall_ms = min(obs_walls[label]) * 1e3
        delta_ms = wall_ms - baseline_wall_ms
        pct = delta_ms / baseline_wall_ms * 100.0 if baseline_wall_ms else 0.0
        obs_overhead[label] = {
            "drain_wall_ms": round(wall_ms, 3),
            "all_drain_wall_ms": [round(w * 1e3, 3) for w in obs_walls[label]],
            "overhead_ms": round(delta_ms, 3),
            "overhead_pct": round(pct, 2),
            "max_overhead_pct": max_pct,
        }

    payload = {
        "cpu_count": cpu_count,
        "workers": workers,
        "start_method": process_info.get("start_method"),
        "regions": SWEEP_REGIONS * SWEEP_REGIONS,
        "comparison": comparison,
        "process_speedup_vs_serial": round(speedup, 3),
        "min_speedup": min_speedup,
        "speedup_waiver": waiver,
        "dispatch_bytes": dispatch_bytes,
        "obs_overhead": obs_overhead,
        "worker_stats": {
            name: {key: round(value, 6) for key, value in values.items()}
            for name, values in worker_stats.items()
        },
    }
    benchmark.extra_info.update(payload)

    out_path = os.environ.get("PROCESS_DRAIN_JSON")
    if not out_path:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        out_path = os.path.join(root, "BENCH_process_drain.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    # The protocol must have actually shipped work to the workers.
    assert worker_stats and sum(w["requests"] for w in worker_stats.values()) > 0
    assert speedup >= min_speedup, payload
    if overhead_waiver is None:
        for label in ("process_obs_disabled", "process_obs_on"):
            entry = obs_overhead[label]
            assert (
                entry["overhead_pct"] <= entry["max_overhead_pct"]
                or entry["overhead_ms"] <= slack_ms
            ), payload


# --------------------------------------------------------------------------- #
# Overload sweep: the load-shedding governor under 8x offered load
# --------------------------------------------------------------------------- #

OVERLOAD_FACTOR = 8.0
HIGH_PRIORITY = 2
GOVERNOR_CONFIG = GovernorConfig(
    rate_floor=0.5, resume_margin=0.1, window=32, min_samples=8
)


def overload_workload(horizon_ns):
    """A two-tier priority mix at 8x a comfortably-admissible base load."""
    config = SyntheticConfig(stages=2, period_ns=100_000.0, tile_types=("GPP", "DSP"))
    classes = [
        traffic.scaled(OVERLOAD_FACTOR)
        for traffic in priority_overload_mix(
            SWEEP_REGIONS,
            high_rate_per_s=100.0,
            low_rate_per_s=300.0,
            config=config,
            high_priority=HIGH_PRIORITY,
            admission_window_ns=5e6,
            hold_range_ns=(3e6, 8e6),
        )
    ]
    workload = generate_workload(ENGINE_SEED, horizon_ns, classes, name="overload-x8")
    return workload, classes


def run_overload_config(workload, *, governor):
    """Replay the overload stream with (or without) the shedding governor."""
    platform = build_sweep_platform()
    partition = RegionPartition.grid(platform, SWEEP_REGIONS, SWEEP_REGIONS)
    manager = RuntimeResourceManager(
        platform, config=MapperConfig(analysis_iterations=3), partition=partition
    )
    engine = WorkloadEngine(
        manager,
        executor=SerialRegionExecutor(),
        park_rejections=True,
        governor=governor,
    )
    outcome = engine.run(workload)
    return manager, outcome


def overload_summary(label, manager, outcome):
    return {
        "config": label,
        "decided": outcome.decided,
        "admitted": len(outcome.admitted),
        "expired": len(outcome.expired),
        "shed": len(outcome.shed),
        "admission_rate": round(outcome.admission_rate, 4),
        "high_priority_rate": round(
            outcome.priority_admission_rate(HIGH_PRIORITY), 4
        ),
        "low_priority_rate": round(outcome.priority_admission_rate(0), 4),
        "mapper_invocations": manager.pipeline.mapper_invocations,
        "mapping_runtime_ms": round(outcome.mapping_runtime_s * 1e3, 3),
        "governor": outcome.telemetry.governor,
    }


def test_ext_overload_shedding_governor(benchmark):
    """Online load shedding must *pay* under overload.

    At 8x offered load, the governor-on engine must admit high-priority
    traffic at >= 1.15x the governor-off rate while spending strictly fewer
    mapper invocations — shedding happens before any mapping work.  Both
    runs replay the identical event stream, and all asserted quantities are
    virtual-time/decision metrics, so the verdict is deterministic.
    ``$OVERLOAD_HORIZON_NS`` shrinks the stream and
    ``$OVERLOAD_MIN_IMPROVEMENT`` relaxes the floor for the CI smoke step.
    """
    horizon_ns = float(os.environ.get("OVERLOAD_HORIZON_NS", ENGINE_HORIZON_NS))
    min_improvement = float(os.environ.get("OVERLOAD_MIN_IMPROVEMENT", 1.15))
    workload, classes = overload_workload(horizon_ns)
    results = {}

    def run_both():
        results["off"] = run_overload_config(workload, governor=None)
        results["on"] = run_overload_config(
            workload, governor=LoadSheddingGovernor(GOVERNOR_CONFIG)
        )
        return results

    benchmark.pedantic(run_both, rounds=1, iterations=1)

    summaries = {
        label: overload_summary(label, manager, outcome)
        for label, (manager, outcome) in results.items()
    }
    benchmark.extra_info["overload"] = summaries
    benchmark.extra_info["offered_rate_per_s"] = round(offered_rate_per_s(classes), 1)

    off, on = summaries["off"], summaries["on"]
    assert off["decided"] > 0 and on["decided"] > 0
    # The stream must actually overload the platform (on the full horizon;
    # a shrunken smoke stream may end before saturation sets in)...
    assert off["admission_rate"] < 1.0
    if "OVERLOAD_HORIZON_NS" not in os.environ:
        assert off["admission_rate"] < GOVERNOR_CONFIG.rate_floor
    # ...the governor must have engaged and shed only sheddable work...
    assert on["shed"] > 0
    assert on["governor"]["transitions"] >= 1
    # ...saving mapper work: every shed arrival is a mapper run not spent.
    assert on["mapper_invocations"] < off["mapper_invocations"], (on, off)
    # ...and converting that saving into protected-tier admissions.
    improvement = (
        on["high_priority_rate"] / off["high_priority_rate"]
        if off["high_priority_rate"]
        else float("inf")
    )
    benchmark.extra_info["high_priority_improvement"] = round(improvement, 3)
    assert improvement >= min_improvement, (improvement, on, off)

    trajectory = {
        "offered_rate_per_s": round(offered_rate_per_s(classes), 1),
        "load_factor": OVERLOAD_FACTOR,
        "horizon_ns": horizon_ns,
        "high_priority_improvement": round(improvement, 3),
        "configs": summaries,
    }
    out_path = os.environ.get("OVERLOAD_GOVERNOR_JSON")
    if not out_path and "OVERLOAD_HORIZON_NS" not in os.environ:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        out_path = os.path.join(root, "BENCH_overload_governor.json")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(trajectory, handle, indent=2)
            handle.write("\n")


# --------------------------------------------------------------------------- #
# Rescue lane: stochastic placement portfolio under memory fragmentation
# --------------------------------------------------------------------------- #

# The rescue regime is deliberately a *packing* problem, not a matching one:
# multi-slot tiles with tight memories make the greedy first-fit front end
# strand memory (channel buffers live in consumer-tile memory, so placement
# decides whether they fit), and those rejections are exactly the ones a
# seeded random-placement portfolio can convert.  With one slot per tile —
# the default mesh — placement is pure type matching and greedy is already
# near-optimal, so this sweep builds its own mesh.
RESCUE_SPAN = 3                 # 6x6 mesh, four 3x3 regions
RESCUE_SLOTS = 4                # multi-slot tiles: packing, not matching
RESCUE_TILE_MEMORY = 16 * 1024  # tight per-tile memory
RESCUE_MEMORY_CHOICES = (2048, 4096, 8192, 12288)
RESCUE_HOLD = 12                # churn keeps this many applications resident
RESCUE_SEED = 900
RESCUE_SEARCHERS = 6
RESCUE_ATTEMPTS = 4


def build_rescue_workload(arrivals):
    """``arrivals`` heterogeneous applications, round-robined over the four
    regions' I/O tiles.  Sizes are drawn from one seeded RNG while building
    the schedule, so every configuration replays the identical arrival
    sequence (the RNG never touches the admission loop)."""
    rng = random.Random(7)
    cells = itertools.cycle([(0, 0), (1, 0), (0, 1), (1, 1)])
    schedule = []
    for index, cell in zip(range(1, arrivals + 1), cells):
        io_tile = f"io_r{cell[0]}_{cell[1]}"
        config = SyntheticConfig(
            stages=rng.choice((3, 4, 5, 6)),
            period_ns=60_000.0,
            tokens_range=(16, 64),
            tile_types=("GPP", "DSP"),
            memory_choices=RESCUE_MEMORY_CHOICES,
        )
        schedule.append(
            generate_application(
                RESCUE_SEED + index,
                config,
                name=f"rescue_app{index}",
                source_tile=io_tile,
                sink_tile=io_tile,
            )
        )
    return schedule


def memory_fill(manager):
    """Fraction of tile memory currently allocated — the binding resource in
    the rescue regime (slots stay loose while buffers exhaust memory)."""
    tiles = manager.platform.processing_tiles()
    capacity = sum(tile.resources.memory_bytes for tile in tiles)
    used = sum(manager.state.used_memory_bytes(tile.name) for tile in tiles)
    return used / capacity if capacity else 0.0


def rescue_band_of(fill):
    """Memory-fill bands for the rescue regime.

    Fragmentation caps the usable fraction well below 1.0 here: the greedy
    steady state under churn oscillates around 0.45-0.50 memory fill, and
    that *is* the saturated regime (nearly every rejection happens there).
    The generic thirds-based :func:`band_of` would file the whole steady
    state under "mid", so the high band starts at 0.40 instead.
    """
    if fill < 0.2:
        return "low"
    if fill < 0.4:
        return "mid"
    return "high"


def run_rescue_config(label, config, schedule):
    """Replay the rescue churn schedule under one mapper configuration."""
    platform = generate_region_mesh(
        SWEEP_REGIONS,
        RESCUE_SPAN,
        name="rescue_mesh",
        max_processes_per_tile=RESCUE_SLOTS,
        tile_memory_bytes=RESCUE_TILE_MEMORY,
    )
    partition = RegionPartition.grid(platform, SWEEP_REGIONS, SWEEP_REGIONS)
    manager = RuntimeResourceManager(platform, config=config, partition=partition)
    running = deque()
    samples = []
    for app in schedule:
        # Churn *before* each arrival so departures keep flowing even
        # through rejection streaks — the resident set is pinned at
        # RESCUE_HOLD and the platform stays in the high-fill band.
        while len(running) >= RESCUE_HOLD:
            manager.stop(running.popleft())
        fill = memory_fill(manager)
        decision = manager.admit(app.als, library=app.library)
        if decision.admitted:
            running.append(app.als.name)
        rescued = bool(
            decision.result is not None
            and any(
                line.startswith("rescue: adopted")
                for line in decision.result.diagnostics
            )
        )
        samples.append(
            {
                "config": label,
                "fill": round(fill, 4),
                "admitted": decision.admitted,
                "rescued": rescued,
                "latency_ms": decision.mapping_runtime_s * 1e3,
            }
        )
    return samples


def test_ext_rescue_lane_fill_sweep(benchmark):
    """The stochastic rescue lane must *pay* at high fill.

    The identical churny arrival schedule replays twice — rescue off (the
    plain greedy pipeline) and rescue on (seeded random-placement portfolio
    after the refinement loop gives up) — and the admission rate in the
    high-memory-fill band must improve by at least ``$RESCUE_MIN_GAIN``
    (absolute percentage points, default 0.10).  All asserted quantities
    are decisions, not wall clock, so the verdict is deterministic: the
    rescue searchers are seeded from request fingerprints and the schedule
    never consults a global RNG.  ``$RESCUE_ARRIVALS`` shrinks the stream
    for the CI smoke step (which also relaxes the floor — a short stream
    barely reaches the high band).
    """
    arrivals = int(os.environ.get("RESCUE_ARRIVALS", "200"))
    min_gain = float(os.environ.get("RESCUE_MIN_GAIN", "0.10"))
    schedule = build_rescue_workload(arrivals)
    base = MapperConfig(analysis_iterations=3)
    configs = [
        ("rescue_off", base),
        (
            "rescue_on",
            replace(
                base,
                rescue_searchers=RESCUE_SEARCHERS,
                rescue_attempts=RESCUE_ATTEMPTS,
            ),
        ),
    ]
    results = {}

    def run_all():
        for label, config in configs:
            results[label] = run_rescue_config(label, config, schedule)
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    off, on = results["rescue_off"], results["rescue_on"]
    assert len(off) == len(on) == arrivals

    # Rescue never fires when disabled, and every adoption is an admission.
    assert not any(sample["rescued"] for sample in off)
    assert all(sample["admitted"] for sample in on if sample["rescued"])

    # Rescue is strictly additive at the decision level: the first index
    # where the two runs diverge must be a rejection the rescue lane
    # converted into an admission — never a previously-admitted application
    # deciding differently.  (After that index the resident sets differ, so
    # later decisions may legitimately diverge either way.)
    divergences = [
        index
        for index, (a, b) in enumerate(zip(off, on))
        if a["admitted"] != b["admitted"]
    ]
    if divergences:
        first = divergences[0]
        assert not off[first]["admitted"] and on[first]["admitted"], (first, off[first])
        assert on[first]["rescued"], on[first]

    summary = {}
    for label, samples in results.items():
        per_band = summarise(samples, band=rescue_band_of)
        for band, row in per_band.items():
            row["rescued"] = sum(
                1
                for sample in samples
                if rescue_band_of(sample["fill"]) == band and sample["rescued"]
            )
            row["admission_rate"] = round(row["admitted"] / row["admissions"], 4)
        summary[label] = per_band
    benchmark.extra_info["rescue_summary"] = summary

    rescued_total = sum(1 for sample in on if sample["rescued"])
    benchmark.extra_info["rescued_total"] = rescued_total
    assert rescued_total > 0, summary

    # The headline claim: a measurable admission-rate gain in the high-fill
    # band.  Decisions are deterministic, so the default floor is set from
    # the measured effect (~+0.2) with generous headroom, not CI noise.
    assert "high" in summary["rescue_off"] and "high" in summary["rescue_on"], summary
    off_high = summary["rescue_off"]["high"]
    on_high = summary["rescue_on"]["high"]
    gain = on_high["admission_rate"] - off_high["admission_rate"]
    benchmark.extra_info["high_fill_admission_gain"] = round(gain, 4)
    assert gain >= min_gain, (gain, summary)

    payload = {
        "arrivals": arrivals,
        "hold": RESCUE_HOLD,
        "regime": {
            "span": RESCUE_SPAN,
            "slots_per_tile": RESCUE_SLOTS,
            "tile_memory_bytes": RESCUE_TILE_MEMORY,
            "memory_choices": list(RESCUE_MEMORY_CHOICES),
            "searchers": RESCUE_SEARCHERS,
            "attempts": RESCUE_ATTEMPTS,
        },
        "min_gain": min_gain,
        "high_fill_admission_gain": round(gain, 4),
        "rescued_total": rescued_total,
        "summary": {
            label: {
                band: {key: round(value, 4) for key, value in row.items()}
                for band, row in bands.items()
            }
            for label, bands in summary.items()
        },
    }
    out_path = os.environ.get("RESCUE_LANE_JSON")
    if not out_path and "RESCUE_ARRIVALS" not in os.environ:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        out_path = os.path.join(root, "BENCH_rescue_lane.json")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")


LOAD_FACTORS = (0.5, 2.0, 8.0)


def test_ext_admission_rate_vs_offered_load(benchmark):
    """The paper-style curve: admission rate degrades as offered load rises."""
    curve = []

    def run_curve():
        curve.clear()
        for factor in LOAD_FACTORS:
            classes = engine_traffic_classes(load_factor=factor)
            workload = generate_workload(
                ENGINE_SEED, ENGINE_HORIZON_NS, classes, name=f"load-{factor}"
            )
            outcome = run_engine_config(
                workload, sharded=True, executor_kind="serial"
            )
            curve.append(
                {
                    "load_factor": factor,
                    "offered_rate_per_s": round(offered_rate_per_s(classes), 1),
                    "decided": outcome.decided,
                    "admitted": len(outcome.admitted),
                    "expired": len(outcome.expired),
                    "admission_rate": round(outcome.admission_rate, 4),
                    "parked_retries_skipped": outcome.parked_retries_skipped,
                }
            )
        return curve

    benchmark.pedantic(run_curve, rounds=1, iterations=1)
    benchmark.extra_info["admission_rate_curve"] = curve

    # Offered load really rises along the sweep...
    offered = [point["offered_rate_per_s"] for point in curve]
    assert offered == sorted(offered) and offered[0] < offered[-1]
    assert all(point["decided"] > 0 for point in curve)
    # ...and the admission rate can only degrade with it.  The lightest load
    # must be comfortably admissible, the heaviest must actually overload.
    rates = [point["admission_rate"] for point in curve]
    assert rates[0] >= 0.95, curve
    assert rates[-1] < rates[0], curve
    for lighter, heavier in zip(rates, rates[1:]):
        assert heavier <= lighter + 0.05, curve

    out_path = os.environ.get("ADMISSION_LOAD_CURVE_JSON")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"curve": curve}, handle, indent=2)
