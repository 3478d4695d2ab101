"""Benchmark of the run-time spatial mapper, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` prints every
per-layer metric (half the time untraced, half with the layer clock
installed, so the tracing overhead is part of the output).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it carry the
environment stamp, the exact work counts and the check results.  The
program is imported from ``src/`` next to this directory; without it the
benchmark exits with code 1 and prints no result.  See README.md here.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Exact work counts: the same seed and code must reproduce them bit for bit.
EXACT_METRICS = (
    "csdf.events",
    "csdf.simulate.calls",
    "mapper.map.calls",
    "pipeline.decide.calls",
    "state.fingerprint.calls",
    "interregion.decide.calls",
    "procdrain.frame_bytes",
    "procdrain.dispatches",
    "procdrain.full_dispatches",
    "procdrain.stale_redecides",
)

#: ``setup_s`` is the median of at least this many builds per run.
SETUP_SAMPLES = 7

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("admission_rate", "ratio"),
    ("energy_nj_per_admit", "nJ"),
    ("answered_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"error: program sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        raise SystemExit(f"error: repro imported from {repro.__file__}, not {SRC}")


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without leaving the checkout."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return head
    except OSError:
        return "unknown"


def timed_build(workload, clock):
    """``workload.build()`` and its program-time window (one set-up sample)."""
    clock.tick()
    started = clock.now()
    built = workload.build()
    return built, (started, clock.now())


def measure(workload, budget_s: float, clock, layer_clock=None):
    """Run rounds until the next one would overrun ``budget_s`` of wall time
    (at least one).

    Returns the rounds, their set-up windows, with a ``layer_clock``
    installed the per-round layer values, and the peak RSS read after the
    first round, so that it does not grow with the number of rounds a run
    fits in.
    """
    from layers import round_layers

    rounds, setups, per_layer = [], [], []
    rss_mb = None
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        built, setup = timed_build(workload, clock)
        before = layer_clock.snapshot() if layer_clock is not None else None
        measured = workload.play(built, clock)
        if layer_clock is not None:
            per_layer.append(round_layers(before, layer_clock.snapshot(), measured))
        del built
        gc.collect()
        if rss_mb is None:
            rss_mb = peak_rss_mb()
        setups.append(setup)
        rounds.append(measured)
        now = time.perf_counter()
        if (now - started) + (now - round_started) > budget_s:
            return rounds, setups, per_layer, rss_mb


def throughput(rounds, seconds) -> float:
    """Decided requests per second of timed play, each play's length
    given by ``seconds(start, end)``."""
    return sum(r.decided for r in rounds) / sum(seconds(*r.window) for r in rounds)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def timings(rounds, seconds) -> dict[str, float]:
    """Latency percentiles and throughput, each interval measured by ``seconds``."""
    latencies = sorted(seconds(*request) for r in rounds for request in r.requests)
    return {
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p95_ms": statistics.quantiles(latencies, n=20)[18] * 1e3,
        "throughput_rps": throughput(rounds, seconds),
    }


def end_to_end(rounds, setups, rss_mb: float, clock) -> dict[str, float]:
    energies = [e for r in rounds for e in r.energies_nj]
    attempted = sum(r.attempted for r in rounds)
    values = timings(rounds, clock.reference_s)
    values.update({
        "admission_rate": sum(r.admitted for r in rounds) / sum(r.decided for r in rounds),
        "energy_nj_per_admit": statistics.fmean(energies) if energies else 0.0,
        "answered_ratio": 1.0 - sum(r.failed for r in rounds) / attempted,
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(clock.reference_s(*setup) for setup in setups),
    })
    return values


def cold_map_peak_kb() -> float:
    """tracemalloc peak of one cold default-mode HiperLAN/2 map (paper: 110 kB)."""
    from repro.spatialmapper.config import MapperConfig
    from repro.spatialmapper.mapper import SpatialMapper
    from repro.workloads import hiperlan2

    als, platform, library = hiperlan2.build_case_study()
    mapper = SpatialMapper(platform, library, MapperConfig())
    tracemalloc.start()
    try:
        mapper.map(als)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1024.0


def exact_counts(rounds, per_layer) -> tuple[dict[str, object], list[str]]:
    """The run's exact counts, and every round that disagrees with them.

    The last ``len(per_layer)`` rounds were traced and add the exact
    layer counts; tracing must not change any count the others share.
    """
    traced = dict(zip(range(len(rounds) - len(per_layer), len(rounds)), per_layer))
    merged: dict[str, object] = {}
    errors = []
    for index, measured in enumerate(rounds):
        layer = traced.get(index, {})
        values = dict(measured.exact)
        values.update({key: layer[key] for key in EXACT_METRICS if key in layer})
        for key, value in values.items():
            first = merged.setdefault(key, value)
            if first != value:
                errors.append(f"round {index}: {key}={value}, earlier rounds {first}")
    return merged, errors


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import platform

    from layers import PER_LAYER, LayerClock
    from speed import REFERENCE_KERNEL_S, ReferenceClock
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    clock = ReferenceClock(workload.sensitivity)

    if args.trace:
        untraced = measure(workload, args.seconds / 2, clock)[0]
        layer_clock = LayerClock().install()
        try:
            rounds, _, per_layer, _ = measure(workload, args.seconds / 2, clock, layer_clock)
        finally:
            layer_clock.uninstall()
        all_rounds = untraced + rounds
    else:
        rounds, setups, per_layer, rss_mb = measure(workload, args.seconds, clock)
        all_rounds = rounds
        while len(setups) < SETUP_SAMPLES:
            setups.append(timed_build(workload, clock)[1])
    # Closes the last segment, so every window lies between two probes.
    clock.probe()

    exact, errors = exact_counts(all_rounds, per_layer)
    errors += [error for r in all_rounds for error in r.errors]
    errors += workload.check(all_rounds)

    if args.trace:
        metrics = {
            name: statistics.fmean(layer[name] for layer in per_layer)
            for name, _, _ in PER_LAYER
            if name not in ("mapper.peak_alloc_kb", "trace.throughput_delta_rps")
        }
        metrics["mapper.peak_alloc_kb"] = cold_map_peak_kb()
        metrics["trace.throughput_delta_rps"] = throughput(
            rounds, clock.reference_s
        ) - throughput(untraced, clock.reference_s)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = end_to_end(rounds, setups, rss_mb, clock)
        units = dict(END_TO_END)

    info = {
        "env": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "start_method": workload.start_method or "none",
            "workers": workload.workers,
            "seed": args.seed,
            "git_commit": git_commit(),
        },
        "workload": args.workload,
        "rounds": len(rounds),
        "speed": {
            "reference_kernel_s": REFERENCE_KERNEL_S,
            "sensitivity": workload.sensitivity,
            "probes": len(clock.kernels),
            "mean_kernel_s": statistics.fmean(clock.kernels),
            "program_time": timings(rounds, lambda start, end: end - start),
        },
        "exact": exact,
        "exact_metrics": [name for name in EXACT_METRICS if name in metrics],
        "errors": errors,
    }
    print(json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": sum(r.attempted for r in rounds),
                "failed": sum(r.failed for r in rounds),
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]} for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
