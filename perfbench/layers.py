"""Per-layer self time, measured from outside the program.

:class:`LayerClock` replaces public functions and methods of the
program's modules with timing wrappers for the duration of a traced run,
and restores them afterwards.  Wrappers nest: a layer's *self* time is
its call's wall time minus the wall time of wrapped calls made inside it,
so the self times of all layers add up to the time spent inside any
wrapped layer, and the rest of a round's wall time is ``unattributed_s``.

Only the benchmark process is measured.  Drain workers forked while the
clock is installed inherit the wrappers, but a fork hook turns them into
plain pass-throughs there; worker-side numbers come from the telemetry
the engine returns instead.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

from repro.csdf.analysis.simulation import SelfTimedSimulator
from repro.interregion.planner import InterRegionPlanner
from repro.obs.trace import Tracer
from repro.platform.state import PlatformState
from repro.runtime.engine import ProcessRegionExecutor, SerialRegionExecutor
from repro.runtime.pipeline import AdmissionPipeline
from repro.runtime.queue import AdmissionQueue
from repro.spatialmapper import mapper as mapper_module
from repro.spatialmapper.mapper import SpatialMapper

#: (owner, attribute, layer name) of every wrapped entry point.
WRAPPED = (
    (SelfTimedSimulator, "run", "csdf.simulate"),
    (SpatialMapper, "map", "mapper.map"),
    (mapper_module, "select_implementations", "mapper.step1"),
    (mapper_module, "refine_tile_assignment", "mapper.step2"),
    (mapper_module, "route_channels", "mapper.step3"),
    (mapper_module, "check_feasibility", "mapper.step4"),
    (mapper_module, "rescue_search", "mapper.rescue"),
    (AdmissionPipeline, "decide", "pipeline.decide"),
    (AdmissionPipeline, "candidate_regions", "pipeline.select"),
    (AdmissionPipeline, "commit", "pipeline.commit"),
    (AdmissionPipeline, "release", "pipeline.release"),
    (PlatformState, "fingerprint", "state.fingerprint"),
    (PlatformState, "apply_delta", "state.apply_delta"),
    (InterRegionPlanner, "decide", "interregion.decide"),
    (AdmissionQueue, "take", "queue.take"),
    (SerialRegionExecutor, "execute", "engine.execute"),
    (ProcessRegionExecutor, "execute", "engine.execute"),
    (Tracer, "start", "obs.tracer"),
    (Tracer, "end", "obs.tracer"),
    (Tracer, "record", "obs.tracer"),
    (Tracer, "adopt", "obs.tracer"),
)


class LayerClock:
    """Self time and call counts of the wrapped layers, plus a few outcomes
    read from the return values (map status, rescue, planner verdicts)."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._active = True

    def _stop_in_child(self) -> None:
        self._active = False

    def install(self) -> "LayerClock":
        os.register_at_fork(after_in_child=self._stop_in_child)
        for owner, attribute, name in WRAPPED:
            original = getattr(owner, attribute)
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name))
        return self

    def uninstall(self) -> None:
        self._active = False
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def snapshot(self) -> dict[str, float]:
        """Flat copy of every self time and count, for per-round deltas."""
        flat = {f"{name}.self_s": value for name, value in self.self_s.items()}
        flat.update(self.counts)
        return flat

    def _wrap(self, original, name: str):
        clock = self
        observe = _OBSERVERS.get(name)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if not clock._active:
                return original(*args, **kwargs)
            stack = clock._stack
            stack.append(0.0)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                nested = stack.pop()
                clock.self_s[name] += elapsed - nested
                clock.counts[f"{name}.calls"] += 1
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(clock.counts, args, result)
            return result

        return timed


def _observe_map(counts, args, result) -> None:
    trace = args[0].last_trace
    if trace.cache_hit:
        return
    counts["mapper.computed"] += 1
    counts["mapper.refinement_iterations"] += trace.refinement_iterations
    counts["mapper.feasible"] += result.is_feasible
    if trace.rescue_searchers_run:
        counts["mapper.rescue.run"] += 1
        counts["mapper.rescue.adopted"] += trace.rescue_adopted


def _observe_planner(counts, args, result) -> None:
    counts["interregion.admitted"] += result.admitted


_OBSERVERS = {"mapper.map": _observe_map, "interregion.decide": _observe_planner}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: (name, unit, better) of every per-layer metric, in output order.
PER_LAYER = (
    ("csdf.simulate.self_s", "s", "lower"),
    ("csdf.simulate.calls", "count", "lower"),
    ("csdf.events", "count", "lower"),
    ("csdf.events_per_s", "1/s", "higher"),
    ("csdf.cache_hit_ratio", "ratio", "higher"),
    ("mapper.step1.self_s", "s", "lower"),
    ("mapper.step2.self_s", "s", "lower"),
    ("mapper.step3.self_s", "s", "lower"),
    ("mapper.step4.self_s", "s", "lower"),
    ("mapper.rescue.self_s", "s", "lower"),
    ("mapper.rescue.adopted_ratio", "ratio", "higher"),
    ("mapper.map.self_s", "s", "lower"),
    ("mapper.map.calls", "count", "lower"),
    ("mapper.refinement_iterations", "count", "lower"),
    ("mapper.feasible_ratio", "ratio", "higher"),
    ("mapper.cache_hit_ratio", "ratio", "higher"),
    ("mapper.peak_alloc_kb", "kB", "lower"),
    ("pipeline.decide.self_s", "s", "lower"),
    ("pipeline.decide.calls", "count", "lower"),
    ("pipeline.select.self_s", "s", "lower"),
    ("pipeline.commit.self_s", "s", "lower"),
    ("pipeline.release.self_s", "s", "lower"),
    ("state.fingerprint.self_s", "s", "lower"),
    ("state.fingerprint.calls", "count", "lower"),
    ("state.apply_delta.self_s", "s", "lower"),
    ("interregion.decide.self_s", "s", "lower"),
    ("interregion.decide.calls", "count", "lower"),
    ("interregion.admit_ratio", "ratio", "higher"),
    ("queue.take.self_s", "s", "lower"),
    ("engine.execute.self_s", "s", "lower"),
    ("procdrain.dispatches", "count", "lower"),
    ("procdrain.frame_bytes", "bytes", "lower"),
    ("procdrain.full_dispatches", "count", "lower"),
    ("procdrain.stale_redecides", "count", "lower"),
    ("procdrain.worker_busy_s", "s", "lower"),
    ("obs.tracer.self_s", "s", "lower"),
    ("obs.spans_per_request", "count", "lower"),
    ("unattributed_s", "s", "lower"),
    ("trace.throughput_delta_rps", "1/s", "higher"),
)


def round_layers(before: dict[str, float], after: dict[str, float], measured) -> dict[str, float]:
    """Per-layer values of one traced round.

    ``before``/``after`` are :meth:`LayerClock.snapshot` values around the
    round; ``measured`` is its :class:`~workloads.Round` (wall time,
    engine telemetry, analysis counters, mapper-cache counters, spans).
    """
    delta = {key: value - before.get(key, 0) for key, value in after.items()}
    get = lambda key: delta.get(key, 0)  # noqa: E731
    analysis = measured.analysis
    events = analysis.get("simulated_events", 0)
    simulate_s = get("csdf.simulate.self_s")
    workers = measured.telemetry.workers if measured.telemetry is not None else {}

    def worker_total(key: str) -> float:
        return sum(stats.get(key, 0) for stats in workers.values())

    hits, misses = measured.cache_stats
    self_total = sum(value for key, value in delta.items() if key.endswith(".self_s"))
    values = {
        key: get(key)
        for key, _, _ in PER_LAYER
        if key.endswith(".self_s") or key.endswith(".calls")
    }
    values.update(
        {
            "csdf.events": events,
            "csdf.events_per_s": _ratio(measured.engine_side_events, simulate_s),
            "csdf.cache_hit_ratio": _ratio(
                analysis.get("cache_hits", 0),
                analysis.get("cache_hits", 0) + analysis.get("simulations_run", 0),
            ),
            "mapper.rescue.adopted_ratio": _ratio(
                get("mapper.rescue.adopted"), get("mapper.rescue.run")
            ),
            "mapper.refinement_iterations": _ratio(
                get("mapper.refinement_iterations"), get("mapper.computed")
            ),
            "mapper.feasible_ratio": _ratio(get("mapper.feasible"), get("mapper.computed")),
            "mapper.cache_hit_ratio": _ratio(hits, hits + misses),
            "interregion.admit_ratio": _ratio(
                get("interregion.admitted"), get("interregion.decide.calls")
            ),
            "procdrain.dispatches": worker_total("dispatches"),
            "procdrain.frame_bytes": measured.exact["procdrain.frame_bytes"],
            "procdrain.full_dispatches": worker_total("full_dispatches"),
            "procdrain.stale_redecides": worker_total("stale_redecides"),
            "procdrain.worker_busy_s": worker_total("worker_wall_s"),
            "obs.spans_per_request": _ratio(measured.spans, measured.attempted),
            "unattributed_s": measured.wall_s - self_total,
        }
    )
    return values
