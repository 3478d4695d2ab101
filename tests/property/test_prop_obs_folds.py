"""Property tests of the runtime's telemetry fold discipline.

Every merge path that crosses a process or lane boundary must be a true
commutative-monoid fold: worker snapshots arrive in whatever order the
poll loop sees responses, lanes settle in workload order, and retries
re-fold the same shapes — none of which may change the totals.  Pinned
here:

* :meth:`EngineTelemetry.merge_worker_stats` is associative and
  order-independent;
* :meth:`MetricsRegistry.fold` is associative and order-independent for
  counters, gauges and histograms alike;
* :meth:`LaneCounters.settled` always equals the sum of its terminal
  fields (parked requests are retries-in-waiting, not settlements).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry, fold_snapshots
from repro.runtime.engine import EngineTelemetry, LaneCounters

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
_worker_names = st.sampled_from(["region-drain-0", "region-drain-1", "region-drain-2"])
_small_floats = st.floats(min_value=0.0, max_value=1e3, allow_nan=False, width=32)

_worker_stats = st.dictionaries(
    _worker_names,
    st.dictionaries(
        st.sampled_from(["dispatches", "requests", "snapshot_bytes", "busy_s"]),
        _small_floats,
        max_size=4,
    ),
    max_size=3,
)

_metric_snapshots = st.builds(
    lambda counters, gauges: {"counters": counters, "gauges": gauges, "histograms": {}},
    st.dictionaries(st.sampled_from(["a", "b", "c[x=1]"]), _small_floats, max_size=3),
    st.dictionaries(st.sampled_from(["g", "h[y=2]"]), _small_floats, max_size=2),
)


# ---------------------------------------------------------------------------
# merge_worker_stats
# ---------------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(st.lists(_worker_stats, max_size=6), st.randoms())
def test_merge_worker_stats_order_independent(snapshots, rng):
    forward = EngineTelemetry()
    for snapshot in snapshots:
        forward.merge_worker_stats(snapshot)
    shuffled_order = list(snapshots)
    rng.shuffle(shuffled_order)
    shuffled = EngineTelemetry()
    for snapshot in shuffled_order:
        shuffled.merge_worker_stats(snapshot)
    rounded = lambda workers: {  # noqa: E731
        worker: {key: round(value, 6) for key, value in stats.items()}
        for worker, stats in workers.items()
    }
    assert rounded(forward.workers) == rounded(shuffled.workers)


@settings(max_examples=150, deadline=None)
@given(st.lists(_worker_stats, min_size=2, max_size=6))
def test_merge_worker_stats_associative(snapshots):
    flat = EngineTelemetry()
    for snapshot in snapshots:
        flat.merge_worker_stats(snapshot)
    prefix = EngineTelemetry()
    for snapshot in snapshots[:2]:
        prefix.merge_worker_stats(snapshot)
    grouped = EngineTelemetry()
    grouped.merge_worker_stats(prefix.workers)
    for snapshot in snapshots[2:]:
        grouped.merge_worker_stats(snapshot)
    rounded = lambda workers: {  # noqa: E731
        worker: {key: round(value, 6) for key, value in stats.items()}
        for worker, stats in workers.items()
    }
    assert rounded(flat.workers) == rounded(grouped.workers)


# ---------------------------------------------------------------------------
# MetricsRegistry.fold
# ---------------------------------------------------------------------------
def _canonical(snapshot):
    return (
        {k: round(v, 6) for k, v in snapshot["counters"].items()},
        {k: round(v, 6) for k, v in snapshot["gauges"].items()},
        {
            name: (tuple(data["bounds"]), tuple(data["buckets"]), round(data["sum"], 6),
                   data["count"])
            for name, data in snapshot["histograms"].items()
        },
    )


@settings(max_examples=150, deadline=None)
@given(st.lists(_metric_snapshots, max_size=6), st.randoms())
def test_registry_fold_order_independent(snapshots, rng):
    forward = fold_snapshots(snapshots)
    shuffled_order = list(snapshots)
    rng.shuffle(shuffled_order)
    shuffled = fold_snapshots(shuffled_order)
    assert _canonical(forward) == _canonical(shuffled)


@settings(max_examples=150, deadline=None)
@given(st.lists(_metric_snapshots, min_size=2, max_size=6))
def test_registry_fold_associative(snapshots):
    flat = fold_snapshots(snapshots)
    grouped = fold_snapshots([fold_snapshots(snapshots[:2])] + snapshots[2:])
    assert _canonical(flat) == _canonical(grouped)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=5.0, allow_nan=False), max_size=30),
    st.integers(min_value=1, max_value=5),
    st.randoms(),
)
def test_histogram_fold_matches_single_registry(values, parts, rng):
    # Splitting observations across N registries and folding them equals
    # observing everything in one registry, in any fold order.
    registries = [MetricsRegistry() for _ in range(parts)]
    single = MetricsRegistry()
    for value in values:
        rng.choice(registries).observe("lat", value)
        single.observe("lat", value)
    snapshots = [registry.snapshot() for registry in registries]
    rng.shuffle(snapshots)
    assert _canonical(fold_snapshots(snapshots)) == _canonical(single.snapshot())


# ---------------------------------------------------------------------------
# LaneCounters.settled()
# ---------------------------------------------------------------------------
_counter_ints = st.integers(min_value=0, max_value=10_000)


@settings(max_examples=200, deadline=None)
@given(
    admitted=_counter_ints,
    rejected=_counter_ints,
    expired=_counter_ints,
    cancelled=_counter_ints,
    parked=_counter_ints,
    shed=_counter_ints,
)
def test_lane_counters_settled_is_field_sum(admitted, rejected, expired, cancelled, parked, shed):
    counters = LaneCounters(
        admitted=admitted,
        rejected=rejected,
        expired=expired,
        cancelled=cancelled,
        parked=parked,
        shed=shed,
    )
    # Every terminal field counts; parked is a retry-in-waiting and must not.
    assert counters.settled() == admitted + rejected + expired + cancelled + shed
    assert counters.settled() == (
        sum(
            getattr(counters, field)
            for field in ("admitted", "rejected", "expired", "cancelled", "shed")
        )
    )
