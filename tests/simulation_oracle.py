"""Tests-only oracle for the self-timed simulator.

:func:`naive_reference_run` is the straightforward implementation the
simulator in :mod:`repro.csdf.analysis.simulation` must stay bit-identical
to: after every event it tries to start *every* actor in declaration order,
re-reading rates and capacities from the graph, until a full pass starts
nothing.  It also implements the cycle exit the plain way, so the
differentials can compare every field of a
:class:`~repro.csdf.analysis.simulation.SimulationResult`.
"""

from __future__ import annotations

import heapq

from repro.csdf.repetition import repetition_vector


def naive_reference_run(graph, iterations, source_period_ns=None, cycle_exit=False):
    """Run ``graph`` with a full fixpoint readiness scan; return every observable.

    The returned dict has the keys of :func:`observe`.  Periodic actors are
    the graph's sources (actors without input edges).
    """
    repetitions = repetition_vector(graph)
    names = list(graph.actor_names)
    count = len(names)
    reps = [repetitions[name] for name in names]
    target = [repetitions[name] * iterations for name in names]
    edges = list(graph.edges)
    edge_index = {edge.name: i for i, edge in enumerate(edges)}
    tokens = [edge.initial_tokens for edge in edges]
    max_occupancy = [edge.initial_tokens for edge in edges]
    period = source_period_ns
    periodic = [period is not None and not graph.input_edges(name) for name in names]
    phase = [0] * count
    fired = [0] * count
    busy = [False] * count
    firings = [[] for _ in range(count)]
    remaining = sum(target)
    pending, sequence, now, events = [], 0, 0.0, 0
    completed, seen_states = 0, set()
    deadlocked, deadlock_time, aborted = False, None, False

    def try_start(a):
        nonlocal sequence
        actor = graph.actor(names[a])
        if busy[a] or fired[a] >= target[a]:
            return False
        if periodic[a] and now < (fired[a] // reps[a]) * period:
            return False
        p = phase[a]
        for edge in graph.input_edges(names[a]):
            if tokens[edge_index[edge.name]] + 1e-9 < edge.consumption_rates.at(p):
                return False
        for edge in graph.output_edges(names[a]):
            if edge.capacity is not None and tokens[edge_index[edge.name]] + int(
                edge.production_rates.at(p)
            ) > edge.capacity + 1e-9:
                return False
        for edge in graph.input_edges(names[a]):
            tokens[edge_index[edge.name]] -= int(edge.consumption_rates.at(p))
        for edge in graph.output_edges(names[a]):
            e = edge_index[edge.name]
            max_occupancy[e] = max(max_occupancy[e], tokens[e] + int(edge.production_rates.at(p)))
        busy[a] = True
        sequence += 1
        heapq.heappush(pending, (now + actor.execution_time_ns(p), sequence, a, p, now))
        return True

    def scan_all():
        started = True
        while started:
            started = False
            for a in range(count):
                if try_start(a):
                    started = True

    scan_all()
    while remaining:
        # A periodic release is taken before every later finish; at an equal
        # instant the finish comes first.
        releases = [
            (fired[a] // reps[a]) * period
            for a in range(count)
            if periodic[a] and not busy[a] and fired[a] < target[a]
        ]
        release = min([r for r in releases if r > now], default=None)
        if pending and (release is None or pending[0][0] <= release):
            finish, _, a, p, start = heapq.heappop(pending)
            now = finish
            events += 1
            for edge in graph.output_edges(names[a]):
                e = edge_index[edge.name]
                tokens[e] += int(edge.production_rates.at(p))
                max_occupancy[e] = max(max_occupancy[e], tokens[e])
            firings[a].append((names[a], fired[a], p, start, finish))
            fired[a] += 1
            phase[a] = (p + 1) % graph.actor(names[a]).phases
            busy[a] = False
            remaining -= 1
            boundary = False
            while completed < min(fired[b] // reps[b] for b in range(count)):
                completed += 1
                boundary = True
            scan_all()
            if cycle_exit and boundary and remaining:
                state = (
                    tuple(phase),
                    tuple(fired[b] - completed * reps[b] for b in range(count)),
                    tuple(tokens),
                    tuple((f - now, b, q) for f, _, b, q, _ in sorted(pending)),
                    tuple(
                        (fired[b] // reps[b]) * period - now for b in range(count) if periodic[b]
                    ),
                )
                if state in seen_states:
                    aborted = True
                    break
                seen_states.add(state)
            continue
        if release is not None:
            now = release
            scan_all()
            continue
        deadlocked, deadlock_time = True, now
        break

    full = min([iterations] + [len(firings[a]) // reps[a] for a in range(count)])
    iteration_finishes = [
        max(firings[a][(k + 1) * reps[a] - 1][4] for a in range(count)) for k in range(full)
    ]
    return {
        "firings": {names[a]: firings[a] for a in range(count)},
        "max_occupancy": {edge.name: max_occupancy[i] for i, edge in enumerate(edges)},
        "iteration_finish_times_ns": iteration_finishes,
        "simulated_events": events,
        "end_time_ns": now,
        "deadlocked": deadlocked,
        "deadlock_time_ns": deadlock_time,
        "aborted": aborted,
    }


def observe(result):
    """The observables of a simulator result, in the oracle's format."""
    return {
        "firings": {
            name: [tuple(record) for record in result.firings_of(name)]
            for name in result.repetitions
        },
        "max_occupancy": dict(result.max_occupancy),
        "iteration_finish_times_ns": list(result.iteration_finish_times_ns),
        "simulated_events": result.simulated_events,
        "end_time_ns": result.end_time_ns,
        "deadlocked": result.deadlocked,
        "deadlock_time_ns": result.deadlock_time_ns,
        "aborted": result.aborted,
    }
