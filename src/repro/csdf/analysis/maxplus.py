"""Firing times of the unperiodic self-timed run, as max-plus recurrences.

Without periodic source releases, self-timed CSDF execution is determinate:
an actor starts a firing the moment its last enabling condition holds, and
no condition, once true, can become false again (an edge has one producer
and one consumer, tokens only arrive by the producer's finishes, space only
frees by the consumer's starts).  Firing ``k`` of actor ``a`` therefore
starts at the maximum of

* the finish of ``a``'s previous firing (0.0 for the first);
* per input edge, the finish of the producer firing that brings the edge's
  tokens up to what firing ``k`` needs;
* per bounded output edge, the start of the consumer firing that frees
  enough space for what firing ``k`` produces;

and finishes at start + phase duration.  The event loop of
:class:`~repro.csdf.analysis.simulation.SelfTimedSimulator` starts every
firing at exactly that float (the popped time of the event that enabled it)
and uses the same token and capacity comparisons, so :func:`firing_times`
reproduces its start and finish times, iteration finishes, deadlock flag and
time, end time and firing count bit for bit — without an event heap, a
readiness scan or per-firing records.

The dependencies are found by streaming two-pointers per edge over
cumulative production and consumption; actors advance round-robin in graph
order until a full round makes no progress, which resolves feedback cycles
and detects deadlocks.  Periodic sources, early exits and occupancy maxima
are left to the event loop, or, for feed-forward graphs, to
:mod:`repro.csdf.analysis.feedforward` (see ARCHITECTURE.md, "Self-timed
simulator").
"""

from __future__ import annotations

from math import ceil, floor

from repro.csdf.analysis.simulation import FiringTimes, iteration_finish_times
from repro.csdf.graph import CSDFGraph
from repro.csdf.repetition import repetition_vector


def firing_times(graph: CSDFGraph, iterations: int = 10) -> FiringTimes:
    """Firing times of ``iterations`` graph iterations of the self-timed run.

    Equal field by field to ``simulate(graph, iterations)`` (no period, no
    early exit) apart from the occupancy maxima it does not compute.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    repetitions = repetition_vector(graph)
    names = graph.actor_names
    actor_index = {name: a for a, name in enumerate(names)}
    reps = [repetitions[name] for name in names]
    target = [r * iterations for r in reps]
    starts: list[list[float]] = [[] for _ in names]
    finishes: list[list[float]] = [[] for _ in names]

    # Data view of an edge, as its consumer sees it: ``ready`` producer
    # firings counted, ``tokens`` = initial + their production - the
    # consumer's consumption so far.  Space view, as its producer sees it:
    # ``freed`` consumer starts counted, ``held`` = initial + the producer's
    # production so far - their consumption.  Both pointers only move
    # forward: a firing whose need is below a predecessor's is still bound
    # by that predecessor's dependency, which its own previous finish
    # already dominates.
    edges = graph.edges
    ready = [0] * len(edges)
    tokens = [edge.initial_tokens for edge in edges]
    freed = [0] * len(edges)
    held = [edge.initial_tokens for edge in edges]

    # Per actor, its input edges as (edge, consumption rates, producer's
    # finish log, per-phase production) and its bounded output edges as
    # (edge, per-phase production, capacity, consumer's start log, per-phase
    # consumption).  The logs are the result lists, filled in place.
    inputs: list[list[tuple]] = [[] for _ in names]
    outputs: list[list[tuple]] = [[] for _ in names]
    for e, edge in enumerate(edges):
        producer, consumer = actor_index[edge.source], actor_index[edge.target]
        produced = tuple([int(rate) for rate in edge.production_rates.values])
        needed = edge.consumption_rates.values
        inputs[consumer].append((e, needed, finishes[producer], produced))
        if edge.capacity is not None:
            consumed = tuple([int(rate) for rate in needed])
            outputs[producer].append((e, produced, edge.capacity, starts[consumer], consumed))
    # Per actor and phase: the duration, per input (edge, fewest tokens the
    # loop's ``tokens + 1e-9 < needed`` test admits, tokens consumed,
    # producer's finish log, production) and per bounded output (edge,
    # most tokens ``held + produced > capacity + 1e-9`` admits, tokens
    # produced, consumer's start log, consumption).  Both tests become exact
    # integer comparisons.
    table: list[list[tuple]] = []
    for a, name in enumerate(names):
        rows = []
        for p, duration in enumerate(graph.actor(name).execution_times_ns.values):
            needs = []
            for e, rates, logged, supply in inputs[a]:
                needed = rates[p % len(rates)]
                needs.append((e, _fewest_admitted(needed), int(needed), logged, supply))
            caps = []
            for e, rates, capacity, logged, drain in outputs[a]:
                produced = rates[p % len(rates)]
                caps.append((e, floor(capacity + 1e-9) - produced, produced, logged, drain))
            rows.append((duration, tuple(needs), tuple(caps)))
        table.append(rows)

    fired = [0] * len(names)
    progress = True
    while progress:
        progress = False
        for a, rows in enumerate(table):
            count = fired[a]
            limit = target[a]
            if count == limit:
                continue
            phases = len(rows)
            started, finished = starts[a], finishes[a]
            last = finished[-1] if count else 0.0
            # The first attempt of a visit may resume a firing that blocked
            # after advancing some pointers, so it takes every pointer's
            # dependency; later attempts only those of pointers they move.
            retry = True
            while count < limit:
                duration, needs, caps = rows[count % phases]
                time = last
                for e, most, _, logged, drain in caps:
                    i = freed[e]
                    if held[e] > most:
                        occupied = held[e]
                        while i < len(logged):
                            occupied -= drain[i % len(drain)]
                            i += 1
                            if occupied <= most:
                                break
                        else:
                            held[e] = occupied
                            freed[e] = i
                            time = None
                            break
                        held[e] = occupied
                        freed[e] = i
                    elif not (retry and i):
                        continue
                    if logged[i - 1] > time:
                        time = logged[i - 1]
                if time is None:
                    break
                # Each input's tokens are taken as soon as it passes, and
                # given back if a later input blocks.
                for e, fewest, consumed, logged, supply in needs:
                    j = ready[e]
                    available = tokens[e]
                    if available < fewest:
                        while j < len(logged):
                            available += supply[j % len(supply)]
                            j += 1
                            if available >= fewest:
                                break
                        else:
                            tokens[e] = available
                            ready[e] = j
                            time = None
                            break
                        ready[e] = j
                    elif not (retry and j):
                        tokens[e] = available - consumed
                        continue
                    tokens[e] = available - consumed
                    if logged[j - 1] > time:
                        time = logged[j - 1]
                if time is None:
                    for taken, _, consumed, _, _ in needs:
                        if taken == e:
                            break
                        tokens[taken] += consumed
                    break
                for e, _, produced, _, _ in caps:
                    held[e] += produced
                started.append(time)
                last = time + duration
                finished.append(last)
                count += 1
                retry = False
            if count != fired[a]:
                fired[a] = count
                progress = True

    deadlocked = fired != target
    end = max((logged[-1] for logged in finishes if logged), default=0.0)
    return FiringTimes(
        graph_name=graph.name,
        iterations_requested=iterations,
        repetitions=repetitions,
        phase_counts={name: len(rows) for name, rows in zip(names, table)},
        start_times_ns=dict(zip(names, starts)),
        finish_times_ns=dict(zip(names, finishes)),
        iteration_finish_times_ns=iteration_finish_times(finishes, reps, iterations),
        deadlocked=deadlocked,
        deadlock_time_ns=end if deadlocked else None,
        end_time_ns=end,
        simulated_events=sum(fired),
    )


def _fewest_admitted(needed: float) -> int:
    """The fewest tokens ``t`` for which the event loop's readiness test
    ``t + 1e-9 < needed`` is false (token counts are never negative)."""
    fewest = max(ceil(needed), 0)
    while fewest and not (fewest - 1 + 1e-9 < needed):
        fewest -= 1
    while fewest + 1e-9 < needed:
        fewest += 1
    return fewest

