"""Self-timed execution of CSDF graphs.

The simulator executes a CSDF graph under *self-timed* semantics: every actor
fires as soon as it has sufficient input tokens (for its current phase) and
sufficient space on its bounded output buffers, and each firing occupies the
actor for the phase's execution time (no auto-concurrency — an actor models a
kernel running on a single tile and can only execute one firing at a time).

The simulator supports two refinements needed by the feasibility analysis of
the spatial mapper:

* **periodic sources** — actors can be constrained to start their k-th graph
  iteration no earlier than ``k * period``, modelling an A/D converter that
  delivers one OFDM symbol every 4 us;
* **bounded buffers** — edges with a finite ``capacity`` exert back-pressure.

The result object holds the start and finish time of every completed firing
as one flat list per actor, per-edge maximum buffer occupancy, iteration
completion times, the steady-state period estimate and deadlock information.

This event loop is the general evaluator and the reference the tests compare
against.  The analyses run it on bounded graphs and on graphs that are not
feed-forward; a feed-forward graph with no capacity set is run by
:func:`~repro.csdf.analysis.feedforward.feed_forward_run`, which returns the
same result without a loop (see ARCHITECTURE.md, "Self-timed simulator").
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass, field
from functools import cached_property
from math import inf
from typing import NamedTuple

from repro.csdf.graph import CSDFGraph
from repro.csdf.repetition import repetition_vector
from repro.exceptions import DeadlockError


class FiringRecord(NamedTuple):
    """One completed firing of an actor.

    The simulator keeps no per-firing records: it logs start and finish
    times in flat per-actor lists.  Records are derived from those lists on
    demand by :attr:`SimulationResult.firings` for readers that want them.
    """

    actor: str
    firing_index: int
    phase_index: int
    start_ns: float
    finish_ns: float


@dataclass
class SimulationResult:
    """Outcome of a self-timed run: start and finish times and what follows
    from them.

    Both evaluators return it: the event loop (:class:`SelfTimedSimulator`)
    and, for feed-forward graphs,
    :func:`~repro.csdf.analysis.feedforward.feed_forward_run`.
    """

    graph_name: str
    iterations_requested: int
    repetitions: dict[str, int]
    #: Phase count per actor: firing ``i`` of actor ``a`` runs phase
    #: ``i % phase_counts[a]``.
    phase_counts: dict[str, int]
    #: Start and finish time of every completed firing, per actor in firing
    #: order (both lists of one actor have the same length).
    start_times_ns: dict[str, list[float]]
    finish_times_ns: dict[str, list[float]]
    #: Per-edge maximum occupancy, counting output space reserved at a start.
    max_occupancy: dict[str, int]
    iteration_finish_times_ns: list[float] = field(default_factory=list)
    deadlocked: bool = False
    deadlock_time_ns: float | None = None
    end_time_ns: float = 0.0
    #: Number of completed firings — the currency of the analysis budget
    #: (see :mod:`repro.csdf.analysis.budget`).
    simulated_events: int = 0
    #: Whether the cycle exit stopped the run before all requested
    #: iterations: an exact state repeat proved the rest of the run (never
    #: set by deadlocks).
    aborted: bool = False

    @property
    def completed_iterations(self) -> int:
        """Number of full graph iterations that completed."""
        return len(self.iteration_finish_times_ns)

    @cached_property
    def firings(self) -> dict[str, list[FiringRecord]]:
        """Every completed firing as a record, per actor in firing order."""
        return {
            name: [
                FiringRecord(name, index, index % self.phase_counts[name], start, finish)
                for index, (start, finish) in enumerate(zip(starts, self.finish_times_ns[name]))
            ]
            for name, starts in self.start_times_ns.items()
        }

    def firings_of(self, actor: str) -> list[FiringRecord]:
        """All firings of the given actor, in order."""
        return self.firings.get(actor, [])

    def steady_state_period_ns(self, warmup_iterations: int | None = None) -> float:
        """Average iteration period after discarding a warm-up prefix.

        Raises :class:`~repro.exceptions.DeadlockError` when no complete
        iteration was executed (e.g. because the graph deadlocked early).
        """
        finishes = self.iteration_finish_times_ns
        if not finishes:
            raise DeadlockError(
                f"graph {self.graph_name!r}: no complete iteration was executed"
            )
        if len(finishes) == 1:
            return finishes[0]
        if warmup_iterations is None:
            warmup_iterations = len(finishes) // 2
        warmup_iterations = min(warmup_iterations, len(finishes) - 2)
        warmup_iterations = max(warmup_iterations, 0)
        span = finishes[-1] - finishes[warmup_iterations]
        intervals = len(finishes) - 1 - warmup_iterations
        if intervals <= 0:
            return finishes[-1] - finishes[-2]
        return span / intervals

    def iteration_latency_ns(self, source: str, sink: str, iteration: int) -> float:
        """Latency of one iteration from the source's first start to the sink's last finish."""
        source_starts = self.start_times_ns.get(source, [])
        sink_finishes = self.finish_times_ns.get(sink, [])
        first = iteration * self.repetitions[source]
        last = (iteration + 1) * self.repetitions[sink] - 1
        if first >= len(source_starts) or last >= len(sink_finishes):
            raise DeadlockError(
                f"iteration {iteration} did not complete for actors {source!r}/{sink!r}"
            )
        return sink_finishes[last] - source_starts[first]


def iteration_finish_times(
    finishes: list[list[float]], reps: list[int], iterations: int
) -> list[float]:
    """Finish time of each completed graph iteration: the latest finish among
    the firings of that iteration, over all actors (given per actor index)."""
    completed = min([iterations] + [len(logged) // r for logged, r in zip(finishes, reps)])
    return [
        max(logged[(k + 1) * r - 1] for logged, r in zip(finishes, reps))
        for k in range(completed)
    ]


class SelfTimedSimulator:
    """Event-driven self-timed simulator for CSDF graphs.

    Parameters
    ----------
    graph:
        The graph to execute.  Must be rate-consistent.
    iterations:
        Number of graph iterations to execute (each actor ``a`` fires
        ``iterations * repetition_vector[a]`` times).
    source_period_ns:
        Optional period constraint applied to *source* actors (actors without
        input edges, or the explicit set in ``periodic_actors``): the firings
        belonging to iteration ``k`` may not start before ``k * period``.
    periodic_actors:
        Names of the actors the period constraint applies to.  Defaults to
        all source actors when a period is given.
    cycle_exit:
        When ``True``, the simulator snapshots its complete relative state at
        every iteration boundary and stops (``aborted=True``) as soon as a
        state repeats exactly: from a repeated state the execution
        replays the observed cycle shifted in time, so the occupancy maxima
        of the remaining iterations are already known (see ARCHITECTURE.md, "Analysis budget & simulation
        cache" for the soundness argument, including why the target-truncated
        tail of the full run cannot exceed the recorded maxima).
    """

    def __init__(
        self,
        graph: CSDFGraph,
        iterations: int = 10,
        *,
        source_period_ns: float | None = None,
        periodic_actors: tuple[str, ...] | None = None,
        cycle_exit: bool = False,
    ) -> None:
        if iterations < 1:
            raise ValueError("iterations must be at least 1")
        if source_period_ns is not None and source_period_ns <= 0:
            raise ValueError("source_period_ns must be positive")
        self._graph = graph
        self._iterations = iterations
        self._repetitions = repetition_vector(graph)
        self._source_period_ns = source_period_ns
        self._cycle_exit = cycle_exit
        if source_period_ns is None:
            self._periodic_actors: frozenset[str] = frozenset()
        elif periodic_actors is not None:
            unknown = [a for a in periodic_actors if not graph.has_actor(a)]
            if unknown:
                raise ValueError(f"unknown periodic actors: {unknown}")
            self._periodic_actors = frozenset(periodic_actors)
        else:
            self._periodic_actors = frozenset(a.name for a in graph.sources())

    # ------------------------------------------------------------------ #
    def run(self) -> SimulationResult:
        """Execute the graph and return the simulation result.

        The loop works on integer-indexed actors/edges with one precomputed
        ``(duration, needs, consumes, produces, caps)`` tuple per actor and
        phase, so the readiness checks are plain list lookups.  The scan
        discipline is identical to a naive fixpoint over
        ``graph.actor_names`` (same order, same tie-breaking), so results are
        bit-identical to the straightforward implementation.
        """
        graph = self._graph
        repetitions = self._repetitions
        names = list(graph.actor_names)
        actor_count = len(names)
        actor_range = range(actor_count)
        actor_index = {name: a for a, name in enumerate(names)}
        reps = [repetitions[name] for name in names]
        target = [repetitions[name] * self._iterations for name in names]

        edges = list(graph.edges)
        edge_index = {edge.name: i for i, edge in enumerate(edges)}
        tokens: list[int] = [edge.initial_tokens for edge in edges]
        max_occupancy: list[int] = [edge.initial_tokens for edge in edges]

        period = self._source_period_ns
        periodic = [period is not None and name in self._periodic_actors for name in names]
        periodic_indices = [a for a in actor_range if periodic[a]]

        # Per actor and phase: firing duration, input thresholds (edge,
        # needed), input consumptions (edge, consumed), output productions
        # (edge, produced) and capacity checks (edge, produced, cap).
        phase_counts: list[int] = []
        table: list[list[tuple]] = []
        # A *start* consumes tokens and reserves output space but produces
        # nothing, so on a graph without bounded buffers a start can never
        # enable another actor: after a finish event only the finished actor,
        # the consumers of its output edges and (because time advanced) the
        # periodic sources can newly become ready — ``affected[a]``, in actor
        # order.  Bounded buffers add back-pressure: a start frees space on
        # its *bounded* input edges, which can newly enable their producers.
        # That wake-up relation is the only extra enablement a bounded graph
        # has; ``wakes[a]`` splits it into the producers after ``a`` in actor
        # order (still visited by the running pass) and those at or before
        # it (visited by the next pass), or is ``None`` without any.
        affected: list[tuple[int, ...]] = []
        wakes: list[tuple[tuple[int, ...], tuple[int, ...]] | None] = []
        # Per actor, its input and output edges in graph order as
        # (edge, per-phase rates, capacity, other end).
        inputs: list[list[tuple]] = [[] for _ in actor_range]
        outputs: list[list[tuple]] = [[] for _ in actor_range]
        for e, edge in enumerate(edges):
            producer, consumer = actor_index[edge.source], actor_index[edge.target]
            inputs[consumer].append((e, edge.consumption_rates.values, edge.capacity, producer))
            outputs[producer].append((e, edge.production_rates.values, edge.capacity, consumer))
        for a, name in enumerate(names):
            times = graph.actor(name).execution_times_ns.values
            phase_counts.append(len(times))
            rows = []
            for p, duration in enumerate(times):
                needs = tuple([(e, rates[p % len(rates)]) for e, rates, _, _ in inputs[a]])
                produced = [(e, int(rates[p % len(rates)]), cap) for e, rates, cap, _ in outputs[a]]
                rows.append(
                    (
                        duration,
                        needs,
                        tuple([(e, int(needed)) for e, needed in needs]),
                        tuple([(e, count) for e, count, _ in produced]),
                        tuple([entry for entry in produced if entry[2] is not None]),
                    )
                )
            table.append(rows)
            affected.append(tuple(sorted({a, *periodic_indices, *(b for *_, b in outputs[a])})))
            producers = sorted({b for _, _, cap, b in inputs[a] if cap is not None})
            wakes.append(
                (tuple(b for b in producers if b > a), tuple(b for b in producers if b <= a))
                if producers
                else None
            )

        # Per actor: its firing count, the table row of its next (while it
        # runs: its in-flight) firing's phase, the earliest time it may start
        # (``inf`` while it runs or once it is done, ``k * period`` for a
        # periodic actor in iteration ``k``, else 0) and the flat start and
        # finish logs.  An actor has at most one firing in flight, so the
        # heap holds only ``(finish, sequence, actor)``.
        fired = [0] * actor_count
        current = [rows[0] for rows in table]
        earliest = [0.0] * actor_count
        starts: list[list[float]] = [[] for _ in actor_range]
        finishes: list[list[float]] = [[] for _ in actor_range]

        pending: list[tuple[float, int, int]] = []
        heappush, heappop = heapq.heappush, heapq.heappop
        sequence = 0
        now = 0.0
        deadlocked = False
        deadlock_time: float | None = None
        aborted = False

        # Online iteration-boundary tracking (only with the cycle exit): the
        # event processed when ``min(fired // reps)`` advances is by
        # construction the latest-finishing firing of the completed
        # iteration, so ``now`` at that moment equals the post-hoc
        # ``iteration_finish_times_ns`` entry bit for bit.
        cycle_exit = self._cycle_exit
        online_completed = 0
        seen_states: set[tuple] = set()
        crossed_boundary = False

        # The initial admission at t = 0 considers every actor, a finish
        # event its affected set, a periodic release the periodic sources.
        candidates: tuple[int, ...] | list[int] | range = actor_range
        while True:
            # Readiness fixpoint: each pass visits its candidates in actor
            # order, exactly like the naive full scan; actors outside the
            # candidate set cannot start (their readiness is unchanged since
            # the last quiescent scan), so skipping them cannot change the
            # start sequence.  A producer woken ahead of the cursor is
            # inserted into the running pass (the list iterator then reaches
            # it in order); one at or behind the cursor waits for the next
            # pass.  Duplicates are visited back to back, the second visit a
            # no-op.
            todo = list(candidates)
            while todo:
                behind: tuple[int, ...] = ()
                for a in todo:
                    if now < earliest[a]:
                        continue
                    duration, needs, consumes, produces, caps = current[a]
                    for e, needed in needs:
                        if tokens[e] + 1e-9 < needed:
                            break
                    else:
                        for e, produced, cap in caps:
                            if tokens[e] + produced > cap + 1e-9:
                                break
                        else:
                            # Start: consume inputs now and reserve space for
                            # the outputs, so the occupancy maxima count the
                            # reservation (a finish can never exceed it: the
                            # actor is its edges' only producer).
                            for e, consumed in consumes:
                                tokens[e] -= consumed
                            for e, produced in produces:
                                projected = tokens[e] + produced
                                if projected > max_occupancy[e]:
                                    max_occupancy[e] = projected
                            earliest[a] = inf
                            starts[a].append(now)
                            sequence += 1
                            heappush(pending, (now + duration, sequence, a))
                            if wakes[a] is not None:
                                ahead, back = wakes[a]
                                for b in ahead:
                                    insort(todo, b)
                                behind += back
                todo = sorted(behind) if behind else None

            if crossed_boundary and fired != target:
                crossed_boundary = False
                state = self._relative_state(
                    fired, reps, phase_counts, online_completed, tokens, pending, now,
                    [(fired[a] // reps[a]) * period for a in periodic_indices],
                )
                if state in seen_states:
                    aborted = True
                    break
                seen_states.add(state)

            # The next periodic release: the earliest start of a source that
            # waits for its period (a source blocked by a full buffer has its
            # release behind it).  A release is taken before every later
            # finish; at an equal instant the finish pops first and its
            # readiness pass starts the released source.
            release = inf
            for a in periodic_indices:
                if now < earliest[a] < release:
                    release = earliest[a]

            if pending and pending[0][0] <= release:
                now, _, a = heappop(pending)
                for e, produced in current[a][3]:
                    tokens[e] += produced
                finishes[a].append(now)
                count = fired[a] = fired[a] + 1
                current[a] = table[a][count % phase_counts[a]]
                if count < target[a]:
                    earliest[a] = (count // reps[a]) * period if periodic[a] else 0.0
                if cycle_exit and count % reps[a] == 0:
                    completed_now = min(fired[b] // reps[b] for b in actor_range)
                    if online_completed < completed_now:
                        online_completed = completed_now
                        crossed_boundary = True
                candidates = affected[a]
                continue

            if release != inf:
                now = release
                candidates = periodic_indices
                continue
            # Nothing running, nothing can start and no release ahead: either
            # every actor is done or the graph is deadlocked.
            if fired == target:
                break
            deadlocked = True
            deadlock_time = now
            break

        # A firing still in flight when the run stopped did not complete.
        for a in actor_range:
            del starts[a][len(finishes[a]):]
        return SimulationResult(
            graph_name=graph.name,
            iterations_requested=self._iterations,
            repetitions=dict(repetitions),
            phase_counts=dict(zip(names, phase_counts)),
            start_times_ns=dict(zip(names, starts)),
            finish_times_ns=dict(zip(names, finishes)),
            max_occupancy={edge.name: max_occupancy[i] for i, edge in enumerate(edges)},
            iteration_finish_times_ns=iteration_finish_times(finishes, reps, self._iterations),
            deadlocked=deadlocked,
            deadlock_time_ns=deadlock_time,
            end_time_ns=now,
            simulated_events=sum(map(len, finishes)),
            aborted=aborted,
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _relative_state(
        fired: list[int],
        reps: list[int],
        phase_counts: list[int],
        completed: int,
        tokens: list[int],
        pending: list[tuple[float, int, int]],
        now: float,
        releases: list[float],
    ) -> tuple:
        """The simulator's complete state at an iteration boundary, made
        time- and iteration-shift invariant.

        Everything the continuation of the run depends on is captured
        relative to ``now`` and to the number of completed iterations: actor
        phases, firing counts as lags behind the boundary, edge token counts,
        in-flight firings as (time-to-finish, actor, phase) in heap pop order
        (position encodes the sequence tie-break), and the periodic sources'
        next-release offsets.  Two boundaries with equal states therefore
        continue identically, shifted in time — which is what licenses the
        cycle early-exit.
        """
        phase = [count % phases for count, phases in zip(fired, phase_counts)]
        in_flight = tuple((finish - now, a, phase[a]) for finish, _, a in sorted(pending))
        return (
            tuple(phase),
            tuple(fired[a] - completed * reps[a] for a in range(len(fired))),
            tuple(tokens),
            in_flight,
            tuple(release - now for release in releases),
        )


def simulate(
    graph: CSDFGraph,
    iterations: int = 10,
    *,
    source_period_ns: float | None = None,
    periodic_actors: tuple[str, ...] | None = None,
    cycle_exit: bool = False,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`SelfTimedSimulator` and run it."""
    simulator = SelfTimedSimulator(
        graph,
        iterations,
        source_period_ns=source_period_ns,
        periodic_actors=periodic_actors,
        cycle_exit=cycle_exit,
    )
    return simulator.run()
