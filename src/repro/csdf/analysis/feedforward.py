"""The periodic self-timed run of a feed-forward CSDF graph, without an event loop.

A graph is *feed-forward* when it is acyclic and every edge carries no
initial tokens and moves whole tokens; its buffer capacities are not looked
at.  Every graph :func:`~repro.spatialmapper.csdf_construction.build_mapped_csdf`
produces is one.  :func:`feed_forward_run` returns what
:func:`~repro.csdf.analysis.simulation.simulate` returns for such a graph
with its capacities removed and, optionally, its sources released once
per period, in every field but the graph name, occupancy maxima and cycle
exit included.  :func:`_self_timed_run` is the analyses' one dispatch
rule: a feed-forward graph with no capacity set runs here, every other
graph on the event loop.  Buffer sizing takes the same rule through
:func:`_self_timed_occupancy`, which reduces the run to what sizing
reads: the occupancy maxima of the edges it asks for and the firing
count, with no result object.

*Firing times.*  On such a graph an actor's enabling conditions, once true,
stay true, so firing ``k`` of actor ``a`` starts at the maximum of

* the finish of ``a``'s previous firing (0.0 for the first);
* ``(k // repetitions[a]) * period`` when ``a`` is a periodic source;
* per input edge, the finish of the producer firing that brings the edge's
  cumulative tokens up to what firing ``k`` needs,

and finishes at start + phase duration: a max-plus recurrence, evaluated
actor by actor in topological order.  Each edge keeps the arrival time of
every token, so a firing's input dependency is one lookup; an actor whose
next firing still waits for a token is skipped.  Each firing costs only what
its actor's class needs, and every class computes the same floats in the
same order:

* a *unit-rate* actor (one phase, one input drained one token per firing,
  no period release: every router hop) reads its input's arrivals in one
  loop;
* a unit-rate actor *never queues* when its producer has one phase, sends
  it one token per firing and takes at least as long, ``d_up >= d``.  Its
  starts are then the arrivals themselves, its finishes one ``map(add,
  ...)`` over them, and its horizon cut a bisect.  This is exact because
  round-to-nearest is monotone: the producer's finishes satisfy
  ``f(n) >= fl(f(n-1) + d_up) >= fl(f(n-1) + d)``, which is this actor's
  previous finish, so ``max(arrival, previous finish)`` is the arrival, bit
  for bit.  The argument never relies on shift invariance;
* any other actor is evaluated firing by firing when a call has only a few
  firings to evaluate, and through one iterator pipeline per input when it
  has more (:data:`_SPARSE`).

*Event order.*  The occupancy maximum of an edge is taken at its producer's
starts, and a consumer start at the very same float instant counts only if
the event loop ran it first.  The loop pops finishes by ``(finish, start
order)`` and after each pop runs the readiness pass over the actors the pop
affects, in actor order.  So a start's place in the loop's order is
``(start, the enabling pop, actor index)``, where the enabling pop is the
last-popped of the dependencies that finish at the start instant.  A
periodic source whose release, not its previous finish, decides its start
is started by the first finish popped at the release instant, or by the
release itself when no firing that started earlier finishes then (a release
precedes every finish of its instant; so does the start of the run).
:func:`feed_forward_run` compares two starts by walking their enabling
pops back until the instants differ, and only where instants tie.  It
never needs the order of a tie that cannot change the result: a value lies
between the one that counts no tied consumer start and the one that counts
them all.

*Cycle exit.*  The loop's state at each iteration boundary is rebuilt from
the firing logs: firing counts, token counts, in-flight firings in pop
order and the sources' release offsets.  Firings are evaluated only as far
as the boundary instant needs, so stopping at the first repeated state is
where the evaluator saves work.  The charged firing count is the loop's.

See ARCHITECTURE.md, "Self-timed simulator".
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from fractions import Fraction
from functools import cmp_to_key
from itertools import accumulate, chain, compress, cycle, islice, repeat
from math import inf, isfinite
from operator import add, floordiv, mul

from repro.csdf.analysis.simulation import SimulationResult, iteration_finish_times, simulate
from repro.csdf.graph import CSDFGraph
from repro.csdf.repetition import repetition_vector

#: The cause of a source start decided by its period release, until settled.
_RELEASE = object()

#: Fewer firings than this of an actor that is not unit-rate are evaluated
#: one at a time; more, through one iterator pipeline per input, whose
#: set-up costs more than a few firings do.  On the mapped graphs of the
#: benchmark's workloads such a call has 1-5 firings or 18 and more to
#: evaluate.
_SPARSE = 8


def _feed_forward_order(graph: CSDFGraph) -> tuple[int, ...] | bool:
    """The actor indices in a topological order, or ``False`` when
    ``graph`` is not feed-forward.  Cached on the graph, which clears it on
    any structural change and keeps it across capacity-only ones."""
    order = graph._feed_forward
    if order is None:
        order = graph._feed_forward = _topological_order(graph)
    return order


def _topological_order(graph: CSDFGraph) -> tuple[int, ...] | bool:
    index = {name: a for a, name in enumerate(graph.actor_names)}
    pending = [0] * len(index)
    successors: list[list[int]] = [[] for _ in index]
    for edge in graph.edges:
        if edge.initial_tokens:
            return False
        for rates in (edge.production_rates.values, edge.consumption_rates.values):
            if tuple(map(int, rates)) != rates:
                return False
        target = index[edge.target]
        pending[target] += 1
        successors[index[edge.source]].append(target)
    ready = [a for a, count in enumerate(pending) if not count]
    order = []
    while ready:
        a = ready.pop()
        order.append(a)
        for target in successors[a]:
            pending[target] -= 1
            if not pending[target]:
                ready.append(target)
    return tuple(order) if len(order) == len(pending) else False


def is_feed_forward(graph: CSDFGraph) -> bool:
    """Whether ``graph`` is acyclic and every edge carries no initial tokens
    and moves whole tokens (capacities are not looked at)."""
    return bool(_feed_forward_order(graph))


def feed_forward_run(
    graph: CSDFGraph,
    iterations: int = 10,
    source_period_ns: float | None = None,
    *,
    cycle_exit: bool = False,
) -> SimulationResult:
    """The self-timed run of a feed-forward ``graph`` with unbounded buffers.

    Equal in every field but the graph name to ``simulate(unbounded,
    iterations, source_period_ns=source_period_ns, cycle_exit=cycle_exit)``,
    where ``unbounded`` is ``graph`` with every capacity removed.  Raises
    :class:`ValueError` when ``graph`` is not feed-forward.
    """
    starts, finishes, fired, end, aborted, max_occupancy = _evaluate(
        graph, iterations, source_period_ns, cycle_exit, range(len(graph.edges))
    )
    for a, count in enumerate(fired):
        del starts[a][count:]
        del finishes[a][count:]
    names = graph.actor_names
    repetitions = repetition_vector(graph)
    return SimulationResult(
        graph_name=graph.name,
        iterations_requested=iterations,
        repetitions=repetitions,
        phase_counts={actor.name: len(actor.execution_times_ns.values) for actor in graph.actors},
        start_times_ns=dict(zip(names, starts)),
        finish_times_ns=dict(zip(names, finishes)),
        max_occupancy=max_occupancy,
        iteration_finish_times_ns=iteration_finish_times(
            finishes, [repetitions[name] for name in names], iterations
        ),
        end_time_ns=end,
        simulated_events=sum(fired),
        aborted=aborted,
    )


def _evaluate(
    graph: CSDFGraph,
    iterations: int,
    source_period_ns: float | None,
    cycle_exit: bool,
    measured: Iterable[int],
) -> tuple[list[list[float]], list[list[float]], list[int], float, bool, dict[str, int]]:
    """Evaluate the run's firings and the occupancy maxima of the edges at
    the indices ``measured``.  Returns the start and finish logs per actor
    (they may hold firings past the run's end), the firings per actor the
    run completed, its end instant, whether the cycle exit fired, and the
    maxima keyed by edge name."""
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    if source_period_ns is not None and source_period_ns <= 0:
        raise ValueError("source_period_ns must be positive")
    order = _feed_forward_order(graph)
    if not order:
        raise ValueError(f"graph {graph.name!r} is not feed-forward")
    repetitions = repetition_vector(graph)
    names = graph.actor_names
    actor_range = range(len(names))
    actor_index = {name: a for a, name in enumerate(names)}
    reps = [repetitions[name] for name in names]
    target = [r * iterations for r in reps]
    period = source_period_ns
    starts: list[list[float]] = [[] for _ in actor_range]
    finishes: list[list[float]] = [[] for _ in actor_range]

    # Per edge: (producer, consumer), its whole-token rates and their prefix
    # sums over one phase cycle.
    edges = graph.edges
    ends = [(actor_index[edge.source], actor_index[edge.target]) for edge in edges]
    supply = [tuple(map(int, edge.production_rates.values)) for edge in edges]
    drain = [tuple(map(int, edge.consumption_rates.values)) for edge in edges]
    supplied = [list(accumulate(rates, initial=0)) for rates in supply]
    drained = [list(accumulate(rates, initial=0)) for rates in drain]
    inputs: list[list[int]] = [[] for _ in actor_range]
    for e, (_, consumer) in enumerate(ends):
        inputs[consumer].append(e)
    periodic = [period is not None and not inputs[a] for a in actor_range]
    periodic_indices = [a for a in actor_range if periodic[a]]

    durations = [actor.execution_times_ns.values for actor in graph.actors]
    phase_counts = [len(values) for values in durations]
    outputs: list[list[int]] = [[] for _ in actor_range]
    for e, (producer, _) in enumerate(ends):
        outputs[producer].append(e)
    # Per unit-rate actor (one phase, one input that it drains one token per
    # firing, no period release: every router hop), that input.  A unit-rate
    # actor never queues when its producer has one phase (its rates have
    # one entry per phase), sends it one token per firing and takes at least
    # as long (see the module docstring).
    unit_input: list[int | None] = [None] * len(names)
    no_queue = [False] * len(names)
    for a in actor_range:
        if phase_counts[a] == 1 and len(inputs[a]) == 1 and not periodic[a]:
            e = inputs[a][0]
            if drain[e] == (1,):
                unit_input[a] = e
                no_queue[a] = supply[e] == (1,) and durations[ends[e][0]][0] >= durations[a][0]

    # Per edge, the finish of the producer firing that delivers each token,
    # in token order, after a 0.0 for "no token": a consumer firing that
    # brings the edge's consumption to n tokens waits for arrivals[e][n].
    arrivals: list[list[float]] = [[0.0] for _ in edges]

    def extend(need: list[int], horizon: float) -> None:
        """Evaluate each actor's firings up to ``need`` of them and, for a
        finite ``horizon``, on until one starts after it: producers first,
        so every firing that starts by ``horizon`` is known afterwards (a
        firing whose tokens have not all arrived yet starts after it)."""
        for a in order:
            started = starts[a]
            count = len(started)
            if count == target[a] or (count >= need[a] and started[-1] > horizon):
                continue
            # An actor whose next firing still waits for a token is blocked.
            for e in inputs[a]:
                if consumed_by(e, count + 1) >= len(arrivals[e]):
                    break
            else:
                todo = need[a] - count if horizon == -inf else target[a] - count
                advance(a, todo, need[a], horizon)

    def advance(a: int, todo: int, floor: int, horizon: float) -> None:
        """Evaluate up to ``todo`` more firings of actor ``a``, as far as
        their tokens have arrived, stopping once past ``floor`` firings one
        starts after ``horizon``."""
        started, finished = starts[a], finishes[a]
        first = len(started)
        last = finished[-1] if first else 0.0
        e = unit_input[a]
        if e is not None:
            # Firing ``k`` waits for token ``k + 1`` of its one input.
            arrived = arrivals[e]
            todo = min(todo, len(arrived) - 1 - first)
            duration = durations[a][0]
            if no_queue[a]:
                # Each start is its token's arrival, and the starts never
                # decrease: the horizon cut is a bisect.
                stop = first + todo
                if floor < stop:
                    cut = bisect_right(arrived, horizon, max(floor, first) + 1, stop + 1)
                    stop = min(cut, stop)
                waits = arrived[first + 1 : stop + 1]
                started.extend(waits)
                finished.extend(map(add, waits, repeat(duration)))
            else:
                start, finish = started.append, finished.append
                waits = islice(arrived, first + 1, first + 1 + todo)
                for wait in islice(waits, max(floor - first, 0)):
                    begin = wait if wait > last else last
                    start(begin)
                    last = begin + duration
                    finish(last)
                for wait in waits:
                    begin = wait if wait > last else last
                    start(begin)
                    last = begin + duration
                    finish(last)
                    if begin > horizon:
                        break
        else:
            # The firings whose tokens have all arrived.
            for e in inputs[a]:
                tokens = len(arrivals[e]) - 1
                cycles = tokens // drained[e][-1]
                ready = cycles * len(drain[e]) + bisect_right(
                    drained[e], tokens - cycles * drained[e][-1]
                )
                todo = min(todo, ready - 1 - first)
            if todo < _SPARSE:
                # Firing by firing: the wait is the latest of the source's
                # period release and, per input, the arrival of the last
                # token the firing needs.
                times, phases = durations[a], phase_counts[a]
                for k in range(first, first + todo):
                    begin = last
                    for e in inputs[a]:
                        wait = arrivals[e][consumed_by(e, k + 1)]
                        if wait > begin:
                            begin = wait
                    if periodic[a]:
                        wait = (k // reps[a]) * period
                        if wait > begin:
                            begin = wait
                    started.append(begin)
                    last = begin + times[k % phases]
                    finished.append(last)
                    if k >= floor and begin > horizon:
                        break
            else:
                # The same per firing, as one iterator per input.
                gates = []
                for e in inputs[a]:
                    rates = drain[e]
                    phase = first % len(rates)
                    needs = accumulate(
                        islice(cycle(rates), phase, phase + todo), initial=consumed_by(e, first)
                    )
                    next(needs)
                    gates.append(map(arrivals[e].__getitem__, needs))
                if periodic[a]:
                    releases = map(floordiv, range(first, first + todo), repeat(reps[a]))
                    gates.append(map(mul, releases, repeat(period)))
                if not gates:
                    gate = repeat(0.0)
                elif len(gates) == 1:
                    gate = gates[0]
                else:
                    gate = map(max, *gates)
                phase = first % phase_counts[a]
                start, finish = started.append, finished.append
                steps = zip(islice(cycle(durations[a]), phase, phase + todo), gate)
                for duration, wait in islice(steps, max(floor - first, 0)):
                    begin = wait if wait > last else last
                    start(begin)
                    last = begin + duration
                    finish(last)
                for duration, wait in steps:
                    begin = wait if wait > last else last
                    start(begin)
                    last = begin + duration
                    finish(last)
                    if begin > horizon:
                        break
        count = len(started)
        for e in outputs[a]:
            rates = supply[e]
            if rates == (1,):
                arrivals[e].extend(finished[first:])
                continue
            phase = first % len(rates)
            delivered = islice(cycle(rates), phase, phase + count - first)
            if max(rates) == 1:
                arrivals[e].extend(compress(finished[first:], delivered))
            else:
                arrivals[e].extend(chain.from_iterable(map(repeat, finished[first:], delivered)))

    def produced_by(e: int, firings: int) -> int:
        cycles, rest = divmod(firings, len(supply[e]))
        return cycles * supplied[e][-1] + supplied[e][rest]

    def consumed_by(e: int, firings: int) -> int:
        cycles, rest = divmod(firings, len(drain[e]))
        return cycles * drained[e][-1] + drained[e][rest]

    # Per firing asked about, what started it in the loop: ``None`` for the
    # start of the run, the firing ``(actor, index)`` whose pop did, or,
    # until the order settles it, a list of the firings that all finish at
    # the start instant (the last popped did) or ``_RELEASE`` for a source
    # whose release, not its previous finish, decided its start.
    causes: list[dict[int, object]] = [{} for _ in actor_range]

    def cause(a: int, j: int) -> object:
        known = causes[a]
        found = known.get(j, known)
        if found is not known:
            return found
        instant = starts[a][j]
        if j and finishes[a][j - 1] == instant:
            found = (a, j - 1)
        else:
            found = _RELEASE if periodic[a] else None
        for e in inputs[a]:
            rates = drain[e]
            if not rates[j % len(rates)]:
                continue
            cycles, rest = divmod(j + 1, len(rates))
            tokens = cycles * drained[e][-1] + drained[e][rest]
            if arrivals[e][tokens] == instant:
                # The producer firing that delivered that token.
                cycles, rest = divmod(tokens - 1, supplied[e][-1])
                pop = (ends[e][0], cycles * len(supply[e]) + bisect_right(supplied[e], rest) - 1)
                if found is None:
                    found = pop
                elif found.__class__ is tuple:
                    found = [found, pop]
                else:
                    found.append(pop)
        known[j] = found
        return found

    # Answers of tied comparisons, for every pair a walk passed through:
    # lockstep pipelines tie instant after instant, and the next question
    # usually walks into the previous one's pairs.
    decided: dict[tuple, bool] = {}
    first_pops: dict[float, tuple[int, int] | None] = {}

    def compare(x: tuple[int, int], y: tuple[int, int]) -> bool | tuple[int, int]:
        """Whether the loop starts firing ``x`` before firing ``y``, or a
        firing whose cause must be settled before that can be told.
        Finishes of one instant pop in the order of their starts."""
        walked = []
        while True:
            (a, j), (b, k) = x, y
            if a == b:
                answer = j < k
                break
            if starts[a][j] != starts[b][k]:
                answer = starts[a][j] < starts[b][k]
                break
            answer = decided.get((x, y))
            if answer is not None:
                break
            walked.append((x, y))
            # A start whose cause is the other's own previous firing, which
            # finished now and so is also a candidate of the other start,
            # is in an earlier or the same pass: the actor order decides.
            x = cause(a, j)
            if a < b and x == (b, k - 1) and finishes[b][k - 1] == starts[b][k]:
                answer = True
                break
            y = cause(b, k)
            if b < a and y == (a, j - 1) and finishes[a][j - 1] == starts[a][j]:
                answer = False
                break
            # An unsettled list that holds the other start's cause pops no
            # earlier than it, so the actor order can decide without it.
            if not (x is None or x.__class__ is tuple):
                if a > b and x.__class__ is list and y in x:
                    answer = False
                    break
                return (a, j)
            if not (y is None or y.__class__ is tuple):
                if a < b and y.__class__ is list and x in y:
                    answer = True
                    break
                return (b, k)
            if x == y:
                answer = a < b
                break
            if x is None or y is None:
                answer = x is None
                break
        for pair in walked:
            decided[pair] = answer
        return answer

    def settle(x: tuple[int, int]) -> tuple[int, int] | None:
        """Settle the cause of firing ``x``, or return a firing whose cause
        must be settled first."""
        a, j = x
        found = cause(a, j)
        if found is _RELEASE:
            # The first pop at the release instant of a firing that started
            # earlier, or none: then the release itself came first.
            instant = starts[a][j]
            if instant not in first_pops:
                first = None
                for b in actor_range:
                    logged = finishes[b]
                    i = bisect_left(logged, instant)
                    if i < len(logged) and logged[i] == instant and starts[b][i] < instant:
                        answer = True if first is None else compare((b, i), first)
                        if answer.__class__ is tuple:
                            return answer
                        if answer:
                            first = (b, i)
                first_pops[instant] = first
            causes[a][j] = first_pops[instant]
            return None
        if found.__class__ is list:
            latest = found[0]
            for candidate in found[1:]:
                answer = compare(latest, candidate)
                if answer.__class__ is tuple:
                    return answer
                if answer:
                    latest = candidate
            causes[a][j] = latest
        return None

    def settle_back(x: tuple[int, int]) -> None:
        """Settle the cause of firing ``x`` and, first, every cause it needs
        (an explicit stack: such chains are as long as a busy period)."""
        pending = [x]
        while pending:
            blocker = settle(pending[-1])
            if blocker is None:
                pending.pop()
            else:
                pending.append(blocker)

    def starts_before(x: tuple[int, int], y: tuple[int, int]) -> bool:
        """Whether the loop starts firing ``x`` before firing ``y``."""
        while True:
            answer = compare(x, y)
            if answer.__class__ is bool:
                return answer
            settle_back(answer)

    def pops_before(x: tuple[int, int], y: tuple[int, int]) -> bool:
        (a, j), (b, k) = x, y
        if finishes[a][j] != finishes[b][k]:
            return finishes[a][j] < finishes[b][k]
        return starts_before(x, y)

    # Iteration boundaries: the loop checks its state after the readiness
    # pass of the pop that completes each iteration but the last.
    end = None
    if cycle_exit:
        seen: set[tuple] = set()
        for b in range(iterations - 1):
            need = [(b + 1) * r for r in reps]
            extend(need, -inf)
            now = max([finishes[a][need[a] - 1] for a in actor_range])
            extend(need, now)
            boundary = None
            for a in actor_range:
                if finishes[a][need[a] - 1] == now and (
                    boundary is None or pops_before(boundary, (a, need[a] - 1))
                ):
                    boundary = (a, need[a] - 1)
            fired, started = [], []
            for a in actor_range:
                logged = finishes[a]
                f = bisect_left(logged, now)
                while f < len(logged) and logged[f] == now and (
                    (a, f) == boundary or pops_before((a, f), boundary)
                ):
                    f += 1
                fired.append(f)
                # A start at the boundary instant ran before the cut if the
                # pop that started it (the last of its candidates) did; a
                # release or the start of the run precedes every pop.
                logged = starts[a]
                s = bisect_left(logged, now)
                while s < len(logged) and logged[s] == now:
                    found = cause(a, s)
                    if found.__class__ is tuple:
                        found = [found]
                    elif found is None or found is _RELEASE:
                        found = ()
                    if not all(pop == boundary or pops_before(pop, boundary) for pop in found):
                        break
                    s += 1
                started.append(s)
            in_flight = sorted(
                [(a, fired[a]) for a in actor_range if started[a] > fired[a]],
                key=cmp_to_key(lambda x, y: -1 if pops_before(x, y) else 1),
            )
            state = (
                tuple([f % phases for f, phases in zip(fired, phase_counts)]),
                tuple([f - (b + 1) * r for f, r in zip(fired, reps)]),
                tuple(
                    [
                        produced_by(e, fired[producer]) - consumed_by(e, started[consumer])
                        for e, (producer, consumer) in enumerate(ends)
                    ]
                ),
                tuple(
                    [(finishes[a][f] - now, a, f % phase_counts[a]) for a, f in in_flight]
                ),
                tuple([(fired[a] // reps[a]) * period - now for a in periodic_indices]),
            )
            if state in seen:
                end = now
                break
            seen.add(state)
    aborted = end is not None
    if not aborted:
        extend(target, -inf)
        fired, started = target, target
        end = max((logged[-1] for logged in finishes if logged), default=0.0)

    # Occupancy maxima: at each producer start (that produces on the edge),
    # the producer's tokens so far plus this firing's, minus what the
    # consumer starts the loop ran before it took.  (A start that produces
    # nothing on the edge cannot top the start that last produced.)  A
    # consumer start at the producer start's own instant counts only if the
    # loop ran it first.  So each value lies between ``least`` (all such
    # ties counted) and ``most`` (none counted), and a tie is settled only
    # while its ``most`` tops the maximum known so far.
    max_occupancy = {}
    for e in measured:
        producer, consumer = ends[e]
        produced_rates, consumed_rates = supply[e], drain[e]
        firings, limit = started[producer], started[consumer]
        # Tokens produced through each producer firing and consumed before
        # each consumer firing (ranges for the common one-token rates).
        if produced_rates == (1,):
            totals = range(1, firings + 1)
        else:
            totals = list(accumulate(islice(cycle(produced_rates), firings)))
        if consumed_rates == (1,):
            taken = range(limit + 1)
        else:
            taken = list(accumulate(islice(cycle(consumed_rates), limit), initial=0))
        producing = range(firings)
        instants = starts[producer]
        if not all(produced_rates):
            producing = list(compress(producing, cycle(produced_rates)))
            instants = map(instants.__getitem__, producing)
            totals = map(totals.__getitem__, producing)
        # Past the consumer's last start an endless sentinel stops the walk.
        consumer_starts = starts[consumer][:limit]
        consumer_starts.append(inf)
        highest = j = 0
        ties = []
        for k, instant, total in zip(producing, instants, totals):
            while consumer_starts[j] < instant:
                j += 1
            most = total - taken[j]
            if most > highest:
                tied = j
                while consumer_starts[tied] == instant:
                    tied += 1
                least = total - taken[tied]
                if least < most:
                    ties.append((-most, k, j, tied, total))
                if least > highest:
                    highest = least
        # Largest bound first (ties hold it negated); among equal bounds the
        # earliest, whose order is settled by the shortest walk back through
        # a busy period.
        ties.sort()
        for bound, k, first, tied, total in ties:
            if -bound <= highest:
                break
            instant = starts[producer][k]
            while first < tied:
                # Most often the consumer start was caused by the producer's
                # previous firing, which also frees the producer: the actor
                # order decides (see ``compare``).
                if not (
                    consumer < producer
                    and cause(consumer, first) == (producer, k - 1)
                    and finishes[producer][k - 1] == instant
                ) and not starts_before((consumer, first), (producer, k)):
                    break
                first += 1
            highest = max(highest, total - taken[first])
        max_occupancy[edges[e].name] = highest
    return starts, finishes, fired, end, aborted, max_occupancy


def _unbounded_feed_forward(graph: CSDFGraph) -> bool:
    """Whether ``graph`` is feed-forward with no capacity set."""
    return all(edge.capacity is None for edge in graph.edges) and is_feed_forward(graph)


def _self_timed_run(
    graph: CSDFGraph,
    iterations: int,
    source_period_ns: float | None = None,
    *,
    cycle_exit: bool = False,
) -> SimulationResult:
    """The self-timed run of ``graph``, as every analysis runs it.

    A feed-forward graph with no capacity set runs on
    :func:`feed_forward_run`, every other graph on the event loop
    (:func:`~repro.csdf.analysis.simulation.simulate`).  Both give the same
    result, so the choice moves no figure and no charged firing count.
    The event loop takes the cycle exit only when :func:`_exact_times`
    holds: with rounded times a repeated state need not repeat again.
    """
    if _unbounded_feed_forward(graph):
        return feed_forward_run(graph, iterations, source_period_ns, cycle_exit=cycle_exit)
    return _event_loop_run(graph, iterations, source_period_ns, cycle_exit)


def _self_timed_occupancy(
    graph: CSDFGraph,
    iterations: int,
    source_period_ns: float | None,
    edges: Iterable[int],
    *,
    cycle_exit: bool = False,
) -> tuple[dict[str, int] | None, int]:
    """The occupancy maxima of ``edges`` (edge indices) in
    :func:`_self_timed_run`'s run, keyed by edge name, and its firing
    count; the maxima are ``None`` when the run deadlocks before it
    completes an iteration.  A feed-forward graph with no capacity set
    builds no :class:`~repro.csdf.analysis.simulation.SimulationResult`."""
    if _unbounded_feed_forward(graph):
        _, _, fired, _, _, occupancy = _evaluate(
            graph, iterations, source_period_ns, cycle_exit, edges
        )
        return occupancy, sum(fired)
    result = _event_loop_run(graph, iterations, source_period_ns, cycle_exit)
    if result.deadlocked and result.completed_iterations == 0:
        return None, result.simulated_events
    names = [edge.name for edge in graph.edges]
    occupancy = {names[e]: result.max_occupancy[names[e]] for e in edges}
    return occupancy, result.simulated_events


def _event_loop_run(
    graph: CSDFGraph, iterations: int, source_period_ns: float | None, cycle_exit: bool
) -> SimulationResult:
    """The event loop's run, with the cycle exit only where
    :func:`_exact_times` holds."""
    cycle_exit = cycle_exit and _exact_times(graph, iterations, source_period_ns)
    return simulate(graph, iterations, source_period_ns=source_period_ns, cycle_exit=cycle_exit)


def _exact_times(graph: CSDFGraph, iterations: int, source_period_ns: float | None) -> bool:
    """Whether every time of the event loop's run is an exact float.

    Each time is a release ``k * period`` or a start plus a phase duration,
    so each is a multiple of the grain, the largest power of two dividing
    every duration and the period, and none exceeds ``iterations * period``
    plus the durations of all firings.  Below ``2**53`` grains such a
    multiple is a float, so no addition rounds and the run is
    shift-invariant.
    """
    values = [source_period_ns or 0.0]
    values += [d for actor in graph.actors for d in actor.execution_times_ns.values]
    if not all(map(isfinite, values)):
        return False
    exact = [Fraction(value) for value in values]
    repetitions = repetition_vector(graph)
    horizon = iterations * exact[0] + iterations * sum(
        repetitions[actor.name] * Fraction(max(actor.execution_times_ns.values))
        for actor in graph.actors
    )
    exponents = [
        (f.numerator & -f.numerator).bit_length() - f.denominator.bit_length()
        for f in exact
        if f
    ]
    return not exponents or horizon < Fraction(2) ** (53 + min(exponents))
