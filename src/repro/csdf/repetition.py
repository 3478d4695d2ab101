"""Repetition vectors and rate consistency of CSDF graphs.

A CSDF graph is *consistent* when there is a repetition vector ``r`` such
that, when every actor ``a`` fires ``r[a]`` times (i.e. completes
``r[a] / phases(a)`` full phase cycles), the number of tokens on every edge
returns to its initial value.  Consistency is a prerequisite for a graph to
execute indefinitely with bounded memory; the spatial mapper refuses to
analyse inconsistent graphs (they indicate a modelling error).

Following the standard CSDF treatment we solve the balance equations on
whole phase cycles: if ``q[a]`` is the number of *phase cycles* actor ``a``
completes per graph iteration, then for every edge ``e`` from ``a`` to ``b``::

    q[a] * total_production(e) == q[b] * total_consumption(e)

The per-firing repetition vector is then ``r[a] = q[a] * phases(a)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from repro.csdf.graph import CSDFGraph
from repro.exceptions import InconsistentGraphError


def cycle_vector(graph: CSDFGraph) -> dict[str, int]:
    """Return the number of full phase cycles each actor completes per iteration.

    The balance equations are solved with exact integer ``(numerator,
    denominator)`` ratios over one pass of the edges.

    Raises
    ------
    InconsistentGraphError
        If the balance equations have no solution (rate-inconsistent graph).
    """
    if len(graph) == 0:
        raise InconsistentGraphError(f"graph {graph.name!r} has no actors")

    # Per actor, its output edges and then its input edges, each in graph
    # order, as (edge, other end, tokens moved per cycle at this end, at the
    # other end), the counts as exact integer ratios: crossing the edge
    # multiplies the cycle ratio by the first count over the second.
    outgoing: dict[str, list[tuple]] = {name: [] for name in graph.actor_names}
    incoming: dict[str, list[tuple]] = {name: [] for name in graph.actor_names}
    for edge in graph.edges:
        produced = edge.total_production.as_integer_ratio()
        consumed = edge.total_consumption.as_integer_ratio()
        outgoing[edge.source].append((edge, edge.target, produced, consumed))
        incoming[edge.target].append((edge, edge.source, consumed, produced))

    ratios: dict[str, tuple[int, int] | None] = dict.fromkeys(graph.actor_names)
    # Process connected components seeded from each unvisited actor.
    for seed in graph.actor_names:
        if ratios[seed] is not None:
            continue
        ratios[seed] = (1, 1)
        stack = [seed]
        while stack:
            current = stack.pop()
            numerator, denominator = ratios[current]
            for edge, other, (here_n, here_d), (there_n, there_d) in (
                outgoing[current] + incoming[current]
            ):
                if here_n == 0 and there_n == 0:
                    continue
                if here_n == 0 or there_n == 0:
                    raise InconsistentGraphError(
                        f"edge {edge.name!r} produces or consumes zero tokens per cycle; "
                        "the graph cannot be rate-consistent"
                    )
                implied_n = numerator * here_n * there_d
                implied_d = denominator * here_d * there_n
                divisor = gcd(implied_n, implied_d)
                implied = (implied_n // divisor, implied_d // divisor)
                existing = ratios[other]
                if existing is None:
                    ratios[other] = implied
                    stack.append(other)
                elif existing != implied:
                    raise InconsistentGraphError(
                        f"rate inconsistency detected at edge {edge.name!r}: actor {other!r} "
                        f"would need cycle ratios {Fraction(*existing)} and {Fraction(*implied)}"
                    )

    # Scale to the smallest integer solution.
    scale = lcm(*(d for _, d in ratios.values()))
    scaled = {name: n * (scale // d) for name, (n, d) in ratios.items()}
    divisor = gcd(*scaled.values())
    return {name: value // divisor for name, value in scaled.items()}


def repetition_vector(graph: CSDFGraph) -> dict[str, int]:
    """Return the per-firing repetition vector of a consistent CSDF graph.

    Entry ``r[a]`` is the number of firings (phase executions) of actor ``a``
    per graph iteration.  The vector is computed once per graph structure
    and cached on the graph; every call returns a fresh dict.
    """
    cached = graph._repetitions
    if cached is None:
        cycles = cycle_vector(graph)
        cached = {name: cycles[name] * graph.actor(name).phases for name in cycles}
        graph._repetitions = cached
    return dict(cached)


def is_consistent(graph: CSDFGraph) -> bool:
    """Whether the graph has a valid repetition vector."""
    try:
        cycle_vector(graph)
    except InconsistentGraphError:
        return False
    return True
