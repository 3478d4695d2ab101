"""The CSDF graph container."""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.csdf.actor import CSDFActor
from repro.csdf.edge import CSDFEdge
from repro.csdf.phase import PhaseVector
from repro.exceptions import CSDFError


class CSDFGraph:
    """A cyclo-static dataflow graph: actors connected by token channels.

    The container enforces referential integrity and that edge rate vectors
    are compatible with the phase counts of their endpoint actors: the
    production-rate vector of an edge must have either one phase (constant
    rate) or exactly as many phases as the source actor, and likewise for the
    consumption rates and the target actor.
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise CSDFError("CSDF graph name must be a non-empty string")
        self.name = name
        self._actors: dict[str, CSDFActor] = {}
        self._edges: dict[str, CSDFEdge] = {}
        self._fingerprint: tuple | None = None
        # Repetition-vector cache of :func:`repro.csdf.repetition.repetition_vector`
        # and feed-forward actor order of :mod:`repro.csdf.analysis.feedforward`:
        # structural like the fingerprint, so cleared and kept with it.
        self._repetitions: dict[str, int] | None = None
        self._feed_forward: tuple[int, ...] | bool | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_actor(self, actor: CSDFActor) -> CSDFActor:
        """Add an actor; names must be unique."""
        if actor.name in self._actors:
            raise CSDFError(f"duplicate actor name {actor.name!r} in graph {self.name!r}")
        self._actors[actor.name] = actor
        self._fingerprint = None
        self._repetitions = None
        self._feed_forward = None
        return actor

    def add_edge(self, edge: CSDFEdge) -> CSDFEdge:
        """Add an edge; endpoints must exist and rate vectors must be compatible.

        A rate vector with a single phase attached to a multi-phase actor is a
        shorthand for "the same rate in every phase"; it is expanded here so
        that per-cycle totals (used by the repetition vector) and per-phase
        rates (used by the simulator) always agree.
        """
        if edge.name in self._edges:
            raise CSDFError(f"duplicate edge name {edge.name!r} in graph {self.name!r}")
        for endpoint in (edge.source, edge.target):
            if endpoint not in self._actors:
                raise CSDFError(
                    f"edge {edge.name!r} references unknown actor {endpoint!r}"
                )
        source = self._actors[edge.source]
        target = self._actors[edge.target]
        if len(edge.production_rates) not in (1, source.phases):
            raise CSDFError(
                f"edge {edge.name!r}: production rates have {len(edge.production_rates)} "
                f"phases but source actor {source.name!r} has {source.phases}"
            )
        if len(edge.consumption_rates) not in (1, target.phases):
            raise CSDFError(
                f"edge {edge.name!r}: consumption rates have {len(edge.consumption_rates)} "
                f"phases but target actor {target.name!r} has {target.phases}"
            )
        edge = self._expand_constant_rates(edge, source.phases, target.phases)
        self._edges[edge.name] = edge
        self._fingerprint = None
        self._repetitions = None
        self._feed_forward = None
        return edge

    @staticmethod
    def _expand_constant_rates(
        edge: CSDFEdge, source_phases: int, target_phases: int
    ) -> CSDFEdge:
        """Expand single-phase rate shorthands to the endpoint actors' phase counts."""
        production = edge.production_rates
        consumption = edge.consumption_rates
        if len(production) == 1 and source_phases > 1:
            production = PhaseVector.constant(production[0], source_phases)
        if len(consumption) == 1 and target_phases > 1:
            consumption = PhaseVector.constant(consumption[0], target_phases)
        if production is edge.production_rates and consumption is edge.consumption_rates:
            return edge
        return CSDFEdge(
            name=edge.name,
            source=edge.source,
            target=edge.target,
            production_rates=production,
            consumption_rates=consumption,
            initial_tokens=edge.initial_tokens,
            capacity=edge.capacity,
            metadata=dict(edge.metadata),
        )

    def add_actors(self, actors: Iterable[CSDFActor]) -> None:
        """Add several actors at once."""
        for actor in actors:
            self.add_actor(actor)

    def add_edges(self, edges: Iterable[CSDFEdge]) -> None:
        """Add several edges at once."""
        for edge in edges:
            self.add_edge(edge)

    def replace_edge(self, edge: CSDFEdge) -> CSDFEdge:
        """Replace an existing edge (same name) — used to set buffer capacities."""
        if edge.name not in self._edges:
            raise CSDFError(f"cannot replace unknown edge {edge.name!r}")
        existing = self._edges[edge.name]
        if (existing.source, existing.target) != (edge.source, edge.target):
            raise CSDFError(
                f"replacement for edge {edge.name!r} must keep the same endpoints"
            )
        edge = self._expand_constant_rates(
            edge, self._actors[edge.source].phases, self._actors[edge.target].phases
        )
        # Capacity is deliberately outside the structural fingerprint (it is a
        # separate cache-key component), so a capacity-only replacement — the
        # buffer minimizer's per-probe swap — keeps the cached digest and
        # repetition vector valid.
        if not (
            existing.production_rates == edge.production_rates
            and existing.consumption_rates == edge.consumption_rates
            and existing.initial_tokens == edge.initial_tokens
        ):
            self._fingerprint = None
            self._repetitions = None
            self._feed_forward = None
        self._edges[edge.name] = edge
        return edge

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    @property
    def actors(self) -> tuple[CSDFActor, ...]:
        """All actors in insertion order."""
        return tuple(self._actors.values())

    @property
    def edges(self) -> tuple[CSDFEdge, ...]:
        """All edges in insertion order."""
        return tuple(self._edges.values())

    @property
    def actor_names(self) -> tuple[str, ...]:
        """Actor names in insertion order."""
        return tuple(self._actors.keys())

    def actor(self, name: str) -> CSDFActor:
        """Return the actor called ``name``."""
        try:
            return self._actors[name]
        except KeyError:
            raise CSDFError(f"unknown actor {name!r} in graph {self.name!r}") from None

    def edge(self, name: str) -> CSDFEdge:
        """Return the edge called ``name``."""
        try:
            return self._edges[name]
        except KeyError:
            raise CSDFError(f"unknown edge {name!r} in graph {self.name!r}") from None

    def has_actor(self, name: str) -> bool:
        """Whether an actor with the given name exists."""
        return name in self._actors

    def __contains__(self, name: str) -> bool:
        return self.has_actor(name)

    def __iter__(self) -> Iterator[CSDFActor]:
        return iter(self._actors.values())

    def __len__(self) -> int:
        return len(self._actors)

    def input_edges(self, actor_name: str) -> tuple[CSDFEdge, ...]:
        """Edges whose target is the given actor."""
        self.actor(actor_name)
        return tuple(e for e in self._edges.values() if e.target == actor_name)

    def output_edges(self, actor_name: str) -> tuple[CSDFEdge, ...]:
        """Edges whose source is the given actor."""
        self.actor(actor_name)
        return tuple(e for e in self._edges.values() if e.source == actor_name)

    def actors_with_role(self, role: str) -> tuple[CSDFActor, ...]:
        """All actors carrying the given role tag."""
        return tuple(a for a in self._actors.values() if a.role == role)

    def sources(self) -> tuple[CSDFActor, ...]:
        """Actors with no input edges."""
        return tuple(a for a in self._actors.values() if not self.input_edges(a.name))

    def sinks(self) -> tuple[CSDFActor, ...]:
        """Actors with no output edges."""
        return tuple(a for a in self._actors.values() if not self.output_edges(a.name))

    def structural_fingerprint(self) -> tuple:
        """A name-free digest of the graph's analysis-relevant structure.

        Two graphs with equal fingerprints behave identically under every
        dataflow analysis in :mod:`repro.csdf.analysis`: the fingerprint
        covers, in insertion order, each actor's phase execution times and
        role and each edge's endpoint *indices*, per-phase rates and initial
        tokens.  Graph and actor/edge *names* are excluded — a mapped graph
        rebuilt for a renamed application digests identically — and so are
        buffer capacities, which vary per probe and form a separate cache-key
        component (:meth:`capacity_vector`).

        The digest is cached on the instance and invalidated by structural
        mutations; a capacity-only :meth:`replace_edge` keeps it.
        """
        if self._fingerprint is None:
            index_of = {name: i for i, name in enumerate(self._actors)}
            actors = tuple(
                (actor.execution_times_ns.values, actor.role)
                for actor in self._actors.values()
            )
            edges = tuple(
                (
                    index_of[edge.source],
                    index_of[edge.target],
                    edge.production_rates.values,
                    edge.consumption_rates.values,
                    edge.initial_tokens,
                )
                for edge in self._edges.values()
            )
            self._fingerprint = (actors, edges)
        return self._fingerprint

    def capacity_vector(self) -> tuple[int | None, ...]:
        """Per-edge buffer capacities in insertion order (``None`` = unbounded)."""
        return tuple(edge.capacity for edge in self._edges.values())

    def copy(self, name: str | None = None) -> "CSDFGraph":
        """A shallow structural copy (actors and edges are immutable and shared)."""
        clone = CSDFGraph(name or self.name)
        clone.add_actors(self.actors)
        for edge in self.edges:
            clone.add_edge(edge)
        clone._fingerprint = self._fingerprint
        clone._repetitions = self._repetitions
        clone._feed_forward = self._feed_forward
        return clone

    def __getstate__(self) -> dict:
        # The analysis caches stay out of pickles, so a pickled graph's
        # bytes do not depend on whether it was analysed.
        state = self.__dict__.copy()
        del state["_repetitions"]
        del state["_feed_forward"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._repetitions = None
        self._feed_forward = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CSDFGraph(name={self.name!r}, actors={len(self._actors)}, "
            f"edges={len(self._edges)})"
        )
