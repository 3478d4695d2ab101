"""Traces of the mapping process, used for reporting and for Table 2."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Step2Iteration:
    """One evaluated reassignment in step 2 of the algorithm.

    Mirrors a row of Table 2 of the paper: the candidate assignment that was
    evaluated, the resulting cost and whether it was kept or reverted.  Only
    the candidate's moves are stored, as ``(process, from tile, to tile)``:
    one for a move, two for a swap.  The description and the full
    assignment are derived when read, the latter by replaying the moves of
    the accepted iterations before this one on the initial assignment.
    """

    iteration: int
    moves: tuple[tuple[str, str, str], ...]
    cost: float
    accepted: bool
    #: The last accepted iteration before this one (``None`` before the
    #: first) and the trace's initial assignment, which :attr:`assignment`
    #: replays; shared, not copied.
    previous_accepted: "Step2Iteration | None" = field(
        default=None, repr=False, compare=False
    )
    initial_assignment: dict[str, str] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def description(self) -> str:
        """The candidate in words, as in Table 2."""
        if len(self.moves) == 1:
            ((process, source, target),) = self.moves
            return f"move {process} from {source} to {target}"
        (process_a, tile_a, _), (process_b, tile_b, _) = self.moves
        return f"swap {process_a} ({tile_a}) with {process_b} ({tile_b})"

    @property
    def remark(self) -> str:
        """Table 2's remark: whether the candidate was kept."""
        return "Improvement, keep" if self.accepted else "No improvement, revert"

    @property
    def assignment(self) -> dict[str, str]:
        """Process-to-tile assignment of the evaluated candidate."""
        chain = []
        node: Step2Iteration | None = self
        while node is not None:
            chain.append(node.moves)
            node = node.previous_accepted
        assignment = dict(self.initial_assignment)
        for moves in reversed(chain):
            for process, _, tile in moves:
                assignment[process] = tile
        return assignment

    def as_row(self) -> tuple:
        """Row form used by the reporting tables."""
        return (self.iteration, self.description, f"{self.cost:g}", self.remark)


@dataclass
class Step2Trace:
    """Full trace of step 2: the initial assignment plus every iteration."""

    initial_assignment: dict[str, str] = field(default_factory=dict)
    initial_cost: float = 0.0
    iterations: list[Step2Iteration] = field(default_factory=list)

    @property
    def final_cost(self) -> float:
        """Cost after the last accepted iteration."""
        cost = self.initial_cost
        for iteration in self.iterations:
            if iteration.accepted:
                cost = iteration.cost
        return cost

    @property
    def accepted_iterations(self) -> list[Step2Iteration]:
        """Only the iterations that improved (and were kept)."""
        return [i for i in self.iterations if i.accepted]

    def improving_prefix(self) -> list[Step2Iteration]:
        """Iterations up to and including the last accepted improvement.

        Table 2 of the paper lists the evaluated iterations up to the last
        improvement and then notes "No further choices"; this helper returns
        exactly that prefix.
        """
        last_accept = 0
        for index, iteration in enumerate(self.iterations, start=1):
            if iteration.accepted:
                last_accept = index
        return self.iterations[:last_accept]

    def cost_trajectory(self) -> list[float]:
        """Initial cost followed by the cost after each evaluated iteration."""
        trajectory = [self.initial_cost]
        current = self.initial_cost
        for iteration in self.iterations:
            if iteration.accepted:
                current = iteration.cost
            trajectory.append(current)
        return trajectory


@dataclass
class MapperTrace:
    """Trace of one complete mapper run (all refinement iterations).

    The ``simulations_run`` / ``simulated_events`` / ``analysis_cache_hits``
    counters are the step-4 analysis work this run caused, measured as the delta of the shared
    :class:`~repro.csdf.analysis.budget.AnalysisEngine` counters around the
    run (cache hits are answered without simulating, so a warm cache shows up
    as hits instead of events).
    """

    step2_traces: list[Step2Trace] = field(default_factory=list)
    feedback_log: list[str] = field(default_factory=list)
    refinement_iterations: int = 0
    simulations_run: int = 0
    simulated_events: int = 0
    analysis_cache_hits: int = 0
    #: Step-4 checks of this run whose stream-buffer floor already
    #: overflowed, so no buffer sizing ran (rescue candidates excluded).
    step4_floor_rejections: int = 0
    #: ``True`` when the owning :meth:`~repro.spatialmapper.mapper.SpatialMapper.map`
    #: call was answered from the :class:`~repro.spatialmapper.cache.MapperCache`:
    #: the trace is then a deliberately *empty* marker (no steps ran), never
    #: a stale leftover of the last computed call.
    cache_hit: bool = False
    #: Rescue-lane counters (:mod:`repro.spatialmapper.rescue`): seeded
    #: searchers actually run, full placements proposed, feasible placements
    #: found, whether the best one replaced the refinement loop's result and
    #: whether the lane's event budget ran out (anytime cut-off).  Of the
    #: candidates, ``rescue_energy_cut`` were never reached (past the stop
    #: at the energy bound, or left when the budget ran out) and
    #: ``rescue_floor_cut`` fell to the stream-buffer floor before routing.
    rescue_searchers_run: int = 0
    rescue_candidates: int = 0
    rescue_energy_cut: int = 0
    rescue_floor_cut: int = 0
    rescue_feasible: int = 0
    rescue_adopted: bool = False
    rescue_budget_exhausted: bool = False
    #: ``(step name, start_ns, end_ns)`` per executed mapper step, in
    #: execution order across all refinement iterations —
    #: ``perf_counter_ns`` stamps the observability layer turns into
    #: ``mapper.step1`` .. ``mapper.step4`` spans.  The paper's algorithm
    #: is explicitly staged, so these windows map 1:1 onto it.
    step_windows: list[tuple[str, int, int]] = field(default_factory=list)

    @property
    def last_step2_trace(self) -> Step2Trace | None:
        """The step-2 trace of the final refinement iteration, if any."""
        return self.step2_traces[-1] if self.step2_traces else None

    def record_feedback(self, message: str) -> None:
        """Append a feedback message to the log."""
        self.feedback_log.append(message)
