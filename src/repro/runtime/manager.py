"""The run-time resource manager: admission control around the spatial mapper."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.appmodel.library import ImplementationLibrary
from repro.exceptions import AdmissionRejected, PlatformError, UnknownApplication
from repro.kpn.als import ApplicationLevelSpec
from repro.mapping.result import MappingResult
from repro.platform.platform import Platform
from repro.platform.regions import RegionPartition
from repro.runtime.pipeline import AdmissionDecision, AdmissionPipeline
from repro.spatialmapper.config import MapperConfig

#: A batch-admission request: an application, optionally with its own library.
StartRequest = ApplicationLevelSpec | tuple[ApplicationLevelSpec, ImplementationLibrary | None]


@dataclass
class RunningApplication:
    """Bookkeeping entry for an admitted application."""

    als: ApplicationLevelSpec
    result: MappingResult
    start_time_ns: float = 0.0

    @property
    def name(self) -> str:
        """Application name."""
        return self.als.name

    @property
    def energy_nj_per_iteration(self) -> float:
        """Energy per iteration of the admitted mapping."""
        return self.result.energy_nj_per_iteration

    def power_mw(self) -> float:
        """Average power of the application (energy per iteration / period)."""
        return self.energy_nj_per_iteration / self.als.period_ns * 1e3


@dataclass
class BatchAdmissionOutcome:
    """Everything :meth:`RuntimeResourceManager.start_many` decided."""

    decisions: list[AdmissionDecision] = field(default_factory=list)

    @property
    def admitted(self) -> list[AdmissionDecision]:
        """Decisions of the applications that were admitted."""
        return [d for d in self.decisions if d.admitted]

    @property
    def rejected(self) -> list[AdmissionDecision]:
        """Decisions of the applications that were rejected."""
        return [d for d in self.decisions if not d.admitted]

    @property
    def admission_rate(self) -> float:
        """Fraction of requests that were admitted."""
        return len(self.admitted) / len(self.decisions) if self.decisions else 0.0


class RuntimeResourceManager:
    """Starts and stops streaming applications on one platform.

    The manager is a thin façade over the staged
    :class:`~repro.runtime.pipeline.AdmissionPipeline`: every start request
    flows through fingerprint/cache lookup, region selection, region-scoped
    spatial mapping and a transactional commit; a stop releases the
    application's allocations inside a transaction.  The manager itself only
    keeps the application-level bookkeeping (what is running, the decision
    audit trail) and the public API.

    Parameters
    ----------
    platform:
        The managed platform.
    library:
        Implementation library covering every application that may be
        started.  Per-application libraries can be supplied at start time.
    require_feasible:
        When ``True`` (default) only feasible mappings are admitted; when
        ``False`` adherent mappings are accepted as well (useful for
        experiments with mappers that skip the QoS analysis).
    partition:
        Optional :class:`~repro.platform.regions.RegionPartition`.  With it,
        admissions map into the application's home region (the one holding
        its pinned tiles; unpinned applications take the least-filled
        qualifying region) and commit under a region-scoped transaction.
    mapper_cache_size:
        Capacity of the fingerprint-keyed mapper result cache (0 disables).
    region_fallback:
        Whether admission retries globally when no single region fits.
    cross_region_planner:
        Attach an :class:`~repro.interregion.planner.InterRegionPlanner`
        (requires ``partition``): requests whose pinned tiles span regions
        are planned over budgeted boundary corridors before the global
        fallback, and the engine's multi-region lane admits them within
        the planner's region scope instead of the serialized global lane.
    corridor_budget_fraction:
        Fraction of boundary-link capacity corridors may reserve.
    """

    def __init__(
        self,
        platform: Platform,
        library: ImplementationLibrary | None = None,
        config: MapperConfig | None = None,
        *,
        mapper_factory=None,
        require_feasible: bool = True,
        partition: RegionPartition | None = None,
        mapper_cache_size: int = 128,
        region_fallback: bool = True,
        cross_region_planner: bool = False,
        corridor_budget_fraction: float = 0.5,
    ) -> None:
        self.platform = platform
        self.library = library or ImplementationLibrary()
        self.config = config or MapperConfig()
        self.require_feasible = require_feasible
        self.pipeline = AdmissionPipeline(
            platform,
            self.library,
            self.config,
            partition=partition,
            mapper_factory=mapper_factory,
            require_feasible=require_feasible,
            cache_size=mapper_cache_size,
            region_fallback=region_fallback,
        )
        if cross_region_planner:
            if partition is None:
                raise PlatformError(
                    "cross_region_planner requires a region partition"
                )
            # Imported here: repro.interregion builds on the runtime pipeline.
            from repro.interregion.planner import InterRegionPlanner

            self.pipeline.interregion = InterRegionPlanner(
                self.pipeline, budget_fraction=corridor_budget_fraction
            )
        self.state = self.pipeline.state
        self._running: dict[str, RunningApplication] = {}
        #: History of admission decisions: (application, admitted, reason).
        self.decisions: list[tuple[str, bool, str]] = []

    # ------------------------------------------------------------------ #
    @property
    def partition(self) -> RegionPartition | None:
        """The region partition admissions are sharded over, if any."""
        return self.pipeline.partition

    @property
    def running_applications(self) -> tuple[RunningApplication, ...]:
        """All currently running applications."""
        return tuple(self._running.values())

    def is_running(self, application: str) -> bool:
        """Whether an application with the given name is currently running."""
        return application in self._running

    def _mapper_for(self, library: ImplementationLibrary | None):
        """The (cached) mapper instance for the given library."""
        return self.pipeline.mapper_for(library)

    # ------------------------------------------------------------------ #
    def admit(
        self,
        als: ApplicationLevelSpec,
        *,
        library: ImplementationLibrary | None = None,
        time_ns: float = 0.0,
        interregion: bool = True,
        trace=None,
    ) -> AdmissionDecision:
        """Run one request through the pipeline; never raises on rejection.

        The decision is recorded in :attr:`decisions` and, when admitted,
        the application joins :attr:`running_applications`.  This is the
        building block :meth:`start`, :meth:`start_many` and the
        :class:`~repro.runtime.queue.AdmissionQueue` all share.
        ``interregion=False`` skips the inter-region planner stage (the
        engine passes it for requests the multi-region lane already
        rejected — the planner is deterministic, so retrying it within one
        drain could only repeat the same answer).  ``trace`` forwards a
        request's trace context to the pipeline's span instrumentation.
        """
        decision = self._admit(
            als, library=library, time_ns=time_ns, interregion=interregion, trace=trace
        )
        self.decisions.append((decision.application, decision.admitted, decision.reason))
        return decision

    def adopt_decision(
        self,
        als: ApplicationLevelSpec,
        decision: AdmissionDecision,
        *,
        time_ns: float = 0.0,
    ) -> AdmissionDecision:
        """Record a decision whose pipeline work already happened elsewhere.

        The workload engine's region workers run
        :meth:`AdmissionPipeline.decide` (mapping *and* commit) off the main
        thread; the manager-level bookkeeping — the audit trail and the
        running-application registry — is then adopted here, on the engine's
        thread, in deterministic order.  The caller guarantees the
        application was not already running when the worker mapped it.
        """
        self.decisions.append((decision.application, decision.admitted, decision.reason))
        if decision.admitted:
            assert decision.result is not None
            self._running[als.name] = RunningApplication(
                als=als, result=decision.result, start_time_ns=time_ns
            )
        return decision

    def start(
        self,
        als: ApplicationLevelSpec,
        *,
        library: ImplementationLibrary | None = None,
        time_ns: float = 0.0,
    ) -> MappingResult:
        """Map and admit an application; raises :class:`AdmissionRejected` on rejection."""
        decision = self.admit(als, library=library, time_ns=time_ns)
        if not decision.admitted:
            raise AdmissionRejected(
                f"application {als.name!r} rejected: {decision.reason}"
            )
        assert decision.result is not None
        return decision.result

    def try_start(
        self,
        als: ApplicationLevelSpec,
        *,
        library: ImplementationLibrary | None = None,
        time_ns: float = 0.0,
    ) -> MappingResult | None:
        """Like :meth:`start` but returns ``None`` instead of raising on rejection."""
        decision = self.admit(als, library=library, time_ns=time_ns)
        return decision.result if decision.admitted else None

    def start_many(
        self,
        requests: Iterable[StartRequest] | Sequence[StartRequest],
        *,
        time_ns: float = 0.0,
    ) -> BatchAdmissionOutcome:
        """Admit a workload of applications in one call.

        Each request is an :class:`~repro.kpn.als.ApplicationLevelSpec` or an
        ``(als, library)`` pair.  Requests are mapped in order against the
        evolving platform state and each receives its own accept/reject
        decision; a rejection does not abort the batch.
        """
        outcome = BatchAdmissionOutcome()
        for request in requests:
            als, library = request if isinstance(request, tuple) else (request, None)
            # Record immediately, so the audit trail survives a request
            # that raises later in the batch.
            outcome.decisions.append(self.admit(als, library=library, time_ns=time_ns))
        return outcome

    def stop(self, application: str) -> None:
        """Stop a running application and release all of its allocations.

        The release runs inside a state transaction (teardown is as atomic
        as commit: an exception mid-release cannot leave the application
        half-deallocated).  Raises :class:`UnknownApplication` when no such
        application is running.
        """
        if application not in self._running:
            raise UnknownApplication(f"application {application!r} is not running")
        self.pipeline.release(application)
        del self._running[application]

    # ------------------------------------------------------------------ #
    def total_power_mw(self) -> float:
        """Aggregate average power of all running applications."""
        return sum(app.power_mw() for app in self._running.values())

    def _admit(
        self,
        als: ApplicationLevelSpec,
        *,
        library: ImplementationLibrary | None,
        time_ns: float,
        interregion: bool = True,
        trace=None,
    ) -> AdmissionDecision:
        """Run one application through the pipeline and track it when admitted."""
        if als.name in self._running:
            return AdmissionDecision(als.name, False, "application is already running")
        if interregion:
            decision = self.pipeline.decide(als, library=library, trace=trace)
        else:
            decision = self.pipeline.decide(
                als, library=library, use_interregion=False, trace=trace
            )
        if decision.admitted:
            assert decision.result is not None
            self._running[als.name] = RunningApplication(
                als=als, result=decision.result, start_time_ns=time_ns
            )
        return decision
