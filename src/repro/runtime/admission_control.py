"""Online load shedding for the workload engine's drain loop.

The engine measures admission rate versus offered load; this module uses
that measurement *online*.  Under overload, most low-priority arrivals are
doomed — they will be mapped (burning mapper cycles), rejected, and retried
or expired — while the resources they do win starve the high-priority
traffic the platform exists to serve.  The
:class:`LoadSheddingGovernor` watches the engine's settlement stream and,
when the observed admission rate falls below a configurable floor, sheds or
defers low-priority arrivals *before* any mapping work is spent on them.

The governor is a deterministic state machine driven purely by the
settlement stream (never by wall clock), so engines draining the same
events — serially or with the process executor — make identical shedding
decisions:

```
            rate < floor  (and >= min_samples seen)
  NORMAL ──────────────────────────────────────────► SHEDDING
     ▲                                                   │
     └───────────────────────────────────────────────────┘
            rate >= floor + resume_margin
```

* **NORMAL** — every arrival proceeds to the mapper.
* **SHEDDING** — arrivals with priority <= ``shed_max_priority`` are
  settled as :attr:`~repro.runtime.queue.RequestStatus.SHED` (mode
  ``"shed"``) or left pending without mapping work (mode ``"defer"``);
  higher-priority arrivals always proceed.  Because shed requests are not
  fed back into the rate estimate, the window refills with the protected
  traffic's outcomes and the governor re-opens once the floor (plus the
  hysteresis margin) is cleared — under sustained overload it oscillates
  around the floor, which is exactly the duty cycle that keeps *some*
  low-priority traffic flowing while protecting the rest.

Per-priority-class windowed rates are tracked alongside the aggregate and
surfaced through :meth:`LoadSheddingGovernor.snapshot` into the engine's
telemetry.  A governor with ``enabled=False`` (or no governor at all) is
*decision-inert*: the engine's outcomes are bit-identical to the pre-governor
engine — pinned by differential test.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

__all__ = ["GovernorConfig", "GovernorDecision", "LoadSheddingGovernor"]


@dataclass(frozen=True)
class GovernorConfig:
    """Tuning knobs of the load-shedding governor.

    Parameters
    ----------
    rate_floor:
        Windowed admission rate below which shedding engages.
    resume_margin:
        Hysteresis: shedding disengages only once the rate recovers to
        ``rate_floor + resume_margin``.
    window:
        Number of recent settlements in the rate estimate.
    min_samples:
        Settlements required before the governor may engage (a cold window
        must not shed on the first rejection).
    shed_max_priority:
        Arrivals with priority <= this are sheddable; higher priorities are
        always mapped.
    mode:
        ``"shed"`` settles sheddable arrivals immediately (terminal
        ``SHED`` status); ``"defer"`` leaves them pending without mapping
        work — they get their chance when the governor disengages, or
        expire at their deadline.
    """

    rate_floor: float = 0.5
    resume_margin: float = 0.1
    window: int = 32
    min_samples: int = 8
    shed_max_priority: int = 0
    mode: str = "shed"

    def __post_init__(self) -> None:
        if not 0.0 < self.rate_floor < 1.0:
            raise ValueError("rate_floor must be in (0, 1)")
        if self.resume_margin < 0.0:
            raise ValueError("resume_margin must be non-negative")
        if self.window < 1 or self.min_samples < 1:
            raise ValueError("window and min_samples must be positive")
        if self.min_samples > self.window:
            raise ValueError("min_samples cannot exceed the window")
        if self.mode not in ("shed", "defer"):
            raise ValueError(f"unknown governor mode {self.mode!r}")


class GovernorDecision:
    """What the governor wants done with one pending arrival."""

    PROCEED = "proceed"
    SHED = "shed"
    DEFER = "defer"


class LoadSheddingGovernor:
    """Windowed admission-rate tracker + shed/defer gate for the engine.

    The engine calls :meth:`observe` for every settled pipeline decision
    (admitted, rejected or expired — cancellations and shed requests are
    client/governor actions, not admission outcomes) and :meth:`assess`
    for every arrival it is about to spend mapping work on.  Both run on
    the engine thread in settlement order, so the governor's state is a
    pure function of the decision stream.
    """

    def __init__(
        self, config: GovernorConfig | None = None, *, enabled: bool = True
    ) -> None:
        self.config = config or GovernorConfig()
        self.enabled = enabled
        self._samples: deque[bool] = deque(maxlen=self.config.window)
        self._by_priority: dict[int, deque[bool]] = {}
        self._shedding = False
        #: Lifetime counters (surfaced into engine telemetry).
        self.shed_count = 0
        self.deferred_count = 0
        self.transitions = 0

    # ------------------------------------------------------------------ #
    def observe(self, priority: int, admitted: bool) -> None:
        """Fold one settled admission decision into the rate windows."""
        self._samples.append(admitted)
        window = self._by_priority.setdefault(
            priority, deque(maxlen=self.config.window)
        )
        window.append(admitted)
        self._update_state()

    def _update_state(self) -> None:
        if len(self._samples) < self.config.min_samples:
            return
        rate = self.admission_rate()
        if not self._shedding and rate < self.config.rate_floor:
            self._shedding = True
            self.transitions += 1
        elif self._shedding and rate >= self.config.rate_floor + self.config.resume_margin:
            self._shedding = False
            self.transitions += 1

    # ------------------------------------------------------------------ #
    def admission_rate(self, priority: int | None = None) -> float:
        """Windowed admission-rate estimate (aggregate or one priority class).

        An empty window reports 1.0 — an unmeasured system is presumed
        healthy (the ``min_samples`` guard keeps that presumption from
        ever triggering state changes).
        """
        window = (
            self._samples if priority is None else self._by_priority.get(priority, ())
        )
        if not window:
            return 1.0
        return sum(window) / len(window)

    @property
    def shedding(self) -> bool:
        """Whether the governor is currently in the SHEDDING state."""
        return self.enabled and self._shedding

    def assess(self, priority: int) -> str:
        """Gate one arrival: :data:`GovernorDecision.PROCEED`/``SHED``/``DEFER``.

        Counts the decision it hands out, so telemetry reflects what the
        governor *ordered* — the queue settles races (a concurrent cancel
        may still win; see :meth:`AdmissionQueue.shed`).
        """
        if not self.shedding or priority > self.config.shed_max_priority:
            return GovernorDecision.PROCEED
        if self.config.mode == "defer":
            self.deferred_count += 1
            return GovernorDecision.DEFER
        self.shed_count += 1
        return GovernorDecision.SHED

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Telemetry view: state, windowed rates and lifetime counters."""
        return {
            "enabled": self.enabled,
            "shedding": self._shedding,
            "mode": self.config.mode,
            "rate_floor": self.config.rate_floor,
            "aggregate_rate": round(self.admission_rate(), 4),
            "rate_by_priority": {
                priority: round(self.admission_rate(priority), 4)
                for priority in sorted(self._by_priority)
            },
            "samples": len(self._samples),
            "shed": self.shed_count,
            "deferred": self.deferred_count,
            "transitions": self.transitions,
        }

    def publish_metrics(self, registry) -> None:
        """Publish the governor's snapshot into a metrics registry.

        Rates and state are gauges (max-folded across snapshots), lifetime
        counters are counters — the registry's one fold discipline.
        """
        snapshot = self.snapshot()
        registry.gauge("governor.admission_rate", float(snapshot["aggregate_rate"]))
        registry.gauge("governor.shedding", 1.0 if snapshot["shedding"] else 0.0)
        registry.count("governor.shed", float(snapshot["shed"]))
        registry.count("governor.deferred", float(snapshot["deferred"]))
        registry.count("governor.transitions", float(snapshot["transitions"]))
        for priority, rate in snapshot["rate_by_priority"].items():
            registry.gauge(
                f"governor.admission_rate[priority={priority}]", float(rate)
            )
