"""Request-scoped tracing for the admission path.

The runtime grew three telemetry islands (lane counters, worker traffic,
analysis counters) that answer *aggregate* questions; none of them answers the production question "where did *this* request's 40 ms
go?".  This module is that answer: a :class:`Tracer` produces per-request
**span trees** keyed by a stable trace id (workload + ticket), with one
span per pipeline stage — queue wait, governor check, region selection,
cache lookup, the four mapper steps (the paper's algorithm is explicitly
staged, so stage-level spans map 1:1 onto it), commit, inter-region
planning, and, on the process executor, engine dispatch → worker decide →
engine fold.

Design constraints, in order:

* **Decision-inert.**  The tracer only ever observes; it never feeds a
  decision.  Sampling is a pure hash of the trace id (no shared RNG
  state), so an obs-on run makes bit-identical decisions to an obs-off
  run — the differential suites pin this.
* **Near-zero cost when disabled.**  A disabled tracer short-circuits on
  :attr:`Tracer.enabled`; hot call sites guard on it (or on a ``None``
  trace context) before touching any span machinery.
* **Cross-process.**  A :class:`TraceContext` is plain picklable data; the
  process executor ships it inside each job spec, workers record spans
  against their own monotonic clock, and the engine re-anchors the
  returned spans onto its own timeline (see :func:`reanchor_spans`), so a
  single tree spans both processes.

Span timestamps are ``time.perf_counter_ns()`` values: monotonic, but with
a per-process arbitrary epoch — which is exactly why worker spans must be
re-anchored before they can live in the engine's tree.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field

__all__ = [
    "ObsConfig",
    "SpanRecord",
    "Span",
    "TraceContext",
    "Tracer",
    "NULL_TRACER",
    "reanchor_spans",
]


@dataclass(frozen=True)
class ObsConfig:
    """Tunables of the observability layer.

    Parameters
    ----------
    enabled:
        Master switch.  Disabled, every tracer operation is a guarded
        no-op and the engine publishes no spans or metrics.
    sample_rate:
        Head-based sampling probability in ``[0, 1]``.  The sampling
        decision is a pure hash of ``(seed, trace_id)`` — deterministic,
        shared by every process of a run, and made once when the request
        is submitted (children inherit it via the trace context).
    seed:
        Salt of the sampling hash; two runs with equal seeds sample the
        same trace ids.
    metrics:
        Whether the engine also publishes the run's
        :class:`~repro.obs.metrics.MetricsRegistry`.
    """

    enabled: bool = True
    sample_rate: float = 1.0
    seed: int = 0
    metrics: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")


@dataclass(frozen=True)
class SpanRecord:
    """One finished span — plain picklable data, the export unit.

    ``span_id`` / ``parent_id`` are strings of the form
    ``"<process>:<counter>"``, unique across the engine and every worker
    process of a run.  ``start_ns`` / ``end_ns`` are engine-timeline
    ``perf_counter_ns`` values *after* re-anchoring (worker-local before).
    """

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    process: str
    start_ns: int
    end_ns: int
    attrs: tuple[tuple[str, object], ...] = ()

    @property
    def duration_ns(self) -> int:
        """Span duration in nanoseconds (never negative)."""
        return max(0, self.end_ns - self.start_ns)


@dataclass(frozen=True)
class TraceContext:
    """The cross-boundary handle of one sampled request's trace.

    Plain picklable data: the process executor ships it in each
    :class:`~repro.runtime.procdrain.JobSpec`, and a worker's spans parent
    onto :attr:`parent_span_id`.  An unsampled request has no context at
    all (``None`` travels instead), which is what keeps the disabled /
    unsampled path allocation-free.
    """

    trace_id: str
    parent_span_id: str | None = None

    def child(self, parent_span_id: str) -> "TraceContext":
        """The same trace, re-parented under ``parent_span_id``."""
        return TraceContext(self.trace_id, parent_span_id)


@dataclass
class Span:
    """One in-flight span; finished via :meth:`Tracer.end`."""

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    process: str
    start_ns: int
    attrs: dict[str, object] = field(default_factory=dict)

    def context(self) -> TraceContext:
        """A trace context whose children parent onto this span."""
        return TraceContext(self.trace_id, self.span_id)


class Tracer:
    """Produces, collects and hands out the spans of one process.

    Takes no lock: spans are recorded by the engine's decider thread only
    (drain worker processes record into their own tracers).  Finished spans accumulate in an internal buffer until :meth:`drain`
    hands them over (the engine drains once per run; a drain worker drains
    once per lane so each lane result carries exactly its own spans).
    """

    def __init__(self, config: ObsConfig | None = None, *, process: str = "engine") -> None:
        self.config = config or ObsConfig()
        self.process = process
        self._spans: list[SpanRecord] = []
        self._next_id = 0

    # ------------------------------------------------------------------ #
    @property
    def enabled(self) -> bool:
        """Whether this tracer records anything at all."""
        return self.config.enabled

    def sampled(self, trace_id: str) -> bool:
        """Head-based sampling verdict for one trace id.

        A pure, seeded hash — deterministic across runs and processes, and
        independent of any decision-bearing RNG.  ``sample_rate=1.0``
        traces everything, ``0.0`` nothing.
        """
        if not self.config.enabled:
            return False
        rate = self.config.sample_rate
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        digest = zlib.crc32(f"{self.config.seed}:{trace_id}".encode("utf-8"))
        return digest / 2**32 < rate

    def context_for(self, trace_id: str) -> TraceContext | None:
        """A root trace context for ``trace_id``, or ``None`` when unsampled."""
        if not self.sampled(trace_id):
            return None
        return TraceContext(trace_id)

    # ------------------------------------------------------------------ #
    def _span_id(self) -> str:
        self._next_id += 1
        return f"{self.process}:{self._next_id}"

    def start(
        self,
        name: str,
        trace: TraceContext,
        *,
        start_ns: int | None = None,
        attrs: dict[str, object] | None = None,
    ) -> Span:
        """Open a span under ``trace`` (caller guarantees the trace is sampled)."""
        return Span(
            trace_id=trace.trace_id,
            span_id=self._span_id(),
            parent_id=trace.parent_span_id,
            name=name,
            process=self.process,
            start_ns=start_ns if start_ns is not None else time.perf_counter_ns(),
            attrs=dict(attrs) if attrs else {},
        )

    def end(self, span: Span, *, end_ns: int | None = None) -> SpanRecord:
        """Finish a span and append it to the buffer."""
        record = SpanRecord(
            trace_id=span.trace_id,
            span_id=span.span_id,
            parent_id=span.parent_id,
            name=span.name,
            process=span.process,
            start_ns=span.start_ns,
            end_ns=end_ns if end_ns is not None else time.perf_counter_ns(),
            attrs=tuple(sorted(span.attrs.items())),
        )
        self._spans.append(record)
        return record

    def record(
        self,
        name: str,
        trace: TraceContext,
        start_ns: int,
        end_ns: int,
        *,
        attrs: dict[str, object] | None = None,
    ) -> SpanRecord:
        """Append an already-timed span (e.g. rebuilt from mapper timestamps)."""
        record = SpanRecord(
            trace_id=trace.trace_id,
            span_id=self._span_id(),
            parent_id=trace.parent_span_id,
            name=name,
            process=self.process,
            start_ns=start_ns,
            end_ns=end_ns,
            attrs=tuple(sorted(attrs.items())) if attrs else (),
        )
        self._spans.append(record)
        return record

    def adopt(self, spans: list[SpanRecord] | tuple[SpanRecord, ...]) -> None:
        """Append foreign (already re-anchored) span records to the buffer."""
        if spans:
            self._spans.extend(spans)

    def drain(self) -> list[SpanRecord]:
        """Hand over (and clear) every span recorded since the last drain."""
        spans, self._spans = self._spans, []
        return spans

    def __len__(self) -> int:
        return len(self._spans)


#: The shared disabled tracer: every guarded call site short-circuits on
#: its :attr:`~Tracer.enabled` being ``False``.
NULL_TRACER = Tracer(ObsConfig(enabled=False))


def reanchor_spans(
    spans: tuple[SpanRecord, ...] | list[SpanRecord],
    *,
    window_start_ns: int,
    window_end_ns: int,
) -> list[SpanRecord]:
    """Shift worker-clock spans onto the engine timeline.

    Worker ``perf_counter_ns`` values share the engine clock's *rate* but
    not its epoch.  The engine knows the real-time window the worker's
    work happened in — it stamped ``window_start_ns`` just before sending
    the dispatch frame and ``window_end_ns`` just after receiving the
    response — so the whole batch is shifted by one offset that puts its
    earliest span start at the window start, then clamped into the window
    (defensive: equal clock rates mean the batch always fits, but a clamp
    can never produce a span that escapes its dispatch window).  One
    shared offset preserves every relative distance between worker spans,
    so nesting and non-overlap survive re-anchoring bit-for-bit.
    """
    if not spans:
        return []
    offset = window_start_ns - min(span.start_ns for span in spans)
    anchored: list[SpanRecord] = []
    for span in spans:
        start = min(max(span.start_ns + offset, window_start_ns), window_end_ns)
        end = min(max(span.end_ns + offset, start), window_end_ns)
        anchored.append(
            SpanRecord(
                trace_id=span.trace_id,
                span_id=span.span_id,
                parent_id=span.parent_id,
                name=span.name,
                process=span.process,
                start_ns=start,
                end_ns=end,
                attrs=span.attrs + (("reanchored", True),),
            )
        )
    return anchored
