"""Settled decisions keep their mapping, not their search.

:meth:`~repro.runtime.pipeline.AdmissionPipeline.decide` returns every
decision in its settled form — no mapped CSDF graph, no pending step
feedback — on the serial executor, in the engine's lanes and across the
process boundary alike, and the mapper cache stores settled results.  The
queue keeps every settled request for the life of the engine, so what one
request retains is what a long run grows by.  Direct
:class:`~repro.spatialmapper.mapper.SpatialMapper` callers still get the
graph.
"""

import gc
import tracemalloc
from dataclasses import replace

import pytest

from repro.runtime.engine import ProcessRegionExecutor, SerialRegionExecutor, WorkloadEngine
from repro.runtime.queue import RequestStatus
from repro.spatialmapper.mapper import SpatialMapper
from tests.harness import PACKING_CONFIG, packing_manager, packing_workload

#: Ceiling on the retained bytes per settled request of
#: :func:`retained_per_request`'s replay.  Measured at 8.9 kB (Python 3.11);
#: with the mapped CSDF graph kept by every settled request it measured
#: 28.2 kB.
RETAINED_BYTES_PER_REQUEST = 12_000


def replay(kind: str, probes: int = 12):
    """Replay the packing workload on a named executor; return what settled."""
    manager = packing_manager()
    if kind == "serial":
        executor = SerialRegionExecutor()
    else:
        executor = ProcessRegionExecutor(manager.partition, workers=2)
    engine = WorkloadEngine(manager, executor=executor)
    try:
        outcome = engine.run(packing_workload(probes))
    finally:
        if kind == "process":
            executor.close()
    requests = [engine.queue.poll(record.ticket) for record in outcome.records]
    return manager, outcome, requests


@pytest.fixture(scope="module")
def replays():
    return {kind: replay(kind) for kind in ("serial", "process")}


@pytest.mark.parametrize("kind", ["serial", "process"])
class TestSettledForm:
    def test_every_settled_request_holds_no_search_artefacts(self, replays, kind):
        _, _, requests = replays[kind]
        admitted = [r for r in requests if r.status is RequestStatus.ADMITTED]
        assert len(admitted) >= 8
        for request in admitted:
            result = request.decision.result
            assert result is not None and result.is_feasible
            assert result.mapped_csdf is None
            assert result.pending_feedback == []
            assert result.mapping.buffer_capacities
            assert result.feasibility is not None and result.feasibility.satisfied
        # The rescue lane's adoptions are among them.
        assert any(
            line.startswith("rescue: adopted")
            for request in admitted
            for line in request.decision.result.diagnostics
        )

    def test_running_applications_hold_no_graph(self, replays, kind):
        manager, _, _ = replays[kind]
        running = manager.running_applications
        assert running
        assert all(app.result.mapped_csdf is None for app in running)


def test_no_cache_entry_holds_a_graph(replays):
    """The serial replay decides everything engine-side, so its cache holds
    every computed result (drain workers keep caches of their own)."""
    manager, _, _ = replays["serial"]
    entries = list(manager.pipeline.cache._entries.values())
    assert entries
    for entry in entries:
        assert entry.result.mapped_csdf is None
        assert entry.result.pending_feedback == []


def test_both_executors_settle_the_same_decisions(replays):
    serial, process = replays["serial"], replays["process"]
    assert serial[1].decision_log() == process[1].decision_log()

    def settled(requests):
        return [
            (
                request.application,
                request.decision.result.energy_nj_per_iteration,
                sorted((a.process, a.tile) for a in request.decision.result.mapping.assignments),
            )
            for request in requests
            if request.status is RequestStatus.ADMITTED
        ]

    assert settled(serial[2]) == settled(process[2])


def test_direct_mapper_callers_still_get_the_graph():
    manager = packing_manager()
    probe = packing_workload(1).events[-2]
    region = manager.partition.region_of_tile(probe.als.kpn.pinned_processes()[0].pinned_tile)
    direct = SpatialMapper(manager.platform, probe.library, manager.config)
    result = direct.map(probe.als, manager.state, region=region)
    assert result.is_feasible
    assert result.mapped_csdf is not None
    decision = manager.admit(probe.als, library=probe.library)
    assert decision.admitted
    assert decision.result.mapped_csdf is None
    assert decision.result.mapping.buffer_capacities == result.mapping.buffer_capacities


def retained_per_request(probes: int = 24) -> float:
    """Bytes a packing replay still holds afterwards, per settled request.

    Both caches are off, so nothing bounded is counted: what remains is
    the settled requests, their records and the manager's audit trail.
    """
    manager = packing_manager(
        config=replace(PACKING_CONFIG, analysis_cache_size=0), mapper_cache_size=0
    )
    engine = WorkloadEngine(manager, executor=SerialRegionExecutor())
    workload = packing_workload(probes)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        outcome = engine.run(workload)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(record.status.is_final for record in outcome.records)
    return retained / len(outcome.records)


def test_retained_bytes_per_settled_request_are_bounded():
    assert retained_per_request() < RETAINED_BYTES_PER_REQUEST
