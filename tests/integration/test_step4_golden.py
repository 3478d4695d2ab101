"""Golden regression: the step-4 reports of the nine cold-mapped receivers.

``tests/data/step4_golden.json`` holds, for each receiver that a cold map
on the idle Figure-2 MPSoC covers (the seven HiperLAN/2 modes, the DRM
receiver and the image pipeline), the mapping status and the step-4
``FeasibilityReport``: achieved period and latency as ``float.hex`` strings,
and the sufficient buffer capacity of every mapped-graph edge, under its
``"sufficient"`` block.  Each ALS gets a loose 1 s latency bound so that
step 4 runs its latency analysis too.  Any change to the simulator or the
analyses that moves one of these numbers by one bit fails here.  The mapped
graphs are feed-forward and unbounded, so step 4 never runs the event loop:
buffer sizing and latency both come from the feed-forward evaluator.

Step 4 sizes only the buffers a tile reserves, the edges into consuming
actors, so the report is held to the golden entries of those edges.  Every
edge of the golden ``"buffers"`` block, router-hop inputs included, is held
to the occupancy maxima of :func:`feed_forward_run` on the mapped graph
(which takes every edge's maximum), clamped to ``_lower_bound_capacity``.

On each of the nine mapped graphs, :func:`feed_forward_run` must equal the
event loop's run of the unbounded graph in every field, with the cycle exit
on and off.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro import MapperConfig
from repro.csdf.analysis.buffers import _lower_bound_capacity
from repro.csdf.analysis.feedforward import feed_forward_run
from repro.csdf.analysis.simulation import SelfTimedSimulator
from repro.spatialmapper.csdf_construction import consumer_buffer_edges
from repro.spatialmapper.mapper import SpatialMapper
from repro.workloads import hiperlan2, receivers
from tests.unit.test_csdf_feedforward import assert_matches_periodic_loop

GOLDEN = json.loads((Path(__file__).parent.parent / "data" / "step4_golden.json").read_text())


def _receivers():
    apps = {
        f"hiperlan2_{mode}": (
            hiperlan2.build_receiver_als(mode),
            hiperlan2.build_implementation_library(mode),
        )
        for mode in hiperlan2.HIPERLAN2_MODES
    }
    apps["drm"] = (receivers.build_drm_receiver_als(), receivers.build_drm_library())
    apps["image"] = (receivers.build_image_pipeline_als(), receivers.build_image_library())
    return apps


def _hex(value):
    return None if value is None else float(value).hex()


@pytest.mark.parametrize("block", sorted(GOLDEN))
def test_step4_reports_match_golden(block, monkeypatch):
    event_loop_runs = []
    run = SelfTimedSimulator.run

    def counted(self):
        event_loop_runs.append(self)
        return run(self)

    monkeypatch.setattr(SelfTimedSimulator, "run", counted)
    apps = _receivers()
    golden = GOLDEN[block]
    assert sorted(apps) == sorted(golden)
    config = MapperConfig()
    for label, (als, library) in apps.items():
        als.qos = dataclasses.replace(als.qos, max_latency_ns=1e9)
        mapper = SpatialMapper(hiperlan2.build_mpsoc(), library, config)
        result = mapper.map(als)
        report = result.feasibility
        expected = golden[label]
        got = {
            "status": result.status.value,
            "period": _hex(report.achieved_period_ns),
            "latency": _hex(report.latency_ns),
        }
        assert got == {key: expected[key] for key in got}, label
        graph = result.mapped_csdf
        assert report.buffer_capacities == {
            name: expected["buffers"][name] for name in consumer_buffer_edges(graph).values()
        }, label
        run = feed_forward_run(graph, config.analysis_iterations, als.period_ns, cycle_exit=True)
        every_edge = {
            name: max(observed, _lower_bound_capacity(graph, name))
            for name, observed in run.max_occupancy.items()
        }
        assert dict(sorted(every_edge.items())) == expected["buffers"], label
    assert event_loop_runs == []


@pytest.mark.parametrize("cycle_exit", [False, True])
def test_mapped_graphs_run_as_on_the_event_loop(cycle_exit):
    """On each receiver's mapped graph (router hops, multi-phase processes,
    periodic source) the feed-forward run equals the event loop's run of the
    unbounded graph in every field."""
    config = MapperConfig()
    for label, (als, library) in _receivers().items():
        result = SpatialMapper(hiperlan2.build_mpsoc(), library, config).map(als)
        assert result.mapped_csdf is not None, label
        assert_matches_periodic_loop(
            result.mapped_csdf, config.analysis_iterations, als.period_ns, cycle_exit
        )
