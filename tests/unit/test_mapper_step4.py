"""Step 4: mapped-CSDF construction and QoS feasibility."""

import pytest

from repro.appmodel.implementation import DEFAULT_PORT, Implementation
from repro.appmodel.library import ImplementationLibrary
from repro.csdf.analysis.budget import AnalysisBudget, AnalysisEngine
from repro.csdf.phase import PhaseVector
from repro.csdf.repetition import is_consistent, repetition_vector
from repro.kpn.channel import Channel
from repro.kpn.graph import KPNGraph
from repro.kpn.process import Process, ProcessKind
from repro.kpn.qos import QoSConstraints
from repro.kpn.als import ApplicationLevelSpec
from repro.mapping.result import MappingStatus
from repro.platform.builder import PlatformBuilder
from repro.platform.state import PlatformState, ProcessAllocation
from repro.spatialmapper.config import MapperConfig
from repro.spatialmapper.csdf_construction import build_mapped_csdf, consumer_buffer_edges
from repro.spatialmapper.feedback import FeedbackKind
from repro.spatialmapper.mapper import SpatialMapper
from repro.spatialmapper.step1_implementation import select_implementations
from repro.spatialmapper.step2_tile_assignment import refine_tile_assignment
from repro.spatialmapper.step3_routing import route_channels
from repro.spatialmapper.step4_feasibility import check_feasibility, stream_buffer_floors
from repro.workloads import hiperlan2


@pytest.fixture()
def routed(case_study):
    als, platform, library = case_study
    step1 = select_implementations(als, platform, library)
    step2 = refine_tile_assignment(step1.mapping, als, platform)
    step3 = route_channels(step2.mapping, als, platform)
    assert step3.succeeded
    return als, platform, library, step3.mapping


class TestMappedCSDFConstruction:
    def test_actor_set(self, routed):
        als, platform, library, mapping = routed
        graph = build_mapped_csdf(als, mapping, platform, library)
        names = set(graph.actor_names)
        assert {"adc", "prefix_removal", "freq_offset_correction", "inverse_ofdm",
                "remainder", "sink"} <= names
        assert "ctrl" not in names

    def test_one_router_actor_per_hop(self, routed):
        als, platform, library, mapping = routed
        graph = build_mapped_csdf(als, mapping, platform, library)
        routers = graph.actors_with_role("router")
        assert len(routers) == sum(route.hops for route in mapping.routes)

    def test_router_actor_latency_is_4_cycles(self, routed):
        als, platform, library, mapping = routed
        graph = build_mapped_csdf(als, mapping, platform, library)
        for actor in graph.actors_with_role("router"):
            assert actor.wcet_cycles == (4.0,)
            assert actor.execution_times_ns == (40.0,)

    def test_graph_is_rate_consistent(self, routed):
        als, platform, library, mapping = routed
        graph = build_mapped_csdf(als, mapping, platform, library)
        assert is_consistent(graph)

    def test_repetition_counts_match_token_volumes(self, routed):
        als, platform, library, mapping = routed
        graph = build_mapped_csdf(als, mapping, platform, library)
        repetitions = repetition_vector(graph)
        assert repetitions["adc"] == 1
        assert repetitions["sink"] == 1
        assert repetitions["prefix_removal"] == 18
        # Routers on the adc->pfx channel transport 80 tokens one by one.
        adc_routers = [a.name for a in graph.actors_with_role("router")
                       if a.metadata.get("channel") == "c_adc_pfx"]
        for name in adc_routers:
            assert repetitions[name] == 80

    def test_process_actor_timing_uses_tile_frequency(self, routed):
        als, platform, library, mapping = routed
        graph = build_mapped_csdf(als, mapping, platform, library)
        pfx_tile = platform.tile(mapping.tile_of("prefix_removal"))
        actor = graph.actor("prefix_removal")
        expected_ns = 1e9 / pfx_tile.frequency_hz
        assert actor.execution_times_ns.at(0) == pytest.approx(expected_ns)

    def test_consumer_buffer_edges_cover_all_channels(self, routed):
        als, platform, library, mapping = routed
        graph = build_mapped_csdf(als, mapping, platform, library)
        buffers = consumer_buffer_edges(graph)
        assert set(buffers.keys()) == {c.name for c in als.kpn.data_channels()}

    def test_unrouted_channel_rejected(self, case_study):
        als, platform, library = case_study
        from repro.exceptions import MappingError

        step1 = select_implementations(als, platform, library)
        with pytest.raises(MappingError):
            build_mapped_csdf(als, step1.mapping, platform, library)


class TestFeasibility:
    def test_paper_mapping_is_feasible(self, routed):
        als, platform, library, mapping = routed
        result = check_feasibility(mapping, als, platform, library)
        assert result.feasible
        assert result.report.achieved_period_ns <= als.period_ns
        assert result.report.buffer_capacities

    def test_buffer_capacities_attached_to_mapping(self, routed):
        als, platform, library, mapping = routed
        result = check_feasibility(mapping, als, platform, library)
        assert set(result.mapping.buffer_capacities.keys()) == {
            c.name for c in als.kpn.data_channels()
        }
        assert all(capacity >= 1 for capacity in result.mapping.buffer_capacities.values())

    def test_too_tight_period_is_infeasible(self, routed):
        als, platform, library, mapping = routed
        tight = ApplicationLevelSpec(
            kpn=als.kpn, qos=QoSConstraints(period_ns=100.0), name=als.name
        )
        result = check_feasibility(mapping, tight, platform, library)
        assert not result.feasible
        kinds = {f.kind for f in result.feedback}
        assert FeedbackKind.THROUGHPUT_VIOLATED in kinds

    def test_throughput_feedback_names_a_bottleneck(self, routed):
        als, platform, library, mapping = routed
        tight = ApplicationLevelSpec(
            kpn=als.kpn, qos=QoSConstraints(period_ns=100.0), name=als.name
        )
        result = check_feasibility(mapping, tight, platform, library)
        feedback = result.feedback[0]
        assert feedback.culprit_process in {p.name for p in als.kpn.mappable_processes()}

    def test_generous_latency_bound_is_satisfied(self, routed):
        als, platform, library, mapping = routed
        relaxed = ApplicationLevelSpec(
            kpn=als.kpn,
            qos=QoSConstraints(period_ns=als.period_ns, max_latency_ns=1e6),
            name=als.name,
        )
        result = check_feasibility(mapping, relaxed, platform, library)
        assert result.feasible
        assert result.report.latency_ns is not None
        assert result.report.latency_ns <= 1e6

    def test_impossible_latency_bound_is_violated(self, routed):
        als, platform, library, mapping = routed
        strict = ApplicationLevelSpec(
            kpn=als.kpn,
            qos=QoSConstraints(period_ns=als.period_ns, max_latency_ns=10.0),
            name=als.name,
        )
        result = check_feasibility(mapping, strict, platform, library)
        assert not result.feasible
        assert any(f.kind is FeedbackKind.LATENCY_VIOLATED for f in result.feedback)

    def test_buffer_overflow_detected_on_tiny_tiles(self, case_study):
        als, _, library = case_study
        tiny_platform = hiperlan2.build_mpsoc(montium_memory_bytes=8200)
        step1 = select_implementations(als, tiny_platform, library)
        step2 = refine_tile_assignment(step1.mapping, als, tiny_platform)
        step3 = route_channels(step2.mapping, als, tiny_platform)
        result = check_feasibility(step3.mapping, als, tiny_platform, library)
        assert not result.feasible
        assert any(f.kind is FeedbackKind.BUFFER_OVERFLOW for f in result.feedback)

    def test_buffer_bytes_round_partial_tokens_up(self):
        # Stage ``a`` on gpp0 consumes 12-bit tokens: each buffered token
        # needs 2 bytes, not 1.  Leave room for exactly one byte per token.
        roomy = _twelve_bit_stage(memory_bytes=1 << 20)
        assert roomy.feasible
        tokens = roomy.mapping.buffer_capacities["c0"]
        tight = _twelve_bit_stage(memory_bytes=_STAGE_MEMORY_BYTES + tokens)
        assert not tight.feasible
        assert [f.kind for f in tight.feedback] == [FeedbackKind.BUFFER_OVERFLOW]
        assert tight.feedback[0].culprit_tile == "gpp0"
        assert f"{2 * tokens} bytes of stream buffers needed" in tight.report.reason


@pytest.fixture()
def sizings(monkeypatch):
    """Counts the buffer sizings step 4 runs through the analysis engine."""
    calls = []
    real = AnalysisEngine.sufficient_buffer_capacities

    def counted(self, *args, **kwargs):
        calls.append(args[0].name)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(AnalysisEngine, "sufficient_buffer_capacities", counted)
    return calls


class TestAnalysisTrace:
    """A mapper run's trace counts the step-4 analysis work it caused."""

    def test_trace_counts_the_runs_analysis_work(self, case_study):
        als, platform, library = case_study
        mapper = SpatialMapper(platform, library)
        assert mapper.map(als).status is MappingStatus.FEASIBLE
        trace, engine = mapper.last_trace, mapper.analysis
        assert trace.simulations_run == engine.simulations_run > 0
        assert trace.simulated_events == engine.simulated_events > 0
        assert trace.analysis_cache_hits == engine.cache_hits

    def test_warm_engine_answers_a_repeat_map_from_its_cache(self, case_study):
        als, platform, library = case_study
        mapper = SpatialMapper(platform, library)
        first = mapper.map(als)
        asked = mapper.last_trace.simulations_run + mapper.last_trace.analysis_cache_hits
        second = mapper.map(als)
        trace = mapper.last_trace
        assert (trace.simulations_run, trace.simulated_events) == (0, 0)
        assert trace.analysis_cache_hits == asked
        assert second.feasibility == first.feasibility


class TestBufferFloor:
    """Step 4 rejects a mapping whose stream buffers overflow even at their
    floors before sizing them, and otherwise sizes them exactly as before."""

    def test_floor_overflow_skips_the_sizing(self, sizings):
        # ``a`` consumes 4 tokens at once, so c0's buffer holds at least 4
        # 12-bit tokens: 8 bytes, one more than gpp0 has left.
        ledger = AnalysisBudget()
        result = _twelve_bit_stage(memory_bytes=_STAGE_MEMORY_BYTES + 7, budget=ledger)
        assert not result.feasible
        assert result.floor_overflow
        assert [(f.kind, f.culprit_tile) for f in result.feedback] == [
            (FeedbackKind.BUFFER_OVERFLOW, "gpp0")
        ]
        assert result.report.reason == (
            "buffer overflow on tile 'gpp0': at least 8 bytes of stream buffers "
            "needed but only 7 bytes available"
        )
        assert sizings == []
        assert result.report.buffer_capacities == {}
        assert result.mapping.buffer_capacities == {}
        # The caller's ledger pays for the throughput check and nothing else.
        throughput = AnalysisBudget()
        AnalysisEngine().minimal_period_ns(
            result.mapped_csdf, iterations=MapperConfig().analysis_iterations,
            budget=throughput,
        )
        assert ledger.events_used == throughput.events_used

    def test_fitting_floor_sizes_once_with_the_report_unchanged(self, sizings):
        """Pinned before the floor check existed.  The report holds the
        consumer edges only: the router-hop inputs ``c0__seg0`` and
        ``c1__seg0`` (4 each) are not sized."""
        result = _twelve_bit_stage(memory_bytes=_STAGE_MEMORY_BYTES + 8)
        assert len(sizings) == 1
        assert result.feasible and not result.floor_overflow
        report = result.report
        assert report.achieved_period_ns == float.fromhex("0x1.4000000000000p+7")
        assert report.latency_ns is None
        assert report.buffer_capacities == {"c0__seg1": 4, "c1__seg1": 4}
        assert report.reason == "all QoS constraints satisfied"
        assert result.mapping.buffer_capacities == {"c0": 4, "c1": 4}

    def test_sized_overflow_above_a_fitting_floor_keeps_its_message(
        self, routed, sizings
    ):
        """c_frq_iofdm's floor is 1 token but its sized buffer is larger:
        with room for the floor only, the post-sizing check still names the
        tile, with the sized byte count."""
        als, platform, library, mapping = routed
        roomy = check_feasibility(mapping, als, platform, library)
        tile = mapping.tile_of("inverse_ofdm")
        assert stream_buffer_floors(mapping, als, platform)["c_frq_iofdm"] == 1
        sized = roomy.mapping.buffer_capacities["c_frq_iofdm"]
        assert sized > 1
        state = PlatformState(platform)
        implementation = mapping.assignment("inverse_ofdm").implementation
        state.allocate_process(
            ProcessAllocation(
                "other",
                "occupant",
                tile,
                platform.tile(tile).resources.memory_bytes
                - implementation.memory_bytes
                - 4,
            )
        )
        sizings.clear()
        result = check_feasibility(mapping, als, platform, library, state=state)
        assert len(sizings) == 1
        assert not result.feasible and not result.floor_overflow
        assert result.feedback[0].culprit_tile == tile
        assert result.report.reason == (
            f"buffer overflow on tile {tile!r}: {4 * sized} bytes of stream buffers "
            "needed but only 4 bytes available"
        )

    def test_mapper_trace_counts_floor_rejections(self, case_study):
        """With 3 bytes left on each Montium the 1-token floor (4 bytes)
        already overflows; with 4 bytes only the sized buffers do.  The
        refinement loop bans the same placements either way."""
        als, _, library = case_study
        traces = {}
        for memory_bytes in (8195, 8196):
            mapper = SpatialMapper(
                hiperlan2.build_mpsoc(montium_memory_bytes=memory_bytes), library
            )
            result = mapper.map(als)
            assert result.status is MappingStatus.ADHERENT
            traces[memory_bytes] = mapper.last_trace
        assert traces[8195].step4_floor_rejections == 2
        assert traces[8196].step4_floor_rejections == 0
        assert traces[8195].feedback_log == traces[8196].feedback_log


_STAGE_MEMORY_BYTES = 1000


def _twelve_bit_stage(memory_bytes: int, **step4_options):
    """Step 4 of source -> a -> sink with 12-bit tokens, ``a`` alone on gpp0."""
    platform = (
        PlatformBuilder("one_stage")
        .mesh(2, 1, link_capacity_bits_per_s=1e9)
        .tile_type("GPP", frequency_mhz=100)
        .tile_type("IO", frequency_mhz=100, is_processing=False)
        .tile("io0", "IO", (0, 0))
        .tile("gpp0", "GPP", (1, 0), memory_bytes=memory_bytes)
        .build()
    )
    kpn = KPNGraph("twelve_bit")
    kpn.add_process(Process("src", ProcessKind.SOURCE, pinned_tile="io0"))
    kpn.add_process(Process("a"))
    kpn.add_process(Process("snk", ProcessKind.SINK, pinned_tile="io0"))
    kpn.add_channel(Channel("c0", "src", "a", tokens_per_iteration=4, token_size_bits=12))
    kpn.add_channel(Channel("c1", "a", "snk", tokens_per_iteration=4, token_size_bits=12))
    als = ApplicationLevelSpec(kpn=kpn, qos=QoSConstraints(period_ns=10_000.0))
    library = ImplementationLibrary()
    library.add(
        Implementation(
            process="a",
            tile_type="GPP",
            wcet_cycles=PhaseVector([1.0, 10.0, 1.0]),
            input_rates={DEFAULT_PORT: PhaseVector([4, 0, 0])},
            output_rates={DEFAULT_PORT: PhaseVector([0, 0, 4])},
            energy_nj_per_iteration=1.0,
            memory_bytes=_STAGE_MEMORY_BYTES,
        )
    )
    step1 = select_implementations(als, platform, library)
    step2 = refine_tile_assignment(step1.mapping, als, platform)
    step3 = route_channels(step2.mapping, als, platform)
    assert step3.succeeded
    return check_feasibility(step3.mapping, als, platform, library, **step4_options)
