"""The stream-buffer floor is the capacity every buffer sizing starts from.

:func:`~repro.spatialmapper.step4_feasibility.stream_buffer_floors` reads
only the placement, not the routes.  Step 4 rejects a mapping whose floors
overflow a consuming tile before sizing any buffer, and the rescue lane cuts
such a placement before routing it; both are exact only if

* the floor equals ``_lower_bound_capacity`` of the channel's consumer edge
  in the mapped graph step 3's routes produce (0 hops exactly when both
  endpoint tiles sit at one router position), and
* no sizing returns less than that bound: neither the functional
  sufficient capacities nor the engine's cycle-exiting, cached ones.

Random multi-phase chains on random mesh and torus platforms, with two tiles
on some router positions (one of them next to the I/O tile, so pinned
producers share a position with a kernel), check both.  On the same graphs
the sizing covers exactly the edges into each channel's consumer (the
buffers ``B_i``), each at the capacity a sizing of every edge grants it,
and charges the firings of the feed-forward run that takes every edge's
maximum.
"""

from random import Random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.appmodel.implementation import Implementation
from repro.appmodel.library import ImplementationLibrary
from repro.csdf.analysis.budget import AnalysisBudget, AnalysisEngine
from repro.csdf.analysis.buffers import _lower_bound_capacity, sufficient_buffer_capacities
from repro.csdf.analysis.feedforward import feed_forward_run
from repro.csdf.analysis.throughput import minimal_period_ns
from repro.csdf.phase import PhaseVector
from repro.kpn.als import ApplicationLevelSpec
from repro.kpn.channel import Channel
from repro.kpn.graph import KPNGraph
from repro.kpn.process import Process, ProcessKind
from repro.kpn.qos import QoSConstraints
from repro.mapping.assignment import ProcessAssignment
from repro.mapping.mapping import Mapping
from repro.platform.builder import PlatformBuilder
from repro.platform.state import PlatformState
from repro.platform.topology import build_mesh_noc, build_torus_noc
from repro.spatialmapper.csdf_construction import build_mapped_csdf, consumer_buffer_edges
from repro.spatialmapper.step3_routing import route_channels
from repro.spatialmapper.step4_feasibility import _first_overflow, stream_buffer_floors

ITERATIONS = 3


def split(rng: Random, total: int, phases: int) -> PhaseVector:
    """``total`` tokens spread over ``phases`` phases at random."""
    cuts = sorted(rng.randint(0, total) for _ in range(phases - 1))
    bounds = [0, *cuts, total]
    return PhaseVector([float(b - a) for a, b in zip(bounds, bounds[1:])])


def random_platform(topology: str, width: int, height: int, rng: Random):
    """A mesh or torus with an I/O tile at (0, 0), a GPP beside it on the
    same router, and one or two GPP/DSP tiles on every other position, at
    least one of them a DSP so every implementation has a tile to go on."""
    tiles = []
    for y in range(height):
        for x in range(width):
            if (x, y) == (0, 0):
                continue
            for slot in range(rng.choice((1, 2))):
                tiles.append([f"t{x}_{y}_{slot}", rng.choice(("GPP", "DSP")), (x, y)])
    if all(tile_type != "DSP" for _, tile_type, _ in tiles):
        tiles[-1][1] = "DSP"
    build = build_torus_noc if topology == "torus" else build_mesh_noc
    builder = (
        PlatformBuilder(f"{topology}_{width}x{height}")
        .noc(build(width, height, link_capacity_bits_per_s=1e12))
        .allow_shared_routers()
        .tile_type("IO", is_processing=False)
        .tile_type("GPP")
        .tile_type("DSP")
        .tile("io", "IO", (0, 0))
        .tile("gpp_io", "GPP", (0, 0), max_processes=8)
    )
    for name, tile_type, position in tiles:
        builder.tile(name, tile_type, position, max_processes=8)
    return builder.build()


def random_chain(rng: Random, stages: int):
    """source -> k0 .. k{n-1} -> sink on the I/O tile, with multi-phase
    implementations whose per-channel rates sum to the channel's tokens."""
    kpn = KPNGraph("floor_chain")
    kpn.add_process(Process("source", ProcessKind.SOURCE, pinned_tile="io"))
    kpn.add_process(Process("sink", ProcessKind.SINK, pinned_tile="io"))
    nodes = ["source", *(f"k{i}" for i in range(stages)), "sink"]
    for name in nodes[1:-1]:
        kpn.add_process(Process(name))
    channels = []
    for index, (producer, consumer) in enumerate(zip(nodes, nodes[1:])):
        channel = Channel(
            f"c{index}",
            producer,
            consumer,
            tokens_per_iteration=rng.randint(1, 12),
            token_size_bits=rng.choice((8, 12, 32)),
        )
        kpn.add_channel(channel)
        channels.append(channel)
    library = ImplementationLibrary()
    for index, name in enumerate(nodes[1:-1]):
        incoming, outgoing = channels[index], channels[index + 1]
        for tile_type in rng.sample(("GPP", "DSP"), rng.choice((1, 2))):
            phases = rng.randint(1, 3)
            library.add(
                Implementation(
                    process=name,
                    tile_type=tile_type,
                    wcet_cycles=PhaseVector(
                        [float(rng.randint(1, 40)) for _ in range(phases)]
                    ),
                    input_rates={
                        incoming.name: split(rng, incoming.tokens_per_iteration, phases)
                    },
                    output_rates={
                        outgoing.name: split(rng, outgoing.tokens_per_iteration, phases)
                    },
                    energy_nj_per_iteration=1.0,
                    memory_bytes=rng.choice((256, 1024)),
                )
            )
    als = ApplicationLevelSpec(kpn=kpn, qos=QoSConstraints(period_ns=1e6))
    return als, library


def random_placement(rng: Random, als, library, platform) -> Mapping:
    """Each kernel on a random tile of a random implementation's type, often
    on the router position of the process before it."""
    mapping = Mapping(als.name)
    for process in als.kpn.pinned_processes():
        mapping.assign(ProcessAssignment(process.name, process.pinned_tile))
    previous_position = (0, 0)
    for process in als.kpn.mappable_processes():
        implementation = rng.choice(library.implementations_for(process.name))
        tiles = platform.processing_tile_names(implementation.tile_type)
        beside = [t for t in tiles if platform.tile(t).position == previous_position]
        tile = rng.choice(beside if beside and rng.random() < 0.5 else tiles)
        mapping.assign(ProcessAssignment(process.name, tile, implementation))
        previous_position = platform.tile(tile).position
    return mapping


def routed_case(topology, width, height, seed, stages):
    rng = Random(seed)
    platform = random_platform(topology, width, height, rng)
    als, library = random_chain(rng, stages)
    mapping = random_placement(rng, als, library, platform)
    step3 = route_channels(mapping, als, platform, state=PlatformState(platform))
    assert step3.succeeded
    graph = build_mapped_csdf(als, step3.mapping, platform, library)
    return platform, als, step3.mapping, graph


CASES = dict(
    topology=st.sampled_from(("mesh", "torus")),
    width=st.integers(min_value=3, max_value=5),
    height=st.integers(min_value=3, max_value=4),
    seed=st.integers(min_value=0, max_value=100_000),
    stages=st.integers(min_value=1, max_value=5),
)


@given(**CASES)
@example(topology="mesh", width=3, height=3, seed=28587, stages=1)  # draws no DSP at first
@settings(max_examples=300, deadline=None)
def test_floor_is_the_consumer_edge_lower_bound(topology, width, height, seed, stages):
    platform, als, mapping, graph = routed_case(topology, width, height, seed, stages)
    floors = stream_buffer_floors(mapping, als, platform)
    edges = consumer_buffer_edges(graph)
    unpinned = [
        c.name for c in als.kpn.data_channels() if not als.kpn.process(c.target).is_pinned
    ]
    assert list(floors) == unpinned
    for channel_name, floor in floors.items():
        assert floor == _lower_bound_capacity(graph, edges[channel_name])
        route = mapping.route(channel_name)
        assert route.hops == 0 or (
            platform.tile(route.source_tile).position
            != platform.tile(route.target_tile).position
        )


@given(**CASES)
@settings(max_examples=60, deadline=None)
def test_every_sizing_returns_at_least_the_floor(topology, width, height, seed, stages):
    platform, als, mapping, graph = routed_case(topology, width, height, seed, stages)
    floors = stream_buffer_floors(mapping, als, platform)
    edges = consumer_buffer_edges(graph)
    period = minimal_period_ns(graph, iterations=ITERATIONS) * 1.25
    sizings = [
        sufficient_buffer_capacities(graph, period, iterations=ITERATIONS),
        AnalysisEngine().sufficient_buffer_capacities(graph, period, iterations=ITERATIONS),
    ]
    for capacities in sizings:
        for name, capacity in capacities.items():
            assert capacity >= _lower_bound_capacity(graph, name)
        for channel_name, floor in floors.items():
            assert capacities[edges[channel_name]] >= floor

    # Hence a floor overflow is a sized overflow, whatever memory is free.
    need = _bytes_per_tile(als, mapping, floors)
    free_rng = Random(seed + 1)
    free = {tile: free_rng.randint(0, 2 * n) for tile, n in need.items()}
    if _first_overflow(als, mapping, floors, free) is not None:
        for capacities in sizings:
            sized = {name: capacities[edges[name]] for name in floors}
            assert _first_overflow(als, mapping, sized, free) is not None


@given(**CASES)
@settings(max_examples=60, deadline=None)
def test_sizing_covers_the_consumer_edges_at_their_all_edge_capacities(
    topology, width, height, seed, stages
):
    _, als, _, graph = routed_case(topology, width, height, seed, stages)
    period = minimal_period_ns(graph, iterations=ITERATIONS) * 1.25
    buffers = consumer_buffer_edges(graph)
    assert {
        channel: graph.edge(name).target for channel, name in buffers.items()
    } == {channel.name: channel.target for channel in als.kpn.data_channels()}
    run = feed_forward_run(graph, ITERATIONS, period, cycle_exit=True)
    every_edge = {
        name: max(observed, _lower_bound_capacity(graph, name))
        for name, observed in run.max_occupancy.items()
    }
    assert len(every_edge) == len(graph.edges)
    consumer_edges = set(buffers.values())
    functional, engine = AnalysisBudget(), AnalysisBudget()
    sizings = [
        sufficient_buffer_capacities(
            graph, period, iterations=ITERATIONS, early_exit=True, budget=functional
        ),
        AnalysisEngine().sufficient_buffer_capacities(
            graph, period, iterations=ITERATIONS, budget=engine
        ),
    ]
    for capacities in sizings:
        assert set(capacities) == consumer_edges
        for name, capacity in capacities.items():
            assert capacity == every_edge[name]
    assert functional.events_used == engine.events_used == run.simulated_events


def _bytes_per_tile(als, mapping, tokens):
    per_tile: dict[str, int] = {}
    for channel_name, count in tokens.items():
        channel = als.kpn.channel(channel_name)
        tile = mapping.tile_of(channel.target)
        per_tile[tile] = per_tile.get(tile, 0) + count * ((channel.token_size_bits + 7) // 8)
    return per_tile
