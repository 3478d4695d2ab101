"""The rescue lane's energy bound before routing never exceeds the routed energy.

:func:`~repro.mapping.cost.mapping_energy_lower_bound_nj` costs every
channel at the NoC's hop distance between its endpoint routers; the rescue
lane cuts a candidate when that bound already reaches the shared best, so
the cut is exact only if no route can do better.  Random full placements on
random mesh and torus platforms, with random links loaded to capacity so
that routes detour, check that the bound stays at or below
``mapping_energy_nj`` of the routed mapping, and that on a mesh it is the
energy of the unrouted placement (Manhattan hops).
"""

from random import Random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mapping.assignment import ProcessAssignment
from repro.mapping.cost import CostModel, mapping_energy_lower_bound_nj, mapping_energy_nj
from repro.mapping.mapping import Mapping
from repro.platform.builder import PlatformBuilder
from repro.platform.state import LinkAllocation, PlatformState
from repro.platform.topology import build_mesh_noc, build_torus_noc
from repro.spatialmapper.step3_routing import route_channels
from repro.workloads.synthetic import SyntheticConfig, generate_application


#: Tiles whose type is not drawn, so that every platform has both types.
FIXED_TILES = {(1, 0): "GPP", (0, 1): "DSP"}


def random_platform(topology: str, width: int, height: int, seed: int):
    """A mesh or torus with I/O tiles in opposite corners and GPP/DSP
    elsewhere; (1, 0) is a GPP and (0, 1) a DSP, so both types exist."""
    build = build_torus_noc if topology == "torus" else build_mesh_noc
    builder = (
        PlatformBuilder(f"{topology}_{width}x{height}")
        .noc(build(width, height, link_capacity_bits_per_s=4e9))
        .tile_type("IO", is_processing=False)
        .tile_type("GPP")
        .tile_type("DSP")
        .tile("io_in", "IO", (0, 0))
        .tile("io_out", "IO", (width - 1, height - 1))
    )
    rng = Random(seed)
    for y in range(height):
        for x in range(width):
            if (x, y) in ((0, 0), (width - 1, height - 1)):
                continue
            tile_type = FIXED_TILES.get((x, y)) or rng.choice(("GPP", "DSP"))
            builder.tile(f"t{x}_{y}", tile_type, (x, y), max_processes=8)
    return builder.build()


def random_full_placement(rng: Random, app, platform) -> Mapping:
    """Every process on a random tile of a random implementation's type
    (tiles may repeat, so some channels are local)."""
    mapping = Mapping(app.als.name)
    for process in app.als.kpn.pinned_processes():
        mapping.assign(ProcessAssignment(process.name, process.pinned_tile))
    for process in app.als.kpn.mappable_processes():
        implementation = rng.choice(app.library.implementations_for(process.name))
        tiles = platform.processing_tile_names(implementation.tile_type)
        mapping.assign(ProcessAssignment(process.name, rng.choice(tiles), implementation))
    return mapping


@given(
    topology=st.sampled_from(("mesh", "torus")),
    width=st.integers(min_value=3, max_value=6),
    height=st.integers(min_value=3, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
    stages=st.integers(min_value=1, max_value=6),
    blocked_fraction=st.sampled_from((0.0, 0.15, 0.3)),
    hop_nj=st.sampled_from((0.0, 0.001, 0.37)),
    local_nj=st.sampled_from((0.0, 0.0001, 0.5)),
    activation_nj=st.sampled_from((0.0, 2.5)),
)
# Without FIXED_TILES this example draws every random tile as a GPP, and
# a DSP-only process has no tile to draw.
@example(
    topology="mesh", width=3, height=3, seed=143, stages=5, blocked_fraction=0.0,
    hop_nj=0.0, local_nj=0.0, activation_nj=0.0,
)
@settings(max_examples=300, deadline=None)
def test_bound_never_exceeds_the_routed_energy(
    topology, width, height, seed, stages, blocked_fraction, hop_nj, local_nj, activation_nj
):
    platform = random_platform(topology, width, height, seed)
    app = generate_application(
        seed, SyntheticConfig(stages=stages, tile_types=("GPP", "DSP"))
    )
    rng = Random(seed)
    mapping = random_full_placement(rng, app, platform)
    state = PlatformState(platform)
    for index, link in enumerate(platform.noc.links):
        if rng.random() < blocked_fraction:
            state.allocate_link(
                LinkAllocation("background", f"b{index}", link.name, link.capacity_bits_per_s)
            )
    model = CostModel(
        energy_per_bit_per_hop_nj=hop_nj,
        local_channel_energy_per_bit_nj=local_nj,
        tile_activation_energy_nj=activation_nj,
    )
    bound = mapping_energy_lower_bound_nj(mapping, app.als, platform, model)
    if topology == "mesh":
        assert bound == mapping_energy_nj(mapping, app.als, platform, model)
    step3 = route_channels(mapping, app.als, platform, state=state)
    if not step3.succeeded:
        return
    assert bound <= mapping_energy_nj(step3.mapping, app.als, platform, model)
