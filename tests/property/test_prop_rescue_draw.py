"""The rescue lane's table draw equals the scanning draw, bound included.

The lane builds one option table per call and draws each placement against
it with a per-draw delta of the slots and memory the draw has used; the
tests-only oracle (``tests/rescue_oracle.py``) copies a mapping and a
residual tracker per draw and scans every implementation's eligible tiles
for every process it places.  From the same seed both must make the same
random calls and place the same processes, in the same order, on the same
tiles with the same implementations, and the lane's bound, computed from
tile names alone, must equal
:func:`~repro.mapping.cost.mapping_energy_lower_bound_nj` of the oracle's
mapping bit for bit.

Platforms are random meshes and tori whose tiles have one to four slots and
little memory, under random background load, with the draw confined to one
region of a 2x2 partition or to the whole platform.
"""

from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapping.cost import CostModel, mapping_energy_lower_bound_nj
from repro.platform.builder import PlatformBuilder
from repro.platform.regions import RegionPartition
from repro.platform.state import PlatformState, ProcessAllocation
from repro.platform.topology import build_mesh_noc, build_torus_noc
from repro.spatialmapper import rescue as rescue_module
from repro.workloads.synthetic import SyntheticConfig, generate_application
from tests.rescue_oracle import pinned_mapping, scanning_random_placement

COST_MODELS = (CostModel(), CostModel(tile_activation_energy_nj=0.37))


def random_platform(topology: str, width: int, height: int, rng: Random):
    """A mesh or torus with one I/O tile and memory-tight GPP/DSP tiles."""
    build = build_torus_noc if topology == "torus" else build_mesh_noc
    builder = (
        PlatformBuilder(f"{topology}_{width}x{height}")
        .noc(build(width, height))
        .tile_type("IO", is_processing=False)
        .tile_type("GPP")
        .tile_type("DSP")
        .tile("io", "IO", (0, 0))
    )
    for y in range(height):
        for x in range(width):
            if (x, y) == (0, 0):
                continue
            builder.tile(
                f"t{x}_{y}",
                rng.choice(("GPP", "DSP")),
                (x, y),
                memory_bytes=rng.choice((2048, 4096, 8192)),
                max_processes=rng.choice((1, 1, 2, 4)),
            )
    return builder.build()


def background_state(rng: Random, platform, fill: float) -> PlatformState:
    """Other applications occupying random slots and memory."""
    state = PlatformState(platform)
    for index, tile in enumerate(platform.processing_tiles()):
        if rng.random() < fill:
            memory = rng.randint(0, state.free_memory_bytes(tile.name))
            state.allocate_process(
                ProcessAllocation("background", f"p{index}", tile.name, memory_bytes=memory)
            )
    return state


def assignments(mapping):
    """Assignments in insertion order, implementations included."""
    return [(a.process, a.tile, a.implementation) for a in mapping.assignments]


@given(
    topology=st.sampled_from(("mesh", "torus")),
    width=st.integers(min_value=3, max_value=5),
    height=st.integers(min_value=3, max_value=4),
    seed=st.integers(min_value=0, max_value=100_000),
    stages=st.integers(min_value=1, max_value=6),
    branches=st.integers(min_value=1, max_value=2),
    fill=st.sampled_from((0.0, 0.3, 0.7)),
    scoped=st.booleans(),
    cost_model=st.sampled_from(COST_MODELS),
)
@settings(max_examples=200, deadline=None)
def test_table_draw_equals_the_scanning_draw(
    topology, width, height, seed, stages, branches, fill, scoped, cost_model
):
    rng = Random(seed)
    platform = random_platform(topology, width, height, rng)
    app = generate_application(
        seed,
        SyntheticConfig(
            stages=stages,
            parallel_branches=branches,
            tile_types=("GPP", "DSP"),
            memory_choices=(1024, 2048, 4096),
        ),
        source_tile="io",
        sink_tile="io",
    )
    state = background_state(rng, platform, fill)
    allowed_tiles = None
    if scoped:
        partition = RegionPartition.grid(platform, 2, 2)
        allowed_tiles = frozenset(rng.choice(partition.regions).tile_names)
    table = rescue_module._DrawTable(
        app.als, platform, app.library, state, allowed_tiles, cost_model
    )
    pinned = pinned_mapping(app.als)

    for searcher in range(4):
        expected_rng = Random(seed * 8 + searcher)
        actual_rng = Random(seed * 8 + searcher)
        for _ in range(4):
            expected = scanning_random_placement(
                expected_rng, app.als, platform, app.library, state, pinned, allowed_tiles
            )
            actual = rescue_module._draw_placement(actual_rng, table)
            assert actual_rng.getstate() == expected_rng.getstate()
            if expected is None:
                assert actual is None
                continue
            mapping = rescue_module._placement_mapping(actual, table)
            assert assignments(mapping) == assignments(expected)
            assert rescue_module._placement_bound(actual, table) == (
                mapping_energy_lower_bound_nj(expected, app.als, platform, cost_model)
            )
