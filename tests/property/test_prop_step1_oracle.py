"""Step 1 with kept eligible lists and scores equals the rescanning oracle.

:func:`~repro.spatialmapper.step1_implementation.select_implementations`
derives each (process, implementation) eligible-tile list once and after a
placement re-checks only the tile just used, and it re-scores only the
processes a placement changed; the tests-only oracle
(``tests/step1_oracle.py``) re-derives every list from all tiles and
re-scores every process on every iteration.  On random platforms with
one-slot and memory-tight tiles, random background load, random region
scopes, banned implementations and placements, and both desirability
metrics, the two must return the same mapping (assignment order included),
placement order and feedback.
"""

from random import Random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.platform.builder import PlatformBuilder
from repro.platform.regions import RegionPartition
from repro.platform.state import PlatformState, ProcessAllocation
from repro.spatialmapper.config import DesirabilityMetric, MapperConfig
from repro.spatialmapper.feedback import ExclusionSet
from repro.spatialmapper.step1_implementation import select_implementations
from repro.workloads.synthetic import SyntheticConfig, generate_application
from tests.step1_oracle import rescanning_select_implementations

TILE_TYPES = ("GPP", "DSP", "ACCEL")


def random_platform(rng: Random, width: int, height: int):
    """A mesh whose tiles have 1-3 slots and 4 kB to 128 kB of memory."""
    builder = (
        PlatformBuilder("step1")
        .mesh(width, height)
        .tile_type("IO", is_processing=False)
        .tile("io_in", "IO", (0, 0))
        .tile("io_out", "IO", (width - 1, height - 1))
    )
    for tile_type in TILE_TYPES:
        builder.tile_type(tile_type)
    for y in range(height):
        for x in range(width):
            if (x, y) in ((0, 0), (width - 1, height - 1)):
                continue
            builder.tile(
                f"t{x}_{y}",
                rng.choice(TILE_TYPES),
                (x, y),
                max_processes=rng.choice((1, 1, 2, 3)),
                memory_bytes=rng.choice((4096, 8192, 16384, 128 * 1024)),
            )
    return builder.build()


def background_state(rng: Random, platform, fill: float) -> PlatformState:
    """Other applications occupying random slots and memory."""
    state = PlatformState(platform)
    for index, tile in enumerate(platform.processing_tiles()):
        if rng.random() < fill and state.free_process_slots(tile.name) > 0:
            memory = rng.randint(0, state.free_memory_bytes(tile.name))
            state.allocate_process(
                ProcessAllocation("background", f"p{index}", tile.name, memory_bytes=memory)
            )
    return state


def random_exclusions(rng: Random, app, platform, ban_rate: float) -> ExclusionSet:
    exclusions = ExclusionSet()
    for process in app.als.kpn.mappable_processes():
        for implementation in app.library.implementations_for(process.name):
            if rng.random() < ban_rate:
                exclusions.ban_implementation(process.name, implementation.tile_type)
        for tile in platform.processing_tiles():
            if rng.random() < ban_rate:
                exclusions.ban_placement(process.name, tile.name)
    return exclusions


def view(result):
    return (
        [
            (a.process, a.tile, a.implementation)
            for a in result.mapping.assignments
        ],
        result.order,
        result.feedback,
    )


@given(
    seed=st.integers(min_value=0, max_value=100_000),
    width=st.integers(min_value=2, max_value=5),
    height=st.integers(min_value=2, max_value=5),
    stages=st.integers(min_value=1, max_value=8),
    branches=st.integers(min_value=1, max_value=3),
    fill=st.sampled_from((0.0, 0.3, 0.7)),
    ban_rate=st.sampled_from((0.0, 0.1, 0.3)),
    scoped=st.booleans(),
    metric=st.sampled_from(tuple(DesirabilityMetric)),
)
@settings(max_examples=250, deadline=None)
# Under the communication-aware metric, placing k0 changes its neighbour
# k1's estimate and so which process wins next: k2 before k1.  A step 1
# that re-scored only the processes whose eligible list lost a tile would
# keep k1's stale score and place k1 second.
@example(
    seed=39, width=2, height=2, stages=3, branches=1, fill=0.0, ban_rate=0.0,
    scoped=False, metric=DesirabilityMetric.ENERGY_AND_COMMUNICATION,
)
def test_kept_lists_match_the_rescanning_oracle(
    seed, width, height, stages, branches, fill, ban_rate, scoped, metric
):
    rng = Random(seed)
    platform = random_platform(rng, width, height)
    app = generate_application(
        seed,
        SyntheticConfig(
            stages=stages,
            parallel_branches=branches,
            tile_types=TILE_TYPES,
            memory_choices=(2048, 4096, 8192, 12288),
        ),
    )
    state = background_state(rng, platform, fill)
    exclusions = random_exclusions(rng, app, platform, ban_rate)
    allowed_tiles = None
    if scoped and width * height >= 4:
        partition = RegionPartition.grid(platform, 2, 2)
        allowed_tiles = frozenset(rng.choice(partition.regions).tile_names)
    config = MapperConfig(desirability_metric=metric)

    kwargs = dict(state=state, config=config, exclusions=exclusions, allowed_tiles=allowed_tiles)
    expected = rescanning_select_implementations(app.als, platform, app.library, **kwargs)
    actual = select_implementations(app.als, platform, app.library, **kwargs)
    assert view(actual) == view(expected)
