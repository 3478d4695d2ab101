"""A region-scoped residual tracker answers as a full one on its scope.

Steps 1 and 2 and the rescue lane seed their
:class:`~repro.spatialmapper.residuals.ResidualTracker` with the tiles of
their scope only.  On random meshes and tori under random background load,
a tracker of one region of a 2x2 partition and a tracker of every tile,
both built from the same pinned mapping, go through the same random
placements, removals and moves, on tiles inside and outside the scope, and
must give the same free slots and free memory on every tile of the scope;
the scoped tracker holds no other tile.
"""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapping.assignment import ProcessAssignment
from repro.mapping.mapping import Mapping
from repro.platform.regions import RegionPartition
from repro.spatialmapper.residuals import ResidualTracker
from tests.property.test_prop_rescue_draw import background_state, random_platform


@given(
    topology=st.sampled_from(("mesh", "torus")),
    width=st.integers(min_value=3, max_value=5),
    height=st.integers(min_value=3, max_value=4),
    seed=st.integers(min_value=0, max_value=100_000),
    fill=st.sampled_from((0.0, 0.3, 0.7)),
    operations=st.integers(min_value=0, max_value=40),
)
@settings(max_examples=150, deadline=None)
def test_scoped_tracker_answers_as_a_full_one_in_scope(
    topology, width, height, seed, fill, operations
):
    rng = Random(seed)
    platform = random_platform(topology, width, height, rng)
    state = background_state(rng, platform, fill)
    scope = rng.choice(RegionPartition.grid(platform, 2, 2).regions).tile_names
    tiles = [tile.name for tile in platform.tiles]
    mapping = Mapping("app")
    mapping.assign(ProcessAssignment("src", "io"))
    for index in range(rng.randint(0, 3)):
        mapping.assign(ProcessAssignment(f"p{index}", rng.choice(tiles)))
    full = ResidualTracker.for_mapping(platform, state, mapping)
    scoped = ResidualTracker.for_mapping(platform, state, mapping, frozenset(scope))
    for _ in range(operations):
        kind = rng.choice(("place", "unplace", "move"))
        memory = rng.choice((0, 512, 1024, 4096))
        first, second = rng.choice(tiles), rng.choice(tiles)
        for tracker in (full, scoped):
            if kind == "move":
                tracker.move(first, second, memory)
            else:
                getattr(tracker, kind)(first, memory)
    for name in scope:
        assert scoped.free_slots(name) == full.free_slots(name)
        assert scoped.free_memory(name) == full.free_memory(name)
    for name in set(tiles) - set(scope):
        with pytest.raises(KeyError):
            scoped.free_slots(name)
