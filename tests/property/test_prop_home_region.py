"""Property test: a pinned application has at most one home region.

Region selection only orders candidates when more than one region
qualifies.  Every application the workloads submit pins its source and
sink to tiles, and a tile lies in exactly one region, so at most one region
can contain all of an application's pinned tiles.  On random grid
partitions of :func:`~repro.workloads.synthetic.generate_region_mesh`, with
random pins and a randomly filled platform, ``candidate_regions`` therefore
yields at most one region besides the global fallback.
"""

from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.regions import RegionPartition
from repro.platform.state import ProcessAllocation
from repro.runtime.pipeline import AdmissionPipeline
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_application,
    generate_region_mesh,
)


@st.composite
def pinned_requests(draw):
    """A grid partition of a region mesh and a pinned application's inputs.

    Half of the sinks are drawn from the source's own region, so the
    single-candidate case is common and not only the no-candidate one.
    """
    regions = draw(st.integers(min_value=1, max_value=3))
    span = draw(st.integers(min_value=1, max_value=3))
    platform = generate_region_mesh(regions, span)
    width = regions * span
    columns = draw(st.integers(min_value=1, max_value=width))
    rows = draw(st.integers(min_value=1, max_value=width))
    partition = RegionPartition.grid(platform, columns, rows)
    tiles = sorted(tile.name for tile in platform.tiles)
    source = draw(st.sampled_from(tiles))
    if draw(st.booleans()):
        home = partition.region_of_tile(source)
        tiles = [name for name in tiles if name in home]
    sink = draw(st.sampled_from(tiles))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    stages = draw(st.integers(min_value=1, max_value=3))
    fill = draw(st.floats(min_value=0.0, max_value=0.6))
    return platform, partition, source, sink, seed, stages, fill


@given(request=pinned_requests())
@settings(max_examples=60, deadline=None)
def test_pinned_application_has_at_most_one_candidate_region(request):
    platform, partition, source, sink, seed, stages, fill = request
    app = generate_application(
        seed,
        SyntheticConfig(stages=stages, tile_types=("GPP", "DSP")),
        name="pinned",
        source_tile=source,
        sink_tile=sink,
    )
    pipeline = AdmissionPipeline(platform, app.library, partition=partition)
    rng = Random(seed)
    for tile in platform.processing_tiles():
        if rng.random() < fill:
            pipeline.state.allocate_process(
                ProcessAllocation(
                    application="filler", process=f"f_{tile.name}", tile=tile.name
                )
            )
    candidates = pipeline.candidate_regions(app.als, app.library)
    regions = [region for region in candidates if region is not None]
    assert len(regions) <= 1
    for region in regions:
        assert source in region and sink in region
    assert candidates[-1] is None
