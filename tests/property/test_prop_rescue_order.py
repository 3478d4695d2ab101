"""Best-first rescue adopts what an exhaustive draw-order search adopts.

The rescue lane draws its whole portfolio, evaluates the placements in
``(energy bound, draw index)`` order and stops at the first bound that
cannot win.  With an unlimited ledger that must change nothing about the
result: the adopted mapping, its routes and its energy equal those of a
search that routes, costs and analyses *every* drawn placement in draw
order and keeps the feasible one of least energy, the earliest draw among
equal energies.  The reference search below lives here, not in the
library; it shares only the seeds with the lane and draws with the
tests-only scanning oracle (``tests/rescue_oracle.py``).

Platforms are random meshes and tori with random links loaded to capacity,
so that routes detour and the bound is often loose; the tiles carry random
memory, so that some placements fail the stream-buffer floor and step 4.
"""

from dataclasses import replace
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.csdf.analysis.budget import AnalysisEngine
from repro.mapping.cost import mapping_energy_nj
from repro.mapping.mapping import Mapping
from repro.mapping.properties import adherence_violations
from repro.platform.builder import PlatformBuilder
from repro.platform.state import LinkAllocation, PlatformState
from repro.platform.topology import build_mesh_noc, build_torus_noc
from repro.spatialmapper import rescue as rescue_module
from repro.spatialmapper.config import MapperConfig
from repro.spatialmapper.step3_routing import route_channels
from repro.spatialmapper.step4_feasibility import check_feasibility
from repro.workloads.synthetic import SyntheticConfig, generate_application
from tests.rescue_oracle import pinned_mapping, scanning_random_placement

CONFIG = replace(
    MapperConfig(analysis_iterations=3),
    rescue_searchers=4,
    rescue_attempts=4,
    rescue_budget=None,
)


def random_platform(topology: str, width: int, height: int, seed: int):
    """A mesh or torus with one I/O tile and GPP/DSP tiles of random memory."""
    build = build_torus_noc if topology == "torus" else build_mesh_noc
    builder = (
        PlatformBuilder(f"{topology}_{width}x{height}")
        .noc(build(width, height, link_capacity_bits_per_s=4e9))
        .tile_type("IO", is_processing=False)
        .tile_type("GPP")
        .tile_type("DSP")
        .tile("io", "IO", (0, 0))
    )
    rng = Random(seed)
    for y in range(height):
        for x in range(width):
            if (x, y) == (0, 0):
                continue
            builder.tile(
                f"t{x}_{y}",
                rng.choice(("GPP", "DSP")),
                (x, y),
                memory_bytes=rng.choice((4096, 16384, 65536)),
                max_processes=rng.choice((1, 2, 4)),
            )
    return builder.build()


def draw_order_search(app, platform, state, config, fingerprint):
    """Route, cost and analyse every drawn placement in draw order; return
    the feasible result of least energy (earliest draw on ties) as
    ``(energy, assignments, routes)``, or ``None``."""
    pinned = pinned_mapping(app.als)
    analysis = AnalysisEngine.from_config(config)
    best = None
    for searcher in range(config.rescue_searchers):
        rng = Random(rescue_module.rescue_seed(app.als, app.library, fingerprint, searcher))
        for _ in range(config.rescue_attempts):
            mapping = scanning_random_placement(
                rng, app.als, platform, app.library, state, pinned, None
            )
            if mapping is None:
                continue
            with state.transaction() as txn:
                step3 = route_channels(mapping, app.als, platform, state=state, config=config)
                if step3.succeeded and not adherence_violations(
                    step3.mapping, platform, app.library, state, app.als
                ):
                    energy = mapping_energy_nj(
                        step3.mapping, app.als, platform, config.cost_model
                    )
                    step4 = check_feasibility(
                        step3.mapping, app.als, platform, app.library,
                        state=state, config=config, analysis=analysis,
                    )
                    if step4.feasible and (best is None or energy < best[0]):
                        best = (energy, view(step4.mapping))
                txn.rollback()
    return best


def view(mapping: Mapping):
    """Assignments (with implementations) and routes of a mapping."""
    assignments = sorted((a.process, a.tile, a.implementation) for a in mapping.assignments)
    routes = sorted((r.channel, r.path) for r in mapping.routes)
    return assignments, routes


@given(
    topology=st.sampled_from(("mesh", "torus")),
    width=st.integers(min_value=3, max_value=5),
    height=st.integers(min_value=3, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
    stages=st.integers(min_value=1, max_value=5),
    blocked_fraction=st.sampled_from((0.0, 0.15, 0.3)),
)
@settings(max_examples=150, deadline=None)
def test_best_first_adopts_what_the_draw_order_search_adopts(
    topology, width, height, seed, stages, blocked_fraction
):
    platform = random_platform(topology, width, height, seed)
    app = generate_application(
        seed,
        SyntheticConfig(
            stages=stages,
            tile_types=("GPP", "DSP"),
            memory_choices=(1024, 2048, 4096),
        ),
        source_tile="io",
        sink_tile="io",
    )
    state = PlatformState(platform)
    rng = Random(seed)
    for index, link in enumerate(platform.noc.links):
        if rng.random() < blocked_fraction:
            state.allocate_link(
                LinkAllocation("background", f"b{index}", link.name, link.capacity_bits_per_s)
            )
    fingerprint = ("state", seed)
    before = state.fingerprint()

    expected = draw_order_search(app, platform, state, CONFIG, fingerprint)
    outcome = rescue_module.rescue_search(
        app.als, platform, app.library, state,
        config=CONFIG,
        analysis=AnalysisEngine.from_config(CONFIG),
        fingerprint=fingerprint,
    )

    assert state.fingerprint() == before
    assert not outcome.budget_exhausted
    assert outcome.energy_cut + outcome.floor_cut <= outcome.candidates
    if expected is None:
        assert outcome.result is None
        return
    energy, mapping_view = expected
    assert outcome.result.energy_nj_per_iteration == energy
    assert view(outcome.result.mapping) == mapping_view
