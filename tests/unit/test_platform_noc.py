"""NoC model, topology builders and routing."""

import pytest

from repro.exceptions import PlatformError, RoutingError
from repro.platform.noc import Link, NoC, Router
from repro.platform.routing import (
    capacity_aware_shortest_path,
    manhattan_distance,
    route_hop_count,
    xy_route,
)
from repro.platform.topology import build_mesh_noc, build_torus_noc


class TestRouterAndLink:
    def test_router_name_and_latency(self):
        router = Router((2, 1), latency_cycles=4, frequency_hz=100e6)
        assert router.name == "R2_1"
        assert router.latency_ns == pytest.approx(40.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(PlatformError):
            Router((0, 0), latency_cycles=-1)

    def test_link_name(self):
        link = Link((0, 0), (1, 0), 1e9)
        assert link.name == "L0_0__1_0"

    def test_link_self_loop_rejected(self):
        with pytest.raises(PlatformError):
            Link((0, 0), (0, 0), 1e9)

    def test_link_capacity_must_be_positive(self):
        with pytest.raises(PlatformError):
            Link((0, 0), (1, 0), 0)


class TestNoCContainer:
    def test_duplicate_router_rejected(self):
        noc = NoC()
        noc.add_router(Router((0, 0)))
        with pytest.raises(PlatformError):
            noc.add_router(Router((0, 0)))

    def test_link_requires_routers(self):
        noc = NoC()
        noc.add_router(Router((0, 0)))
        with pytest.raises(PlatformError):
            noc.add_link(Link((0, 0), (1, 0), 1e9))

    def test_neighbours(self):
        noc = build_mesh_noc(3, 3)
        assert set(noc.neighbours((1, 1))) == {(0, 1), (2, 1), (1, 0), (1, 2)}
        assert set(noc.neighbours((0, 0))) == {(1, 0), (0, 1)}

    def test_links_on_path(self):
        noc = build_mesh_noc(3, 1)
        links = noc.links_on_path(((0, 0), (1, 0), (2, 0)))
        assert [l.name for l in links] == ["L0_0__1_0", "L1_0__2_0"]

    def test_unknown_link_raises(self):
        noc = build_mesh_noc(2, 2)
        with pytest.raises(PlatformError):
            noc.link((0, 0), (1, 1))


class TestTopologies:
    def test_mesh_router_and_link_counts(self):
        noc = build_mesh_noc(3, 3)
        assert len(noc) == 9
        # 2 * (width-1)*height + 2 * width*(height-1) directed links.
        assert len(noc.links) == 2 * (2 * 3) + 2 * (3 * 2)

    def test_mesh_dimensions_must_be_positive(self):
        with pytest.raises(PlatformError):
            build_mesh_noc(0, 3)

    def test_torus_has_wraparound_links(self):
        torus = build_torus_noc(3, 3)
        assert torus.has_link((2, 0), (0, 0))
        assert torus.has_link((0, 2), (0, 0))

    def test_torus_requires_three_per_dimension(self):
        with pytest.raises(PlatformError):
            build_torus_noc(2, 3)


class TestRouting:
    def test_manhattan_distance(self):
        assert manhattan_distance((0, 0), (2, 3)) == 5
        assert manhattan_distance((1, 1), (1, 1)) == 0

    def test_xy_route_goes_x_first(self):
        noc = build_mesh_noc(3, 3)
        path = xy_route(noc, (0, 0), (2, 1))
        assert path == ((0, 0), (1, 0), (2, 0), (2, 1))

    def test_route_hop_count(self):
        assert route_hop_count(((0, 0), (1, 0))) == 1
        assert route_hop_count(((0, 0),)) == 0
        assert route_hop_count(()) == 0

    def test_shortest_path_matches_manhattan_on_empty_mesh(self):
        noc = build_mesh_noc(4, 4)
        path = capacity_aware_shortest_path(noc, (0, 0), (3, 2))
        assert route_hop_count(path) == manhattan_distance((0, 0), (3, 2))

    def test_same_source_and_target(self):
        noc = build_mesh_noc(2, 2)
        assert capacity_aware_shortest_path(noc, (1, 1), (1, 1)) == ((1, 1),)

    def test_loaded_links_are_avoided(self):
        noc = build_mesh_noc(3, 1, link_capacity_bits_per_s=100.0)
        # Fully load the direct link (0,0)->(1,0); no alternative exists on a 3x1 mesh,
        # so routing with a demand must fail.
        loads = {"L0_0__1_0": 100.0}
        with pytest.raises(RoutingError):
            capacity_aware_shortest_path(noc, (0, 0), (2, 0), 50.0, loads)

    def test_detour_taken_when_direct_link_full(self):
        noc = build_mesh_noc(2, 2, link_capacity_bits_per_s=100.0)
        loads = {"L0_0__1_0": 100.0}
        path = capacity_aware_shortest_path(noc, (0, 0), (1, 0), 50.0, loads)
        assert path == ((0, 0), (0, 1), (1, 1), (1, 0))

    def test_requirement_within_capacity_is_fine(self):
        noc = build_mesh_noc(2, 1, link_capacity_bits_per_s=100.0)
        loads = {"L0_0__1_0": 30.0}
        path = capacity_aware_shortest_path(noc, (0, 0), (1, 0), 70.0, loads)
        assert path == ((0, 0), (1, 0))

    def test_negative_requirement_rejected(self):
        noc = build_mesh_noc(2, 1)
        with pytest.raises(RoutingError):
            capacity_aware_shortest_path(noc, (0, 0), (1, 0), -1.0)

    def test_deterministic_tie_breaking(self):
        noc = build_mesh_noc(3, 3)
        first = capacity_aware_shortest_path(noc, (0, 0), (2, 2))
        second = capacity_aware_shortest_path(noc, (0, 0), (2, 2))
        assert first == second


class TestHopDistance:
    def test_mesh_hop_distance_is_manhattan(self):
        noc = build_mesh_noc(4, 3)
        for source in noc.positions:
            for target in noc.positions:
                assert noc.hop_distance(source, target) == manhattan_distance(source, target)

    def test_torus_wraps_below_manhattan(self):
        noc = build_torus_noc(5, 3)
        assert noc.hop_distance((0, 0), (4, 0)) == 1
        assert noc.hop_distance((0, 0), (4, 2)) == 2
        assert noc.hop_distance((0, 0), (2, 0)) == 2
        assert manhattan_distance((0, 0), (4, 2)) == 6

    def test_unreachable_router_is_infinitely_far(self):
        noc = NoC()
        for position in ((0, 0), (1, 0), (2, 0)):
            noc.add_router(Router(position))
        noc.add_link(Link((0, 0), (1, 0), 1e9))
        assert noc.hop_distance((0, 0), (1, 0)) == 1
        assert noc.hop_distance((1, 0), (0, 0)) == float("inf")
        assert noc.hop_distance((0, 0), (2, 0)) == float("inf")

    def test_a_new_link_drops_the_cached_rows(self):
        noc = NoC()
        for position in ((0, 0), (1, 0), (2, 0)):
            noc.add_router(Router(position))
        noc.add_bidirectional_link((0, 0), (1, 0), 1e9)
        noc.add_bidirectional_link((1, 0), (2, 0), 1e9)
        assert noc.hop_distance((0, 0), (2, 0)) == 2
        noc.add_link(Link((0, 0), (2, 0), 1e9))
        assert noc.hop_distance((0, 0), (2, 0)) == 1
        noc.add_router(Router((3, 0)))
        assert noc.hop_distance((0, 0), (3, 0)) == float("inf")
        noc.add_link(Link((2, 0), (3, 0), 1e9))
        assert noc.hop_distance((0, 0), (3, 0)) == 2

    def test_unknown_source_rejected(self):
        with pytest.raises(PlatformError):
            build_mesh_noc(2, 2).hop_distance((5, 5), (0, 0))
