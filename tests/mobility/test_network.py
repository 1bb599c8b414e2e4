"""Unit tests for the grid road network."""

import itertools
import random

import pytest

from repro.geometry.point import Point
from repro.mobility.network import RoadNetwork
from repro.mobility.population import CityConfig, SyntheticCity


class TestConstruction:
    def test_dimensions(self):
        net = RoadNetwork(4, 3, block_size=100.0)
        assert net.width == 400.0
        assert net.height == 300.0

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            RoadNetwork(0, 3)

    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError):
            RoadNetwork(2, 2, block_size=-1.0)

    def test_neighbor_degrees(self):
        """2 streets at corners, 3 on edges, 4 inside; W, E, S, N."""
        net = RoadNetwork(4, 3)
        nodes = list(itertools.product(range(5), range(4)))
        degrees = [len(net.neighbors(node)) for node in nodes]
        assert degrees.count(2) == 4
        assert degrees.count(3) == 2 * (3 + 2)
        assert degrees.count(4) == 3 * 2
        assert net.neighbors((0, 0)) == [(1, 0), (0, 1)]
        assert net.neighbors((4, 3)) == [(3, 3), (4, 2)]
        assert net.neighbors((2, 0)) == [(1, 0), (3, 0), (2, 1)]
        assert net.neighbors((0, 2)) == [(1, 2), (0, 1), (0, 3)]
        assert net.neighbors((2, 1)) == [(1, 1), (3, 1), (2, 0), (2, 2)]


class TestGeometry:
    net = RoadNetwork(10, 10, block_size=200.0)

    def test_node_position(self):
        assert self.net.node_position((3, 4)) == Point(600, 800)

    def test_nearest_node_rounds(self):
        assert self.net.nearest_node(Point(590, 790)) == (3, 4)

    def test_nearest_node_clamps(self):
        assert self.net.nearest_node(Point(-500, 99999)) == (0, 10)


class TestRouting:
    net = RoadNetwork(10, 10, block_size=200.0)

    def test_route_endpoints(self):
        route = self.net.route((0, 0), (3, 2))
        assert route[0] == Point(0, 0)
        assert route[-1] == Point(600, 400)

    def test_route_length_is_manhattan(self):
        route = self.net.route((0, 0), (3, 2))
        assert self.net.route_length(route) == pytest.approx(5 * 200.0)

    def test_route_to_self(self):
        route = self.net.route((2, 2), (2, 2))
        assert route == [Point(400, 400)]

    def test_route_steps_one_block_at_a_time(self):
        path = self.net.shortest_path((9, 1), (2, 7))
        assert len(path) == 7 + 6 + 1
        for a, b in zip(path, path[1:]):
            assert b in self.net.neighbors(a)

    @pytest.mark.parametrize("node", [(-1, 0), (0, 11), (11, 11)])
    def test_rejects_nodes_off_the_grid(self, node):
        with pytest.raises(ValueError):
            self.net.route(node, (0, 0))
        with pytest.raises(ValueError):
            self.net.route((0, 0), node)


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


def _grid_graph(nx, net):
    """The networkx graph the router stands in for."""
    graph = nx.grid_2d_graph(net.nx_blocks + 1, net.ny_blocks + 1)
    nx.set_edge_attributes(graph, net.block_size, "length")
    return graph


class TestMatchesNetworkx:
    """The router returns networkx's path, tie-breaks included.

    Many Manhattan paths are equally short; which one a commuter walks
    shapes every synthetic city, so the router must pick the one
    ``nx.shortest_path(..., weight="length")`` picks.  Non-integer block
    sizes make the summed float lengths round, as networkx's do.
    """

    @pytest.mark.parametrize("block_size", [0.1, 37.5, 200.0])
    @pytest.mark.parametrize("blocks", [(1, 1), (2, 3), (4, 3), (7, 5)])
    def test_every_pair_on_small_grids(self, nx, blocks, block_size):
        net = RoadNetwork(*blocks, block_size=block_size)
        graph = _grid_graph(nx, net)
        for origin, destination in itertools.product(graph, repeat=2):
            assert net.shortest_path(origin, destination) == (
                nx.shortest_path(graph, origin, destination, weight="length")
            ), (origin, destination)

    @pytest.mark.parametrize("block_size", [0.1, 37.5])
    def test_seeded_pairs_on_the_city_grid(self, nx, block_size):
        net = RoadNetwork(20, 20, block_size=block_size)
        graph = _grid_graph(nx, net)
        rng = random.Random(int(block_size * 10))
        for _ in range(10_000):
            origin = (rng.randint(0, 20), rng.randint(0, 20))
            destination = (rng.randint(0, 20), rng.randint(0, 20))
            assert net.shortest_path(origin, destination) == (
                nx.shortest_path(graph, origin, destination, weight="length")
            ), (origin, destination)

    def test_neighbor_order_is_networkx_adjacency(self, nx):
        net = RoadNetwork(4, 3)
        graph = _grid_graph(nx, net)
        for node in graph:
            assert net.neighbors(node) == list(graph.adj[node])

    def test_city_commuter_routes_unchanged(self, nx):
        city = SyntheticCity.generate(CityConfig(seed=11))
        graph = _grid_graph(nx, city.network)
        for commuter in city.commuters:
            path = nx.shortest_path(
                graph, commuter.home, commuter.work, weight="length"
            )
            expected = [city.network.node_position(node) for node in path]
            assert commuter._route_out == expected, commuter.user_id


class TestWalkRoute:
    net = RoadNetwork(10, 10, block_size=200.0)

    def test_samples_cover_trip(self):
        route = self.net.route((0, 0), (2, 0))  # 400 m
        samples = self.net.walk_route(
            route, depart_at=1000.0, speed=10.0, sample_period=10.0
        )
        assert samples[0] == (Point(0, 0), 1000.0)
        assert samples[-1][0] == Point(400, 0)
        assert samples[-1][1] == pytest.approx(1040.0)

    def test_positions_progress_monotonically(self):
        route = self.net.route((0, 0), (3, 3))
        samples = self.net.walk_route(route, 0.0, 5.0, 30.0)
        times = [t for _p, t in samples]
        assert times == sorted(times)

    def test_positions_on_streets(self):
        """Every sample lies on a grid line (Manhattan movement)."""
        route = self.net.route((0, 0), (3, 3))
        samples = self.net.walk_route(route, 0.0, 5.0, 30.0)
        for point, _t in samples:
            on_street = (
                point.x % 200.0 < 1e-6
                or abs(point.x % 200.0 - 200.0) < 1e-6
                or point.y % 200.0 < 1e-6
                or abs(point.y % 200.0 - 200.0) < 1e-6
            )
            assert on_street

    def test_rejects_bad_speed(self):
        with pytest.raises(ValueError):
            self.net.walk_route([Point(0, 0)], 0.0, 0.0, 10.0)

    def test_empty_route(self):
        assert self.net.walk_route([], 0.0, 5.0, 10.0) == []
