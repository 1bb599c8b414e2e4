"""A Manhattan-style grid road network with shortest-path routing.

Movement constrained to streets is what makes trajectory linkage attacks
realistic (the paper's Section 5.2 mentions "probability-based techniques
considering most common trajectories based on physical constraints like
roads, crossings"), and it concentrates commuters onto shared corridors,
which is what gives Algorithm 1 small anonymity boxes.

Routing is a bidirectional Dijkstra over the implicit grid, written out
in pure Python so that loading the network costs no graph library.  It
is a step-for-step copy of ``networkx.bidirectional_dijkstra`` on
``networkx.grid_2d_graph`` (same neighbour order, heap entries and float
sums), so it picks the same path among the many equally short ones;
``tests/mobility/test_network.py`` checks that against networkx.
"""

from __future__ import annotations

import heapq
import itertools
import math

from repro.geometry.point import Point

Node = tuple[int, int]


class RoadNetwork:
    """An ``nx_blocks × ny_blocks`` street grid with ``block_size`` meters
    per block.

    Nodes are intersections identified by integer grid coordinates; edges
    are street segments weighted by length.  Routing is Dijkstra on
    length, so routes are Manhattan shortest paths.  The graph is
    implicit: :meth:`neighbors` derives each intersection's streets.
    """

    def __init__(
        self, nx_blocks: int, ny_blocks: int, block_size: float = 200.0
    ) -> None:
        if nx_blocks < 1 or ny_blocks < 1:
            raise ValueError("grid must have at least one block per axis")
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        self.nx_blocks = nx_blocks
        self.ny_blocks = ny_blocks
        self.block_size = block_size

    @property
    def width(self) -> float:
        """East-west extent of the network, in meters."""
        return self.nx_blocks * self.block_size

    @property
    def height(self) -> float:
        """North-south extent of the network, in meters."""
        return self.ny_blocks * self.block_size

    def node_position(self, node: Node) -> Point:
        """Planar coordinates of an intersection."""
        return Point(node[0] * self.block_size, node[1] * self.block_size)

    def nearest_node(self, point: Point) -> Node:
        """The intersection closest to an arbitrary point (clamped)."""
        ix = min(max(round(point.x / self.block_size), 0), self.nx_blocks)
        iy = min(max(round(point.y / self.block_size), 0), self.ny_blocks)
        return (ix, iy)

    def neighbors(self, node: Node) -> list[Node]:
        """Intersections one block away: west, east, south, north.

        Only those on the grid are listed, in ``grid_2d_graph``'s
        adjacency order, which the router's tie-breaks follow.
        """
        x, y = node
        out = []
        if x > 0:
            out.append((x - 1, y))
        if x < self.nx_blocks:
            out.append((x + 1, y))
        if y > 0:
            out.append((x, y - 1))
        if y < self.ny_blocks:
            out.append((x, y + 1))
        return out

    def shortest_path(self, origin: Node, destination: Node) -> list[Node]:
        """Intersections on the shortest street path, both ends included.

        Bidirectional Dijkstra, stepping the forward and backward
        searches in turn exactly as ``networkx.bidirectional_dijkstra``
        does, so ties between equally short paths break the same way.
        """
        for node in (origin, destination):
            x, y = node
            if not (0 <= x <= self.nx_blocks and 0 <= y <= self.ny_blocks):
                raise ValueError(f"node {node} is not on the grid")
        if origin == destination:
            return [origin]
        block = self.block_size
        counter = itertools.count()
        # Per direction (0 = from the origin, 1 = from the destination):
        # final distances, best distances so far, predecessors, heap.
        dones: tuple[dict, dict] = ({}, {})
        seens: tuple[dict, dict] = ({origin: 0}, {destination: 0})
        preds: tuple[dict, dict] = ({origin: None}, {destination: None})
        fringes: tuple[list, list] = (
            [(0, next(counter), origin)],
            [(0, next(counter), destination)],
        )
        best = meet = None
        direction = 1
        while fringes[0] and fringes[1]:
            direction = 1 - direction
            done, seen, pred = (
                dones[direction], seens[direction], preds[direction]
            )
            dist, _, node = heapq.heappop(fringes[direction])
            if node in done:
                continue
            done[node] = dist
            if node in dones[1 - direction]:
                return self._join(preds, meet)
            seen_other = seens[1 - direction]
            length = dist + block
            for nxt in self.neighbors(node):
                if nxt in done:
                    continue
                if nxt not in seen or length < seen[nxt]:
                    seen[nxt] = length
                    heapq.heappush(
                        fringes[direction], (length, next(counter), nxt)
                    )
                    pred[nxt] = node
                    if nxt in seen_other:
                        total = length + seen_other[nxt]
                        if best is None or best > total:
                            best, meet = total, nxt
        raise AssertionError("a grid is connected")  # pragma: no cover

    @staticmethod
    def _join(preds: tuple[dict, dict], meet: Node) -> list[Node]:
        """The path through ``meet``: origin side, then destination side."""
        path: list[Node] = []
        node: "Node | None" = meet
        while node is not None:
            path.append(node)
            node = preds[0][node]
        path.reverse()
        node = preds[1][meet]
        while node is not None:
            path.append(node)
            node = preds[1][node]
        return path

    def route(self, origin: Node, destination: Node) -> list[Point]:
        """Waypoints of the shortest street path between intersections."""
        return [
            self.node_position(node)
            for node in self.shortest_path(origin, destination)
        ]

    def route_length(self, waypoints: list[Point]) -> float:
        """Total length of a waypoint polyline, in meters."""
        return sum(
            waypoints[i].distance_to(waypoints[i + 1])
            for i in range(len(waypoints) - 1)
        )

    def walk_route(
        self,
        waypoints: list[Point],
        depart_at: float,
        speed: float,
        sample_period: float,
    ) -> list[tuple[Point, float]]:
        """Positions along a route at a fixed sampling period.

        Returns ``(position, time)`` samples from departure to arrival
        (both endpoints included).  ``speed`` is in m/s.
        """
        if speed <= 0:
            raise ValueError(f"speed must be positive, got {speed}")
        if sample_period <= 0:
            raise ValueError(
                f"sample_period must be positive, got {sample_period}"
            )
        if not waypoints:
            return []
        total = self.route_length(waypoints)
        duration = total / speed
        samples = [(waypoints[0], depart_at)]
        steps = max(1, math.ceil(duration / sample_period))
        for step in range(1, steps):
            t = depart_at + step * sample_period
            samples.append(
                (self._position_along(waypoints, speed * step * sample_period),
                 t)
            )
        samples.append((waypoints[-1], depart_at + duration))
        return samples

    @staticmethod
    def _position_along(waypoints: list[Point], distance: float) -> Point:
        """Point at ``distance`` meters along the polyline."""
        remaining = distance
        for i in range(len(waypoints) - 1):
            a, b = waypoints[i], waypoints[i + 1]
            segment = a.distance_to(b)
            if remaining <= segment:
                if segment == 0:
                    return a
                alpha = remaining / segment
                return Point(
                    a.x + alpha * (b.x - a.x), a.y + alpha * (b.y - a.y)
                )
            remaining -= segment
        return waypoints[-1]
