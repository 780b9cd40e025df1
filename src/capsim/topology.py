"""Hierarchical substrate: nodes, domains, regions, links, and transfer timing.

The topology is immutable after scenario load. Vertices are node ids plus one
implicit gateway vertex per region, named ``region:<region_id>``, where client
traffic enters. Routing between vertices is static shortest propagation delay
(Dijkstra), with ties broken by the lexicographically smallest link-id
sequence so paths are stable across runs. One search runs per source and is
resumed for each new target.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .descriptors import TRUST_MAX, TRUST_MIN, bounded


class Unreachable(Exception):
    """No path exists between the requested endpoints."""


def region_vertex(region_id: str) -> str:
    return f"region:{region_id}"


@dataclass(slots=True, eq=False, repr=False)
class Link:
    """An undirected link between two vertices: its delay, its bandwidth and whether it is a core link."""

    link_id: str
    src: str  # node id or region gateway vertex
    dst: str
    propagation_delay_us: int = bounded(0, 0)
    bandwidth_bytes_per_us: Fraction = bounded(Fraction(1), 0, above=True)
    is_core: bool = False


@dataclass(frozen=True, slots=True, repr=False)
class Route:
    """The fixed transfer parameters of one path: propagation delay, the
    bottleneck bandwidth ``bw_num / bw_den`` bytes per µs, and the number of
    core (wide-area) links. ``bw_den == 0`` marks the empty path between a
    vertex and itself, which costs nothing."""

    delay_us: int
    bw_num: int
    bw_den: int
    core_links: int

    def time_us(self, payload_bytes: int) -> int:
        """Propagation plus serialization at the bottleneck link, rounded up."""
        if not payload_bytes or not self.bw_den:
            return self.delay_us
        return self.delay_us - (-payload_bytes * self.bw_den // self.bw_num)

    def core_bytes(self, payload_bytes: int) -> int:
        """The payload counted once per core link on the path."""
        return payload_bytes * self.core_links


_EMPTY_ROUTE = Route(0, 1, 0, 0)
# Route-cache entry for a pair with no path between them.
_NO_ROUTE = Route(-1, 0, 0, 0)


# A path search's heap entry: (delay, link ids, vertex).
_Entry = tuple[int, tuple[str, ...], str]


@dataclass(slots=True, eq=False, repr=False)
class Domain:
    """A trust domain and the least trust a node it hosts must claim."""

    domain_id: str
    min_trust: int = bounded(0, TRUST_MIN, TRUST_MAX)  # admission floor for hosted nodes


class Topology:
    def __init__(self, nodes: list[str], domains: list[Domain], links: list[Link]):
        self.nodes: set[str] = set()
        for node_id in nodes:
            if node_id in self.nodes:
                raise ValueError(f"duplicate node_id {node_id}")
            self.nodes.add(node_id)
        self.domains: dict[str, Domain] = {d.domain_id: d for d in domains}
        self.links: dict[str, Link] = {}
        self._adjacency: dict[str, list[Link]] = {}
        for link in links:
            if link.link_id in self.links:
                raise ValueError(f"duplicate link_id {link.link_id}")
            if link.propagation_delay_us < 0:
                raise ValueError(f"link {link.link_id}: negative delay")
            if link.bandwidth_bytes_per_us <= 0:
                raise ValueError(f"link {link.link_id}: bandwidth must be > 0")
            self.links[link.link_id] = link
            self._adjacency.setdefault(link.src, []).append(link)
            self._adjacency.setdefault(link.dst, []).append(link)
        # Per source, its search: the heap, the link ids of the path to each
        # vertex it settled, and the heap entry of the one settled last until
        # its links are expanded.
        self._searches: dict[str, tuple[list[_Entry], dict[str, tuple[str, ...]], list[_Entry]]] = {}
        self._route_cache: dict[tuple[str, str], Route] = {}

    def path(self, src: str, dst: str) -> tuple[Link, ...]:
        """Minimum-propagation-delay link sequence from src to dst.

        ``src`` may be a node id or a ``region:<id>`` gateway vertex. Ties on
        total delay resolve to the smallest lexicographic link-id sequence.
        Raises Unreachable when the endpoints are not connected.

        One search runs per source and is kept: heap entries order by (delay,
        link-id sequence), so the first time a vertex is settled it holds the
        delay-minimal, lexicographically smallest path, whatever the target.
        A query for a vertex not yet settled resumes the source's search
        until that vertex settles or the heap runs out. A vertex's links are
        expanded only when the search goes on past it, so a search that
        stops at its target holds no entries for the target's neighbours.
        """
        if src == dst:
            return ()
        search = self._searches.get(src)
        if search is None:
            if src not in self._adjacency and src not in self.nodes:
                raise Unreachable(f"unknown vertex {src!r}")
            search = self._searches[src] = ([(0, (), src)], {}, [])
        heap, settled, unexpanded = search
        found = settled.get(dst)
        while found is None:
            if unexpanded:
                delay, ids, vertex = unexpanded.pop()
                for link in self._adjacency.get(vertex, ()):
                    other = link.dst if link.src == vertex else link.src
                    if other not in settled:
                        heapq.heappush(heap, (delay + link.propagation_delay_us, ids + (link.link_id,), other))
            if not heap:
                raise Unreachable(f"no path from {src!r} to {dst!r}")
            entry = heapq.heappop(heap)
            _, ids, vertex = entry
            if vertex not in settled:
                settled[vertex] = ids
                unexpanded.append(entry)
                if vertex == dst:
                    found = ids
        return tuple(self.links[link_id] for link_id in found)

    def path_delay_us(self, path: tuple[Link, ...]) -> int:
        return sum(link.propagation_delay_us for link in path)

    def route(self, src: str, dst: str) -> Route:
        """The transfer parameters of the path from src to dst.

        Raises Unreachable when the endpoints are not connected; a pair is
        searched at most once, whether or not it is connected.
        """
        route = self._route_cache.get((src, dst))
        if route is None:
            try:
                path = self.path(src, dst)
            except Unreachable:
                self._route_cache[(src, dst)] = _NO_ROUTE
                raise
            if path:
                bottleneck = min(link.bandwidth_bytes_per_us for link in path)
                route = Route(
                    self.path_delay_us(path), bottleneck.numerator, bottleneck.denominator, sum(1 for l in path if l.is_core)
                )
            else:
                route = _EMPTY_ROUTE
            self._route_cache[(src, dst)] = route
        if route is _NO_ROUTE:
            raise Unreachable(f"no path from {src!r} to {dst!r}")
        return route

    def transfer_between(self, src: str, dst: str, payload_bytes: int) -> tuple[int, int]:
        """(transfer_time_us, core_bytes) for a payload sent from src to dst.

        Time is propagation along the path plus serialization at the
        bottleneck link, rounded up; the same endpoint costs nothing. Core
        bytes count the payload once per wide-area link on the path.
        """
        route = self.route(src, dst)
        return route.time_us(payload_bytes), route.core_bytes(payload_bytes)

