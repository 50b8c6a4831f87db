"""Network topology: a graph of hosts/switches joined by links.

Routing is shortest-path (hop count) with results cached; the AGC blade
enclosures are star topologies (every blade one hop from the chassis
switch), but the model supports arbitrary graphs for scale-out scenarios
(e.g. the two-rack disaster-recovery example).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import networkx as nx

from repro.errors import NetworkError
from repro.network.links import DirectedLink, Link


class Topology:
    """An undirected graph whose edges carry :class:`Link` objects."""

    HOST = "host"
    SWITCH = "switch"

    def __init__(self, name: str = "fabric") -> None:
        self.name = name
        self.graph = nx.Graph()
        self._path_cache: Dict[tuple[str, str], list[DirectedLink]] = {}
        #: :meth:`links`, sorted once per graph change.
        self._links: Optional[list[Link]] = None

    # -- construction ------------------------------------------------------------

    def add_host(self, name: str) -> None:
        """Add a host endpoint (a NIC/HCA attachment point)."""
        self.graph.add_node(name, kind=self.HOST)

    def add_switch(self, name: str) -> None:
        """Add a switch."""
        self.graph.add_node(name, kind=self.SWITCH)

    def add_link(self, a: str, b: str, link: Link) -> None:
        """Join two topology nodes with a link."""
        for endpoint in (a, b):
            if endpoint not in self.graph:
                raise NetworkError(f"{self.name}: unknown endpoint {endpoint!r}")
        self.graph.add_edge(a, b, link=link)
        self._path_cache.clear()
        self._links = None

    # -- queries -----------------------------------------------------------------

    def has(self, name: str) -> bool:
        return name in self.graph

    def endpoints(self, kind: Optional[str] = None) -> list[str]:
        """All node names, optionally filtered by kind."""
        if kind is None:
            return list(self.graph.nodes)
        return [n for n, d in self.graph.nodes(data=True) if d.get("kind") == kind]

    def links(self) -> list[Link]:
        """Every link in the graph (stable order: by link id)."""
        if self._links is None:
            found = {d["link"] for _, _, d in self.graph.edges(data=True)}
            self._links = sorted(found, key=lambda link: link.link_id)
        return list(self._links)

    def link_between(self, a: str, b: str) -> Link:
        """The link directly joining ``a`` and ``b``."""
        try:
            return self.graph.edges[a, b]["link"]
        except KeyError:
            raise NetworkError(f"{self.name}: no link {a!r}—{b!r}") from None

    def path(self, src: str, dst: str) -> list[DirectedLink]:
        """Directed links along the shortest path ``src`` → ``dst``.

        An empty list when ``src == dst`` (loopback).  Raises
        :class:`NetworkError` when no route exists or a link is down.
        """
        if src == dst:
            return []
        cached = self._path_cache.get((src, dst))
        if cached is None:
            try:
                nodes = nx.shortest_path(self.graph, src, dst)
            except (nx.NetworkXNoPath, nx.NodeNotFound) as err:
                raise NetworkError(f"{self.name}: no route {src!r}→{dst!r}") from err
            cached = []
            for a, b in zip(nodes, nodes[1:]):
                link = self.graph.edges[a, b]["link"]
                # Direction 0 == (min, max) node-name order, stable per link.
                direction = 0 if a <= b else 1
                cached.append(link.directed[direction])
            self._path_cache[(src, dst)] = cached
        for dlink in cached:
            if not dlink.up:
                raise NetworkError(
                    f"{self.name}: link {dlink.link.name} on {src!r}→{dst!r} is down"
                )
        return cached

    def path_latency(self, src: str, dst: str) -> float:
        """Sum of one-way link latencies along the route."""
        return sum(d.link.latency_s for d in self.path(src, dst))

    def bottleneck_Bps(self, src: str, dst: str) -> float:
        """Capacity of the narrowest link on the route ``src`` → ``dst``.

        ``inf`` for loopback (``src == dst``) — no network hop involved.
        The fleet planner uses this to weigh migrations by how much of
        the narrowest pipe they will consume.
        """
        route = self.path(src, dst)
        if not route:
            return float("inf")
        return min(d.capacity_Bps for d in route)

    def invalidate_routes(self) -> None:
        """Drop the path cache (after failing/restoring links)."""
        self._path_cache.clear()

    def star(
        self,
        switch: str,
        hosts: Iterable[str],
        capacity_Bps: float,
        latency_s: float = 0.0,
    ) -> None:
        """Convenience: build a single-switch star (one blade enclosure)."""
        self.add_switch(switch)
        for host in hosts:
            self.add_host(host)
            self.add_link(
                host,
                switch,
                Link(name=f"{host}--{switch}", capacity_Bps=capacity_Bps, latency_s=latency_s),
            )
