"""Network topology: a graph of hosts/switches joined by links.

Routing is a breadth-first search from the source (hop count), with
results cached.  Neighbours are taken in link-insertion order, so among
equal-length routes the one through the earliest-added links wins; the
search is deterministic and needs no graph library.  Every graph this
module routes on in the repo is a tree — the AGC blade enclosures are
stars (every blade one hop from the chassis switch) and the two-site
estate is a chain of stars joined by WAN links — so every route is
unique anyway.  The k-ary fat-tree, the one fabric with equal-cost
paths, brings its own ECMP router (:mod:`repro.network.fattree`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.errors import NetworkError
from repro.network.links import DirectedLink, Link


class Topology:
    """An undirected graph whose edges carry :class:`Link` objects."""

    HOST = "host"
    SWITCH = "switch"

    def __init__(self, name: str = "fabric") -> None:
        self.name = name
        #: node → {neighbour → link}, both levels in insertion order.
        self._adj: Dict[str, Dict[str, Link]] = {}
        #: node → :attr:`HOST` or :attr:`SWITCH`.
        self._kind: Dict[str, str] = {}
        self._path_cache: Dict[tuple[str, str], list[DirectedLink]] = {}
        #: :meth:`links`, sorted once per graph change.
        self._links: Optional[list[Link]] = None

    # -- construction ------------------------------------------------------------

    def add_host(self, name: str) -> None:
        """Add a host endpoint (a NIC/HCA attachment point)."""
        self._add_node(name, self.HOST)

    def add_switch(self, name: str) -> None:
        """Add a switch."""
        self._add_node(name, self.SWITCH)

    def _add_node(self, name: str, kind: str) -> None:
        self._adj.setdefault(name, {})
        self._kind[name] = kind

    def add_link(self, a: str, b: str, link: Link) -> None:
        """Join two topology nodes with a link."""
        for endpoint in (a, b):
            if endpoint not in self._adj:
                raise NetworkError(f"{self.name}: unknown endpoint {endpoint!r}")
        self._adj[a][b] = link
        self._adj[b][a] = link
        self._path_cache.clear()
        self._links = None

    # -- queries -----------------------------------------------------------------

    def has(self, name: str) -> bool:
        return name in self._adj

    def links(self) -> list[Link]:
        """Every link in the graph (stable order: by link id)."""
        if self._links is None:
            found = {link for nbrs in self._adj.values() for link in nbrs.values()}
            self._links = sorted(found, key=lambda link: link.link_id)
        return list(self._links)

    def path(self, src: str, dst: str) -> list[DirectedLink]:
        """Directed links along the shortest path ``src`` → ``dst``.

        An empty list when ``src == dst`` (loopback).  Raises
        :class:`NetworkError` when no route exists or a link is down.
        """
        if src == dst:
            return []
        cached = self._path_cache.get((src, dst))
        if cached is None:
            cached = self._route(src, dst)
            self._path_cache[(src, dst)] = cached
        for dlink in cached:
            if not dlink.up:
                raise NetworkError(
                    f"{self.name}: link {dlink.link.name} on {src!r}→{dst!r} is down"
                )
        return cached

    def _route(self, src: str, dst: str) -> list[DirectedLink]:
        """Breadth-first search ``src`` → ``dst``, neighbours in link order."""
        if src not in self._adj or dst not in self._adj:
            raise NetworkError(f"{self.name}: no route {src!r}→{dst!r}")
        parent: Dict[str, str] = {src: src}
        queue = [src]
        for node in queue:  # grows as the search reaches new nodes
            if node == dst:
                break
            for nbr in self._adj[node]:
                if nbr not in parent:
                    parent[nbr] = node
                    queue.append(nbr)
        else:
            raise NetworkError(f"{self.name}: no route {src!r}→{dst!r}")
        route = []
        b = dst
        while b != src:
            a = parent[b]
            # Direction 0 == (min, max) node-name order, stable per link.
            route.append(self._adj[a][b].directed[0 if a <= b else 1])
            b = a
        route.reverse()
        return route

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
