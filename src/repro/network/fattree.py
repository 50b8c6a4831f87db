"""Parameterized k-ary fat-tree with deterministic ECMP routing.

The figure-level experiments run on single-switch stars (one AGC blade
enclosure).  The continuous-arrival scale campaign
(:mod:`repro.orchestrator.continuous`) needs data-center-shaped fleets —
hundreds of hosts whose traffic contends rack-locally far more often
than it crosses the core — so this module builds the classic three-tier
Clos fat-tree: ``k`` pods, each with ``k/2`` edge and ``k/2``
aggregation switches, ``(k/2)²`` core switches, and ``k³/4`` hosts
(``k=8`` → 128 hosts, ``k=16`` → 1024).

Routing is structural, not graph search: the pod/edge coordinates of the
two hosts determine the route shape (2, 4, or 6 links), and the
equal-cost choice — which aggregation switch, which core switch — hashes
the ``(src, dst)`` pair with ``zlib.crc32``.  Python's builtin ``hash``
is randomized per process and would make runs irreproducible; crc32 is
stable across runs and platforms, mirroring the flow pinning real ECMP
fabrics do on the five-tuple.  Routes are cached per ordered pair.
"""

from __future__ import annotations

import zlib
from typing import Dict, List

from repro.errors import NetworkError
from repro.network.links import DirectedLink, Link
from repro.network.topology import Topology
from repro.units import gbps, usec


class FatTree:
    """A k-ary fat-tree over :class:`~repro.network.topology.Topology`.

    Parameters
    ----------
    k:
        Switch radix (even, ≥ 2); the tree has ``k³/4`` hosts.
    host_Bps:
        Host-to-edge link capacity (default 10 GbE).
    fabric_Bps:
        Edge-agg and agg-core link capacity; defaults to ``host_Bps``
        (a rearrangeably non-blocking tree).  Pass less for an
        oversubscribed fabric.
    """

    def __init__(
        self,
        k: int = 4,
        *,
        host_Bps: float = gbps(10),
        fabric_Bps: float | None = None,
        latency_s: float = usec(5),
        name: str = "fattree",
    ) -> None:
        if k < 2 or k % 2:
            raise NetworkError(f"fat-tree arity must be even and >= 2, got {k}")
        self.k = k
        self.half = k // 2
        self.host_Bps = float(host_Bps)
        self.fabric_Bps = float(fabric_Bps if fabric_Bps is not None else host_Bps)
        self.topology = Topology(name)
        self._hosts: List[str] = []
        self._coords: Dict[str, tuple[int, int, int]] = {}
        self._racks: Dict[tuple[int, int], List[str]] = {}
        self._links: Dict[tuple[str, str], Link] = {}
        self._path_cache: Dict[tuple[str, str], List[DirectedLink]] = {}
        self._build(float(latency_s))

    # -- construction ------------------------------------------------------------

    @staticmethod
    def _edge(pod: int, e: int) -> str:
        return f"e{pod:02d}-{e:02d}"

    @staticmethod
    def _agg(pod: int, a: int) -> str:
        return f"a{pod:02d}-{a:02d}"

    @staticmethod
    def _core(a: int, j: int) -> str:
        return f"c{a:02d}-{j:02d}"

    def _wire(self, a: str, b: str, capacity_Bps: float, latency_s: float) -> None:
        lo, hi = (a, b) if a <= b else (b, a)
        link = Link(name=f"{lo}--{hi}", capacity_Bps=capacity_Bps, latency_s=latency_s)
        self._links[(lo, hi)] = link
        self.topology.add_link(a, b, link)

    def _build(self, latency_s: float) -> None:
        half = self.half
        topo = self.topology
        for a in range(half):
            for j in range(half):
                topo.add_switch(self._core(a, j))
        for pod in range(self.k):
            for e in range(half):
                topo.add_switch(self._edge(pod, e))
            for a in range(half):
                topo.add_switch(self._agg(pod, a))
            for e in range(half):
                edge = self._edge(pod, e)
                rack: List[str] = []
                for i in range(half):
                    host = f"h{pod:02d}-{e:02d}-{i:02d}"
                    topo.add_host(host)
                    self._hosts.append(host)
                    self._coords[host] = (pod, e, i)
                    rack.append(host)
                    self._wire(host, edge, self.host_Bps, latency_s)
                self._racks[(pod, e)] = rack
                for a in range(half):
                    self._wire(edge, self._agg(pod, a), self.fabric_Bps, latency_s)
            for a in range(half):
                agg = self._agg(pod, a)
                for j in range(half):
                    self._wire(agg, self._core(a, j), self.fabric_Bps, latency_s)

    # -- queries -----------------------------------------------------------------

    @property
    def hosts(self) -> List[str]:
        """All host names, in (pod, edge, index) order."""
        return list(self._hosts)

    @property
    def n_hosts(self) -> int:
        return len(self._hosts)

    def rack_of(self, host: str) -> tuple[int, int]:
        """(pod, edge) coordinates of a host's rack."""
        try:
            pod, e, _ = self._coords[host]
        except KeyError:
            raise NetworkError(f"{self.topology.name}: unknown host {host!r}") from None
        return pod, e

    def rack_hosts(self, host: str) -> List[str]:
        """Hosts sharing ``host``'s edge switch (including ``host``)."""
        return list(self._racks[self.rack_of(host)])

    def links(self) -> List[Link]:
        return self.topology.links()

    def invalidate_routes(self) -> None:
        """Drop both route caches (after failing/restoring links)."""
        self._path_cache.clear()
        self.topology.invalidate_routes()

    # -- routing -----------------------------------------------------------------

    def _dlink(self, a: str, b: str) -> DirectedLink:
        lo, hi = (a, b) if a <= b else (b, a)
        # Direction 0 == (min, max) name order — same convention as
        # Topology.path, so the two routers return the same interned
        # DirectedLink objects.
        return self._links[(lo, hi)].directed[0 if a <= b else 1]

    def path(self, src: str, dst: str) -> List[DirectedLink]:
        """Directed links along the ECMP-pinned route ``src`` → ``dst``.

        An empty list for ``src == dst``; raises :class:`NetworkError`
        for unknown hosts or when a link on the pinned route is down.
        """
        if src == dst:
            return []
        cached = self._path_cache.get((src, dst))
        if cached is None:
            cached = self._route(src, dst)
            self._path_cache[(src, dst)] = cached
        for dlink in cached:
            if not dlink.link.up:
                raise NetworkError(
                    f"{self.topology.name}: link {dlink.link.name} on "
                    f"{src!r}→{dst!r} is down"
                )
        return cached

    def _route(self, src: str, dst: str) -> List[DirectedLink]:
        try:
            p1, e1, _ = self._coords[src]
            p2, e2, _ = self._coords[dst]
        except KeyError as err:
            raise NetworkError(
                f"{self.topology.name}: unknown host {err.args[0]!r}"
            ) from None
        choice = zlib.crc32(f"{src}|{dst}".encode("utf-8"))
        half = self.half
        edge1, edge2 = self._edge(p1, e1), self._edge(p2, e2)
        if p1 == p2 and e1 == e2:
            nodes = [src, edge1, dst]
        elif p1 == p2:
            nodes = [src, edge1, self._agg(p1, choice % half), edge2, dst]
        else:
            a = choice % half
            j = (choice // half) % half
            nodes = [
                src, edge1, self._agg(p1, a), self._core(a, j),
                self._agg(p2, a), edge2, dst,
            ]
        return [self._dlink(x, y) for x, y in zip(nodes, nodes[1:])]

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<FatTree k={self.k} hosts={self.n_hosts} "
            f"links={len(self._links)}>"
        )
