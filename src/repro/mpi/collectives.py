"""Collective algorithms (MPICH/Open MPI classic shapes).

All functions are SPMD generators: every rank of the communicator drives
the same call from its own simulation process, and the p2p sends/receives
inside execute the distributed algorithm.  Tags partition the collective
traffic from application point-to-point traffic.

Algorithms implemented:

* ``barrier`` — dissemination (log₂ P rounds of 0-byte exchanges);
* ``bcast`` — binomial tree by default (matching Open MPI's *basic*
  coll component, which the ft-enable-cr runs of the paper use), plus a
  segmented **chain pipeline** (``algorithm="chain"``) that is
  bandwidth-optimal for very large messages;
* ``reduce`` — mirrored binomial gather with per-merge operator cost;
* ``allreduce`` — reduce + bcast by default, plus the bandwidth-optimal
  **ring** (reduce-scatter + allgather) variant;
* ``alltoall`` — pairwise exchange.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.communicator import CommView

#: Tag space reserved for collective phases.
TAG_BARRIER = -10
TAG_BCAST = -11
TAG_REDUCE = -12
TAG_ALLGATHER = -14
TAG_ALLTOALL = -15
TAG_RSCAT = -17

#: Segment size of the chain-pipeline broadcast (Open MPI tuned uses
#: 128 KiB–1 MiB for large-message pipelines).
DEFAULT_SEGMENT_BYTES = 1 << 20


def barrier(view: "CommView"):
    """Dissemination barrier."""
    if view.proc.cr_pending:
        yield from view.proc.service_cr()
    size, rank = view.size, view.rank
    if size == 1:
        return
    mask = 1
    while mask < size:
        dst = (rank + mask) % size
        src = (rank - mask) % size
        yield from view.sendrecv(dst, 0, src, tag=TAG_BARRIER)
        mask <<= 1


def bcast(
    view: "CommView",
    nbytes: int,
    root: int = 0,
    value: object = None,
    algorithm: str = "binomial",
):
    """Broadcast rooted at ``root``; returns root's ``value`` everywhere.

    ``algorithm="binomial"`` (default, Open MPI *basic*) or ``"chain"``
    (segmented pipeline: cost ≈ (nbytes + (P−2)·segment) / bandwidth,
    far better for multi-GB payloads on more than two ranks).
    """
    if algorithm == "chain":
        result = yield from _bcast_chain(view, nbytes, root, value)
        return result
    if algorithm != "binomial":
        raise ValueError(f"unknown bcast algorithm {algorithm!r}")
    if view.proc.cr_pending:
        yield from view.proc.service_cr()
    size, rank = view.size, view.rank
    if size == 1:
        return value
    relative = (rank - root) % size

    received: Optional[object] = value if rank == root else None
    mask = 1
    while mask < size:
        if relative & mask:
            src = (rank - mask) % size
            message = yield from view.recv(src, tag=TAG_BCAST)
            received = message.value
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if relative + mask < size:
            dst = (rank + mask) % size
            yield from view.send(dst, nbytes, tag=TAG_BCAST, value=received)
        mask >>= 1
    return received


def _bcast_chain(view: "CommView", nbytes: int, root: int, value: object):
    """Segmented chain-pipeline broadcast.

    Ranks form a chain in root-relative order; segments stream down it,
    so all links carry traffic concurrently once the pipe fills.
    """
    if view.proc.cr_pending:
        yield from view.proc.service_cr()
    size, rank = view.size, view.rank
    if size == 1:
        return value
    relative = (rank - root) % size
    prev = (rank - 1) % size
    nxt = (rank + 1) % size
    nsegments = max(-(-int(nbytes) // DEFAULT_SEGMENT_BYTES), 1)
    seg = int(nbytes) // nsegments
    received = value if relative == 0 else None
    for index in range(nsegments):
        this_seg = seg if index < nsegments - 1 else int(nbytes) - seg * (nsegments - 1)
        if relative != 0:
            message = yield from view.recv(prev, tag=TAG_BCAST)
            if message.value is not None:
                received = message.value
        if relative != size - 1:
            # Only the last segment carries the control value (cheap).
            payload = received if index == nsegments - 1 else None
            yield from view.send(nxt, this_seg, tag=TAG_BCAST, value=payload)
    return received


def _reduce_compute(view: "CommView", nbytes: int):
    """Local operator application for one incoming buffer."""
    if nbytes <= 0:
        return
    cal = view.proc.calibration
    yield view.proc.vm.compute(nbytes / cal.reduce_op_Bps, nthreads=1)


def reduce(view: "CommView", nbytes: int, root: int = 0):
    """Binomial-tree reduction to ``root`` (operator cost modelled)."""
    if view.proc.cr_pending:
        yield from view.proc.service_cr()
    size, rank = view.size, view.rank
    if size == 1:
        return
    relative = (rank - root) % size
    mask = 1
    while mask < size:
        if relative & mask:
            dst = (rank - mask) % size
            yield from view.send(dst, nbytes, tag=TAG_REDUCE)
            break
        else:
            source_rel = relative | mask
            if source_rel < size:
                src = (source_rel + root) % size
                yield from view.recv(src, tag=TAG_REDUCE)
                yield from _reduce_compute(view, nbytes)
        mask <<= 1


def allreduce(view: "CommView", nbytes: int, algorithm: str = "basic"):
    """Allreduce: ``"basic"`` (reduce + bcast) or ``"ring"``.

    The ring variant (reduce-scatter + allgather) moves
    2·(P−1)/P · nbytes per rank — bandwidth-optimal for large payloads.
    """
    if algorithm == "ring":
        yield from _allreduce_ring(view, nbytes)
        return
    if algorithm != "basic":
        raise ValueError(f"unknown allreduce algorithm {algorithm!r}")
    yield from reduce(view, nbytes, root=0)
    yield from bcast(view, nbytes, root=0)


def _allreduce_ring(view: "CommView", nbytes: int):
    """Ring allreduce: P−1 reduce-scatter steps + P−1 allgather steps."""
    if view.proc.cr_pending:
        yield from view.proc.service_cr()
    size, rank = view.size, view.rank
    if size == 1:
        return
    chunk = max(int(nbytes) // size, 1)
    right = (rank + 1) % size
    left = (rank - 1) % size
    # Reduce-scatter phase: each step exchanges one chunk and reduces it.
    for _ in range(size - 1):
        yield from view.sendrecv(right, chunk, left, tag=TAG_RSCAT)
        yield from _reduce_compute(view, chunk)
    # Allgather phase: circulate the reduced chunks.
    for _ in range(size - 1):
        yield from view.sendrecv(right, chunk, left, tag=TAG_ALLGATHER)


def alltoall(view: "CommView", nbytes: int):
    """Pairwise-exchange all-to-all (``nbytes`` to every peer)."""
    if view.proc.cr_pending:
        yield from view.proc.service_cr()
    size, rank = view.size, view.rank
    if size == 1:
        return
    for step in range(1, size):
        dst = rank ^ step if (rank ^ step) < size else None
        if dst is None:
            # Non-power-of-two fallback: rotate instead of XOR pairing.
            dst = (rank + step) % size
            src = (rank - step) % size
        else:
            src = dst
        yield from view.sendrecv(dst, nbytes, src, tag=TAG_ALLTOALL)
