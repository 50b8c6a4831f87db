"""Collective algorithms (MPICH/Open MPI classic shapes).

All functions are SPMD generators: every rank of the communicator drives
the same call from its own simulation process, and the p2p sends/receives
inside execute the distributed algorithm.  Tags partition the collective
traffic from application point-to-point traffic.

Algorithms implemented:

* ``barrier`` — dissemination (log₂ P rounds of 0-byte exchanges);
* ``bcast`` — binomial tree (matching Open MPI's *basic* coll component,
  which the ft-enable-cr runs of the paper use);
* ``reduce`` — mirrored binomial gather with per-merge operator cost;
* ``allreduce`` — reduce + bcast;
* ``alltoall`` — pairwise exchange.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.communicator import CommView

#: Tag space reserved for collective phases.
TAG_BARRIER = -10
TAG_BCAST = -11
TAG_REDUCE = -12
TAG_ALLTOALL = -15


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


def bcast(view: "CommView", nbytes: int, root: int = 0):
    """Binomial-tree broadcast of ``nbytes`` rooted at ``root``."""
    if view.proc.cr_pending:
        yield from view.proc.service_cr()
    size, rank = view.size, view.rank
    if size == 1:
        return
    relative = (rank - root) % size
    mask = 1
    while mask < size:
        if relative & mask:
            src = (rank - mask) % size
            yield from view.recv(src, tag=TAG_BCAST)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if relative + mask < size:
            dst = (rank + mask) % size
            yield from view.send(dst, nbytes, tag=TAG_BCAST)
        mask >>= 1


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


def allreduce(view: "CommView", nbytes: int):
    """Allreduce as reduce to rank 0 + bcast."""
    yield from reduce(view, nbytes, root=0)
    yield from bcast(view, nbytes, root=0)


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
