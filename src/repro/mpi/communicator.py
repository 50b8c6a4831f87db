"""Communicators and the per-rank API (mpi4py-flavoured naming).

A :class:`Communicator` is shared job state (rank list + context id);
each rank interacts through its :class:`CommView`, whose methods return
generators driven inside that rank's simulation process::

    def rank_main(proc, comm):
        yield from comm.bcast(8 * GiB, root=0)
        yield from comm.barrier()
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING, List

from repro.errors import MpiError
from repro.mpi import collectives
from repro.mpi.datatypes import ANY_SOURCE, ANY_TAG

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.runtime import MpiJob, MpiProcess

_context_ids = count()


class Communicator:
    """A communication context over a subset of a job's ranks."""

    def __init__(self, job: "MpiJob", world_ranks: List[int]) -> None:
        if not world_ranks:
            raise MpiError("empty communicator")
        self.job = job
        self.comm_id = next(_context_ids)
        #: Map comm-rank -> world-rank.
        self.world_ranks = list(world_ranks)
        self._index = {w: i for i, w in enumerate(self.world_ranks)}

    @property
    def size(self) -> int:
        return len(self.world_ranks)

    def view(self, world_rank: int) -> "CommView":
        if world_rank not in self._index:
            raise MpiError(f"world rank {world_rank} not in communicator")
        return CommView(self, self.job.proc(world_rank))

    def split(self, members: List[int]) -> "Communicator":
        """Create a sub-communicator from comm-local ranks."""
        world = [self.world_ranks[r] for r in members]
        return Communicator(self.job, world)


class CommView:
    """One rank's handle on a communicator."""

    def __init__(self, comm: Communicator, proc: "MpiProcess") -> None:
        self.comm = comm
        self.proc = proc
        self.rank = comm._index[proc.rank]
        self.size = comm.size

    # -- plumbing ---------------------------------------------------------------

    def _world(self, comm_rank: int) -> int:
        try:
            return self.comm.world_ranks[comm_rank]
        except IndexError:
            raise MpiError(f"rank {comm_rank} outside communicator of size {self.size}") from None

    # -- point-to-point ---------------------------------------------------------------

    def send(self, dst: int, nbytes: int, tag: int = 0):
        """Blocking send to comm-rank ``dst`` (generator)."""
        return self.proc.send(self._world(dst), nbytes, tag=tag, comm_id=self.comm.comm_id)

    def isend(self, dst: int, nbytes: int, tag: int = 0):
        """Non-blocking send; returns a completion event."""
        return self.proc.isend(self._world(dst), nbytes, tag=tag, comm_id=self.comm.comm_id)

    def recv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive from comm-rank ``src``; returns the Message."""
        world_src = src if src == ANY_SOURCE else self._world(src)
        return self.proc.recv(world_src, tag, comm_id=self.comm.comm_id)

    def sendrecv(self, dst: int, nbytes: int, src: int, tag: int = 0):
        """Exchange step; returns the received Message."""
        world_src = src if src == ANY_SOURCE else self._world(src)
        return self.proc.sendrecv(
            self._world(dst), nbytes, world_src, tag=tag, comm_id=self.comm.comm_id
        )

    # -- collectives (delegate to algorithms) ----------------------------------------------

    def barrier(self):
        """Dissemination barrier (generator)."""
        return collectives.barrier(self)

    def bcast(self, nbytes: int, root: int = 0):
        """Binomial-tree broadcast from ``root`` (generator)."""
        return collectives.bcast(self, nbytes, root)

    def reduce(self, nbytes: int, root: int = 0):
        """Binomial-tree reduction (computation cost included)."""
        return collectives.reduce(self, nbytes, root)

    def allreduce(self, nbytes: int):
        """Allreduce as reduce + bcast (generator)."""
        return collectives.allreduce(self, nbytes)

    def alltoall(self, nbytes: int):
        """Pairwise-exchange all-to-all (``nbytes`` per peer)."""
        return collectives.alltoall(self, nbytes)
