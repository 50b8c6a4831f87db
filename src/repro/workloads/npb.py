"""NAS Parallel Benchmarks models: BT, CG, FT, LU (Section IV-B3).

Each benchmark is an analytic skeleton — per-iteration compute plus the
benchmark's characteristic communication pattern — with class C/D problem
shapes.  The per-rank compute budget and message volumes are calibrated so
that class D at 64 ranks on the simulated AGC cluster lands in the
several-hundred-second range of Figure 7; absolute agreement with the
authors' testbed is out of scope (see EXPERIMENTS.md), the experiment's
point being **baseline vs proposed**: one Ninja migration adds exactly
hotplug + migration(∝ footprint) + link-up.

Patterns:

* **BT/SP-style** — 3-D face exchanges: six neighbour messages per
  iteration;
* **CG** — row/column partner exchanges plus dot-product allreduces;
* **FT** — global transpose: one all-to-all per iteration (dominant);
* **LU** — wavefront pencil exchanges: many small north/south messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

from repro.errors import MpiError
from repro.units import GiB, MiB
from repro.vmm.guest_memory import PageClass
from repro.workloads.base import Workload

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.communicator import CommView
    from repro.mpi.runtime import MpiProcess

#: The decomposition every :class:`NpbSpec` is calibrated at (8 VMs x 8).
REFERENCE_RANKS = 64


@dataclass(frozen=True)
class NpbSpec:
    """Shape of one benchmark at one problem class."""

    name: str
    class_name: str
    iterations: int
    #: Aggregate compute across the whole run, in rank-core-seconds at the
    #: reference 64-rank decomposition (divided evenly per rank).
    total_core_seconds: float
    #: Communication pattern: "faces" | "cg" | "alltoall" | "wavefront".
    pattern: str
    #: Per-rank bytes per neighbour message (faces/cg/wavefront) or per
    #: peer (alltoall), at the reference 64-rank decomposition.
    msg_bytes: int
    #: Messages per rank per iteration (pattern-specific meaning).
    msgs_per_iter: int
    #: Resident working set per *VM* at 8 ranks/VM (drives migration time;
    #: the paper reports 2.3 GB – 16 GB across the four benchmarks).
    footprint_per_vm: int

    def per_rank_compute_s(self, nranks: int) -> float:
        """Per-rank, per-iteration compute seconds at ``nranks``."""
        total = self.total_core_seconds * (REFERENCE_RANKS / nranks)
        return total / REFERENCE_RANKS / self.iterations

    def scaled_msg_bytes(self, nranks: int) -> int:
        """Surface-to-volume message scaling relative to 64 ranks."""
        scale = (REFERENCE_RANKS / nranks) ** (2.0 / 3.0)
        return max(int(self.msg_bytes * scale), 1)


#: Class D shapes, calibrated for 64 ranks (8 VMs × 8 ranks).
NPB_SUITE: Dict[str, NpbSpec] = {
    "BT": NpbSpec(
        name="BT", class_name="D", iterations=250,
        total_core_seconds=64 * 690.0, pattern="faces",
        msg_bytes=11 * MiB, msgs_per_iter=6,
        footprint_per_vm=int(6.5 * GiB),
    ),
    "CG": NpbSpec(
        name="CG", class_name="D", iterations=100,
        total_core_seconds=64 * 540.0, pattern="cg",
        msg_bytes=24 * MiB, msgs_per_iter=4,
        footprint_per_vm=int(2.3 * GiB),
    ),
    "FT": NpbSpec(
        name="FT", class_name="D", iterations=25,
        total_core_seconds=64 * 340.0, pattern="alltoall",
        msg_bytes=8 * MiB, msgs_per_iter=1,
        footprint_per_vm=16 * GiB,
    ),
    "LU": NpbSpec(
        name="LU", class_name="D", iterations=300,
        total_core_seconds=64 * 560.0, pattern="wavefront",
        msg_bytes=int(0.8 * MiB), msgs_per_iter=4,
        footprint_per_vm=int(3.8 * GiB),
    ),
}

#: Class C (for laptop-scale tests): ~16× smaller problem.
NPB_SUITE_C: Dict[str, NpbSpec] = {
    key: NpbSpec(
        name=spec.name, class_name="C", iterations=max(spec.iterations // 5, 5),
        total_core_seconds=spec.total_core_seconds / 16.0, pattern=spec.pattern,
        msg_bytes=max(spec.msg_bytes // 6, 1), msgs_per_iter=spec.msgs_per_iter,
        footprint_per_vm=spec.footprint_per_vm // 8,
    )
    for key, spec in NPB_SUITE.items()
}


class NpbWorkload(Workload):
    """One NPB benchmark instance."""

    def __init__(self, spec: NpbSpec, procs_per_vm: int = 8) -> None:
        self.spec = spec
        self.procs_per_vm = procs_per_vm
        #: rank 0's measured wall time, filled at completion.
        self.elapsed_s: float = 0.0

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"{self.spec.name}.{self.spec.class_name}"

    # -- communication phases (SPMD generators) -----------------------------------

    def _faces(self, comm: "CommView", msg: int):
        """3-D face exchange: pair with ±1, ±k, ±k² neighbours."""
        size, rank = comm.size, comm.rank
        k = max(int(round(size ** (1.0 / 3.0))), 1)
        strides = sorted({s for s in (1, k, k * k) if s % size != 0})
        for stride in strides:
            for direction in (+1, -1):
                dst = (rank + direction * stride) % size
                src = (rank - direction * stride) % size
                if dst == rank:
                    continue
                yield from comm.sendrecv(dst, msg, src, tag=1)

    def _cg(self, comm: "CommView", msg: int):
        """Row partner exchanges + two scalar allreduces."""
        size, rank = comm.size, comm.rank
        half = size // 2
        if half:
            partner = rank ^ half if (rank ^ half) < size else rank
            if partner != rank:
                yield from comm.sendrecv(partner, msg, partner, tag=2)
        neighbour = rank ^ 1 if (rank ^ 1) < size else rank
        if neighbour != rank:
            yield from comm.sendrecv(neighbour, msg, neighbour, tag=3)
        yield from comm.allreduce(8)
        yield from comm.allreduce(8)

    def _wavefront(self, comm: "CommView", msg: int, sweeps: int):
        """LU pencil exchanges: repeated small neighbour messages."""
        size, rank = comm.size, comm.rank
        for _ in range(sweeps):
            dst = (rank + 1) % size
            src = (rank - 1) % size
            yield from comm.sendrecv(dst, msg, src, tag=4)

    # -- main ---------------------------------------------------------------------------

    def rank_main(self, proc: "MpiProcess", comm: "CommView"):
        spec = self.spec
        footprint_per_rank = spec.footprint_per_vm // self.procs_per_vm
        self.populate(proc, footprint_per_rank, PageClass.DATA)
        yield from comm.barrier()
        t_start = proc.env.now

        compute_s = spec.per_rank_compute_s(comm.size)
        msg = spec.scaled_msg_bytes(comm.size)
        for _ in range(spec.iterations):
            yield proc.vm.compute(compute_s, nthreads=1)
            if spec.pattern == "faces":
                yield from self._faces(comm, msg)
            elif spec.pattern == "cg":
                yield from self._cg(comm, msg)
            elif spec.pattern == "alltoall":
                yield from comm.alltoall(msg)
            elif spec.pattern == "wavefront":
                yield from self._wavefront(comm, msg, spec.msgs_per_iter)
            else:  # pragma: no cover - spec validation
                raise MpiError(f"unknown NPB pattern {spec.pattern!r}")

        yield from comm.barrier()
        if comm.rank == 0:
            self.elapsed_s = proc.env.now - t_start
        return self.elapsed_s
