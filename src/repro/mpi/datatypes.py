"""Message descriptors exchanged by the simulated MPI layer.

Payloads are described, not carried: a message has a size and a
*compressibility class* (so that application buffers landing in guest
memory interact correctly with migration's uniform-page compression).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Any

from repro.vmm.guest_memory import PageClass

#: Wildcards matching mpi4py/MPI semantics.
ANY_SOURCE = -1
ANY_TAG = -1

_seq = count()


@dataclass(frozen=True)
class Message:
    """An MPI message envelope + payload descriptor."""

    src: int
    dst: int
    tag: int
    nbytes: int
    comm_id: int = 0
    #: What the receive buffer looks like to the migration scanner.
    page_class: PageClass = PageClass.DATA
    #: Optional application payload (small control values only).
    value: Any = None
    seq: int = field(default_factory=lambda: next(_seq))

    def matches(self, src: int, tag: int) -> bool:
        """Does this envelope satisfy a recv posted with (src, tag)?"""
        return (src == ANY_SOURCE or src == self.src) and (
            tag == ANY_TAG or tag == self.tag
        )
