"""Message descriptors exchanged by the simulated MPI layer.

Payloads are described, not carried: a message has a size and a
*compressibility class* (so that application buffers landing in guest
memory interact correctly with migration's uniform-page compression).
"""

from __future__ import annotations

from collections import namedtuple

from repro.vmm.guest_memory import PageClass

#: Wildcards matching mpi4py/MPI semantics.
ANY_SOURCE = -1
ANY_TAG = -1


class Message(
    namedtuple(
        "Message",
        "src dst tag nbytes comm_id page_class",
        defaults=(0, PageClass.DATA),
    )
):
    """An MPI message envelope + payload descriptor (immutable).

    ``page_class`` is what the receive buffer looks like to the migration
    scanner.  A tuple, not a frozen dataclass: every send builds one,
    and a frozen dataclass pays an ``object.__setattr__`` call per field.
    """

    __slots__ = ()

    def matches(self, src: int, tag: int) -> bool:
        """Does this envelope satisfy a recv posted with (src, tag)?"""
        return (src == ANY_SOURCE or src == self.src) and (
            tag == ANY_TAG or tag == self.tag
        )
