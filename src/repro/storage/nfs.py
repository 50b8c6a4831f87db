"""NFS shared-storage model: capacity + shared-bandwidth image I/O.

Checkpointed VM memory images (qcow2 internal snapshots in the paper) are
written to and read from one NFS server whose NIC is the shared
bottleneck: concurrent snapshot streams divide the server bandwidth
max-min fairly, so checkpointing 8 VMs at once is server-bound — exactly
the effect a real enclosure sees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from repro.errors import HardwareError
from repro.sim.fairshare import FairShare
from repro.units import GiB, gbps

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


@dataclass
class StoredImage:
    """One stored VM image (disk base or memory snapshot)."""

    name: str
    nbytes: int
    kind: str = "memory-snapshot"  # or "disk-base"
    created_at: float = 0.0
    #: Page-class composition (dup pages stored compressed), so a restore
    #: can rebuild the guest-memory state faithfully.
    meta: dict = field(default_factory=dict)


class NfsServer:
    """The enclosure's shared NFS server."""

    def __init__(
        self,
        env: "Environment",
        capacity_bytes: int = 2048 * GiB,
        bandwidth_Bps: float = gbps(10.0) * 0.7,  # protocol efficiency
    ) -> None:
        self.env = env
        self.name = "nfs"
        self.capacity_bytes = int(capacity_bytes)
        self.used_bytes = 0
        self._io = FairShare(env, capacity=float(bandwidth_Bps), name="nfs.io")
        self._images: Dict[str, StoredImage] = {}

    # -- inventory ---------------------------------------------------------------

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def image(self, name: str) -> StoredImage:
        try:
            return self._images[name]
        except KeyError:
            raise HardwareError(f"{self.name}: no image {name!r}") from None

    def has_image(self, name: str) -> bool:
        return name in self._images

    def images(self) -> list[StoredImage]:
        return sorted(self._images.values(), key=lambda i: i.name)

    def delete(self, name: str) -> None:
        image = self.image(name)
        self.used_bytes -= image.nbytes
        del self._images[name]

    # -- I/O (generators) --------------------------------------------------------------

    def write_image(self, name: str, nbytes: int, kind: str = "memory-snapshot", meta: Optional[dict] = None):
        """Stream ``nbytes`` into the store (generator; returns the image).

        Overwrites an existing image of the same name atomically (space
        is accounted for the larger of old/new during the write).
        """
        nbytes = int(nbytes)
        existing = self._images.get(name)
        needed = nbytes - (existing.nbytes if existing is not None else 0)
        if needed > self.free_bytes:
            raise HardwareError(
                f"{self.name}: image {name!r} needs {needed} B, "
                f"{self.free_bytes} B free"
            )
        task = self._io.submit(float(nbytes), label=f"write:{name}")
        yield task.done
        image = StoredImage(
            name=name, nbytes=nbytes, kind=kind,
            created_at=self.env.now, meta=dict(meta or {}),
        )
        if existing is not None:
            self.used_bytes -= existing.nbytes
        self._images[name] = image
        self.used_bytes += nbytes
        return image

    def read_image(self, name: str):
        """Stream an image out (generator; returns the image)."""
        image = self.image(name)
        task = self._io.submit(float(image.nbytes), label=f"read:{name}")
        yield task.done
        return image
