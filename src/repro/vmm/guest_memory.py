"""Page-granular guest RAM with dirty tracking and compressibility classes.

QEMU's precopy migration walks all of guest RAM, transmitting a 9-byte
record for pages whose 4 KiB are one repeated byte (``is_dup_page`` — the
"zero page" optimization the paper cites) and the full page otherwise.
Migration time therefore depends not on how much memory a workload *uses*
but on how **compressible** its pages are — which is why the paper's
memtest (a uniform-pattern writer) shows near-constant migration times
(Fig. 6) while NPB's real arrays migrate proportionally to footprint
(Fig. 7).

Pages carry a :class:`PageClass`:

* ``ZERO`` — never written since boot (dup: compressed);
* ``UNIFORM`` — written with a repeating pattern (dup: compressed);
* ``DATA`` — written with real content (transferred in full).

The implementation is vectorized NumPy over per-page ``uint8``/``bool``
arrays; a 20 GiB guest is ~5.2 M pages ≈ 10 MB of bookkeeping.

Accounting costs what it touches: :meth:`GuestMemory.round_accounting`
counts only the page indices it is given, and the whole-RAM class counts
are cached until the next mutation (:meth:`~GuestMemory.write`,
:meth:`~GuestMemory.clone_into` into this RAM,
:meth:`~GuestMemory.restore_composition`), so repeated reads of
:attr:`~GuestMemory.data_bytes` on an idle guest do not rescan RAM.
Only this class writes the page-class array.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from repro.errors import VmmError
from repro.units import PAGE_SIZE


class PageClass(enum.IntEnum):
    """Content class of a guest page (order matters: max() on overlap)."""

    ZERO = 0
    UNIFORM = 1
    DATA = 2


class GuestMemory:
    """Guest physical RAM, tracked at 4 KiB page granularity."""

    def __init__(self, size_bytes: int, page_size: int = PAGE_SIZE) -> None:
        if size_bytes <= 0:
            raise VmmError("guest RAM size must be positive")
        if page_size <= 0:
            raise VmmError("page size must be positive")
        self.page_size = int(page_size)
        self.npages = -(-int(size_bytes) // self.page_size)
        self.size_bytes = self.npages * self.page_size
        self._class = np.zeros(self.npages, dtype=np.uint8)  # PageClass values
        self._dirty = np.zeros(self.npages, dtype=bool)
        self._dirty_logging = False
        #: Whole-RAM class counts, valid until the next mutation.
        self._counts: Optional[tuple[int, int, int]] = None
        #: Total pages ever written (diagnostics).
        self.total_writes = 0

    # -- writing -------------------------------------------------------------------

    def _page_range(self, offset: int, length: int) -> tuple[int, int]:
        if offset < 0 or length < 0 or offset + length > self.size_bytes:
            raise VmmError(
                f"write [{offset}, {offset + length}) outside guest RAM "
                f"of {self.size_bytes} bytes"
            )
        first = offset // self.page_size
        last = -(-(offset + length) // self.page_size)  # exclusive
        return first, max(last, first)

    def write(
        self, offset: int, length: int, page_class: PageClass = PageClass.DATA
    ) -> int:
        """Guest stores ``length`` bytes at ``offset``; returns pages touched.

        ``page_class`` describes the *content* written: a memset-style
        uniform fill keeps pages compressible; real data does not.  A page
        already holding DATA never downgrades (partial uniform overwrites
        leave residual entropy).
        """
        first, last = self._page_range(offset, length)
        if last == first:
            return 0
        segment = self._class[first:last]
        np.maximum(segment, np.uint8(page_class), out=segment)
        self._counts = None
        if self._dirty_logging:
            self._dirty[first:last] = True
        self.total_writes += last - first
        return last - first

    def write_pages(
        self, first_page: int, npages: int, page_class: PageClass = PageClass.DATA
    ) -> int:
        """Page-indexed variant of :meth:`write` (workload fast path)."""
        return self.write(first_page * self.page_size, npages * self.page_size, page_class)

    # -- dirty logging (migration support) -----------------------------------------

    @property
    def dirty_logging(self) -> bool:
        return self._dirty_logging

    def _clear_dirty(self) -> None:
        # A fresh calloc'd bitmap: no pass over the old one.
        self._dirty = np.zeros(self.npages, dtype=bool)

    def start_dirty_logging(self) -> None:
        """Begin tracking writes (QEMU enables this at migration start)."""
        self._dirty_logging = True
        self._clear_dirty()

    def stop_dirty_logging(self) -> None:
        self._dirty_logging = False
        self._clear_dirty()

    def snapshot_dirty(self) -> np.ndarray:
        """Return the dirty bitmap and atomically clear it (sync round)."""
        if not self._dirty_logging:
            raise VmmError("dirty logging is not enabled")
        snapshot = self._dirty
        self._clear_dirty()
        return snapshot

    @property
    def dirty_page_count(self) -> int:
        return int(self._dirty.sum())

    # -- accounting -----------------------------------------------------------------

    def _tally(self, pages: Optional[np.ndarray]) -> tuple[int, int, int]:
        """(ZERO, UNIFORM, DATA) page counts over ``pages`` (``None`` = all
        of RAM).  The one place that indexes the class array for accounting.
        """
        values = self._class if pages is None else self._class[pages]
        uniform = int(np.count_nonzero(values == PageClass.UNIFORM))
        data = int(np.count_nonzero(values == PageClass.DATA))
        return values.size - uniform - data, uniform, data

    def _whole_ram_counts(self) -> tuple[int, int, int]:
        if self._counts is None:
            self._counts = self._tally(None)
        return self._counts

    def class_counts(self) -> dict[PageClass, int]:
        """Page counts per class over all of RAM (cached until a mutation)."""
        return dict(zip(PageClass, self._whole_ram_counts(), strict=True))

    def dup_and_data_pages(self) -> tuple[int, int]:
        """(compressible pages, full-transfer pages) over all of RAM."""
        counts = self.class_counts()
        dup = counts[PageClass.ZERO] + counts[PageClass.UNIFORM]
        return dup, counts[PageClass.DATA]

    def round_accounting(
        self, pages: Optional[np.ndarray] = None
    ) -> tuple[int, int, int]:
        """(pages, compressible pages, full-transfer pages) over ``pages``.

        ``pages`` is a page-index array (the dirty pages of a precopy
        round, one postcopy chunk of missing pages); ``None`` means all of
        RAM and reads the cached whole-RAM counts.  The cost is
        proportional to ``len(pages)``, not to the size of RAM.
        """
        zero, uniform, data = (
            self._whole_ram_counts() if pages is None else self._tally(pages)
        )
        return zero + uniform + data, zero + uniform, data

    @property
    def data_bytes(self) -> int:
        """Bytes living in non-compressible pages (the real footprint)."""
        _, data = self.dup_and_data_pages()
        return data * self.page_size

    def populate_resident(self, nbytes: int, offset: int = 0) -> None:
        """Mark a boot-time resident set (kernel, caches) as DATA pages."""
        self.write(offset, min(int(nbytes), self.size_bytes - offset), PageClass.DATA)

    def clone_into(self, other: "GuestMemory") -> None:
        """Copy content state into a destination VM's RAM (post-migration)."""
        if other.npages != self.npages or other.page_size != self.page_size:
            raise VmmError("migration between differently sized RAMs")
        other._class[:] = self._class
        other._counts = None
        other._clear_dirty()

    def restore_composition(self, uniform_pages: int, data_pages: int) -> None:
        """Replace RAM content with a snapshot image's composition.

        Page classes are laid out structurally: a uniform region from
        page 0, then a data region, the rest ZERO.
        """
        self._class[:] = PageClass.ZERO
        self._counts = None
        if uniform_pages:
            self.write_pages(0, uniform_pages, PageClass.UNIFORM)
        if data_pages:
            self.write_pages(uniform_pages, data_pages, PageClass.DATA)

    def __repr__(self) -> str:  # pragma: no cover
        dup, data = self.dup_and_data_pages()
        return (
            f"<GuestMemory {self.size_bytes >> 30} GiB "
            f"data={data} dup={dup} pages>"
        )
