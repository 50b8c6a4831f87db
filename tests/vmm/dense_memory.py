"""The per-page guest memory model, kept as a differential test oracle.

:class:`DenseGuestMemory` stores one ``uint8`` page class and one dirty
``bool`` per page, the way :class:`~repro.vmm.guest_memory.GuestMemory`
worked before it stored page runs.  It has the same write, dirty-logging,
clone and restore API, returns the dirty set as a ``bool`` mask and counts
page classes over page-index arrays.  The helpers below translate between
the two forms:

* ``tests/property/test_guest_memory_runs.py`` drives both models with
  the same random steps and compares every count;
* ``tests/vmm/test_postcopy.py`` prices each postcopy chunk from
  :func:`class_array`'s expansion of the run map.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import VmmError
from repro.units import PAGE_SIZE
from repro.vmm.guest_memory import GuestMemory, PageClass, PageRuns


def mask_of(runs: PageRuns, npages: int) -> np.ndarray:
    """``runs`` as a ``bool`` page mask of length ``npages``."""
    mask = np.zeros(npages, dtype=bool)
    for first, last in runs:
        mask[first:last] = True
    return mask


def runs_of(mask: np.ndarray) -> PageRuns:
    """The canonical runs of a ``bool`` page mask."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], mask.astype(np.int8), [0]))))
    runs = PageRuns()
    runs.starts = [int(p) for p in edges[0::2]]
    runs.ends = [int(p) for p in edges[1::2]]
    return runs


def class_array(memory: GuestMemory) -> np.ndarray:
    """The page class of every page of ``memory``, expanded from its run map."""
    classes = np.zeros(memory.npages, dtype=np.uint8)
    bounds = memory._starts + [memory.npages]
    for k, page_class in enumerate(memory._classes):
        classes[bounds[k]:bounds[k + 1]] = page_class
    return classes


def assert_canonical(runs: PageRuns, npages: int) -> None:
    """Runs are non-empty, sorted, inside RAM and never touch."""
    assert len(runs.starts) == len(runs.ends)
    previous_end = -1
    for first, last in runs:
        assert previous_end < first < last <= npages
        previous_end = last


def assert_class_map_canonical(memory: GuestMemory) -> None:
    """The class run map starts at page 0, increases, and never repeats a
    class between neighbours."""
    starts, classes = memory._starts, memory._classes
    assert starts[0] == 0 and len(starts) == len(classes)
    assert all(a < b for a, b in zip(starts, starts[1:]))
    assert starts[-1] < memory.npages
    assert all(a != b for a, b in zip(classes, classes[1:]))
    assert all(c in (PageClass.ZERO, PageClass.UNIFORM, PageClass.DATA) for c in classes)


class DenseGuestMemory:
    """Guest RAM with a per-page class array and dirty bitmap."""

    def __init__(self, size_bytes: int, page_size: int = PAGE_SIZE) -> None:
        self.page_size = int(page_size)
        self.npages = -(-int(size_bytes) // self.page_size)
        self.size_bytes = self.npages * self.page_size
        self._class = np.zeros(self.npages, dtype=np.uint8)
        self._dirty = np.zeros(self.npages, dtype=bool)
        self._dirty_logging = False

    def write(
        self, offset: int, length: int, page_class: PageClass = PageClass.DATA
    ) -> int:
        if offset < 0 or length < 0 or offset + length > self.size_bytes:
            raise VmmError("write outside guest RAM")
        first = offset // self.page_size
        last = max(-(-(offset + length) // self.page_size), first)
        if last == first:
            return 0
        segment = self._class[first:last]
        np.maximum(segment, np.uint8(page_class), out=segment)
        if self._dirty_logging:
            self._dirty[first:last] = True
        return last - first

    def write_pages(
        self, first_page: int, npages: int, page_class: PageClass = PageClass.DATA
    ) -> int:
        return self.write(first_page * self.page_size, npages * self.page_size, page_class)

    @property
    def dirty_logging(self) -> bool:
        return self._dirty_logging

    def start_dirty_logging(self) -> None:
        self._dirty_logging = True
        self._dirty = np.zeros(self.npages, dtype=bool)

    def stop_dirty_logging(self) -> None:
        self._dirty_logging = False
        self._dirty = np.zeros(self.npages, dtype=bool)

    def snapshot_dirty(self) -> np.ndarray:
        if not self._dirty_logging:
            raise VmmError("dirty logging is not enabled")
        snapshot = self._dirty
        self._dirty = np.zeros(self.npages, dtype=bool)
        return snapshot

    @property
    def dirty_page_count(self) -> int:
        return int(self._dirty.sum())

    def _tally(self, pages: Optional[np.ndarray]) -> tuple[int, int, int]:
        values = self._class if pages is None else self._class[pages]
        uniform = int(np.count_nonzero(values == PageClass.UNIFORM))
        data = int(np.count_nonzero(values == PageClass.DATA))
        return values.size - uniform - data, uniform, data

    def class_counts(self) -> dict[PageClass, int]:
        return dict(zip(PageClass, self._tally(None), strict=True))

    def round_accounting(
        self, pages: Optional[np.ndarray] = None
    ) -> tuple[int, int, int]:
        zero, uniform, data = self._tally(pages)
        return zero + uniform + data, zero + uniform, data

    def clone_into(self, other: "DenseGuestMemory") -> None:
        other._class[:] = self._class
        other._dirty = np.zeros(other.npages, dtype=bool)

    def restore_composition(self, uniform_pages: int, data_pages: int) -> None:
        self._class[:] = PageClass.ZERO
        if uniform_pages:
            self.write_pages(0, uniform_pages, PageClass.UNIFORM)
        if data_pages:
            self.write_pages(uniform_pages, data_pages, PageClass.DATA)
