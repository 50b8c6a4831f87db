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

Every write covers a contiguous page range, so RAM holds a handful of
runs, not millions of independent pages.  The page classes are stored as
a run map (a sorted list of run starts and one class per run, equal
neighbours coalesced) and page sets — the dirty log, a migration's
received pages — as :class:`PageRuns`.  Bookkeeping and every operation
cost O(runs), independent of the size of RAM.

Accounting goes through one place, ``GuestMemory._tally``: it visits the
class runs that the given page runs overlap, and the whole-RAM counts
visit every class run.  Only this class writes the run map.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from typing import Iterator, Optional

from repro.errors import VmmError
from repro.units import PAGE_SIZE


class PageClass(enum.IntEnum):
    """Content class of a guest page (order matters: max() on overlap)."""

    ZERO = 0
    UNIFORM = 1
    DATA = 2


class PageRuns:
    """A set of page indices as sorted, disjoint, half-open runs.

    ``starts[i]``/``ends[i]`` bound run ``i`` (``ends`` exclusive).  Runs
    that touch are merged, so the form is canonical: two equal sets have
    equal lists.  Each operation costs O(log runs + runs touched).
    """

    __slots__ = ("starts", "ends")

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.ends: list[int] = []

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self.starts, self.ends)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PageRuns):
            return NotImplemented
        return self.starts == other.starts and self.ends == other.ends

    def __repr__(self) -> str:  # pragma: no cover
        return f"<PageRuns {list(self)}>"

    @property
    def size(self) -> int:
        """Number of pages in the set."""
        return sum(self.ends) - sum(self.starts)

    def add(self, first: int, last: int) -> None:
        """Add pages ``[first, last)``."""
        if last <= first:
            return
        starts, ends = self.starts, self.ends
        # Runs i..j-1 overlap or touch [first, last).
        i = bisect_left(ends, first)
        j = bisect_right(starts, last)
        if i < j:
            first = min(first, starts[i])
            last = max(last, ends[j - 1])
        starts[i:j] = [first]
        ends[i:j] = [last]

    def update(self, other: "PageRuns") -> None:
        """Add every page of ``other``."""
        for first, last in list(other):
            self.add(first, last)

    def subtract(self, other: "PageRuns") -> None:
        """Remove every page of ``other``."""
        starts, ends = self.starts, self.ends
        for first, last in list(other):
            # Runs i..j-1 overlap [first, last); keep what sticks out.
            i = bisect_right(ends, first)
            j = bisect_left(starts, last)
            if i >= j:
                continue
            kept_starts, kept_ends = [], []
            if starts[i] < first:
                kept_starts.append(starts[i])
                kept_ends.append(first)
            if ends[j - 1] > last:
                kept_starts.append(last)
                kept_ends.append(ends[j - 1])
            starts[i:j] = kept_starts
            ends[i:j] = kept_ends

    def first_missing(self, start: int, count: int, npages: int) -> "PageRuns":
        """The first ``count`` pages in ``[start, npages)`` not in the set."""
        starts, ends = self.starts, self.ends
        found = PageRuns()
        i = bisect_right(ends, start)  # first run ending past ``start``
        pos = start
        while count > 0 and pos < npages:
            if i < len(starts) and starts[i] <= pos:
                pos = ends[i]
                i += 1
                continue
            gap_end = starts[i] if i < len(starts) else npages
            take = min(count, gap_end - pos)
            # Gaps are separated by runs of the set, so these never touch.
            found.starts.append(pos)
            found.ends.append(pos + take)
            count -= take
            pos += take
        return found


class GuestMemory:
    """Guest physical RAM, tracked at 4 KiB page granularity."""

    def __init__(self, size_bytes: int) -> None:
        if size_bytes <= 0:
            raise VmmError("guest RAM size must be positive")
        self.page_size = PAGE_SIZE
        self.npages = -(-int(size_bytes) // self.page_size)
        self.size_bytes = self.npages * self.page_size
        # Class run map: run i covers [_starts[i], _starts[i + 1]) (the
        # last one runs to npages) and holds _classes[i]; neighbours differ.
        self._starts: list[int] = [0]
        self._classes: list[int] = [int(PageClass.ZERO)]
        self._dirty = PageRuns()
        self._dirty_logging = False
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

    def _run_end(self, index: int) -> int:
        return self._starts[index + 1] if index + 1 < len(self._starts) else self.npages

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
        starts, classes = self._starts, self._classes
        i = bisect_right(starts, first) - 1
        # A write inside one run of at least its class changes no class
        # (a workload rewriting its own arrays); skip the rebuild.
        if classes[i] < page_class or self._run_end(i) < last:
            self._reclassify(i, first, last, page_class)
        if self._dirty_logging:
            self._dirty.add(first, last)
        self.total_writes += last - first
        return last - first

    def _reclassify(self, i: int, first: int, last: int, page_class: PageClass) -> None:
        """Raise pages ``[first, last)`` to at least ``page_class``; run
        ``i`` holds ``first``."""
        starts, classes = self._starts, self._classes
        # Rebuild runs lo..hi-1: the ones [first, last) overlaps plus one
        # neighbour on each side, so equal classes re-coalesce.
        j = bisect_left(starts, last)
        lo = max(i - 1, 0)
        hi = min(j + 1, len(starts))
        new_starts: list[int] = []
        new_classes: list[int] = []
        for k in range(lo, hi):
            run_start, run_end, run_class = starts[k], self._run_end(k), classes[k]
            pieces = (
                (run_start, min(run_end, first), run_class),
                (max(run_start, first), min(run_end, last), max(run_class, page_class)),
                (max(run_start, last), run_end, run_class),
            )
            for piece_start, piece_end, piece_class in pieces:
                if piece_start >= piece_end:
                    continue
                if new_classes and new_classes[-1] == piece_class:
                    continue
                new_starts.append(piece_start)
                new_classes.append(int(piece_class))
        starts[lo:hi] = new_starts
        classes[lo:hi] = new_classes

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
        self._dirty = PageRuns()

    def start_dirty_logging(self) -> None:
        """Begin tracking writes (QEMU enables this at migration start)."""
        self._dirty_logging = True
        self._clear_dirty()

    def stop_dirty_logging(self) -> None:
        self._dirty_logging = False
        self._clear_dirty()

    def snapshot_dirty(self) -> PageRuns:
        """Return the dirty pages and atomically clear the log (sync round)."""
        if not self._dirty_logging:
            raise VmmError("dirty logging is not enabled")
        snapshot = self._dirty
        self._clear_dirty()
        return snapshot

    # -- accounting -----------------------------------------------------------------

    def _tally(self, pages: Optional[PageRuns]) -> tuple[int, int, int]:
        """(ZERO, UNIFORM, DATA) page counts over ``pages`` (``None`` = all
        of RAM).  The one place that reads the class run map for
        accounting; it visits only the class runs ``pages`` overlaps.
        """
        counts = [0, 0, 0]
        starts, classes = self._starts, self._classes
        if pages is None:
            for k, run_class in enumerate(classes):
                counts[run_class] += self._run_end(k) - starts[k]
            return counts[0], counts[1], counts[2]
        k = 0
        for first, last in pages:
            k = bisect_right(starts, first, k) - 1
            while k < len(starts) and starts[k] < last:
                run_end = self._run_end(k)
                counts[classes[k]] += min(run_end, last) - max(starts[k], first)
                if run_end > last:
                    break
                k += 1
        return counts[0], counts[1], counts[2]

    def class_counts(self) -> dict[PageClass, int]:
        """Page counts per class over all of RAM."""
        return dict(zip(PageClass, self._tally(None), strict=True))

    def dup_and_data_pages(self) -> tuple[int, int]:
        """(compressible pages, full-transfer pages) over all of RAM."""
        counts = self.class_counts()
        dup = counts[PageClass.ZERO] + counts[PageClass.UNIFORM]
        return dup, counts[PageClass.DATA]

    def round_accounting(
        self, pages: Optional[PageRuns] = None
    ) -> tuple[int, int, int]:
        """(pages, compressible pages, full-transfer pages) over ``pages``.

        ``pages`` is the page set a step sends (the dirty pages of a
        precopy round, one postcopy chunk of missing pages); ``None`` means
        all of RAM.  The cost is proportional to the runs of ``pages`` and
        the class runs they overlap, not to the size of RAM.
        """
        zero, uniform, data = self._tally(pages)
        return zero + uniform + data, zero + uniform, data

    @property
    def data_bytes(self) -> int:
        """Bytes living in non-compressible pages (the real footprint)."""
        _, data = self.dup_and_data_pages()
        return data * self.page_size

    def populate_resident(self, nbytes: int) -> None:
        """Mark a boot-time resident set (kernel, caches) as DATA pages."""
        self.write(0, min(int(nbytes), self.size_bytes), PageClass.DATA)

    def restore_composition(self, uniform_pages: int, data_pages: int) -> None:
        """Replace RAM content with a snapshot image's composition.

        Page classes are laid out structurally: a uniform region from
        page 0, then a data region, the rest ZERO.
        """
        self._starts = [0]
        self._classes = [int(PageClass.ZERO)]
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
