"""Unit + property tests: the page-granular guest memory model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VmmError
from repro.units import GiB, KiB, MiB, PAGE_SIZE
from repro.vmm.guest_memory import GuestMemory, PageClass, PageRuns
from tests.conftest import dirty_page_count


def test_fresh_memory_all_zero():
    mem = GuestMemory(1 * GiB)
    counts = mem.class_counts()
    assert counts[PageClass.ZERO] == mem.npages
    assert mem.data_bytes == 0


def test_write_marks_pages():
    mem = GuestMemory(1 * MiB)
    touched = mem.write(0, 10 * KiB, PageClass.DATA)
    assert touched == 3  # 10 KiB spans 3 pages
    dup, data = mem.dup_and_data_pages()
    assert data == 3


def test_uniform_write_stays_compressible():
    mem = GuestMemory(1 * MiB)
    mem.write(0, 64 * KiB, PageClass.UNIFORM)
    dup, data = mem.dup_and_data_pages()
    assert data == 0
    assert dup == mem.npages


def test_data_never_downgrades():
    mem = GuestMemory(1 * MiB)
    mem.write(0, PAGE_SIZE, PageClass.DATA)
    mem.write(0, PAGE_SIZE, PageClass.UNIFORM)
    assert mem.class_counts()[PageClass.DATA] == 1


def test_out_of_bounds_write_rejected():
    mem = GuestMemory(1 * MiB)
    with pytest.raises(VmmError):
        mem.write(1 * MiB - 100, 200)
    with pytest.raises(VmmError):
        mem.write(-1, 10)


def test_dirty_logging_cycle():
    mem = GuestMemory(1 * MiB)
    mem.write(0, 8 * KiB)  # before logging: not dirty
    mem.start_dirty_logging()
    assert dirty_page_count(mem) == 0
    mem.write(16 * KiB, 8 * KiB)
    assert dirty_page_count(mem) == 2
    snapshot = mem.snapshot_dirty()
    assert snapshot.size == 2
    assert list(snapshot) == [(4, 6)]
    assert dirty_page_count(mem) == 0  # cleared atomically


def test_snapshot_without_logging_rejected():
    mem = GuestMemory(1 * MiB)
    with pytest.raises(VmmError):
        mem.snapshot_dirty()


def test_round_accounting_over_dirty_pages():
    mem = GuestMemory(1 * MiB)
    mem.write(0, 4 * KiB, PageClass.DATA)
    mem.start_dirty_logging()
    mem.write(0, 4 * KiB, PageClass.DATA)
    mem.write(8 * KiB, 4 * KiB, PageClass.UNIFORM)
    pages = mem.snapshot_dirty()
    assert list(pages) == [(0, 1), (2, 3)]
    assert mem.round_accounting(pages) == (2, 1, 1)
    assert mem.round_accounting(PageRuns()) == (0, 0, 0)
    # None is all of RAM: 256 pages, one of them DATA.
    assert mem.round_accounting() == (mem.npages, mem.npages - 1, 1)


def test_populate_resident():
    mem = GuestMemory(1 * GiB)
    mem.populate_resident(100 * MiB)
    assert mem.data_bytes == pytest.approx(100 * MiB, abs=PAGE_SIZE)


def test_invalid_sizes():
    with pytest.raises(VmmError):
        GuestMemory(0)


@given(
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=255),  # page offset
            st.integers(min_value=1, max_value=64),   # pages
            st.sampled_from([PageClass.UNIFORM, PageClass.DATA]),
        ),
        max_size=30,
    )
)
@settings(max_examples=100)
def test_memory_invariants(writes):
    """Page classes only escalate; counts always total npages; dirty set
    is a subset of written pages."""
    mem = GuestMemory(2 * MiB)  # 512 pages
    mem.start_dirty_logging()
    written = set()
    for offset_pages, npages, page_class in writes:
        first = offset_pages % mem.npages
        count = min(npages, mem.npages - first)
        if count <= 0:
            continue
        mem.write_pages(first, count, page_class)
        written.update(range(first, first + count))
    counts = mem.class_counts()
    assert sum(counts.values()) == mem.npages
    assert dirty_page_count(mem) <= len(written)
    dup, data = mem.dup_and_data_pages()
    assert dup + data == mem.npages
    # Everything never written is still ZERO.
    assert counts[PageClass.ZERO] >= mem.npages - len(written)
