"""Property: the run-based guest memory matches the per-page oracle (hypothesis).

``GuestMemory`` stores page classes as a run map and page sets as
:class:`~repro.vmm.guest_memory.PageRuns`.  ``DenseGuestMemory``
(``tests/vmm/dense_memory.py``) is the per-page model it replaced.  Both
are driven with the same interleaving of writes, dirty-logging syncs,
clones and snapshot restores; after every step the class counts, the
dirty count and the accounting of every synced dirty set must agree, and
every run structure must be in canonical form.  ``PageRuns``' set
operations are checked against ``bool`` masks the same way.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.vmm.guest_memory import GuestMemory, PageClass, PageRuns
from tests.vmm.dense_memory import (
    DenseGuestMemory,
    assert_canonical,
    assert_class_map_canonical,
    class_array,
    mask_of,
    runs_of,
)

NPAGES = 64
PAGE = 4096

_CLASS = st.sampled_from([PageClass.ZERO, PageClass.UNIFORM, PageClass.DATA])
_PAGE = st.integers(min_value=0, max_value=NPAGES - 1)
_SIZE = st.one_of(st.just(0), st.integers(min_value=0, max_value=NPAGES))

_OP = st.one_of(
    st.tuples(st.just("write"), st.integers(0, NPAGES * PAGE - 1),
              st.integers(0, 8 * PAGE), _CLASS),
    st.tuples(st.just("write_pages"), _PAGE, st.integers(0, 16), _CLASS),
    st.tuples(st.just("start_logging")),
    st.tuples(st.just("snapshot_dirty")),
    st.tuples(st.just("stop_logging")),
    st.tuples(st.just("clone_into"), st.lists(_CLASS, min_size=NPAGES, max_size=NPAGES)),
    st.tuples(st.just("restore"), _SIZE, _SIZE),
)


def _assert_same(memory: GuestMemory, dense: DenseGuestMemory) -> None:
    assert_class_map_canonical(memory)
    assert_canonical(memory._dirty, memory.npages)
    assert np.array_equal(class_array(memory), dense._class)
    assert memory.class_counts() == dense.class_counts()
    assert memory.round_accounting() == dense.round_accounting()
    assert memory.dirty_logging == dense.dirty_logging
    assert memory.dirty_page_count == dense.dirty_page_count


@given(ops=st.lists(_OP, max_size=40))
@settings(max_examples=200)
@example(ops=[  # touching writes, a DATA page under a UNIFORM overwrite, the last page
    ("start_logging",),
    ("write_pages", 4, 4, PageClass.UNIFORM),
    ("write_pages", 8, 4, PageClass.UNIFORM),
    ("write_pages", 6, 1, PageClass.DATA),
    ("write_pages", 0, 12, PageClass.UNIFORM),
    ("write_pages", NPAGES - 3, 3, PageClass.DATA),
    ("write", 0, 0, PageClass.DATA),
    ("snapshot_dirty",),
])
def test_run_memory_matches_the_dense_oracle(ops):
    memory = GuestMemory(NPAGES * PAGE, page_size=PAGE)
    dense = DenseGuestMemory(NPAGES * PAGE, page_size=PAGE)
    for op in ops:
        kind = op[0]
        if kind == "write":
            _, offset, length, page_class = op
            length = min(length, memory.size_bytes - offset)
            assert memory.write(offset, length, page_class) == dense.write(
                offset, length, page_class
            )
        elif kind == "write_pages":
            _, first, count, page_class = op
            count = min(count, NPAGES - first)
            assert memory.write_pages(first, count, page_class) == dense.write_pages(
                first, count, page_class
            )
        elif kind == "start_logging":
            memory.start_dirty_logging()
            dense.start_dirty_logging()
        elif kind == "snapshot_dirty":
            if memory.dirty_logging:
                runs = memory.snapshot_dirty()
                mask = dense.snapshot_dirty()
                assert_canonical(runs, memory.npages)
                assert np.array_equal(mask_of(runs, memory.npages), mask)
                assert memory.round_accounting(runs) == dense.round_accounting(
                    np.flatnonzero(mask)
                )
        elif kind == "stop_logging":
            memory.stop_dirty_logging()
            dense.stop_dirty_logging()
        elif kind == "clone_into":
            source = GuestMemory(NPAGES * PAGE, page_size=PAGE)
            dense_source = DenseGuestMemory(NPAGES * PAGE, page_size=PAGE)
            for page, page_class in enumerate(op[1]):
                source.write_pages(page, 1, page_class)
                dense_source.write_pages(page, 1, page_class)
            source.clone_into(memory)
            dense_source.clone_into(dense)
        else:  # snapshot restore
            _, uniform, data = op
            memory.restore_composition(uniform, min(data, NPAGES - uniform))
            dense.restore_composition(uniform, min(data, NPAGES - uniform))
        _assert_same(memory, dense)


# -- PageRuns against bool masks ---------------------------------------------------

_RUN = st.tuples(st.integers(0, NPAGES), st.integers(0, 12)).map(
    lambda r: (r[0], min(r[0] + r[1], NPAGES))
)
_RUNS = st.lists(_RUN, max_size=8)


def _build(runs) -> tuple[PageRuns, np.ndarray]:
    pages = PageRuns()
    mask = np.zeros(NPAGES, dtype=bool)
    for first, last in runs:
        pages.add(first, last)
        mask[first:last] = True
        assert_canonical(pages, NPAGES)
        assert np.array_equal(mask_of(pages, NPAGES), mask)
    return pages, mask


@given(a=_RUNS, b=_RUNS)
@settings(max_examples=200)
@example(a=[(0, 4), (4, 8)], b=[(8, 12)])  # touching runs merge
@example(a=[(0, NPAGES)], b=[(NPAGES - 1, NPAGES)])  # ends at npages
@example(a=[(3, 3), (5, 9)], b=[(7, 7)])  # zero-length runs
def test_page_runs_set_operations_match_masks(a, b):
    left, left_mask = _build(a)
    right, right_mask = _build(b)
    assert left.size == int(left_mask.sum())
    assert left == runs_of(left_mask)

    union = _build(a)[0]
    union.update(right)
    assert_canonical(union, NPAGES)
    assert np.array_equal(mask_of(union, NPAGES), left_mask | right_mask)

    difference = _build(a)[0]
    difference.subtract(right)
    assert_canonical(difference, NPAGES)
    assert np.array_equal(mask_of(difference, NPAGES), left_mask & ~right_mask)

    itself = _build(a)[0]
    itself.subtract(itself)
    assert itself.size == 0


@given(a=_RUNS, start=st.integers(0, NPAGES), count=st.integers(1, NPAGES + 4))
@settings(max_examples=200)
@example(a=[(0, 8), (8, NPAGES)], start=0, count=4)  # nothing missing
@example(a=[(2, 5)], start=3, count=NPAGES)  # start inside a run
def test_first_missing_matches_a_mask_scan(a, start, count):
    pages, mask = _build(a)
    expected = np.flatnonzero(~mask[start:])[:count] + start
    found = pages.first_missing(start, count, NPAGES)
    assert_canonical(found, NPAGES)
    assert np.array_equal(np.flatnonzero(mask_of(found, NPAGES)), expected)
    assert pages.size == int(mask.sum())  # the query leaves the set alone
