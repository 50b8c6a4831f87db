"""Property: the cached whole-RAM class counts never go stale (hypothesis).

``GuestMemory`` keeps its whole-RAM class counts until the next mutation.
After any interleaving of writes, dirty-logging syncs, clones into the
memory and snapshot restores, every cached read must equal a fresh
``np.bincount`` of the page-class array.  The counts are read after
every step, so the cache is warm whenever a mutation lands and a missed
invalidation would serve stale counts.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vmm.guest_memory import GuestMemory, PageClass

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
    # An empty image (0, 0) must invalidate by itself: no write follows.
    st.tuples(st.just("restore"), _SIZE, _SIZE),
)


def _fresh(memory: GuestMemory) -> np.ndarray:
    return np.bincount(memory._class, minlength=3)


def _assert_coherent(memory: GuestMemory) -> None:
    fresh = _fresh(memory)
    counts = memory.class_counts()
    assert [counts[c] for c in PageClass] == fresh.tolist()
    assert memory.data_bytes == int(fresh[PageClass.DATA]) * memory.page_size
    dup = int(fresh[PageClass.ZERO] + fresh[PageClass.UNIFORM])
    assert memory.round_accounting() == (memory.npages, dup, int(fresh[PageClass.DATA]))


@given(ops=st.lists(_OP, max_size=40))
@settings(max_examples=200)
def test_cached_counts_match_a_fresh_bincount(ops):
    memory = GuestMemory(NPAGES * PAGE, page_size=PAGE)
    for op in ops:
        kind = op[0]
        if kind == "write":
            _, offset, length, page_class = op
            memory.write(offset, min(length, memory.size_bytes - offset), page_class)
        elif kind == "write_pages":
            _, first, count, page_class = op
            memory.write_pages(first, min(count, NPAGES - first), page_class)
        elif kind == "start_logging":
            memory.start_dirty_logging()
        elif kind == "snapshot_dirty":
            if memory.dirty_logging:
                memory.snapshot_dirty()
        elif kind == "stop_logging":
            memory.stop_dirty_logging()
        elif kind == "clone_into":
            source = GuestMemory(NPAGES * PAGE, page_size=PAGE)
            source.class_counts()  # a warm cache on the source side too
            for page, page_class in enumerate(op[1]):
                source.write_pages(page, 1, page_class)
            source.clone_into(memory)
        else:  # snapshot restore
            _, uniform, data = op
            memory.restore_composition(uniform, min(data, NPAGES - uniform))
        _assert_coherent(memory)
