"""Memory of the interval criteria, measured with tracemalloc.

A ledger holds its lhs, rhs and passed columns, 17 bytes per record; its
index columns are per-shape arrays that broadcast to each block's grid,
O(n**2 * q) integers for the pair grids, and the row kernel builds its
(n, q, q)-sized sums in row slices of at most ``CHUNK_ENTRIES`` entries.  The per-shape caches are cleared first, so each
measurement includes building them and does not depend on test order.
"""

import gc
import tracemalloc

from itensor import (
    boundary_interval,
    check_interval_b,
    check_interval_double_b,
    check_interval_double_b_dominance,
)
from itensor import interval_classify, tensor

RECORD_BYTES = 8 + 8 + 1  # lhs, rhs, passed


def _traced(call, *args):
    """(bytes still allocated once the result is dropped, peak bytes, the
    result's ledger length) of ``call(*args)`` plus its summary, if any."""
    for cache in (interval_classify._layout, interval_classify._pair_layout,
                  tensor.row_layout, tensor._one_based_tails):
        cache.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        verdict = call(*args)
        records = len(verdict.conditions)
        if records:
            verdict.conditions.summary_view()
        del verdict
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return kept, peak, records


def test_double_b_keeps_no_per_record_tables():
    AI = boundary_interval(3, 10)
    kept, peak, records = _traced(check_interval_double_b, AI)
    assert records == 451_010
    assert kept < 1 << 20
    # The three value columns are the floor; per-record index columns (four
    # of 8 bytes a record for c1) would take the peak past twice that.
    assert peak < 2 * RECORD_BYTES * records


def test_interval_b_peak_does_not_grow_with_n_q_r():
    # At m=2, q = n - 1 and r = n: the row kernel's sums over every
    # position but one hold n*q*r terms, 16.7M at n=256.
    peaks = {}
    for n in (128, 256):
        AI = boundary_interval(2, n)
        _, peaks[n], _ = _traced(check_interval_b, AI)
    n, q, r = 256, 255, 256
    assert peaks[256] < n * q * r  # less than one byte per term
    # n*q*r grows eightfold from n=128, the input and the ledger fourfold.
    assert peaks[256] < 4 * peaks[128]


def test_dominance_peak_does_not_grow_with_n_q_q():
    # Comparing every position pair of every row takes n*q*q bytes, 16.6M
    # at m=2, n=256; each row's two largest upper bounds decide it in O(n*q).
    AI = boundary_interval(2, 256)
    _, peak, _ = _traced(check_interval_double_b_dominance, AI)
    assert peak < 8 << 20
