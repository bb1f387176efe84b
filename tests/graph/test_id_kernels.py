"""Differential tests: each id kernel equals the numpy call it replaces.

``positions_in``, ``stable_order`` and ``unique_ids`` pick a method from
their input (direct addressing or radix passes for dense ids, the numpy
call otherwise); whichever they pick, the result must be the oracle's,
element for element and dtype for dtype.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph.csr import positions_in, stable_order, unique_ids

INT64 = np.iinfo(np.int64)
EXTREMES = [INT64.min, INT64.min + 1, -1, 0, 1, INT64.max - 1, INT64.max]

#: Id distributions: dense, sparse (span far beyond the count),
#: negative, and compact runs at both int64 extremes.
ID_KINDS = {
    "dense": st.integers(0, 60),
    "sparse": st.integers(-2 ** 40, 2 ** 40),
    "negative": st.integers(-60, -1),
    "low_extreme": st.integers(INT64.min, INT64.min + 40),
    "high_extreme": st.integers(INT64.max - 40, INT64.max),
}


def searchsorted_positions(table: np.ndarray, values) -> np.ndarray:
    """``positions_in`` as it was: one binary search per value."""
    values = np.asarray(values, dtype=np.int64)
    if not len(table):
        return np.full(values.shape, -1, dtype=np.int64)
    found = np.minimum(np.searchsorted(table, values), len(table) - 1)
    found[table[found] != values] = -1
    return found


def ints(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


@st.composite
def tables_and_values(draw):
    """An ascending table (repeats allowed) and query values mixing its
    entries, absent ids of the same kind and int64 extremes."""
    ids = ID_KINDS[draw(st.sampled_from(sorted(ID_KINDS)))]
    table = np.sort(ints(draw(st.lists(ids, max_size=40))))
    present = st.sampled_from(table.tolist()) if len(table) else ids
    values = draw(st.lists(st.one_of(present, ids,
                                     st.sampled_from(EXTREMES)),
                           max_size=80))
    return table, ints(values)


@settings(max_examples=300, deadline=None)
@given(tables_and_values())
@example((ints([]), ints([])))
@example((ints([]), ints([3, INT64.min])))
@example((ints([5]), ints([])))
@example((ints([2, 2, 3, 3, 3, 7]), ints([3, 2, 7, 2, 4, INT64.max] * 3)))
@example((ints([INT64.min, INT64.min + 2]),
          ints([INT64.min, INT64.max, INT64.min + 1, INT64.min + 2] * 2)))
@example((ints([INT64.max - 2, INT64.max]),
          ints([INT64.min, INT64.max, INT64.max - 1, 0] * 2)))
def test_positions_in_equals_binary_search(case):
    table, values = case
    found = positions_in(table, values)
    expected = searchsorted_positions(table, values)
    assert found.dtype == expected.dtype
    assert np.array_equal(found, expected)


def test_dense_table_is_addressed_directly(monkeypatch):
    table = np.arange(100, 300, dtype=np.int64)
    values = ints([99, 100, 150, 299, 300, INT64.min, INT64.max] * 10)
    expected = searchsorted_positions(table, values)

    def no_binary_search(*args, **kwargs):
        raise AssertionError("a dense table took the binary search")

    monkeypatch.setattr(np, "searchsorted", no_binary_search)
    assert np.array_equal(positions_in(table, values), expected)


def test_sparse_table_is_not_addressed_directly():
    """A span of 2**62 ids would not fit in memory as a lookup table."""
    table = ints([0, 2 ** 62])
    assert positions_in(table, [2 ** 62, 0, 1]).tolist() == [1, 0, -1]


def metered(monkeypatch, name: str) -> list:
    """Sizes of the first argument of every ``np.<name>`` call."""
    sizes, call = [], getattr(np, name)

    def wrapper(*args, **kwargs):
        sizes.append(np.size(args[1] if name == "searchsorted" else args[0]))
        return call(*args, **kwargs)

    monkeypatch.setattr(np, name, wrapper)
    return sizes


def test_table_sparser_than_its_length_keeps_the_binary_search(monkeypatch):
    """Span 50x the table's length but well inside the binary search's
    work (10 000 values x 10 bits): memory caps direct addressing."""
    table = np.arange(0, 50_000, 50, dtype=np.int64)
    values = np.tile(ints([0, 50, 51, 49_950, 49_951, -1, INT64.max]),
                     1_500)
    assert table[-1] - table[0] < values.size * 10
    expected = searchsorted_positions(table, values)
    searched = metered(monkeypatch, "searchsorted")
    assert np.array_equal(positions_in(table, values), expected)
    assert searched == [values.size]


def test_ids_sparser_than_their_count_are_sorted(monkeypatch):
    """Span 3.5x the count, which a sort's ``n log n`` would allow."""
    values = np.tile(np.arange(0, 30_000, 7, dtype=np.int64), 2)
    expected = np.unique(values)
    sorted_sizes = metered(monkeypatch, "unique")
    assert np.array_equal(unique_ids(values), expected)
    assert sorted_sizes == [values.size]


@st.composite
def keys_below(draw, size: int):
    """Keys in ``[0, size)`` drawn from a small pool, so that ties —
    where stability shows — are common, plus both ends of the range."""
    pool = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=8))
    keys = st.sampled_from(sorted({*pool, 0, size - 1}))
    return ints(draw(st.lists(keys, max_size=120)))


@pytest.mark.parametrize("size", [1, 2 ** 16, 2 ** 16 + 1, 2 ** 32 + 7,
                                  INT64.max])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_stable_order_equals_stable_argsort(size, data):
    keys = data.draw(keys_below(size))
    order = stable_order(keys, size)
    expected = np.argsort(keys, kind="stable")
    assert order.dtype == expected.dtype
    assert np.array_equal(order, expected)


@st.composite
def id_lists(draw):
    """Ids of one kind, repeats allowed, sometimes with int64 extremes
    (which widen the span past direct marking)."""
    ids = ID_KINDS[draw(st.sampled_from(sorted(ID_KINDS)))]
    return draw(st.lists(ids, max_size=80)) \
        + draw(st.lists(st.sampled_from(EXTREMES), max_size=2))


@settings(max_examples=300, deadline=None)
@given(id_lists())
@example([])
@example([7])
@example([3, 3, 3])
@example([INT64.min, INT64.max])
@example([INT64.max, INT64.max - 3, INT64.max - 3, INT64.max])
def test_unique_ids_equals_unique(values):
    values = ints(values)
    found = unique_ids(values)
    expected = np.unique(values)
    assert found.dtype == expected.dtype
    assert np.array_equal(found, expected)
