"""Unit tests for repro.hadoop.types."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hadoop.types import (
    GIGABYTE,
    MEGABYTE,
    Record,
    TaggedOutput,
    records_size,
    records_span,
)


class TestRecord:
    def test_fields(self):
        r = Record(ts=5.0, value={"user": 1}, size=42)
        assert r.ts == 5.0
        assert r.value == {"user": 1}
        assert r.size == 42

    def test_default_size(self):
        assert Record(ts=0.0, value="x").size == 100

    def test_is_frozen(self):
        r = Record(ts=0.0, value="x")
        with pytest.raises(AttributeError):
            r.ts = 1.0

    def test_in_range_inclusive_start(self):
        assert Record(ts=10.0, value=None).in_range(10.0, 20.0)

    def test_in_range_exclusive_end(self):
        assert not Record(ts=20.0, value=None).in_range(10.0, 20.0)

    def test_in_range_outside(self):
        assert not Record(ts=5.0, value=None).in_range(10.0, 20.0)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        r = Record(ts=2.5, value=("k", 3), size=64)
        back = pickle.loads(pickle.dumps(r, protocol=protocol))
        assert back == r
        assert hash(back) == hash(r)
        with pytest.raises(AttributeError):
            back.ts = 1.0


class TestRecordsHelpers:
    def test_records_size_sums_bytes(self):
        recs = [Record(ts=0, value=None, size=10), Record(ts=1, value=None, size=32)]
        assert records_size(recs) == 42

    def test_records_size_empty(self):
        assert records_size([]) == 0

    def test_records_span(self):
        recs = [Record(ts=t, value=None) for t in (3.0, 1.0, 2.0)]
        assert records_span(recs) == (1.0, 3.0)

    def test_records_span_empty_raises(self):
        with pytest.raises(ValueError):
            records_span([])

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=30))
    def test_span_bounds_property(self, timestamps):
        recs = [Record(ts=t, value=None) for t in timestamps]
        lo, hi = records_span(recs)
        assert lo <= hi
        assert all(lo <= r.ts <= hi for r in recs)


class TestTaggedOutput:
    def test_unpacking(self):
        source, value = TaggedOutput("S1", 99)
        assert source == "S1"
        assert value == 99


def test_byte_constants():
    assert MEGABYTE == 2**20
    assert GIGABYTE == 2**30
