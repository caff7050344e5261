"""Unit tests for pane arithmetic and window specs."""

from __future__ import annotations

import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.panes import (
    Pane,
    PaneRange,
    WindowSpec,
    pane_file_name,
    pane_name,
    parse_pane_name,
    split_pid,
)

# Window specs with integral-second win/slide, slide <= win.
spec_strategy = st.tuples(
    st.integers(1, 48), st.integers(1, 48)
).map(lambda ws: WindowSpec(win=float(max(ws)) * 60, slide=float(min(ws)) * 60))


class TestWindowSpecValidation:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            WindowSpec(win=0, slide=1)
        with pytest.raises(ValueError):
            WindowSpec(win=10, slide=0)

    def test_slide_beyond_win_rejected(self):
        with pytest.raises(ValueError):
            WindowSpec(win=10, slide=11)

    def test_sub_millisecond_rejected(self):
        with pytest.raises(ValueError):
            WindowSpec(win=1.00000001, slide=0.5)


class TestPaneDerivation:
    def test_paper_example_gcd(self):
        # Sec. 3.1: win = 6 min, slide = 2 min -> pane = 2 min.
        spec = WindowSpec(win=360.0, slide=120.0)
        assert spec.pane_seconds == 120.0

    def test_coprime_minutes(self):
        spec = WindowSpec(win=600.0, slide=540.0)  # 10 min / 9 min
        assert spec.pane_seconds == 60.0
        assert spec.panes_per_window == 10
        assert spec.panes_per_slide == 9

    def test_tumbling_window(self):
        spec = WindowSpec(win=100.0, slide=100.0)
        assert spec.pane_seconds == 100.0
        assert spec.panes_per_window == 1

    def test_fractional_seconds_supported(self):
        spec = WindowSpec(win=1.5, slide=0.5)
        assert spec.pane_seconds == 0.5

    def test_overlap_factor(self):
        assert WindowSpec(win=10.0, slide=1.0).overlap == pytest.approx(0.9)
        assert WindowSpec(win=10.0, slide=10.0).overlap == 0.0

    @given(spec_strategy)
    @settings(max_examples=60)
    def test_pane_divides_both_property(self, spec):
        pane_ms = round(spec.pane_seconds * 1000)
        assert round(spec.win * 1000) % pane_ms == 0
        assert round(spec.slide * 1000) % pane_ms == 0


class TestExecutionSchedule:
    def test_first_execution_at_win(self):
        spec = WindowSpec(win=100.0, slide=20.0)
        assert spec.execution_time(1) == 100.0
        assert spec.execution_time(3) == 140.0

    def test_recurrence_numbering_from_one(self):
        with pytest.raises(ValueError):
            WindowSpec(win=10.0, slide=5.0).execution_time(0)

    def test_window_bounds(self):
        spec = WindowSpec(win=100.0, slide=20.0)
        assert spec.window_bounds(1) == (0.0, 100.0)
        assert spec.window_bounds(2) == (20.0, 120.0)


class TestPaneCoverage:
    def test_pane_bounds(self):
        spec = WindowSpec(win=60.0, slide=20.0)  # pane = 20
        assert spec.pane_bounds(0) == (0.0, 20.0)
        assert spec.pane_bounds(3) == (60.0, 80.0)

    def test_pane_of_time(self):
        spec = WindowSpec(win=60.0, slide=20.0)
        assert spec.pane_of_time(0.0) == 0
        assert spec.pane_of_time(19.999) == 0
        assert spec.pane_of_time(20.0) == 1

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            WindowSpec(win=10.0, slide=5.0).pane_of_time(-1.0)

    def test_panes_in_window(self):
        spec = WindowSpec(win=60.0, slide=20.0)  # 3 panes per window
        assert spec.panes_in_window(1) == [0, 1, 2]
        assert spec.panes_in_window(2) == [1, 2, 3]

    def test_new_panes_first_window_is_all(self):
        spec = WindowSpec(win=60.0, slide=20.0)
        assert spec.new_panes_in_window(1) == [0, 1, 2]

    def test_new_panes_subsequent(self):
        spec = WindowSpec(win=60.0, slide=20.0)
        assert spec.new_panes_in_window(2) == [3]

    @given(spec_strategy, st.integers(1, 12))
    @settings(max_examples=60)
    def test_window_is_union_of_panes_property(self, spec, k):
        """Every window is exactly covered by its panes."""
        start, end = spec.window_bounds(k)
        panes = spec.panes_in_window(k)
        lo = spec.pane_bounds(panes[0])[0]
        hi = spec.pane_bounds(panes[-1])[1]
        assert lo <= max(0.0, start) + 1e-6
        assert hi >= end - 1e-6
        # panes are consecutive
        assert panes == list(range(panes[0], panes[-1] + 1))

    @given(spec_strategy, st.integers(2, 12))
    @settings(max_examples=60)
    def test_slide_advances_by_panes_per_slide(self, spec, k):
        prev = spec.panes_in_window(k - 1)
        curr = spec.panes_in_window(k)
        assert curr[-1] - prev[-1] == spec.panes_per_slide


class TestLifespans:
    def test_recurrences_containing_pane(self):
        # win = 30 min, slide = 20 min, pane = 10 min (paper Fig. 4 setup).
        spec = WindowSpec(win=1800.0, slide=1200.0)
        # window 1 covers panes 0-2, window 2 covers panes 2-4, window 3: 4-6
        assert spec.recurrences_containing_pane(0) == (1, 1)
        assert spec.recurrences_containing_pane(2) == (1, 2)
        assert spec.recurrences_containing_pane(4) == (2, 3)

    def test_lifespan_symmetric_specs(self):
        spec = WindowSpec(win=1800.0, slide=1200.0)
        # pane 2 co-occurs with windows 1 and 2 -> partner panes 0..4.
        assert spec.lifespan(2, spec) == (0, 4)
        # pane 1 is only in window 1 -> partners 0..2.
        assert spec.lifespan(1, spec) == (0, 2)

    def test_lifespan_requires_shared_slide(self):
        a = WindowSpec(win=100.0, slide=50.0)
        b = WindowSpec(win=100.0, slide=25.0)
        with pytest.raises(ValueError):
            a.lifespan(0, b)

    @given(spec_strategy, st.integers(0, 30))
    @settings(max_examples=60)
    def test_lifespan_covers_own_windows_property(self, spec, idx):
        lo, hi = spec.lifespan(idx, spec)
        k_min, k_max = spec.recurrences_containing_pane(idx)
        for k in (k_min, k_max):
            panes = spec.panes_in_window(k)
            assert lo <= min(panes)
            assert hi >= max(panes)


class TestNaming:
    def test_pane_name(self):
        assert pane_name("S1", 3) == "S1P3"

    def test_pane_pid(self):
        assert Pane("S2", 7).pid == "S2P7"
        assert str(Pane("S2", 7)) == "S2P7"

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            Pane("S1", -1)

    def test_parse_roundtrip(self):
        pane = parse_pane_name("S1P12")
        assert pane == Pane("S1", 12)

    def test_parse_invalid(self):
        for bad in ("S1", "P3", "nonsense", "S1P"):
            with pytest.raises(ValueError):
                parse_pane_name(bad)

    def test_split_pid(self):
        assert split_pid("wc:S1P3") == ["wc:S1P3"]
        assert split_pid("wc:S1P3xwc:S2P14") == ["wc:S1P3", "wc:S2P14"]
        # Only an "x" right after a pane index separates two pane ids.
        assert split_pid("ffg-extrema:positionsP1") == [
            "ffg-extrema:positionsP1"
        ]
        assert split_pid("fx:boxP1xfx:taxP2") == ["fx:boxP1", "fx:taxP2"]
        for not_panes in ("nonsense", "xyz", "S1P3xfoo", "S1P3x"):
            assert split_pid(not_panes) == [not_panes]

    @given(
        names=st.lists(
            st.tuples(st.text("abxP1:-", min_size=1), st.integers(0, 999)),
            min_size=1,
            max_size=3,
        )
    )
    def test_split_pid_inverts_joined_pane_names(self, names):
        # A name holding "P<digits>x" is ambiguous in the pid format.
        assume(not any(re.search(r"P\d+x", name) for name, _ in names))
        ids = [pane_name(name, index) for name, index in names]
        assert split_pid("x".join(ids)) == ids

    def test_file_name_single(self):
        # Oversize case: S#P# (paper Sec. 3.2).
        assert pane_file_name("S1", 1) == "S1P1"
        assert pane_file_name("S1", 1, 1) == "S1P1"

    def test_file_name_range(self):
        # Undersized case: S#P#_# covering panes 1-4.
        assert pane_file_name("S1", 1, 4) == "S1P1_4"

    def test_file_name_invalid_range(self):
        with pytest.raises(ValueError):
            pane_file_name("S1", 4, 1)


class TestPaneRange:
    def test_indices_and_contains(self):
        r = PaneRange("S1", 2, 5)
        assert r.indices() == [2, 3, 4, 5]
        assert 3 in r
        assert 6 not in r
        assert len(r) == 4

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            PaneRange("S1", 5, 2)
