"""Unit tests for the synthetic WCC and FFG generators."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.workloads.ffg import (
    FFGConfig,
    generate_event_records,
    generate_position_records,
)
from repro.workloads.wcc import WCCConfig, generate_wcc_records


class TestWCC:
    def test_volume_matches_rate(self):
        records = generate_wcc_records(0.0, 100.0, rate=1000.0)
        total = sum(r.size for r in records)
        assert total == pytest.approx(100_000, rel=0.05)

    def test_timestamps_within_interval(self):
        records = generate_wcc_records(50.0, 60.0, rate=5000.0)
        assert all(50.0 <= r.ts < 60.0 for r in records)

    def test_schema_fields(self):
        record = generate_wcc_records(0.0, 1.0, rate=1000.0)[0]
        assert set(record.value) == {
            "src", "client", "object", "bytes", "method", "status", "region",
        }
        assert record.value["src"] == "wcc"

    def test_deterministic_per_seed(self):
        a = generate_wcc_records(0.0, 10.0, 1000.0, seed=4)
        b = generate_wcc_records(0.0, 10.0, 1000.0, seed=4)
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_wcc_records(0.0, 10.0, 5000.0, seed=1)
        b = generate_wcc_records(0.0, 10.0, 5000.0, seed=2)
        assert a != b

    def test_key_space_respected(self):
        cfg = WCCConfig(num_objects=7)
        records = generate_wcc_records(0.0, 10.0, 10_000.0, config=cfg)
        assert all(0 <= r.value["object"] < 7 for r in records)

    def test_zipf_skew(self):
        cfg = WCCConfig(num_objects=100, zipf_s=1.5, record_size=10)
        records = generate_wcc_records(0.0, 100.0, 10_000.0, config=cfg, seed=3)
        counts = Counter(r.value["object"] for r in records)
        top = sum(v for k, v in counts.items() if k < 10)
        assert top > len(records) * 0.5  # head objects dominate

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            generate_wcc_records(10.0, 10.0, 1000.0)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            generate_wcc_records(0.0, 10.0, 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WCCConfig(record_size=0)
        with pytest.raises(ValueError):
            WCCConfig(num_objects=0)
        with pytest.raises(ValueError):
            WCCConfig(zipf_s=0.0)

    @pytest.mark.slow
    @given(
        t0=st.floats(0, 1e4),
        dur=st.floats(1.0, 1e3),
        # <= 2,000 B/s x 1,000 s / 100 B = 20k records per example: the
        # property is about the interval's float edges, not volume.
        rate=st.floats(100.0, 2_000.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_records_sorted_enough_property(self, t0, dur, rate):
        """Timestamps are within the interval and roughly even."""
        records = generate_wcc_records(t0, t0 + dur, rate, seed=0)
        assert all(t0 <= r.ts < t0 + dur for r in records)


class TestFFG:
    def test_position_schema(self):
        record = generate_position_records(0.0, 1.0, 1000.0)[0]
        assert set(record.value) == {"src", "player", "x", "y", "speed"}
        assert record.value["src"] == "positions"

    def test_event_schema(self):
        record = generate_event_records(0.0, 1.0, 1000.0)[0]
        assert set(record.value) == {"src", "player", "event", "intensity"}
        assert record.value["src"] == "events"

    def test_positions_within_field(self):
        cfg = FFGConfig()
        records = generate_position_records(0.0, 10.0, 10_000.0, config=cfg)
        for r in records:
            assert 0 <= r.value["x"] <= cfg.field_length
            assert 0 <= r.value["y"] <= cfg.field_width

    def test_player_key_space(self):
        cfg = FFGConfig(num_players=5)
        for gen in (generate_position_records, generate_event_records):
            records = gen(0.0, 10.0, 10_000.0, config=cfg)
            assert all(0 <= r.value["player"] < 5 for r in records)

    def test_streams_joinable_on_player(self):
        cfg = FFGConfig(num_players=3)
        pos = generate_position_records(0.0, 10.0, 10_000.0, config=cfg, seed=1)
        evt = generate_event_records(0.0, 10.0, 10_000.0, config=cfg, seed=1)
        pos_players = {r.value["player"] for r in pos}
        evt_players = {r.value["player"] for r in evt}
        assert pos_players & evt_players  # join produces output

    def test_deterministic_and_stream_specific(self):
        a = generate_position_records(0.0, 5.0, 1000.0, seed=9)
        b = generate_position_records(0.0, 5.0, 1000.0, seed=9)
        c = generate_event_records(0.0, 5.0, 1000.0, seed=9)
        assert a == b
        assert [r.ts for r in a] != [r.ts for r in c] or a != c

    def test_records_identical_across_hash_seeds(self):
        # A tuple seed holding a str goes through hash(), salted per
        # process: the join data would change with every run.
        script = (
            "from repro.workloads.ffg import *\n"
            "print(repr(generate_position_records(0, 5, 1e5, seed=3)))\n"
            "print(repr(generate_event_records(0, 5, 1e5, seed=3)))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for hash_seed in ("1", "2")
        ]
        assert "positions" in outputs[0] and "events" in outputs[0]
        # Compare digests: a diff of two ~1 MB reprs would take minutes.
        digests = [hashlib.sha256(out.encode()).hexdigest() for out in outputs]
        assert digests[0] == digests[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_position_records(0.0, 0.0, 1000.0)
        with pytest.raises(ValueError):
            generate_event_records(0.0, 1.0, -5.0)
        with pytest.raises(ValueError):
            FFGConfig(record_size=0)
        with pytest.raises(ValueError):
            FFGConfig(num_players=0)
