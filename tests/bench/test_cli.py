"""Tests for the command-line experiment runner."""

from __future__ import annotations

import csv
import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_experiments_have_subcommands(self):
        parser = build_parser()
        for command in ("list", "fig6", "fig7", "fig8", "fig9", "headline",
                        "ablations"):
            args = parser.parse_args(
                [command] if command == "list" else [command]
            )
            assert args.command == command

    def test_scale_and_windows_parsed(self):
        args = build_parser().parse_args(["fig6", "--scale", "0.2",
                                          "--windows", "4"])
        assert args.scale == 0.2
        assert args.windows == 4

    def test_overlaps_parsed(self):
        args = build_parser().parse_args(["fig8", "--overlaps", "0.1", "0.9"])
        assert args.overlaps == [0.1, 0.9]

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig6", "fig7", "fig8", "fig9", "headline", "ablations"):
            assert name in out

    def test_fig6_tiny_run(self, capsys):
        rc = main(["fig6", "--scale", "0.05", "--windows", "2",
                   "--overlaps", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "overlap = 0.5" in out
        assert "redoop vs hadoop" in out

    def test_fig9_csv_export(self, tmp_path, capsys):
        csv_path = tmp_path / "fig9.csv"
        rc = main(["fig9", "--scale", "0.05", "--windows", "2",
                   "--csv", str(csv_path)])
        assert rc == 0
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        # 4 systems x 2 windows.
        assert len(rows) == 8
        assert {r["system"] for r in rows} == {
            "hadoop", "redoop", "redoop(f)", "hadoop(f)"
        }
        assert all(float(r["response_time"]) > 0 for r in rows)

    @pytest.mark.slow
    def test_headline_tiny_run(self, capsys):
        rc = main(["headline", "--scale", "0.05"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "aggregation" in out and "join" in out


class TestBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fig6", "--scale", "0"],
            ["chaos", "--scale", "0"],
            ["chaos", "--windows", "0"],
            ["chaos", "--seeds", "-1"],
            ["plan", "--differential", "--recurrences", "0"],
            ["plan", "--tenants", "0"],
            ["serve", "--tenants", "0"],
            ["fig7", "--backend", "process", "--workers", "0"],
            ["throughput", "--workers", "1", "0"],
            ["fig9", "--cache-capacity-mb", "-1"],
            ["reuse-bench", "--capacity-mb", "nan"],
            ["serve", "--reuse-capacity-mb", "0"],
            ["capacity", "--windows", "two"],
        ],
    )
    def test_rejected_with_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        flag = [a for a in argv if a.startswith("--")][-1]
        assert f"argument {flag}" in err


class TestDifferentialEntryPoints:
    """Tiny runs of every CLI path that ends in a differential verdict."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["chaos", "--seed", "1", "--windows", "2", "--events-per-window", "1"],
            ["chaos", "--reuse", "--seed", "1", "--windows", "2", "--events-per-window", "1"],
            ["plan", "--differential", "--recurrences", "4"],
            ["reuse-bench", "--scale", "0.05", "--windows", "2"],
        ],
        ids=["chaos", "chaos-reuse", "plan-differential", "reuse-bench"],
    )
    def test_exits_zero_with_an_ok_verdict(self, argv, capsys):
        assert main(argv) == 0
        assert "verdict: OK" in capsys.readouterr().out

    def test_reuse_bench_reports_cold_and_warm(self, tmp_path, capsys):
        out = tmp_path / "reuse.json"
        argv = ["reuse-bench", "--scale", "0.05", "--windows", "2", "--json-out", str(out)]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "cold avg response" in text and "warm avg response" in text
        report = json.loads(out.read_text())
        assert report["digests_equal"] is True
        assert report["warm_avg_response"] < report["cold_avg_response"]
        assert report["reuse_counters"]["reuse.hits"] > 0

    def test_chaos_trace_out_exports_every_run(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        argv = ["chaos", "--reuse", "--windows", "2", "--trace-out", str(out)]
        assert main(argv) == 0
        document = json.loads(out.read_text())
        lanes = {
            e["args"]["name"].split(" ")[0]
            for e in document["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "process_name"
        }
        assert lanes == {"fault-free", "cold", "warm"}
