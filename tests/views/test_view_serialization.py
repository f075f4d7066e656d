"""Tests for sweep CSV export."""

from __future__ import annotations

from repro.analysis.sweeps import SweepRow, table_to_csv


class TestCsvExport:
    def test_csv_layout(self):
        rows = [
            SweepRow("a", {"x": 1, "y": 2.5}),
            SweepRow("b", {"x": 3}),
        ]
        csv_text = table_to_csv(["x", "y"], rows)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "case,x,y"
        assert lines[1] == "a,1,2.500"
        assert lines[2] == "b,3,"
