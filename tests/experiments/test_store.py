"""Tests for the code fingerprint and the append-only JSONL store.

The artifact store's persistent tier (``repro.artifacts.store``) keys
every record on :func:`code_fingerprint` and writes through
:class:`ResultStore`: any source change must rotate the fingerprint, and
a torn final line (crash mid-write) must be repaired, never silently
merged or mistaken for corruption.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ReproError
from repro.experiments.fingerprint import (
    clear_fingerprint_cache,
    code_fingerprint,
)
from repro.experiments.store import ResultStore, StoreCorrupt, scan_store


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "store.jsonl"


class TestFingerprint:
    def test_deterministic_and_cached(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        clear_fingerprint_cache()
        assert code_fingerprint(tmp_path) == code_fingerprint(tmp_path)

    def test_source_change_rotates_fingerprint(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        clear_fingerprint_cache()
        before = code_fingerprint(tmp_path)
        (tmp_path / "a.py").write_text("x = 2  # even a comment counts\n")
        clear_fingerprint_cache()
        assert code_fingerprint(tmp_path) != before

    def test_file_rename_rotates_fingerprint(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        clear_fingerprint_cache()
        before = code_fingerprint(tmp_path)
        (tmp_path / "a.py").rename(tmp_path / "b.py")
        clear_fingerprint_cache()
        assert code_fingerprint(tmp_path) != before

    def test_non_python_files_ignored(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        clear_fingerprint_cache()
        before = code_fingerprint(tmp_path)
        (tmp_path / "notes.md").write_text("irrelevant\n")
        clear_fingerprint_cache()
        assert code_fingerprint(tmp_path) == before

    def test_default_root_is_the_package(self):
        assert len(code_fingerprint()) == 64


class TestStore:
    def test_append_scan_roundtrip(self, store_path):
        with ResultStore.open(store_path) as store:
            store.append({"key": "k1", "value": 1})
            store.append({"key": "k2", "value": [1, 2]})
        records = scan_store(store_path)
        assert set(records) == {"k1", "k2"}
        assert records["k2"]["value"] == [1, 2]

    def test_missing_file_scans_empty(self, tmp_path):
        assert scan_store(tmp_path / "nope.jsonl") == {}

    def test_torn_final_line_tolerated_by_scan(self, store_path):
        with ResultStore.open(store_path) as store:
            store.append({"key": "k1", "value": 1})
        with open(store_path, "ab") as handle:
            handle.write(b'{"key": "torn-rec')  # crash mid-write
        records = scan_store(store_path)
        assert set(records) == {"k1"}

    def test_open_repairs_torn_tail_before_appending(self, store_path):
        with ResultStore.open(store_path) as store:
            store.append({"key": "k1", "value": 1})
        with open(store_path, "ab") as handle:
            handle.write(b'{"key": "torn-rec')
        with ResultStore.open(store_path) as store:
            assert set(store.records) == {"k1"}
            store.append({"key": "k2", "value": 2})
        # The torn bytes are gone and every surviving line is valid JSON.
        lines = store_path.read_text().splitlines()
        assert [json.loads(line)["key"] for line in lines] == ["k1", "k2"]

    def test_parseable_line_without_newline_is_torn(self, store_path):
        with ResultStore.open(store_path) as store:
            store.append({"key": "k1", "value": 1})
        with open(store_path, "ab") as handle:
            handle.write(b'{"key": "k2", "value": 2}')  # no trailing "\n"
        assert set(scan_store(store_path)) == {"k1"}

    def test_mid_file_corruption_raises(self, store_path):
        store_path.write_text('not json\n{"key": "k1"}\n')
        with pytest.raises(StoreCorrupt, match="line 1"):
            scan_store(store_path)

    def test_append_after_close_raises(self, store_path):
        store = ResultStore.open(store_path)
        store.close()
        with pytest.raises(ReproError, match="closed"):
            store.append({"key": "k"})
