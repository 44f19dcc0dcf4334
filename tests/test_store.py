"""Tests for the pluggable cell-store layer: DirStore, OverlayStore,
merge/verify/stats, and the default-location rules."""

import json
import logging

import pytest

from repro.config import SolverConfig
from repro.experiments.common import SCHEME_COLUMNS
from repro.runner.spec import SweepCell, cell_key
from repro.runner.store import (
    DirStore,
    OverlayStore,
    default_cache_dir,
    merge_stores,
    open_store,
    store_stats,
    verify_store,
)

TINY_SOLVER = SolverConfig(
    max_adversarial_rounds=2,
    max_inner_iterations=10,
    smoothing_temperatures=(8.0, 64.0),
)


def make_cell(margin=1.0, topology="abilene", **overrides):
    return SweepCell(
        experiment=overrides.pop("experiment", "test"),
        topology=topology,
        demand_model=overrides.pop("demand_model", "gravity"),
        margin=margin,
        seed=overrides.pop("seed", 7),
        solver=TINY_SOLVER,
        **overrides,
    )


def result_for(cell):
    return {scheme: cell.margin + i for i, scheme in enumerate(SCHEME_COLUMNS)}


class TestDefaultCacheDir:
    def test_env_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "override"

    def test_xdg_cache_home_respected(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro"

    def test_falls_back_to_home_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        assert str(default_cache_dir()).endswith(".cache/repro")


class TestDirStore:
    def test_roundtrip(self, tmp_path):
        store = DirStore(tmp_path)
        cell = make_cell()
        assert store.get(cell) is None and not store.contains(cell)
        store.put(cell, result_for(cell))
        assert store.contains(cell)
        assert store.get(cell) == result_for(cell)

    def test_corrupt_entry_logs_structured_warning(self, tmp_path, caplog):
        store = DirStore(tmp_path)
        cell = make_cell()
        path = store.put(cell, result_for(cell))
        path.write_text("{not json")
        with caplog.at_level(logging.WARNING, logger="repro.runner.store"):
            assert store.get(cell) is None
        record = caplog.records[-1]
        assert record.cell_key == cell_key(cell)
        assert "unreadable" in record.reason
        assert "dropping entry" in record.getMessage()

    def test_fingerprint_mismatch_logs_and_misses(self, tmp_path, caplog):
        store = DirStore(tmp_path)
        cell, other = make_cell(), make_cell(margin=2.0)
        payload = json.loads(store.put(other, result_for(other)).read_text())
        store.put(cell, result_for(cell))
        store.path_for(cell).write_text(json.dumps(payload))
        with caplog.at_level(logging.WARNING, logger="repro.runner.store"):
            assert store.get(cell) is None
        assert "fingerprint mismatch" in caplog.records[-1].reason

    def test_missing_column_is_a_miss(self, tmp_path, caplog):
        store = DirStore(tmp_path)
        cell = make_cell()
        incomplete = dict(result_for(cell))
        incomplete.pop(SCHEME_COLUMNS[0])
        path = store.put(cell, result_for(cell))
        payload = json.loads(path.read_text())
        payload["result"] = incomplete
        path.write_text(json.dumps(payload))
        with caplog.at_level(logging.WARNING, logger="repro.runner.store"):
            assert store.get(cell) is None
        assert "missing columns" in caplog.records[-1].reason

    def test_plain_miss_is_silent(self, tmp_path, caplog):
        store = DirStore(tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.runner.store"):
            assert store.get(make_cell()) is None
        assert not caplog.records

    def test_len_counts_only_entry_leaves(self, tmp_path):
        store = DirStore(tmp_path)
        cell = make_cell()
        store.put(cell, result_for(cell))
        key = cell_key(cell)
        # Campaign litter sharing the store directory must not count.
        (tmp_path / "campaign.json").write_text("{}")
        claims = tmp_path / "claims"
        claims.mkdir()
        (claims / f"{key}.claim").write_text("{}")
        (claims / "stray.json").write_text("{}")
        misfiled = tmp_path / "zz" / f"{key}.json"  # wrong prefix directory
        misfiled.parent.mkdir()
        misfiled.write_text("{}")
        (tmp_path / key[:2] / "notakey.json").write_text("{}")
        assert len(store) == 1
        assert list(store.entry_keys()) == [key]


class TestOverlayStore:
    def test_put_writes_every_layer(self, tmp_path):
        local, shared = DirStore(tmp_path / "local"), DirStore(tmp_path / "shared")
        overlay = OverlayStore([local, shared])
        cell = make_cell()
        overlay.put(cell, result_for(cell))
        assert local.contains(cell) and shared.contains(cell)

    def test_hit_in_later_layer_fills_earlier(self, tmp_path):
        local, shared = DirStore(tmp_path / "local"), DirStore(tmp_path / "shared")
        cell = make_cell()
        shared.put(cell, result_for(cell))
        overlay = OverlayStore([local, shared])
        assert not local.contains(cell)
        assert overlay.get(cell) == result_for(cell)
        assert local.contains(cell)  # read-through fill

    def test_contains_any_layer(self, tmp_path):
        local, shared = DirStore(tmp_path / "local"), DirStore(tmp_path / "shared")
        cell = make_cell()
        local.put(cell, result_for(cell))
        assert OverlayStore([local, shared]).contains(cell)

    def test_entry_keys_deduplicate(self, tmp_path):
        local, shared = DirStore(tmp_path / "local"), DirStore(tmp_path / "shared")
        cell = make_cell()
        local.put(cell, result_for(cell))
        shared.put(cell, result_for(cell))
        shared.put(make_cell(margin=2.0), result_for(make_cell(margin=2.0)))
        assert len(OverlayStore([local, shared])) == 2

    def test_open_store_single_and_layered(self, tmp_path):
        single = open_store([tmp_path / "one"])
        assert isinstance(single, DirStore)
        layered = open_store([tmp_path / "a", tmp_path / "b"])
        assert isinstance(layered, OverlayStore)
        assert isinstance(layered.primary, DirStore)
        with pytest.raises(ValueError):
            open_store([])


class TestMergeVerifyStats:
    def _stores(self, tmp_path):
        return DirStore(tmp_path / "a"), DirStore(tmp_path / "b"), DirStore(tmp_path / "dest")

    def test_merge_copies_and_skips(self, tmp_path):
        a, b, dest = self._stores(tmp_path)
        one, two = make_cell(), make_cell(margin=2.0)
        a.put(one, result_for(one))
        b.put(one, result_for(one))  # identical duplicate across shards
        b.put(two, result_for(two))
        stats = merge_stores([a, b], dest)
        assert stats.copied == 2 and stats.present == 1
        assert stats.conflicting == 0 and stats.invalid == 0
        assert dest.get(one) == result_for(one) and dest.get(two) == result_for(two)

    def test_merge_keeps_destination_on_conflict(self, tmp_path):
        a, _b, dest = self._stores(tmp_path)
        cell = make_cell()
        dest.put(cell, result_for(cell))
        conflicting = dict(result_for(cell))
        conflicting[SCHEME_COLUMNS[0]] += 1.0
        a.put(cell, conflicting)
        stats = merge_stores([a], dest)
        assert stats.conflicting == 1 and stats.copied == 0
        assert dest.get(cell) == result_for(cell)

    def test_merge_skips_invalid_entries(self, tmp_path):
        a, _b, dest = self._stores(tmp_path)
        cell = make_cell()
        path = a.put(cell, result_for(cell))
        path.write_text("{broken")
        stats = merge_stores([a], dest)
        assert stats.invalid == 1 and stats.copied == 0
        assert len(dest) == 0

    def test_verify_detects_miskeyed_entry(self, tmp_path):
        store = DirStore(tmp_path)
        one, two = make_cell(), make_cell(margin=2.0)
        store.put(one, result_for(one))
        path = store.put(two, result_for(two))
        # Rename two's entry under one-off key: fingerprint no longer hashes
        # to the filename, which verify must flag.
        bogus = cell_key(two)[:-1] + ("0" if cell_key(two)[-1] != "0" else "1")
        target = store.path_for_key(bogus)
        target.parent.mkdir(parents=True, exist_ok=True)
        path.rename(target)
        report = verify_store(store)
        assert report.checked == 2 and not report.ok
        key, reason = report.problems[0]
        assert key == bogus and "hashes to" in reason

    def test_verify_clean_store_ok(self, tmp_path):
        store = DirStore(tmp_path)
        cell = make_cell()
        store.put(cell, result_for(cell))
        report = verify_store(store)
        assert report.ok and report.checked == 1
        assert "ok" in report.summary()

    def test_store_stats(self, tmp_path):
        store = DirStore(tmp_path)
        for margin in (1.0, 2.0):
            store.put(make_cell(margin=margin), result_for(make_cell(margin=margin)))
        stats = store_stats(store)
        assert stats["entries"] == 2 and stats["bytes"] > 0
        assert stats["by_kind"] == {"margin": 2}
        assert list(stats["by_version"]) == [make_cell().fingerprint()["version"]]
        assert stats["unreadable"] == 0
