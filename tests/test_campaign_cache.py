"""Result-cache tests: warm re-runs are free and byte-identical.

The contract under test is the heart of the persistence layer: a fully
warm cache re-run must execute **zero** cells (proved with an
execution-count spy) while emitting exactly the same artifact bytes as
the cold run, and invalidation must be structural -- a changed spec
misses, a changed artifact version or code fingerprint counts as stale
and re-executes.  The streaming artifact writer is pinned against the
canonical ``to_json`` form so million-cell grids can serialize from the
journal without ever materializing the cell list.
"""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.campaign import (
    ARTIFACT_VERSION,
    CampaignArtifact,
    CampaignGrid,
    CheckpointJournal,
    ResultCache,
    code_fingerprint,
    run_campaign,
    write_artifact_stream,
)
from repro.campaign import engine as campaign_engine
from repro.campaign.cache import FINGERPRINT_ENV, CacheStats
from repro.campaign.engine import cell_spec_hash


def small_grid(**overrides) -> CampaignGrid:
    """A 2-cell grid small enough to run many times in one test module."""
    params = dict(
        defenses=["LocalSSD", "RSSD"],
        attacks=["classic"],
        workloads=["office-edit"],
        device_configs=["tiny"],
        victim_files=4,
        file_size_bytes=4096,
        user_activity_hours=1.0,
        seed=23,
    )
    params.update(overrides)
    return CampaignGrid(**params)


class ExecutionSpy:
    """Wraps ``run_cell`` and records every real execution's cell key."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def __call__(self, spec):
        self.calls.append(spec.cell_key)
        return self.fn(spec)


@pytest.fixture
def run_cell_spy(monkeypatch) -> ExecutionSpy:
    """Patch the engine's ``run_cell`` with an execution counter."""
    spy = ExecutionSpy(campaign_engine.run_cell)
    monkeypatch.setattr(campaign_engine, "run_cell", spy)
    return spy


class TestCodeFingerprint:
    def test_is_a_stable_sha256_hexdigest(self, monkeypatch):
        monkeypatch.delenv(FINGERPRINT_ENV, raising=False)
        first = code_fingerprint()
        assert len(first) == 64
        int(first, 16)  # hex or raise
        assert code_fingerprint() == first

    def test_environment_override_wins(self, monkeypatch):
        monkeypatch.setenv(FINGERPRINT_ENV, "pinned-by-test")
        assert code_fingerprint() == "pinned-by-test"
        # New caches pick the override up as their identity.
        assert ResultCache("unused-root").fingerprint == "pinned-by-test"


class TestResultCacheUnit:
    def test_roundtrip_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path), fingerprint="f1")
        cache.put("campaign-cell", "ab" * 32, 2, {"x": 1})
        assert cache.get("campaign-cell", "ab" * 32, 2) == {"x": 1}
        assert cache.stats.to_dict() == {
            "hits": 1,
            "misses": 0,
            "stale": 0,
            "stores": 1,
        }

    def test_absent_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path), fingerprint="f1")
        assert cache.get("campaign-cell", "cd" * 32, 2) is None
        assert cache.stats.misses == 1
        assert cache.stats.stale == 0

    def test_version_mismatch_is_stale(self, tmp_path):
        cache = ResultCache(str(tmp_path), fingerprint="f1")
        cache.put("campaign-cell", "ab" * 32, 2, {"x": 1})
        assert cache.get("campaign-cell", "ab" * 32, 3) is None
        assert cache.stats.stale == 1
        assert cache.stats.misses == 1

    def test_fingerprint_mismatch_is_stale(self, tmp_path):
        ResultCache(str(tmp_path), fingerprint="old-code").put(
            "campaign-cell", "ab" * 32, 2, {"x": 1}
        )
        cache = ResultCache(str(tmp_path), fingerprint="new-code")
        assert cache.get("campaign-cell", "ab" * 32, 2) is None
        assert cache.stats.stale == 1

    def test_corrupt_entry_is_a_miss_never_an_error(self, tmp_path):
        cache = ResultCache(str(tmp_path), fingerprint="f1")
        path = cache.entry_path("campaign-cell", "ab" * 32)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"torn": ')
        assert cache.get("campaign-cell", "ab" * 32, 2) is None
        assert cache.stats.misses == 1
        assert cache.stats.stale == 0

    def test_overwrite_keeps_the_newest_payload(self, tmp_path):
        cache = ResultCache(str(tmp_path), fingerprint="f1")
        cache.put("campaign-cell", "ab" * 32, 2, {"x": 1})
        cache.put("campaign-cell", "ab" * 32, 2, {"x": 2})
        assert cache.get("campaign-cell", "ab" * 32, 2) == {"x": 2}

    def test_entries_shard_by_hash_prefix(self, tmp_path):
        cache = ResultCache(str(tmp_path), fingerprint="f1")
        path = cache.entry_path("roc-cell", "beef" + "0" * 60)
        assert path.endswith(
            os.path.join("objects", "roc-cell", "be", "beef" + "0" * 60 + ".json")
        )

    def test_stats_summary_is_one_line(self):
        stats = CacheStats(hits=3, misses=2, stale=1, stores=2)
        assert stats.summary() == "3 hits, 2 misses (1 stale), 2 stored"


class TestCampaignWarmCache:
    def test_warm_rerun_executes_zero_cells_and_is_bit_identical(
        self, tmp_path, run_cell_spy
    ):
        grid = small_grid()
        cold_cache = ResultCache(str(tmp_path / "cache"))
        cold = run_campaign(grid, cache=cold_cache)
        assert sorted(run_cell_spy.calls) == cold.cell_keys
        assert cold_cache.stats.to_dict() == {
            "hits": 0,
            "misses": 2,
            "stale": 0,
            "stores": 2,
        }

        warm_cache = ResultCache(str(tmp_path / "cache"))
        warm = run_campaign(grid, cache=warm_cache)
        # The spy saw no new executions: every cell came from the store.
        assert len(run_cell_spy.calls) == 2
        assert warm_cache.stats.to_dict() == {
            "hits": 2,
            "misses": 0,
            "stale": 0,
            "stores": 0,
        }
        assert warm.to_json() == cold.to_json()
        assert warm == cold  # cache_stats is compare=False provenance

    def test_spec_change_misses_instead_of_serving_stale_results(
        self, tmp_path, run_cell_spy
    ):
        cache_root = str(tmp_path / "cache")
        run_campaign(small_grid(), cache=ResultCache(cache_root))
        reseeded = ResultCache(cache_root)
        artifact = run_campaign(small_grid(seed=24), cache=reseeded)
        # A different campaign seed re-derives every cell seed, so every
        # lookup misses (plain miss, not stale) and re-executes.
        assert reseeded.stats.to_dict() == {
            "hits": 0,
            "misses": 2,
            "stale": 0,
            "stores": 2,
        }
        assert len(run_cell_spy.calls) == 4
        assert artifact.cells[0].env_seed != small_grid().cells()[0].env_seed

    def test_artifact_version_bump_invalidates_stored_cells(self, tmp_path):
        grid = small_grid()
        cache_root = str(tmp_path / "cache")
        run_campaign(grid, cache=ResultCache(cache_root))
        probe = ResultCache(cache_root)
        spec_hash = cell_spec_hash(grid.cells()[0])
        assert probe.get("campaign-cell", spec_hash, ARTIFACT_VERSION) is not None
        assert probe.get("campaign-cell", spec_hash, ARTIFACT_VERSION + 1) is None
        assert probe.stats.stale == 1

    def test_code_fingerprint_change_invalidates_and_reexecutes(
        self, tmp_path, run_cell_spy
    ):
        grid = small_grid()
        cache_root = str(tmp_path / "cache")
        cold = run_campaign(grid, cache=ResultCache(cache_root))
        edited = ResultCache(cache_root, fingerprint="simulated-code-change")
        warm = run_campaign(grid, cache=edited)
        assert edited.stats.to_dict() == {
            "hits": 0,
            "misses": 2,
            "stale": 2,
            "stores": 2,
        }
        assert len(run_cell_spy.calls) == 4
        # Same inputs, so re-execution still reproduces the bytes.
        assert warm.to_json() == cold.to_json()

    def test_fingerprint_env_var_reaches_new_caches(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FINGERPRINT_ENV, "release-a")
        cache_root = str(tmp_path / "cache")
        run_campaign(small_grid(), cache=ResultCache(cache_root))
        monkeypatch.setenv(FINGERPRINT_ENV, "release-b")
        stale = ResultCache(cache_root)
        assert stale.fingerprint == "release-b"
        run_campaign(small_grid(), cache=stale)
        assert stale.stats.stale == 2

    def test_cache_stats_never_enter_the_serialized_artifact(self, tmp_path):
        grid = small_grid()
        cached = run_campaign(grid, cache=ResultCache(str(tmp_path / "cache")))
        plain = run_campaign(grid)
        assert cached.cache_stats is not None
        assert plain.cache_stats is None
        assert cached.to_json() == plain.to_json()
        assert "cache" not in cached.to_json()
        reloaded = CampaignArtifact.from_json(cached.to_json())
        assert reloaded == cached


class TestFilteredRunsWithCache:
    def test_cache_hit_cells_still_appear_in_baseline_diff(self, tmp_path):
        grid = small_grid()
        cache_root = str(tmp_path / "cache")
        full = run_campaign(grid, cache=ResultCache(cache_root))

        warm = ResultCache(cache_root)
        filtered = run_campaign(grid, filters=["LocalSSD"], cache=warm)
        # The cell was served from the cache, not executed ...
        assert warm.stats.to_dict() == {
            "hits": 1,
            "misses": 0,
            "stale": 0,
            "stores": 0,
        }
        # ... yet it is a full artifact citizen: present, and compared
        # value-by-value in a baseline diff.
        assert filtered.cell_keys == ["LocalSSD/classic/office-edit/tiny"]
        differences = filtered.diff(full)
        assert differences == ["missing cell: RSSD/classic/office-edit/tiny"]
        subset_baseline = CampaignArtifact(
            campaign_seed=full.campaign_seed,
            grid=full.grid,
            cells=[full.cell("LocalSSD/classic/office-edit/tiny")],
        )
        assert filtered.diff(subset_baseline) == []


class TestStreamingArtifactWriter:
    def _stream(self, artifact: CampaignArtifact) -> str:
        out = io.StringIO()
        count = write_artifact_stream(
            out,
            artifact.campaign_seed,
            artifact.grid,
            (cell.to_dict() for cell in artifact.cells),
            version=artifact.version,
        )
        assert count == len(artifact.cells)
        return out.getvalue()

    def test_bytes_match_the_canonical_serializer(self, tmp_path):
        artifact = run_campaign(small_grid())
        assert self._stream(artifact) == artifact.to_json()

    def test_empty_cell_list_matches_too(self):
        artifact = CampaignArtifact(campaign_seed=7, grid={"note": "empty"})
        assert self._stream(artifact) == artifact.to_json()
        assert json.loads(self._stream(artifact))["cells"] == []

    def test_streaming_from_the_journal_reproduces_the_artifact(self, tmp_path):
        grid = small_grid()
        journal = CheckpointJournal(str(tmp_path / "journal.jsonl"))
        artifact = run_campaign(grid, journal=journal)
        destination = str(tmp_path / "streamed.json")
        count = write_artifact_stream(
            destination,
            artifact.campaign_seed,
            artifact.grid,
            journal.iter_payloads_sorted(),
            version=artifact.version,
        )
        assert count == len(artifact.cells)
        with open(destination, "r", encoding="utf-8") as handle:
            assert handle.read() == artifact.to_json()

    def test_journal_key_restriction_drops_filtered_cells(self, tmp_path):
        grid = small_grid()
        journal = CheckpointJournal(str(tmp_path / "journal.jsonl"))
        artifact = run_campaign(grid, journal=journal)
        keep = {"RSSD/classic/office-edit/tiny"}
        payloads = list(journal.iter_payloads_sorted(keys=keep))
        assert [cell["cell_key"] for cell in payloads] == sorted(keep)
        assert payloads[0] == artifact.cell(next(iter(keep))).to_dict()
