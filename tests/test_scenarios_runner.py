"""run_fuzz: backend bit-identity, guided walks, artifact.

The cache and checkpoint/resume contract run_fuzz shares with every
other sweep kind is pinned in ``tests/test_sweep.py``.
"""

from __future__ import annotations

import pytest

from repro.scenarios import (
    FUZZ_ARTIFACT_VERSION,
    CoverageLedger,
    FuzzArtifact,
    FuzzConfig,
    SpecFuzzer,
    region_of,
    run_fuzz,
    run_fuzz_cell,
)

BUDGET = 4
SEED = 7

#: Pure (cache-less, journal-less, unguided) runs keyed by seed -- the
#: same walk is asserted against many times, so execute it once.
_MEMO = {}


def tiny_fuzz(**overrides):
    params = dict(seed=SEED, budget=BUDGET, config=FuzzConfig.tiny())
    params.update(overrides)
    pure = set(overrides) <= {"seed", "backend", "jobs"}
    key = (params["seed"], params.get("backend", "sequential"), params.get("jobs", 0))
    if pure and key in _MEMO:
        return _MEMO[key]
    artifact = run_fuzz(**params)
    if pure:
        _MEMO[key] = artifact
    return artifact


class TestDeterminism:
    def test_backends_are_bit_identical(self):
        sequential = tiny_fuzz(backend="sequential").to_json()
        threaded = tiny_fuzz(backend="thread", jobs=4).to_json()
        process = tiny_fuzz(backend="process", jobs=2).to_json()
        assert sequential == threaded == process

    def test_spec_hashes_follow_the_fuzzer_walk(self):
        artifact = tiny_fuzz()
        expected = [
            s.spec_hash()
            for s in SpecFuzzer(SEED, FuzzConfig.tiny()).generate(BUDGET)
        ]
        assert artifact.spec_hashes == expected

    def test_ledger_matches_the_executed_cells(self):
        artifact = tiny_fuzz()
        ledger = artifact.ledger
        assert ledger.total_specs == len(artifact.cells)
        for cell in artifact.cells:
            assert cell.spec_hash in ledger.regions[cell.region]

    def test_cell_results_match_direct_execution(self):
        artifact = tiny_fuzz()
        spec = SpecFuzzer(SEED, FuzzConfig.tiny()).spec_at(0)
        direct = run_fuzz_cell(spec)
        assert artifact.cell(spec.spec_hash()).to_dict() == direct.to_dict()

    def test_capacity_exhaustion_is_a_recorded_outcome(self):
        """A draw that runs the tiny device out of flash mid-workload
        must score as a terminal cell, not abort the whole walk."""
        from repro.api import ScenarioSpec

        spec = ScenarioSpec(
            defense="FlashGuard",
            attack="classic",
            workload="trace-hm",
            device="tiny",
            victim_files=4,
            user_activity_hours=8.0,
            seed=1,
        )
        cell = run_fuzz_cell(spec)
        assert cell.status == "capacity-exhausted"
        assert cell.oplog_hash is None
        assert not cell.defended
        # And the outcome itself is deterministic.
        assert run_fuzz_cell(spec).to_dict() == cell.to_dict()


class TestGuidedRuns:
    def test_session_ledger_excludes_prior_coverage(self):
        """The caller owns the merge; run_fuzz reports only its own cells."""
        prior = CoverageLedger()
        for spec in SpecFuzzer(99, FuzzConfig.tiny()).generate(4):
            prior.record(spec)
        before = prior.to_json()
        artifact = tiny_fuzz(ledger=prior, toward_uncovered=True)
        assert prior.to_json() == before
        assert artifact.ledger.total_specs == len(artifact.cells)

    def test_guided_run_is_deterministic(self):
        prior = CoverageLedger()
        for spec in SpecFuzzer(99, FuzzConfig.tiny()).generate(4):
            prior.record(spec)
        a = tiny_fuzz(ledger=prior, toward_uncovered=True)
        b = tiny_fuzz(ledger=prior, toward_uncovered=True)
        assert a.to_json() == b.to_json()


class TestArtifact:
    def test_round_trip_is_bit_identical(self, tmp_path):
        artifact = tiny_fuzz()
        path = tmp_path / "fuzz.json"
        artifact.save(str(path))
        rebuilt = FuzzArtifact.load(str(path))
        assert rebuilt.to_json() == artifact.to_json()
        assert rebuilt.diff(artifact) == []

    def test_newer_version_is_refused(self):
        payload = tiny_fuzz().to_dict()
        payload["version"] = FUZZ_ARTIFACT_VERSION + 1
        with pytest.raises(ValueError, match="newer"):
            FuzzArtifact.from_dict(payload)

    def test_diff_localizes_changes(self):
        a = tiny_fuzz()
        b = tiny_fuzz(seed=SEED + 1)
        assert a.diff(a) == []
        assert b.diff(a) != []

    def test_cells_are_sorted_and_regions_consistent(self):
        artifact = tiny_fuzz()
        hashes = [c.spec_hash for c in artifact.cells]
        assert hashes == sorted(hashes)
        for cell in artifact.cells:
            spec = SpecFuzzer(SEED, FuzzConfig.tiny()).spec_at(
                artifact.spec_hashes.index(cell.spec_hash)
            )
            assert cell.region == region_of(spec)
