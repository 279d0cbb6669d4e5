"""The one sweep driver and the persistence contract every sweep kind keeps.

:func:`repro.campaign.sweep.run_sweep` runs campaign grids, ROC sweeps,
ablation studies and fuzz sessions, so the persistence guarantees are
pinned once here, parametrized over all four kinds:

* a sweep killed after N durable cells resumes to the same bytes;
* a warm cache serves every cell and reproduces the same bytes;
* cache and resume provenance never reach the serialized artifact;
* a journal pinning a different sweep is refused.

The driver's own contract (duplicate keys refused, cache namespace,
journal header payload) and the CLI's handling of bad ``--resume``
directories are pinned alongside.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys

import pytest

from repro.ablation import AblationStudy
from repro.api import ScenarioSpec, run_roc
from repro.campaign import (
    CampaignGrid,
    CheckpointError,
    CheckpointJournal,
    CrashAfterNCells,
    InjectedCrash,
    ResultCache,
    run_campaign,
)
from repro.campaign.sweep import run_sweep
from repro.cli import main
from repro.scenarios import FuzzConfig, run_fuzz

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def campaign_sweep(shift: int = 0, **persistence):
    return run_campaign(small_grid(seed=23 + shift), **persistence)


def roc_sweep(shift: int = 0, **persistence):
    grid = small_grid(defenses=["RSSD"], attacks=["classic", "trimming-attack"])
    return run_roc(dataclasses.replace(grid, seed=31 + shift), **persistence)


def ablation_sweep(shift: int = 0, **persistence):
    study = AblationStudy(
        base_spec=ScenarioSpec(
            defense="RSSD",
            attack="classic",
            workload="office-edit",
            device="tiny",
            victim_files=4,
            user_activity_hours=1.0,
            seed=11 + shift,
        ),
        features=("local-detector",),
    )
    return study.run(**persistence)


def fuzz_sweep(shift: int = 0, **persistence):
    return run_fuzz(7 + shift, 2, FuzzConfig.tiny(), **persistence)


#: Every tiny configuration above executes this many cells.
CELLS = 2

SWEEPS = {
    "campaign": campaign_sweep,
    "roc": roc_sweep,
    "ablation": ablation_sweep,
    "fuzz": fuzz_sweep,
}

#: Plain (cache-less, journal-less) runs, computed once per kind.
_GOLDEN = {}


def golden(kind: str):
    if kind not in _GOLDEN:
        _GOLDEN[kind] = SWEEPS[kind]()
    return _GOLDEN[kind]


@pytest.fixture(params=sorted(SWEEPS))
def kind(request) -> str:
    return request.param


class TestPersistenceContract:
    def test_crash_then_resume_is_byte_identical(self, kind, tmp_path):
        sweep = SWEEPS[kind]
        path = str(tmp_path / "journal.jsonl")
        with pytest.raises(InjectedCrash):
            sweep(journal=CheckpointJournal(path), after_cell=CrashAfterNCells(1))
        header, completed = CheckpointJournal(path).load()
        assert header["kind"] == kind and len(completed) == 1
        resumed = sweep(journal=CheckpointJournal(path), resume=True)
        assert resumed.cells_resumed == 1
        assert resumed.to_json() == golden(kind).to_json()
        assert resumed == golden(kind)

    def test_warm_cache_hits_every_cell(self, kind, tmp_path):
        sweep = SWEEPS[kind]
        root = str(tmp_path / "cache")
        cold_cache = ResultCache(root)
        cold = sweep(cache=cold_cache)
        assert os.listdir(os.path.join(root, "objects")) == [f"{kind}-cell"]
        assert cold_cache.stats.to_dict() == {
            "hits": 0,
            "misses": CELLS,
            "stale": 0,
            "stores": CELLS,
        }
        warm_cache = ResultCache(root)
        warm = sweep(cache=warm_cache)
        assert warm_cache.stats.to_dict() == {
            "hits": CELLS,
            "misses": 0,
            "stale": 0,
            "stores": 0,
        }
        assert warm.cache_stats is warm_cache.stats
        assert warm.to_json() == cold.to_json() == golden(kind).to_json()

    def test_provenance_never_reaches_to_json(self, kind, tmp_path):
        sweep = SWEEPS[kind]
        cached = sweep(cache=ResultCache(str(tmp_path / "cache")))
        plain = golden(kind)
        assert cached.cache_stats is not None and plain.cache_stats is None
        text = cached.to_json()
        assert text == plain.to_json()
        assert "cache_stats" not in text and "cells_resumed" not in text
        reloaded = type(cached).from_json(text)
        assert reloaded == cached and reloaded.cache_stats is None

    def test_foreign_journal_header_is_refused(self, kind, tmp_path):
        sweep = SWEEPS[kind]
        path = str(tmp_path / "journal.jsonl")
        with pytest.raises(InjectedCrash):
            sweep(journal=CheckpointJournal(path), after_cell=CrashAfterNCells(1))
        with open(path, encoding="utf-8") as handle:
            before = handle.read()
        with pytest.raises(CheckpointError, match="different sweep"):
            sweep(shift=1, journal=CheckpointJournal(path), resume=True)
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == before


class DemoSpec(str):
    """A string spec whose cache identity is the string itself."""

    def spec_hash(self) -> str:
        return str(self)


def identity(spec: str) -> str:
    """Module-level cell function (picklable under every backend)."""
    return spec.upper()


def plain_sweep(specs, **options):
    return run_sweep(
        "demo",
        3,
        5,
        {"what": "demo"},
        [DemoSpec(spec) for spec in specs],
        identity,
        key_fn=str,
        encode=str,
        decode=str,
        **options,
    )


class TestRunSweep:
    def test_results_come_back_in_spec_order(self):
        run = plain_sweep(["b", "a", "c"], backend="thread", jobs=3)
        assert run.results == ["B", "A", "C"]
        assert run.cache_stats is None and run.cells_resumed == 0

    def test_duplicate_keys_are_refused_before_the_journal_starts(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with pytest.raises(ValueError, match="duplicate cell key 'a'"):
            plain_sweep(["a", "b", "a"], journal=CheckpointJournal(str(path)))
        assert not path.exists()

    def test_resume_needs_a_journal(self):
        with pytest.raises(ValueError, match="needs a checkpoint journal"):
            plain_sweep(["a"], resume=True)

    def test_cache_namespace_and_journal_header(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        journal_path = str(tmp_path / "journal.jsonl")
        seen = []
        plain_sweep(
            ["a", "b"],
            cache=cache,
            journal=CheckpointJournal(journal_path),
            after_cell=lambda index, spec, result: seen.append((index, spec, result)),
        )
        assert seen == [(0, "a", "A"), (1, "b", "B")]
        assert cache.get("demo-cell", "a", 3) == "A"
        header, completed = CheckpointJournal(journal_path).load()
        assert header["kind"] == "demo"
        assert header["artifact_version"] == 3
        assert header["campaign_seed"] == 5
        assert header["grid"] == {"what": "demo"}
        assert completed == {"a": "A", "b": "B"}


class TestRepeatedNames:
    @pytest.mark.parametrize(
        "axis, names",
        [
            ("defenses", ["LocalSSD", "LocalSSD"]),
            ("attacks", ["classic", "classic"]),
            ("workloads", ["office-edit", "office-edit"]),
            ("device_configs", ["tiny", "tiny"]),
        ],
    )
    def test_campaign_grid_refuses_a_repeated_name(self, axis, names):
        with pytest.raises(ValueError, match=f"repeated .*{names[0]!r}"):
            small_grid(**{axis: names})

    def test_ablation_study_refuses_a_repeated_attack(self):
        with pytest.raises(ValueError, match="repeated attack 'classic'"):
            AblationStudy(
                base_spec=ScenarioSpec(defense="RSSD", attack="classic"),
                features=("local-detector",),
                attacks=("classic", "classic"),
            )

    def test_cli_refuses_repeated_names(self):
        with pytest.raises(SystemExit, match="error: repeated defenses name 'RSSD'"):
            main(["campaign", "--grid", "tiny", "--defenses", "RSSD", "RSSD"])
        with pytest.raises(SystemExit, match="error: .*repeated attack"):
            main(["ablate", "--attacks", "classic", "classic"])


SWEEP_COMMANDS = {
    "campaign": ["campaign", "--grid", "tiny"],
    "roc": ["roc", "--grid", "tiny"],
    "ablate": ["ablate"],
    "fuzz": ["fuzz", "--budget", "2", "--space", "tiny"],
}


class TestCliResumeErrors:
    @pytest.mark.parametrize("command", sorted(SWEEP_COMMANDS))
    def test_missing_journal_is_an_error_and_creates_nothing(self, command, tmp_path):
        state = tmp_path / "state"
        with pytest.raises(SystemExit) as info:
            main(SWEEP_COMMANDS[command] + ["--resume", str(state)])
        assert str(info.value.code).startswith("error: no checkpoint journal")
        assert not state.exists()

    @pytest.mark.parametrize("command", sorted(SWEEP_COMMANDS))
    def test_foreign_header_is_an_error(self, command, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        journal = CheckpointJournal(str(state / "journal.jsonl"))
        journal.start({"kind": "someone-else"})
        journal.close()
        with pytest.raises(SystemExit) as info:
            main(SWEEP_COMMANDS[command] + ["--resume", str(state)])
        assert str(info.value.code).startswith(
            "error: checkpoint journal pins a different sweep"
        )

    def test_the_process_exits_1_without_a_traceback(self, tmp_path):
        state = tmp_path / "state"
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "campaign", "--grid", "tiny",
             "--resume", str(state)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
            timeout=120,
        )
        assert completed.returncode == 1
        assert completed.stderr.startswith("error: no checkpoint journal")
        assert "Traceback" not in completed.stderr
        assert not state.exists()

