"""Fault-injection resume tests: killed sweeps restart bit-identically.

Two harnesses attack the checkpoint journal.  The in-process one arms
:class:`CrashAfterNCells` (``mode="raise"``) at randomized cell
boundaries across every runner backend and asserts the resumed artifact
equals the uninterrupted golden byte for byte.  The subprocess one runs
the real CLI and dies for real -- ``REPRO_CRASH_AFTER_CELLS`` hard-exits
with status 137 at an exact boundary, and a second variant sends an
actual ``SIGKILL`` at whatever cell the poll catches -- then resumes
with ``repro campaign --resume`` and compares output files with bytes.
The journal loader's crash-reality handling (torn final line truncates
with a warning, corrupt interior record refuses, foreign header
refuses) is pinned alongside.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
import warnings

import pytest

from repro.campaign import (
    CampaignArtifact,
    CampaignGrid,
    CheckpointError,
    CheckpointJournal,
    CrashAfterNCells,
    InjectedCrash,
    run_campaign,
)
from repro.campaign.checkpoint import crash_hook_from_env
from repro.campaign.runner import BACKENDS

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def small_grid(**overrides) -> CampaignGrid:
    """A 4-cell grid: enough boundaries to crash between, still fast."""
    params = dict(
        defenses=["LocalSSD", "RSSD"],
        attacks=["classic", "trimming-attack"],
        workloads=["office-edit"],
        device_configs=["tiny"],
        victim_files=4,
        file_size_bytes=4096,
        user_activity_hours=1.0,
        seed=31,
    )
    params.update(overrides)
    return CampaignGrid(**params)


def crash_then_resume(tmp_path, n: int, backend: str = "sequential") -> CampaignArtifact:
    """Run, die after ``n`` durable cells, resume; return the resumed artifact."""
    path = str(tmp_path / f"journal-{backend}-{n}.jsonl")
    journal = CheckpointJournal(path)
    with pytest.raises(InjectedCrash):
        run_campaign(
            small_grid(),
            backend=backend,
            jobs=2 if backend != "sequential" else 0,
            journal=journal,
            after_cell=CrashAfterNCells(n),
        )
    resumed = run_campaign(
        small_grid(), journal=CheckpointJournal(path), resume=True
    )
    assert resumed.cells_resumed >= n
    return resumed


class TestCrashAndResumeInProcess:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_resumed_artifact_is_bit_identical_on_every_backend(
        self, tmp_path, backend
    ):
        golden = run_campaign(small_grid())
        resumed = crash_then_resume(tmp_path, n=2, backend=backend)
        assert resumed.to_json() == golden.to_json()

    def test_randomized_crash_boundaries(self, tmp_path):
        golden = run_campaign(small_grid())
        rng = random.Random(2026)
        for n in rng.sample(range(1, 4), 2):
            resumed = crash_then_resume(tmp_path, n=n)
            assert resumed.to_json() == golden.to_json()

    def test_repeated_crashes_make_incremental_progress(self, tmp_path):
        golden = run_campaign(small_grid())
        path = str(tmp_path / "journal.jsonl")
        journal = CheckpointJournal(path)
        with pytest.raises(InjectedCrash):
            run_campaign(small_grid(), journal=journal, after_cell=CrashAfterNCells(1))
        assert len(CheckpointJournal(path).completed_keys()) == 1
        # Resume, crash again one executed cell later: the journal now
        # holds the first cell plus one more.
        with pytest.raises(InjectedCrash):
            run_campaign(
                small_grid(),
                journal=CheckpointJournal(path),
                resume=True,
                after_cell=CrashAfterNCells(1),
            )
        assert len(CheckpointJournal(path).completed_keys()) == 2
        final = run_campaign(
            small_grid(), journal=CheckpointJournal(path), resume=True
        )
        assert final.cells_resumed == 2
        assert final.to_json() == golden.to_json()

    def test_journal_records_exactly_the_durable_cells(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with pytest.raises(InjectedCrash):
            run_campaign(
                small_grid(),
                journal=CheckpointJournal(path),
                after_cell=CrashAfterNCells(2),
            )
        header, completed = CheckpointJournal(path).load()
        assert header["kind"] == "campaign"
        assert header["campaign_seed"] == 31
        assert len(completed) == 2
        for key, payload in completed.items():
            assert payload["cell_key"] == key

    def test_resume_without_journal_is_refused(self):
        with pytest.raises(ValueError, match="needs a checkpoint journal"):
            run_campaign(small_grid(), resume=True)


class TestJournalRecovery:
    def _crashed_journal(self, tmp_path) -> str:
        path = str(tmp_path / "journal.jsonl")
        with pytest.raises(InjectedCrash):
            run_campaign(
                small_grid(),
                journal=CheckpointJournal(path),
                after_cell=CrashAfterNCells(1),
            )
        return path

    def test_torn_final_line_truncates_with_a_warning(self, tmp_path):
        path = self._crashed_journal(tmp_path)
        good_size = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(b'{"type": "cell", "key": "half-writ')
        with pytest.warns(RuntimeWarning, match="torn record"):
            _, completed = CheckpointJournal(path).load()
        assert len(completed) == 1
        assert os.path.getsize(path) == good_size
        # The tear is gone: a second load is clean.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            CheckpointJournal(path).load()

    def test_torn_line_with_newline_is_still_recovered(self, tmp_path):
        path = self._crashed_journal(tmp_path)
        with open(path, "ab") as handle:
            handle.write(b"not json at all\n")
        with pytest.warns(RuntimeWarning, match="torn record"):
            _, completed = CheckpointJournal(path).load()
        assert len(completed) == 1

    def test_resume_after_torn_line_is_bit_identical(self, tmp_path):
        golden = run_campaign(small_grid())
        path = self._crashed_journal(tmp_path)
        with open(path, "ab") as handle:
            handle.write(b'{"type": "cell", "key": "torn"')
        with pytest.warns(RuntimeWarning, match="torn record"):
            resumed = run_campaign(
                small_grid(), journal=CheckpointJournal(path), resume=True
            )
        assert resumed.cells_resumed == 1
        assert resumed.to_json() == golden.to_json()

    def test_corrupt_interior_record_is_an_error(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"type": "header", "kind": "campaign"}) + "\n")
            handle.write("corrupted interior line\n")
            handle.write(json.dumps({"type": "cell", "key": "k", "payload": 1}) + "\n")
        with pytest.raises(CheckpointError, match="corrupt journal record"):
            CheckpointJournal(path).load()

    def test_header_must_be_the_first_record(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"type": "cell", "key": "k", "payload": 1}) + "\n")
            handle.write(json.dumps({"type": "header", "kind": "campaign"}) + "\n")
        with pytest.raises(CheckpointError, match="header"):
            CheckpointJournal(path).load()

    def test_missing_journal_is_an_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint journal"):
            CheckpointJournal(str(tmp_path / "nothing.jsonl")).load()

    def test_foreign_header_refuses_to_resume(self, tmp_path):
        path = self._crashed_journal(tmp_path)
        with pytest.raises(CheckpointError, match="different sweep"):
            run_campaign(
                small_grid(seed=32),
                journal=CheckpointJournal(path),
                resume=True,
            )

    def test_append_without_open_handle_is_an_error(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "journal.jsonl"))
        with pytest.raises(CheckpointError, match="not open"):
            journal.append_cell("k", {"x": 1})


class TestCrashHook:
    def test_rejects_nonpositive_quotas_and_unknown_modes(self):
        with pytest.raises(ValueError):
            CrashAfterNCells(0)
        with pytest.raises(ValueError):
            CrashAfterNCells(1, mode="segfault")

    def test_env_hook_is_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CRASH_AFTER_CELLS", raising=False)
        assert crash_hook_from_env() is None
        monkeypatch.setenv("REPRO_CRASH_AFTER_CELLS", "  ")
        assert crash_hook_from_env() is None

    def test_env_hook_arms_a_hard_exit(self, monkeypatch):
        monkeypatch.setenv("REPRO_CRASH_AFTER_CELLS", "3")
        hook = crash_hook_from_env()
        assert isinstance(hook, CrashAfterNCells)
        assert (hook.n, hook.mode) == (3, "exit")


class TestCliKillAndResume:
    """End-to-end: the real CLI, killed for real, resumed byte-identically."""

    CELL_ARGS = [
        "campaign",
        "--grid",
        "tiny",
        "--defenses",
        "LocalSSD",
        "RSSD",
        "--attacks",
        "classic",
        "trimming-attack",
        "--victim-files",
        "4",
    ]

    def _run_cli(self, args, **env_overrides):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        env.pop("REPRO_CRASH_AFTER_CELLS", None)
        env.update(env_overrides)
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )

    def test_injected_hard_exit_then_cli_resume_matches_golden(self, tmp_path):
        golden_path = str(tmp_path / "golden.json")
        proc = self._run_cli([*self.CELL_ARGS, "--output", golden_path])
        assert proc.returncode == 0, proc.stderr

        state = str(tmp_path / "state")
        crashed_path = str(tmp_path / "crashed.json")
        crashed = self._run_cli(
            [*self.CELL_ARGS, "--cache-dir", state, "--no-cache", "--output", crashed_path],
            REPRO_CRASH_AFTER_CELLS="2",
        )
        # os._exit(137): the SIGKILL-equivalent status, and no artifact.
        assert crashed.returncode == 137
        assert not os.path.exists(crashed_path)
        journal = CheckpointJournal(os.path.join(state, "journal.jsonl"))
        assert len(journal.completed_keys()) == 2

        resumed_path = str(tmp_path / "resumed.json")
        resumed = self._run_cli(
            [
                *self.CELL_ARGS,
                "--resume",
                state,
                "--no-cache",
                "--output",
                resumed_path,
                "--baseline",
                golden_path,
            ]
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "resume: 2 cells restored" in resumed.stdout
        assert "baseline match" in resumed.stdout
        with open(golden_path, "rb") as a, open(resumed_path, "rb") as b:
            assert a.read() == b.read()

    def test_real_sigkill_mid_run_then_resume(self, tmp_path):
        golden_path = str(tmp_path / "golden.json")
        proc = self._run_cli([*self.CELL_ARGS, "--output", golden_path])
        assert proc.returncode == 0, proc.stderr

        state = str(tmp_path / "state")
        journal_path = os.path.join(state, "journal.jsonl")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        env.pop("REPRO_CRASH_AFTER_CELLS", None)
        killed_path = str(tmp_path / "killed.json")
        child = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                *self.CELL_ARGS,
                "--cache-dir",
                state,
                "--no-cache",
                "--output",
                killed_path,
            ],
            cwd=REPO_ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # Kill as soon as at least one cell is durable (header plus
            # one record).  If the child wins the race and finishes, the
            # resume below still must reproduce the golden bytes.
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline and child.poll() is None:
                if os.path.exists(journal_path):
                    with open(journal_path, "rb") as handle:
                        if handle.read().count(b"\n") >= 2:
                            break
                time.sleep(0.02)
            child.kill()  # SIGKILL; no cleanup handlers run
        finally:
            child.wait(timeout=60)

        resumed_path = str(tmp_path / "resumed.json")
        resumed = self._run_cli(
            [
                *self.CELL_ARGS,
                "--resume",
                state,
                "--no-cache",
                "--output",
                resumed_path,
            ]
        )
        assert resumed.returncode == 0, resumed.stderr
        with open(golden_path, "rb") as a, open(resumed_path, "rb") as b:
            assert a.read() == b.read()
