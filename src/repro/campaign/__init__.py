"""Campaign engine: declarative attack x defense x workload sweeps.

A *campaign* is an experiment grid -- defenses x attacks x workload
generators x device configs -- executed cell by cell through a shared
:class:`~repro.campaign.runner.ExperimentRunner` (sequential, thread or
process backend).  Every cell is a :class:`~repro.api.spec.ScenarioSpec`
seeded deterministically from ``(campaign_seed, cell_key)`` and run
through a :class:`~repro.api.session.Session`, so the same grid and
seed produce the same :class:`~repro.campaign.results.CellResult`
records regardless of backend or execution order, and the whole run
serializes to a versioned JSON artifact that the golden-run regression
suite pins bit-for-bit.

The fleet runner (``repro.workloads.fleet``) is a thin facade over
this package.

Every sweep kind (campaign, ROC, ablation, fuzz) runs through one
driver, :func:`~repro.campaign.sweep.run_sweep`, and serializes through
one artifact base, :class:`~repro.campaign.sweep.SweepArtifact`.  Long
and repeated sweeps ride an opt-in persistence layer
(:mod:`repro.campaign.cache` and :mod:`repro.campaign.checkpoint`): a
content-addressed :class:`ResultCache` makes re-runs of unchanged cells
free, and an append-only fsync'd :class:`CheckpointJournal` lets a
killed campaign resume from its last durable cell with the final
artifact byte-identical to an uninterrupted run.
"""

from repro.campaign.cache import CacheStats, ResultCache, code_fingerprint
from repro.campaign.checkpoint import (
    CheckpointError,
    CheckpointJournal,
    CrashAfterNCells,
    InjectedCrash,
)
from repro.campaign.engine import run_campaign, run_cell
from repro.campaign.grid import CampaignGrid
from repro.campaign.results import (
    ARTIFACT_VERSION,
    CampaignArtifact,
    CellResult,
    write_artifact_stream,
)
from repro.campaign.roc import (
    ROC_ARTIFACT_VERSION,
    RocArtifact,
    RocCurve,
    RocPoint,
    run_roc,
    run_roc_cell,
)
from repro.campaign.runner import ExperimentRunner
from repro.campaign.seeding import derive_seed
from repro.campaign.sweep import SweepArtifact, SweepRecord, SweepRun, run_sweep

__all__ = [
    "ARTIFACT_VERSION",
    "CacheStats",
    "CampaignArtifact",
    "CampaignGrid",
    "CellResult",
    "CheckpointError",
    "CheckpointJournal",
    "CrashAfterNCells",
    "ExperimentRunner",
    "InjectedCrash",
    "ROC_ARTIFACT_VERSION",
    "ResultCache",
    "RocArtifact",
    "RocCurve",
    "RocPoint",
    "SweepArtifact",
    "SweepRecord",
    "SweepRun",
    "code_fingerprint",
    "derive_seed",
    "run_campaign",
    "run_cell",
    "run_roc",
    "run_roc_cell",
    "run_sweep",
    "write_artifact_stream",
]
