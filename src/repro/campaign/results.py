"""Structured campaign results and the versioned JSON artifact.

A :class:`CellResult` is the scored outcome of one grid cell; a
:class:`CampaignArtifact` is the whole run -- grid description plus
cells, sorted by cell key so the serialized form is independent of
execution order and backend.  ``to_json`` is canonical (sorted keys,
fixed indentation, trailing newline), which is what lets the golden-run
suite compare artifacts bit-for-bit and ``diff`` explain regressions
field by field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, TextIO, Union

from repro.campaign.sweep import SweepArtifact, SweepRecord

#: Bump when the artifact schema changes; readers refuse newer versions.
ARTIFACT_VERSION = 2


@dataclass(frozen=True)
class CellResult(SweepRecord):
    """Scored outcome of one (defense, attack, workload, device) cell.

    Fields newer than an artifact default themselves when it is read.
    """

    cell_key: str
    defense: str
    attack: str
    workload: str
    device_config: str
    # -- recovery ---------------------------------------------------------
    recovery_fraction: float
    defended: bool
    victim_pages: int
    pages_recovered: int
    # -- detection --------------------------------------------------------
    detected: bool
    #: Microseconds from attack start to the detector's first trigger;
    #: bounded by attack end when the defense cannot timestamp the
    #: trigger; ``None`` when nothing was detected.
    detection_latency_us: Optional[int]
    compromised: bool
    attack_duration_us: int
    # -- I/O overhead -----------------------------------------------------
    write_amplification: float
    mean_write_latency_us: float
    mean_read_latency_us: float
    host_commands: int
    flash_pages_programmed: int
    # -- provenance -------------------------------------------------------
    #: Hex head of the device's hardware operation-log hash chain (RSSD
    #: cells); ``None`` for devices without an oplog.  Pins the exact
    #: command stream the cell produced.
    oplog_hash: Optional[str]
    env_seed: int
    workload_seed: int
    attack_seed: int
    # -- forensics (populated for defenses with ``supports_forensics``;
    # -- defaults elsewhere, and in version-1 artifacts) -------------------
    #: Pages the point-in-time rebuild actually produced (exact count,
    #: not an estimate; ``None`` when the defense has no evidence chain).
    exact_pages_recovered: Optional[int] = None
    #: Pages mapped at the recovery target but not producible.
    exact_pages_lost: Optional[int] = None
    #: True when the rebuilt pre-attack image matched an independent
    #: replay of the recorded command-stream prefix page for page.
    recovery_exact: Optional[bool] = None
    #: Attack family the forensic classifier identified (e.g.
    #: ``"encrypt-then-trim"``); ``"none"`` when nothing malicious found.
    forensic_pattern: Optional[str] = None
    #: Device time of the first malicious operation in the evidence.
    first_malicious_us: Optional[int] = None
    #: Distinct logical pages the attacker wrote or trimmed.
    blast_radius_pages: Optional[int] = None
    #: Arrival-order check of the NVMe-oE remote tier.
    remote_time_order_ok: Optional[bool] = None
    #: Structured integrity failures (chain mismatch, remote-order
    #: violation).  Non-empty means the cell's evidence is not trusted.
    integrity_errors: List[str] = field(default_factory=list)


@dataclass
class CampaignArtifact(SweepArtifact):
    """A completed campaign: grid description plus per-cell results."""

    record_type = CellResult
    latest_version = ARTIFACT_VERSION

    campaign_seed: int
    grid: Dict[str, object]
    cells: List[CellResult] = field(default_factory=list)
    version: int = ARTIFACT_VERSION


def _indent_block(value: object, level: int) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` nested at ``level``.

    The first line carries no padding (it follows a key or a comma the
    caller already wrote); every continuation line is shifted by the
    nesting depth, exactly as ``json.dumps`` would have placed it had
    ``value`` been embedded in the enclosing document.
    """
    text = json.dumps(value, indent=2, sort_keys=True)
    return text.replace("\n", "\n" + "  " * level)


def write_artifact_stream(
    destination: Union[str, "TextIO"],
    campaign_seed: int,
    grid: Dict[str, object],
    cells: Iterable[Dict[str, object]],
    version: int = ARTIFACT_VERSION,
) -> int:
    """Write a campaign artifact incrementally, one cell at a time.

    Produces **exactly** the bytes of :meth:`CampaignArtifact.to_json`
    (canonical key order, two-space indentation, trailing newline)
    without ever materializing the cell list: ``cells`` is an iterable
    of JSON-ready cell dicts **already sorted by** ``cell_key`` --
    typically :meth:`CheckpointJournal.iter_payloads_sorted
    <repro.campaign.checkpoint.CheckpointJournal.iter_payloads_sorted>`,
    which holds only a key->offset index in memory.  That pair is what
    keeps million-cell grids from holding every ``CellResult`` at once.
    Returns the number of cells written.
    """
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            return write_artifact_stream(
                handle, campaign_seed, grid, cells, version=version
            )
    out = destination
    out.write("{\n")
    out.write(f'  "campaign_seed": {json.dumps(campaign_seed, sort_keys=True)},\n')
    out.write('  "cells": [')
    count = 0
    for cell in cells:
        out.write(",\n    " if count else "\n    ")
        out.write(_indent_block(cell, 2))
        count += 1
    out.write("\n  ],\n" if count else "],\n")
    out.write(f'  "grid": {_indent_block(grid, 1)},\n')
    out.write(f'  "version": {json.dumps(version, sort_keys=True)}\n')
    out.write("}\n")
    return count
