"""Grid- and fleet-level entry points of the facade.

One scenario is a :class:`~repro.api.session.Session`; these functions
are the supported way to run *many* -- a campaign grid, a
detection-quality (ROC) sweep, or a trace replay against a whole fleet
of devices.  All three ride the same machinery underneath (cells become
``ScenarioSpec`` + ``Session``, both sweeps run through
:func:`~repro.campaign.sweep.run_sweep`, parallelism goes through the
shared :class:`~repro.campaign.runner.ExperimentRunner`), which is
exactly the point of the facade: one path, many consumers.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.campaign.engine import run_campaign as run_campaign  # noqa: F401  (re-export)
from repro.campaign.roc import run_roc as run_roc  # noqa: F401  (re-export)
from repro.workloads.fleet import FleetFactory, FleetReport, FleetRunner
from repro.workloads.records import TraceRecord


def run_fleet(
    records: Sequence[TraceRecord],
    *,
    factories: Optional[Dict[str, FleetFactory]] = None,
    mode: str = "mirror",
    parallel: bool = False,
    batched: bool = True,
    max_batch_pages: int = 64,
    honor_timestamps: bool = False,
) -> FleetReport:
    """Replay a block trace against a fleet of devices and compare them.

    ``mode="mirror"`` replays the full trace on every device
    (apples-to-apples comparison); ``mode="shard"`` splits it round-robin
    across the fleet (multi-tenant pool).  ``factories`` defaults to
    RSSD next to the hardware baselines
    (:func:`repro.workloads.fleet.default_fleet_factories`).  This is
    the supported replacement for constructing
    :class:`~repro.workloads.fleet.FleetRunner` directly.
    """
    fleet = FleetRunner._create(
        factories=factories,
        batched=batched,
        max_batch_pages=max_batch_pages,
        honor_timestamps=honor_timestamps,
    )
    if mode == "shard":
        return fleet.run_sharded(records, parallel=parallel)
    if mode != "mirror":
        raise ValueError(f"unknown fleet mode {mode!r}; expected 'mirror' or 'shard'")
    return fleet.run_mirrored(records, parallel=parallel)
