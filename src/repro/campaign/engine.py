"""Campaign execution: one cell is one :class:`~repro.api.session.Session`.

Scenario execution lives in :mod:`repro.api.session`; ``run_cell``
runs one grid cell (a :class:`~repro.api.spec.ScenarioSpec`) and
reduces the outcome to a :class:`~repro.campaign.results.CellResult`,
and ``run_campaign`` maps cells through
:func:`~repro.campaign.sweep.run_sweep`.

The :mod:`repro.api` imports are deliberately function-level: the api
package imports campaign registries and results at module level, so the
campaign package must not import it back while initializing.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.campaign.grid import CampaignGrid

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.api.spec import ScenarioSpec
    from repro.campaign.cache import ResultCache
    from repro.campaign.checkpoint import CheckpointJournal
from repro.campaign.results import ARTIFACT_VERSION, CampaignArtifact, CellResult
from repro.campaign.runner import ExperimentRunner
from repro.campaign.sweep import run_sweep


def run_cell(spec: "ScenarioSpec") -> CellResult:
    """Execute one cell spec (module-level, so process pools can pickle it)."""
    from repro.api.session import Session

    return Session(spec).run().to_cell_result()


def run_campaign(
    grid: CampaignGrid,
    backend: str = "sequential",
    jobs: int = 0,
    filters: Optional[Sequence[str]] = None,
    runner: Optional[ExperimentRunner] = None,
    specs: Optional[List["ScenarioSpec"]] = None,
    cache: Optional["ResultCache"] = None,
    journal: Optional["CheckpointJournal"] = None,
    resume: bool = False,
    after_cell: Optional[Callable[[int, "ScenarioSpec", CellResult], None]] = None,
) -> CampaignArtifact:
    """Execute a grid and assemble the (order-independent) artifact.

    ``specs`` overrides the grid expansion (the determinism tests use it
    to prove execution order does not matter); the artifact sorts cells
    by key either way.

    The persistence layer of :func:`~repro.campaign.sweep.run_sweep` is
    opt-in and changes nothing about the artifact's bytes: ``cache``
    serves unchanged cells from a content-addressed store instead of
    executing them (accounting on the returned artifact's
    ``cache_stats``), ``journal`` makes every completed cell durable the
    moment it finishes, and ``resume=True`` reloads the journal --
    verifying its header pins *this* grid, seed, schema version and code
    fingerprint -- and re-runs only what is missing.  ``after_cell``
    fires after each executed cell becomes durable (the fault-injection
    harness's hook point).
    """
    if specs is None:
        specs = grid.cells(filters)
    run = run_sweep(
        "campaign",
        ARTIFACT_VERSION,
        grid.seed,
        grid.describe(),
        specs,
        run_cell,
        key_fn=attrgetter("cell_key"),
        encode=CellResult.to_dict,
        decode=CellResult.from_dict,
        backend=backend,
        jobs=jobs,
        runner=runner,
        cache=cache,
        journal=journal,
        resume=resume,
        after_cell=after_cell,
    )
    return CampaignArtifact(grid.seed, grid.describe(), run.results).with_provenance(run)
