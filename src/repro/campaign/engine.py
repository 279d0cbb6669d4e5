"""Campaign execution: thin cell-level wrappers over the scenario facade.

Scenario execution lives in :mod:`repro.api.session`; this module maps
campaign cells onto it.  ``execute_scenario`` runs one scenario from
live factories (the capability matrix's historical fixed-seed path),
``execute_cell_scenario`` turns a picklable :class:`CellSpec` into a
``ScenarioSpec`` + :class:`~repro.api.session.Session`, ``run_cell``
reduces the outcome to a :class:`~repro.campaign.results.CellResult`,
and ``run_campaign`` maps cells through
:func:`~repro.campaign.sweep.run_sweep`.

The :mod:`repro.api` imports are deliberately function-level: the api
package imports campaign registries and results at module level, so the
campaign package must not import it back while initializing.
"""

from __future__ import annotations

import random
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from repro.campaign.grid import CampaignGrid, CellSpec

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.api.session import SessionResult
    from repro.campaign.cache import ResultCache
    from repro.campaign.checkpoint import CheckpointJournal
from repro.campaign.results import ARTIFACT_VERSION, CampaignArtifact, CellResult
from repro.campaign.runner import ExperimentRunner
from repro.campaign.sweep import run_sweep
from repro.defenses.base import Defense
from repro.sim import SimClock
from repro.ssd.geometry import SSDGeometry

#: Names forwarded lazily from :mod:`repro.api.session` (they moved
#: there when the facade became the implementation layer).
_API_ALIASES = {
    "ScenarioOutcome": "SessionResult",
    "SessionResult": "SessionResult",
    "score_recovery": "score_recovery",
    "score_forensics": "score_forensics",
}


def __getattr__(name: str) -> object:
    """Forward the moved scenario-scoring names to :mod:`repro.api.session`."""
    if name in _API_ALIASES:
        from repro.api import session as api_session

        return getattr(api_session, _API_ALIASES[name])
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def execute_scenario(
    defense_factory: Callable[[SSDGeometry, SimClock], Defense],
    attack_factory: Callable[[], object],
    workload: Callable[..., None],
    geometry: SSDGeometry,
    victim_files: int,
    file_size_bytes: int,
    env_seed: int,
    workload_rng: random.Random,
    user_activity_hours: float,
    recent_edit_fraction: float,
    observers: Optional[Sequence[object]] = None,
) -> "SessionResult":
    """Run one (defense, attack, workload) scenario from live factories.

    A thin wrapper that builds a :class:`~repro.api.session.Session`
    from explicit overrides -- the path for callers outside the
    registries, such as the capability matrix with its historical fixed
    seeds.  ``observers`` are passive ``IOObserver`` objects subscribed
    to the session's bus; they must not perturb the scenario.  Returns
    the session's :class:`~repro.api.session.SessionResult`.
    """
    from repro.api.session import Session

    session = Session(
        defense_factory=defense_factory,
        attack_factory=attack_factory,
        workload=workload,
        geometry=geometry,
        victim_files=victim_files,
        file_size_bytes=file_size_bytes,
        user_activity_hours=user_activity_hours,
        recent_edit_fraction=recent_edit_fraction,
        env_seed=env_seed,
        workload_rng=workload_rng,
        observers=observers or (),
    )
    return session.run()


def execute_cell_scenario(
    spec: CellSpec, observers: Optional[Sequence[object]] = None
) -> "SessionResult":
    """Execute one cell spec and keep the live scenario objects.

    Builds the cell as a ``ScenarioSpec`` + ``Session`` (the facade
    path); ``run_cell`` reduces the result to a picklable
    :class:`~repro.campaign.results.CellResult`, while the
    ``repro recover`` CLI calls this directly so it can keep
    interrogating the defense (forensics, recovery) after the cell was
    scored.
    """
    from repro.api.session import Session
    from repro.api.spec import ScenarioSpec

    session = Session(ScenarioSpec.from_cell(spec), observers=observers or ())
    return session.run()


def run_cell(spec: CellSpec) -> CellResult:
    """Execute one cell spec (module-level, so process pools can pickle it)."""
    return execute_cell_scenario(spec).to_cell_result()


def cell_spec_hash(spec: CellSpec) -> str:
    """The content hash identifying a cell for the result cache.

    A cell's cache identity is its :class:`~repro.api.spec.ScenarioSpec`
    hash -- the canonical JSON of every name, size and *resolved* seed
    -- so any change to what the cell would execute changes the key,
    and nothing else does.
    """
    from repro.api.spec import ScenarioSpec

    return ScenarioSpec.from_cell(spec).spec_hash()


def run_campaign(
    grid: CampaignGrid,
    backend: str = "sequential",
    jobs: int = 0,
    filters: Optional[Sequence[str]] = None,
    runner: Optional[ExperimentRunner] = None,
    specs: Optional[List[CellSpec]] = None,
    cache: Optional["ResultCache"] = None,
    journal: Optional["CheckpointJournal"] = None,
    resume: bool = False,
    after_cell: Optional[Callable[[int, CellSpec, CellResult], None]] = None,
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
        hash_fn=cell_spec_hash,
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
