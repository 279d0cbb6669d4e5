"""The stable public facade: one way to describe, run and observe a scenario.

``repro.api`` replaces the ad-hoc per-subsystem entry points (hand-built
``Defense`` objects, ``build_environment``, direct ``FleetRunner``
construction) with three concepts:

* :class:`ScenarioSpec` -- a declarative, validated, JSON-serializable
  description of one device-under-attack scenario (defense, attack,
  workload, device geometry, sizes, seeds).  Specs diff, hash, and ship
  across process and machine boundaries.
* :class:`Session` -- the lifecycle object that executes one spec:
  ``provision() -> run() -> result``, with lazily-built views
  (``metrics()``, ``detection()``, ``forensics()``).
* :class:`EventBus` -- a typed publish/subscribe plane carrying
  :class:`HostOpEvent`, :class:`GCEvent`, :class:`DetectionEvent`,
  :class:`OffloadEvent` and :class:`RetentionEvictEvent`; detection
  capture, forensic trace recording and ROC labelling are ordinary
  subscribers.

Sweeps over many scenarios (:func:`run_campaign`, :func:`run_roc`, the
ablation studies) additionally accept the campaign persistence layer:
a content-addressed :class:`ResultCache` keyed by each cell's
``spec_hash`` plus the artifact schema version and the running code's
fingerprint, and a :class:`CheckpointJournal` for killed-sweep resume.
Hit/miss/invalidation accounting comes back as :class:`CacheStats` on
the returned artifact's ``cache_stats`` -- never inside the serialized
artifact, which stays byte-identical with or without the cache.

The campaign engine, the ROC pipeline, the fleet runner and the CLI all
consume this surface (``repro run --spec scenario.json`` is the
universal entry point), and everything listed in ``__all__`` below is
the documented, semver-promised API: additions may happen in any
release, removals or behaviour changes only with a deprecation cycle.

Quickstart::

    from repro.api import ScenarioSpec, Session

    spec = ScenarioSpec(defense="RSSD", attack="trimming-attack")
    session = Session(spec)
    result = session.run()
    print(result.recovery_fraction, session.detection().detected)
"""

from repro.analysis.reporting import format_table
from repro.api.compound import (
    COMPOUND_SPEC_VERSION,
    BackgroundStream,
    CompoundResult,
    CompoundScenarioSpec,
    run_compound,
)
from repro.api.environment import provision_environment
from repro.api.events import (
    DetectionEvent,
    Event,
    EventBus,
    GCEvent,
    HostOpEvent,
    OffloadEvent,
    RetentionEvictEvent,
    Subscription,
    record_events,
)
from repro.api.runs import run_campaign, run_fleet, run_roc
from repro.api.session import (
    DetectionView,
    MetricsView,
    Session,
    SessionResult,
    score_forensics,
    score_recovery,
)
from repro.api.spec import SPEC_VERSION, ScenarioSpec, SpecValidationError
from repro.campaign.cache import CacheStats, ResultCache, code_fingerprint
from repro.campaign.checkpoint import CheckpointError, CheckpointJournal
from repro.campaign.grid import CampaignGrid
from repro.campaign.results import CampaignArtifact
from repro.campaign.roc import RocArtifact
from repro.core.config import RSSDConfig
from repro.core.rssd import RSSD, build_rssd
from repro.sim import SimClock
from repro.workloads.fleet import FleetReport

__all__ = [
    # -- scenario description ------------------------------------------------
    "SPEC_VERSION",
    "ScenarioSpec",
    "SpecValidationError",
    # -- compound multi-tenant scenarios --------------------------------------
    "COMPOUND_SPEC_VERSION",
    "CompoundScenarioSpec",
    "BackgroundStream",
    "CompoundResult",
    "run_compound",
    # -- execution -----------------------------------------------------------
    "Session",
    "SessionResult",
    "MetricsView",
    "DetectionView",
    "provision_environment",
    "score_forensics",
    "score_recovery",
    # -- events ----------------------------------------------------------------
    "Event",
    "EventBus",
    "Subscription",
    "record_events",
    "HostOpEvent",
    "GCEvent",
    "DetectionEvent",
    "OffloadEvent",
    "RetentionEvictEvent",
    # -- many-scenario entry points -------------------------------------------
    "run_campaign",
    "run_roc",
    "run_fleet",
    "CampaignGrid",
    "CampaignArtifact",
    "RocArtifact",
    "FleetReport",
    # -- persistence: result cache and checkpoint/resume ------------------------
    "ResultCache",
    "CacheStats",
    "CheckpointJournal",
    "CheckpointError",
    "code_fingerprint",
    # -- device quickstart ------------------------------------------------------
    "RSSD",
    "RSSDConfig",
    "SimClock",
    "build_rssd",
    # -- rendering ---------------------------------------------------------------
    "format_table",
]
