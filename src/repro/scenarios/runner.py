"""The fuzz-session runner and its versioned JSON artifact.

A fuzz session is an ordinary sweep wearing a generated grid: the
:class:`~repro.scenarios.fuzzer.SpecFuzzer` expands ``(fuzz_seed,
budget)`` into a deterministic spec sequence, and every distinct spec
executes through the shared sweep driver
:func:`~repro.campaign.sweep.run_sweep` with the full persistence layer
riding along -- the content-addressed
:class:`~repro.campaign.cache.ResultCache` serves repeated specs, the
:class:`~repro.campaign.checkpoint.CheckpointJournal` makes interrupted
sessions resumable, and the artifact is canonical JSON, bit-identical
across the sequential, thread and process backends.

The artifact's ``spec_hashes`` list is the determinism pin: it records
the walk in index order (duplicates included), so two runs with the
same ``(fuzz_seed, budget, config)`` can be compared byte-for-byte.
Executed cells are stored once per distinct spec, sorted by hash, and
the session's own :class:`~repro.scenarios.coverage.CoverageLedger` is
embedded for merging into a persistent ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.campaign.sweep import SweepArtifact, SweepRecord, run_sweep
from repro.scenarios.coverage import CoverageLedger, region_of
from repro.scenarios.fuzzer import FuzzConfig, SpecFuzzer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.api.spec import ScenarioSpec
    from repro.campaign.cache import ResultCache
    from repro.campaign.checkpoint import CheckpointJournal

#: Bump when the fuzz artifact schema changes; readers refuse newer.
FUZZ_ARTIFACT_VERSION = 1


@dataclass(frozen=True)
class FuzzCellResult(SweepRecord):
    """Scored outcome of one distinct fuzzed spec.

    Deliberately index-free: the same spec drawn at two walk indices is
    one cell (the artifact's ``spec_hashes`` list keeps the per-index
    record), which is what lets the content-addressed cache serve
    repeats without lying about where they came from.
    """

    #: SHA-256 of the spec's canonical JSON -- the cell's identity.
    spec_hash: str
    scenario_key: str
    #: The coverage-lattice region the spec falls in.
    region: str
    #: The full generated spec (its ``to_dict`` form).
    spec: Dict[str, object]
    # -- recovery ---------------------------------------------------------
    recovery_fraction: float
    pages_recovered: int
    defended: bool
    # -- detection --------------------------------------------------------
    detected: bool
    detection_latency_us: Optional[int]
    # -- I/O overhead -----------------------------------------------------
    write_amplification: float
    host_commands: int
    # -- provenance -------------------------------------------------------
    #: Hex head of the device's oplog hash chain; pins the exact command
    #: stream, which is how backend determinism is asserted.
    oplog_hash: Optional[str]
    #: ``"ok"``, or ``"capacity-exhausted"`` when the drawn scenario's
    #: sustained ingest ran the device out of flash mid-workload -- a
    #: modeled outcome of retention-pinning defenses on small
    #: geometries, recorded instead of aborting the walk.
    status: str = "ok"


def _fuzz_cell_key(spec: "ScenarioSpec") -> str:
    """The journal/cache key of one fuzz cell: the spec's own hash.

    Scenario keys collide across fuzzed specs (two draws can share
    defense/attack/workload/device but differ in geometry), so the
    canonical spec hash is the only safe identity.
    """
    return spec.spec_hash()


def run_fuzz_cell(spec: "ScenarioSpec") -> FuzzCellResult:
    """Execute one fuzzed spec and reduce it to a picklable record.

    Module-level (and taking only a picklable
    :class:`~repro.api.spec.ScenarioSpec`) so the process backend can
    ship it to workers.
    """
    from repro.api import Session
    from repro.ssd.errors import CapacityExhaustedError

    try:
        result = Session(spec).run()
    except CapacityExhaustedError:
        # Deterministic, modeled behavior (retention pinning on a small
        # geometry under sustained ingest), not an execution fault: the
        # fuzzer's job is to record what the drawn scenario does.
        return FuzzCellResult(
            spec_hash=spec.spec_hash(),
            scenario_key=spec.cell_key,
            region=region_of(spec),
            spec=spec.to_dict(),
            recovery_fraction=0.0,
            pages_recovered=0,
            defended=False,
            detected=False,
            detection_latency_us=None,
            write_amplification=0.0,
            host_commands=0,
            oplog_hash=None,
            status="capacity-exhausted",
        )
    return FuzzCellResult(
        spec_hash=spec.spec_hash(),
        scenario_key=spec.cell_key,
        region=region_of(spec),
        spec=spec.to_dict(),
        recovery_fraction=result.recovery_fraction,
        pages_recovered=result.pages_recovered,
        defended=result.defended,
        detected=result.detected,
        detection_latency_us=result.detection_latency_us,
        write_amplification=result.write_amplification,
        host_commands=result.host_commands,
        oplog_hash=result.oplog_hash,
        status="ok",
    )


@dataclass
class FuzzArtifact(SweepArtifact):
    """A completed fuzz session: the walk, its cells and its coverage.

    Cells are keyed and sorted by spec hash; :meth:`diff` adds the walk
    (``spec_hashes``) and coverage comparisons to the per-cell ones.
    """

    record_key = "spec_hash"
    record_type = FuzzCellResult
    latest_version = FUZZ_ARTIFACT_VERSION

    fuzz_seed: int
    budget: int
    toward_uncovered: bool
    #: The :meth:`FuzzConfig.to_dict` form of the space walked.
    config: Dict[str, object] = field(default_factory=dict)
    #: Spec hashes in walk-index order, duplicates included -- the
    #: determinism pin for the whole session.
    spec_hashes: List[str] = field(default_factory=list)
    #: The fuzzer's rejection accounting for this session.
    stats: Dict[str, int] = field(default_factory=dict)
    #: One result per distinct spec, sorted by spec hash.
    cells: List[FuzzCellResult] = field(default_factory=list)
    #: This session's coverage ledger (its ``to_dict`` form).
    coverage: Dict[str, object] = field(default_factory=dict)
    version: int = FUZZ_ARTIFACT_VERSION

    @property
    def ledger(self) -> CoverageLedger:
        """This session's coverage as a live :class:`CoverageLedger`."""
        return CoverageLedger.from_dict(self.coverage)

    def diff(self, baseline: "FuzzArtifact") -> List[str]:  # type: ignore[override]
        """Human-readable differences against ``baseline`` (empty if equal)."""
        differences = []
        if self.spec_hashes != baseline.spec_hashes:
            differences.append(
                f"spec_hashes diverge: {len(baseline.spec_hashes)} baseline vs "
                f"{len(self.spec_hashes)} here"
            )
        differences += super().diff(baseline)
        if self.coverage != baseline.coverage:
            differences.append("coverage ledgers differ")
        return differences


def run_fuzz(
    seed: int,
    budget: int,
    config: Optional[FuzzConfig] = None,
    *,
    backend: str = "sequential",
    jobs: int = 0,
    ledger: Optional[CoverageLedger] = None,
    toward_uncovered: bool = False,
    cache: Optional["ResultCache"] = None,
    journal: Optional["CheckpointJournal"] = None,
    resume: bool = False,
    after_cell: Optional[Callable] = None,
) -> FuzzArtifact:
    """Run one budgeted fuzz session and collect its artifact.

    The spec sequence is generated up front, sequentially, before any
    backend is involved -- the walk depends only on ``(seed, config,
    budget)`` plus (under ``toward_uncovered``) the covered-region
    snapshot of ``ledger``, never on execution order.  Distinct specs
    then execute through :func:`~repro.campaign.sweep.run_sweep` exactly
    like campaign cells: cache hits are served, journalled
    cells survive crashes, and ``resume=True`` re-runs only what the
    journal is missing.  The returned artifact embeds this session's
    own coverage; the caller merges it into a persistent ledger
    (:meth:`CoverageLedger.merge`) -- ``ledger`` is read, not written.
    """
    if budget < 0:
        raise ValueError(f"fuzz budget must be non-negative, got {budget}")
    fuzz_config = config if config is not None else FuzzConfig()
    fuzzer = SpecFuzzer(seed, fuzz_config)
    covered = ledger.covered_regions if ledger is not None else []
    specs = fuzzer.generate(
        budget, covered=covered, toward_uncovered=toward_uncovered
    )
    spec_hashes = [spec.spec_hash() for spec in specs]
    # One cell per distinct spec, in first-drawn order.
    unique_specs = list(dict(zip(spec_hashes, specs)).values())
    run = run_sweep(
        "fuzz",
        FUZZ_ARTIFACT_VERSION,
        seed,
        {
            "budget": budget,
            "config": fuzz_config.to_dict(),
            "toward_uncovered": toward_uncovered,
            "covered_snapshot": sorted(covered),
        },
        unique_specs,
        run_fuzz_cell,
        key_fn=_fuzz_cell_key,
        encode=FuzzCellResult.to_dict,
        decode=FuzzCellResult.from_dict,
        backend=backend,
        jobs=jobs,
        cache=cache,
        journal=journal,
        resume=resume,
        after_cell=after_cell,
    )
    session_ledger = CoverageLedger()
    for cell in run.results:
        session_ledger.record_hash(cell.region, cell.spec_hash)
    artifact = FuzzArtifact(
        fuzz_seed=seed,
        budget=budget,
        toward_uncovered=toward_uncovered,
        config=fuzz_config.to_dict(),
        spec_hashes=spec_hashes,
        stats=fuzzer.stats.to_dict(),
        cells=run.results,
        coverage=session_ledger.to_dict(),
    )
    return artifact.with_provenance(run)
