"""One sweep driver and one artifact base for every sweep kind.

Campaign grids, ROC sweeps, ablation studies and fuzz sessions are the
same computation: expand specs, execute each spec as an independent
cell, and collect the results into a versioned artifact whose
canonical JSON does not depend on execution order or backend.
:func:`run_sweep` is that computation, written once, with the
persistence layer riding along: each cell is served from a resumed
:class:`~repro.campaign.checkpoint.CheckpointJournal`, then the
content-addressed :class:`~repro.campaign.cache.ResultCache`, and only
then executed through the :class:`~repro.campaign.runner.ExperimentRunner`.

:class:`SweepArtifact` derives each kind's serializer, loader, record
lookups and ``diff`` from its dataclass fields, and
:class:`SweepRecord` does the same for the per-cell records -- a kind
declares only the fields it stores.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Dict,
    Generic,
    List,
    Optional,
    Sequence,
    Type,
    TypeVar,
)

from repro.campaign.runner import ExperimentRunner

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.api.spec import ScenarioSpec
    from repro.campaign.cache import CacheStats, ResultCache
    from repro.campaign.checkpoint import CheckpointJournal

SpecT = TypeVar("SpecT", bound="ScenarioSpec")
ResultT = TypeVar("ResultT")
RecordT = TypeVar("RecordT", bound="SweepRecord")
ArtifactT = TypeVar("ArtifactT", bound="SweepArtifact")


@dataclass
class SweepRun(Generic[ResultT]):
    """What :func:`run_sweep` returns: per-spec results plus provenance."""

    #: One result per spec, in spec order.
    results: List[ResultT]
    #: The cache's hit/miss accounting (``None`` without a cache).
    cache_stats: Optional["CacheStats"]
    #: Cells served from a resumed checkpoint journal.
    cells_resumed: int


def run_sweep(
    kind: str,
    version: int,
    seed: int,
    describe: Dict[str, object],
    specs: Sequence[SpecT],
    cell_fn: Callable[[SpecT], ResultT],
    *,
    key_fn: Callable[[SpecT], str],
    encode: Callable[[ResultT], object],
    decode: Callable[[Any], ResultT],
    backend: str = "sequential",
    jobs: int = 0,
    runner: Optional[ExperimentRunner] = None,
    cache: Optional["ResultCache"] = None,
    journal: Optional["CheckpointJournal"] = None,
    resume: bool = False,
    after_cell: Optional[Callable[[int, SpecT, ResultT], None]] = None,
) -> SweepRun[ResultT]:
    """Map ``cell_fn`` over ``specs``, serving what is already known.

    ``kind`` names the sweep: the journal header records it together
    with ``version`` (the artifact schema version), ``seed`` and the
    JSON-ready ``describe`` payload, and the cache stores cells under
    ``f"{kind}-cell"``.  ``key_fn`` gives each spec's journal key (keys
    must be unique -- a repeated key raises ``ValueError`` naming it),
    each spec's ``spec_hash()`` its cache identity, and
    ``encode``/``decode`` convert results to and from their JSON
    payload.

    Each spec resolves in priority order from the resumed journal
    (``resume=True`` verifies the header pins this very sweep), then
    the ``cache``, and only then runs through ``runner`` (built from
    ``backend``/``jobs`` when not given).  Every cell served from the
    cache or freshly executed is appended to ``journal`` the moment it
    completes; ``after_cell(index, spec, result)`` fires after each
    executed cell becomes durable -- the fault-injection hook point.
    """
    from repro.campaign.checkpoint import build_header, verify_header

    keys = [key_fn(spec) for spec in specs]
    repeated = sorted(key for key, count in Counter(keys).items() if count > 1)
    if repeated:
        raise ValueError(f"duplicate cell key {repeated[0]!r} in {kind} sweep")
    if runner is None:
        runner = ExperimentRunner(backend=backend, jobs=jobs)
    completed: Dict[str, object] = {}
    if journal is not None:
        header = build_header(
            kind,
            version,
            seed,
            describe,
            fingerprint=cache.fingerprint if cache is not None else None,
        )
        if resume:
            found, completed = journal.load()
            verify_header(found, header)
            journal.resume()
        else:
            journal.start(header)
    elif resume:
        raise ValueError("resume=True needs a checkpoint journal")
    cell_kind = f"{kind}-cell"
    results: List[Optional[ResultT]] = [None] * len(specs)
    pending: List[int] = []
    try:
        for index, (spec, key) in enumerate(zip(specs, keys)):
            if key in completed:
                results[index] = decode(completed[key])
                continue
            payload = (
                cache.get(cell_kind, spec.spec_hash(), version)
                if cache is not None
                else None
            )
            if payload is None:
                pending.append(index)
                continue
            results[index] = decode(payload)
            if journal is not None:
                journal.append_cell(key, payload)
        executed = runner.imap(cell_fn, [specs[index] for index in pending])
        for index, result in zip(pending, executed):
            payload = encode(result)
            if cache is not None:
                cache.put(cell_kind, specs[index].spec_hash(), version, payload)
            if journal is not None:
                journal.append_cell(keys[index], payload)
            results[index] = result
            if after_cell is not None:
                after_cell(index, specs[index], result)
    finally:
        if journal is not None:
            journal.close()
    return SweepRun(
        # Every slot is filled: specs either resolved above or ran
        # through the runner, whose imap yields one result per item.
        results=results,  # type: ignore[arg-type]
        cache_stats=cache.stats if cache is not None else None,
        cells_resumed=sum(1 for key in keys if key in completed),
    )


class SweepRecord:
    """Mixin for a sweep's per-cell dataclass records.

    The JSON form of a record is its ``asdict`` view, field names
    preserved verbatim, and ``from_dict`` is the inverse.
    """

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view of the record (nested records included)."""
        return asdict(self)  # type: ignore[call-overload]

    @classmethod
    def from_dict(cls: Type[RecordT], data: Dict[str, Any]) -> RecordT:
        """Rebuild a record from its :meth:`to_dict` form."""
        return cls(**data)


@dataclass
class SweepArtifact:
    """Base of every sweep artifact: serialization, lookups and ``diff``.

    A subclass is a dataclass declaring its own serialized fields (a
    ``version`` field among them) and naming, in class attributes, the
    list field that holds its records, the record type, the record
    attribute that keys them and the newest schema version it reads.
    Records are kept sorted by key, so the canonical JSON is the same
    whatever order the cells ran in.

    ``cache_stats`` and ``cells_resumed`` are in-memory provenance of
    the run that built the artifact: excluded from serialization,
    comparison and the goldens, so a warm-cache or resumed run
    serializes byte-identically to a cold one.
    """

    #: Name of the list field holding the records.
    records_field: ClassVar[str] = "cells"
    #: Record attribute the records are sorted, looked up and diffed by.
    record_key: ClassVar[str] = "cell_key"
    #: What diff lines and lookup errors call one record.
    record_noun: ClassVar[str] = "cell"
    #: The per-record type (set by each subclass).
    record_type: ClassVar[Type[SweepRecord]]
    #: Newest schema version this reader accepts (set by each subclass).
    latest_version: ClassVar[int]

    #: Cache hit/miss accounting for the run that built this artifact.
    cache_stats: Optional["CacheStats"] = field(
        default=None, init=False, compare=False, repr=False
    )
    #: Cells served from a resumed checkpoint journal.
    cells_resumed: int = field(default=0, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        """Sort the records by key so serialization is order independent."""
        setattr(
            self,
            self.records_field,
            sorted(self._records(), key=attrgetter(self.record_key)),
        )

    def _records(self) -> List[Any]:
        return getattr(self, self.records_field)  # type: ignore[no-any-return]

    def with_provenance(self: ArtifactT, run: SweepRun[Any]) -> ArtifactT:
        """Attach a run's cache and resume accounting; returns ``self``."""
        self.cache_stats = run.cache_stats
        self.cells_resumed = run.cells_resumed
        return self

    # -- lookups ----------------------------------------------------------

    def cell(self, key: str) -> Any:
        """The record for one key (raises ``KeyError`` if absent)."""
        for record in self._records():
            if getattr(record, self.record_key) == key:
                return record
        raise KeyError(f"no {self.record_noun} named {key!r} in this artifact")

    @property
    def cell_keys(self) -> List[str]:
        """All record keys, in the sorted artifact order."""
        return [getattr(record, self.record_key) for record in self._records()]

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view of every serialized field, records included."""
        data = asdict(self)
        for provenance in fields(self):
            if not provenance.compare:
                del data[provenance.name]
        return data

    def to_json(self) -> str:
        """Canonical serialization: stable key order, trailing newline."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls: Type[ArtifactT], data: Dict[str, Any]) -> ArtifactT:
        """Rebuild an artifact, refusing versions newer than this reader."""
        version = int(data.get("version", -1))
        if version > cls.latest_version:
            raise ValueError(
                f"{cls.__name__} version {version} is newer than supported "
                f"version {cls.latest_version}"
            )
        values = {f.name: data[f.name] for f in fields(cls) if f.init and f.name in data}
        values[cls.records_field] = [
            cls.record_type.from_dict(record)
            for record in data.get(cls.records_field, [])
        ]
        values["version"] = version
        return cls(**values)

    @classmethod
    def from_json(cls: Type[ArtifactT], text: str) -> ArtifactT:
        """Parse an artifact from its canonical JSON text."""
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        """Write the canonical JSON serialization to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls: Type[ArtifactT], path: str) -> ArtifactT:
        """Read an artifact previously written with :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    # -- comparison -------------------------------------------------------

    def diff(self, baseline: "SweepArtifact") -> List[str]:
        """Human-readable record-level differences against ``baseline``.

        Empty when the artifacts agree on every record they share and
        neither has records the other lacks.
        """
        noun = self.record_noun
        ours = {getattr(r, self.record_key): r for r in self._records()}
        theirs = {getattr(r, self.record_key): r for r in baseline._records()}
        differences = [f"missing {noun}: {key}" for key in sorted(set(theirs) - set(ours))]
        differences += [f"extra {noun}: {key}" for key in sorted(set(ours) - set(theirs))]
        for key in sorted(set(ours) & set(theirs)):
            mine, other = asdict(ours[key]), asdict(theirs[key])
            for name in sorted(mine):
                if mine[name] != other[name]:
                    differences.append(
                        f"{key}: {name} {other[name]!r} -> {mine[name]!r}"
                    )
        return differences
