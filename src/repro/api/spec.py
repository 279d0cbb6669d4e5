"""Declarative, validated scenario specifications.

A :class:`ScenarioSpec` is the single description of one
device-under-attack scenario: which defense protects which device
geometry, which workload ages the victim, which attack runs, and the
seed every random stream derives from.  It is a frozen dataclass of
names and numbers only, so a spec can be

* **validated** eagerly (unknown registry names and nonsensical sizes
  fail at construction, not deep inside a worker process),
* **serialized** canonically to JSON (stable key order, trailing
  newline) and rebuilt bit-identically,
* **diffed** field by field and **hashed** (:meth:`ScenarioSpec.spec_hash`)
  so two hosts can agree they are about to run the same experiment, and
* **shipped** -- to a process pool, a fleet, or a future remote backend
  -- and executed anywhere with identical results.

Seeds follow the campaign engine's derivation exactly: every stream is
seeded from ``(seed, cell_key, purpose)`` through SHA-256
(:func:`repro.campaign.seeding.derive_seed`), so a campaign grid's
cells are simply specs carrying the grid's seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.campaign import registries
from repro.campaign.seeding import derive_seed

#: Bump when the spec schema changes; readers refuse newer versions.
#: Version 2 added the optional ``ablation`` field; specs that leave it
#: empty still serialize as version 1, so their hashes (and every
#: pre-ablation artifact) are unchanged.
SPEC_VERSION = 2


class SpecValidationError(ValueError):
    """A spec payload failed schema validation.

    Carries the offending schema ``version`` (for version errors) or
    ``field`` name (for field errors) so callers can report precisely
    what to fix instead of guessing from a bare ``KeyError``.
    """

    def __init__(
        self,
        message: str,
        *,
        field: Optional[str] = None,
        version: Optional[object] = None,
    ) -> None:
        super().__init__(message)
        #: The first offending top-level field name, if the error is
        #: about a field; ``None`` for version errors.
        self.field = field
        #: The offending schema version, if the error is about the
        #: version; ``None`` for field errors.
        self.version = version


def _require_int(name: str, value: object, *, minimum: int) -> None:
    """Reject non-integer (including bool/NaN) or below-minimum values.

    Raises :class:`SpecValidationError` naming the offending field, so
    the scenario fuzzer (and every other caller) can rely on a single
    structured rejection path for geometry knobs.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecValidationError(
            f"{name} must be an integer, got {value!r}", field=name
        )
    if value < minimum:
        raise SpecValidationError(
            f"{name} must be at least {minimum}, got {value!r}", field=name
        )


def _require_finite(name: str, value: object) -> None:
    """Reject non-numeric, NaN, and infinite values for float knobs.

    NaN compares false against every bound, so plain range checks let it
    through silently; finiteness must be checked explicitly.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecValidationError(
            f"{name} must be a finite number, got {value!r}", field=name
        )
    if not math.isfinite(value):
        raise SpecValidationError(
            f"{name} must be finite, got {value!r}", field=name
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-specified, registry-validated scenario.

    ``defense``, ``attack``, ``workload`` and ``device`` are names in
    the campaign registries (:mod:`repro.campaign.registries`); unknown
    names raise :class:`KeyError` at construction with the full known
    list.  ``env_seed`` / ``workload_seed`` / ``attack_seed`` default to
    ``None``, meaning *derive from* ``seed`` *the SHA-256 way*; explicit
    values override the derivation (Table 1 pins its historical seeds
    this way).
    """

    defense: str = "RSSD"
    attack: str = "classic"
    workload: str = "office-edit"
    device: str = "tiny"
    victim_files: int = 24
    file_size_bytes: int = 8192
    user_activity_hours: float = 30.0
    recent_edit_fraction: float = 0.3
    seed: int = 23
    env_seed: Optional[int] = None
    workload_seed: Optional[int] = None
    attack_seed: Optional[int] = None
    #: Defense features *disabled* for this scenario (ablation).  Names
    #: come from :data:`repro.ablation.registry.FEATURES`; the empty
    #: tuple (default) is the full design and keeps the spec on schema
    #: version 1 so pre-ablation hashes are unchanged.  Deliberately
    #: excluded from :attr:`cell_key`, so every ablation variant of
    #: a scenario shares the same derived rng streams and deltas are
    #: attributable purely to the toggled component.
    ablation: Tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        registries.validate_names(
            [self.defense], [self.attack], [self.workload], [self.device]
        )
        from repro.ablation.registry import validate_features

        object.__setattr__(self, "ablation", validate_features(self.ablation))
        _require_int("victim_files", self.victim_files, minimum=1)
        _require_int("file_size_bytes", self.file_size_bytes, minimum=1)
        _require_finite("user_activity_hours", self.user_activity_hours)
        _require_finite("recent_edit_fraction", self.recent_edit_fraction)
        if self.user_activity_hours < 0:
            raise SpecValidationError(
                f"user_activity_hours must be non-negative, got "
                f"{self.user_activity_hours!r}",
                field="user_activity_hours",
            )
        if not 0.0 <= self.recent_edit_fraction <= 1.0:
            raise SpecValidationError(
                f"recent_edit_fraction must be within [0, 1], got "
                f"{self.recent_edit_fraction!r}",
                field="recent_edit_fraction",
            )

    # -- identity ----------------------------------------------------------

    @property
    def cell_key(self) -> str:
        """Stable identifier: defense/attack/workload/device.

        The key every sweep journals a cell under and every result
        record (``CellResult``, ``RocCurve``, ...) stores as ``cell_key``.
        """
        return f"{self.defense}/{self.attack}/{self.workload}/{self.device}"

    # -- seed resolution ---------------------------------------------------

    @property
    def resolved_env_seed(self) -> int:
        """The environment seed: explicit override or SHA-256 derivation."""
        if self.env_seed is not None:
            return self.env_seed
        return derive_seed(self.seed, self.cell_key, "env")

    @property
    def resolved_workload_seed(self) -> int:
        """The workload-rng seed: explicit override or SHA-256 derivation."""
        if self.workload_seed is not None:
            return self.workload_seed
        return derive_seed(self.seed, self.cell_key, "workload")

    @property
    def resolved_attack_seed(self) -> int:
        """The attack-rng seed: explicit override or SHA-256 derivation."""
        if self.attack_seed is not None:
            return self.attack_seed
        return derive_seed(self.seed, self.cell_key, "attack")

    def resolve_seeds(self) -> "ScenarioSpec":
        """A copy with every per-stream seed materialized explicitly.

        The resolved form is what should be shipped to a fleet: it is
        self-contained (no derivation step on the receiving side) and
        hashes identically everywhere.
        """
        return replace(
            self,
            env_seed=self.resolved_env_seed,
            workload_seed=self.resolved_workload_seed,
            attack_seed=self.resolved_attack_seed,
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view of the spec, seeds resolved, schema-versioned.

        A spec with no ablation serializes exactly as it did before the
        ``ablation`` field existed -- version 1, no ``ablation`` key --
        so its :meth:`spec_hash` is unchanged.  Ablated specs carry the
        field and declare version 2.
        """
        payload = asdict(self.resolve_seeds())
        if self.ablation:
            payload["ablation"] = list(self.ablation)
            payload["version"] = SPEC_VERSION
        else:
            del payload["ablation"]
            payload["version"] = 1
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioSpec":
        """Rebuild a spec, refusing schema versions newer than this reader.

        Malformed payloads raise :class:`SpecValidationError` naming the
        offending schema version or field, never a bare ``KeyError`` or
        ``TypeError``.
        """
        payload = dict(data)
        raw_version = payload.pop("version", 1)
        if not isinstance(raw_version, int) or isinstance(raw_version, bool):
            raise SpecValidationError(
                f"scenario spec version must be an integer, got {raw_version!r}",
                version=raw_version,
            )
        if raw_version > SPEC_VERSION:
            raise SpecValidationError(
                f"scenario spec version {raw_version} is newer than supported "
                f"version {SPEC_VERSION}",
                version=raw_version,
            )
        unknown = sorted(set(payload) - {f for f in cls.__dataclass_fields__})
        if unknown:
            raise SpecValidationError(
                f"unknown scenario spec fields: {unknown}", field=unknown[0]
            )
        ablation = payload.get("ablation", ())
        if not isinstance(ablation, (list, tuple)) or not all(
            isinstance(name, str) for name in ablation
        ):
            raise SpecValidationError(
                f"scenario spec field 'ablation' must be a list of feature "
                f"names, got {ablation!r}",
                field="ablation",
            )
        payload["ablation"] = tuple(ablation)
        return cls(**payload)  # type: ignore[arg-type]

    def to_json(self) -> str:
        """Canonical serialization: stable key order, trailing newline."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a spec from its canonical JSON text."""
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        """Write the canonical JSON serialization to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "ScenarioSpec":
        """Read a spec previously written with :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    # -- comparison --------------------------------------------------------

    def spec_hash(self) -> str:
        """SHA-256 of the canonical JSON form (stable across processes).

        Per-stream seeds are compared in resolved form, so a spec whose
        seeds were derived hashes the same as its explicitly-resolved
        copy; any difference in names, sizes or resolved seeds changes
        the hash.
        """
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    def diff(self, other: "ScenarioSpec") -> List[str]:
        """Human-readable field-level differences against ``other``."""
        mine, theirs = self.to_dict(), other.to_dict()
        return [
            f"{name}: {theirs.get(name)!r} -> {mine.get(name)!r}"
            for name in sorted(set(mine) | set(theirs))
            if mine.get(name) != theirs.get(name)
        ]
