"""Compound scenarios: a victim workload under fleet noise, attacked mid-trace.

The paper's evaluation runs one victim workload against one attack on a
quiet device.  Real deployments are noisier: the victim shares the
device with background tenants whose block streams keep writing before,
during and after the attack.  A :class:`CompoundScenarioSpec` composes

* a **foreground** :class:`~repro.api.spec.ScenarioSpec` (the victim
  workload, defense, device and attack -- unchanged semantics, old
  specs and their hashes untouched),
* a tuple of :class:`BackgroundStream` fleet-noise streams -- profiled
  ``trace-<volume>`` block workloads replayed as separate processes
  (distinct stream ids in the device's oplog and forensic trace), and
* an ``attack_offset`` in ``(0, 1]`` -- the fraction of the merged
  background trace replayed *before* the staged attack strikes; the
  remainder replays after it, so detection and the evidence chain are
  exercised under post-attack noise.

Execution goes through the existing :class:`~repro.api.session.Session`
and :class:`~repro.api.events.EventBus` -- the composite workload is an
ordinary workload callable, the attack is the spec's attack, and every
byte of noise is derived from the foreground seed the SHA-256 way, so
compound runs are bit-identical across backends.  The spec is
schema-versioned and hash-stable
(:data:`COMPOUND_SPEC_VERSION`, :meth:`CompoundScenarioSpec.spec_hash`)
exactly like plain specs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api.spec import ScenarioSpec, SpecValidationError
from repro.campaign import registries
from repro.campaign.seeding import derive_seed

#: Bump when the compound spec schema changes; readers refuse newer.
COMPOUND_SPEC_VERSION = 1


@dataclass(frozen=True)
class BackgroundStream:
    """One background fleet-noise stream of a compound scenario.

    ``workload`` must be a ``trace-<volume>`` registry name (block-level
    noise only: file-level activities would edit the victim's files and
    change the foreground scenario itself).  ``hours`` is seconds of
    original trace time, matching the trace workloads' interpretation
    of ``user_activity_hours``.
    """

    workload: str = "trace-hm"
    hours: float = 0.5

    def __post_init__(self) -> None:
        if self.workload not in registries.WORKLOADS or not self.workload.startswith(
            "trace-"
        ):
            known = sorted(
                name for name in registries.WORKLOADS if name.startswith("trace-")
            )
            raise SpecValidationError(
                f"background stream workload must be a trace-replay registry "
                f"name, got {self.workload!r}; known: {known}",
                field="workload",
            )
        if (
            isinstance(self.hours, bool)
            or not isinstance(self.hours, (int, float))
            or not math.isfinite(self.hours)
            or self.hours <= 0
        ):
            raise SpecValidationError(
                f"background stream hours must be a finite positive number, "
                f"got {self.hours!r}",
                field="hours",
            )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view of the stream."""
        return {"workload": self.workload, "hours": self.hours}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BackgroundStream":
        """Rebuild a stream, refusing unknown fields."""
        unknown = sorted(set(data) - {"workload", "hours"})
        if unknown:
            raise SpecValidationError(
                f"unknown background stream fields: {unknown}", field=unknown[0]
            )
        return cls(**data)  # type: ignore[arg-type]


@dataclass(frozen=True)
class CompoundScenarioSpec:
    """A foreground scenario composed with staged background noise.

    The foreground spec is embedded unchanged -- its own hash, seeds and
    validation are untouched, so every pre-compound artifact remains
    byte-identical.  The compound layer adds only the noise streams and
    the attack's position inside the merged noise trace.
    """

    foreground: ScenarioSpec = field(default_factory=ScenarioSpec)
    background: Tuple[BackgroundStream, ...] = ()
    #: Fraction of the merged background trace replayed before the
    #: attack strikes; the rest replays after scoring-time noise.
    attack_offset: float = 0.5

    def __post_init__(self) -> None:
        if not isinstance(self.foreground, ScenarioSpec):
            raise SpecValidationError(
                f"foreground must be a ScenarioSpec, got "
                f"{type(self.foreground).__name__}",
                field="foreground",
            )
        streams = tuple(self.background)
        for stream in streams:
            if not isinstance(stream, BackgroundStream):
                raise SpecValidationError(
                    f"background entries must be BackgroundStream, got "
                    f"{type(stream).__name__}",
                    field="background",
                )
        object.__setattr__(self, "background", streams)
        if (
            isinstance(self.attack_offset, bool)
            or not isinstance(self.attack_offset, (int, float))
            or not math.isfinite(self.attack_offset)
            or not 0.0 < self.attack_offset <= 1.0
        ):
            raise SpecValidationError(
                f"attack_offset must be within (0, 1], got "
                f"{self.attack_offset!r}",
                field="attack_offset",
            )

    # -- identity ----------------------------------------------------------

    @property
    def compound_key(self) -> str:
        """Stable identifier: the foreground key plus the noise shape."""
        return (
            f"{self.foreground.cell_key}"
            f"+bg{len(self.background)}@{self.attack_offset:g}"
        )

    def background_seed(self, index: int) -> int:
        """The trace seed of background stream ``index`` (SHA-256 derived)."""
        return derive_seed(
            self.foreground.seed,
            "compound-background",
            index,
            self.background[index].workload,
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view: version, foreground spec, streams, offset."""
        return {
            "version": COMPOUND_SPEC_VERSION,
            "foreground": self.foreground.to_dict(),
            "background": [stream.to_dict() for stream in self.background],
            "attack_offset": self.attack_offset,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CompoundScenarioSpec":
        """Rebuild a compound spec, refusing newer schema versions."""
        payload = dict(data)
        raw_version = payload.pop("version", 1)
        if not isinstance(raw_version, int) or isinstance(raw_version, bool):
            raise SpecValidationError(
                f"compound spec version must be an integer, got {raw_version!r}",
                version=raw_version,
            )
        if raw_version > COMPOUND_SPEC_VERSION:
            raise SpecValidationError(
                f"compound spec version {raw_version} is newer than supported "
                f"version {COMPOUND_SPEC_VERSION}",
                version=raw_version,
            )
        unknown = sorted(set(payload) - {"foreground", "background", "attack_offset"})
        if unknown:
            raise SpecValidationError(
                f"unknown compound spec fields: {unknown}", field=unknown[0]
            )
        foreground = payload.get("foreground")
        if not isinstance(foreground, dict):
            raise SpecValidationError(
                f"compound spec field 'foreground' must be an object, got "
                f"{foreground!r}",
                field="foreground",
            )
        background = payload.get("background", [])
        if not isinstance(background, (list, tuple)):
            raise SpecValidationError(
                f"compound spec field 'background' must be a list, got "
                f"{background!r}",
                field="background",
            )
        return cls(
            foreground=ScenarioSpec.from_dict(foreground),
            background=tuple(
                BackgroundStream.from_dict(stream) for stream in background
            ),
            attack_offset=payload.get("attack_offset", 0.5),  # type: ignore[arg-type]
        )

    def to_json(self) -> str:
        """Canonical serialization: stable key order, trailing newline."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CompoundScenarioSpec":
        """Parse a compound spec from its canonical JSON text."""
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        """Write the canonical JSON serialization to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "CompoundScenarioSpec":
        """Read a compound spec previously written with :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def spec_hash(self) -> str:
        """SHA-256 of the canonical JSON form (stable across processes)."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


@dataclass
class CompoundResult:
    """Scored outcome of one compound scenario (picklable, JSON-ready)."""

    #: The compound spec's canonical hash (uniform with plain results).
    spec_hash: str
    compound_key: str
    spec: Dict[str, object]
    # -- foreground scoring (same semantics as a plain session) -----------
    recovery_fraction: float
    pages_recovered: int
    defended: bool
    detected: bool
    detection_latency_us: Optional[int]
    write_amplification: float
    host_commands: int
    oplog_hash: Optional[str]
    # -- noise accounting --------------------------------------------------
    #: Merged background records replayed before / after the attack.
    background_records_pre: int
    background_records_post: int
    # -- post-noise re-checks ----------------------------------------------
    #: Whether the defense still reports detection after post-attack noise.
    post_noise_detected: bool
    #: Evidence-chain trustworthiness after post-attack noise (RSSD only).
    post_noise_chain_trustworthy: Optional[bool]
    #: Published event counts by event-type name, after everything ran.
    events: Dict[str, int]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view (field names preserved verbatim)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CompoundResult":
        """Rebuild a result from its :meth:`to_dict` form."""
        return cls(**data)  # type: ignore[arg-type]


def run_compound(spec: CompoundScenarioSpec) -> CompoundResult:
    """Execute one compound scenario through the Session lifecycle.

    The composite workload runs the foreground activity, then replays
    the pre-offset slice of the merged background trace; the session
    then executes the staged attack and scores it exactly like a plain
    run.  Afterwards the post-offset noise replays against the live
    device and the defense is re-interrogated -- did detection survive
    the noise, is the evidence chain still trustworthy?  Module-level
    and spec-in/result-out so process pools can ship it to workers.
    """
    import random as random_module

    from repro.api.session import Session
    from repro.workloads.records import TraceRecord, merge_traces
    from repro.workloads.replay import TraceReplayer

    foreground = spec.foreground
    post_records: List[TraceRecord] = []
    noise_counts = {"pre": 0, "post": 0}

    def composite_workload(
        env: object, rng: "random_module.Random", hours: float, fraction: float
    ) -> None:
        registries.WORKLOADS[foreground.workload](env, rng, hours, fraction)  # type: ignore[arg-type]
        if not spec.background:
            return
        from repro.analysis.retention import lookup_volume
        from repro.workloads.synthetic import profile_workload

        traces = []
        for index, stream in enumerate(spec.background):
            process = env.registry.spawn(f"bg-noise-{index}-{stream.workload}")  # type: ignore[attr-defined]
            profile = lookup_volume(stream.workload[len("trace-"):])
            traces.append(
                profile_workload(
                    profile,
                    capacity_pages=env.device.capacity_pages // 2,  # type: ignore[attr-defined]
                    duration_s=stream.hours,
                    seed=spec.background_seed(index),
                    stream_id=process.stream_id,
                    time_compression=30_000.0,
                )
            )
        merged = merge_traces(*traces)
        split = int(len(merged) * spec.attack_offset)
        pre = merged[:split]
        post_records.extend(merged[split:])
        noise_counts["pre"] = len(pre)
        noise_counts["post"] = len(merged) - len(pre)
        if pre:
            TraceReplayer(env.device, honor_timestamps=False).replay(pre)  # type: ignore[arg-type]

    session = Session(foreground, workload=composite_workload)
    result = session.run()

    assert session.defense is not None and session.env is not None
    if post_records:
        TraceReplayer(session.env.device, honor_timestamps=False).replay(  # type: ignore[arg-type]
            post_records
        )
    post_noise_detected = session.defense.detect()
    engine = session.defense.forensics_engine()
    post_noise_chain_trustworthy: Optional[bool] = None
    if engine is not None:
        post_noise_chain_trustworthy = engine.verify_chain().trustworthy

    return CompoundResult(
        spec_hash=spec.spec_hash(),
        compound_key=spec.compound_key,
        spec=spec.to_dict(),
        recovery_fraction=result.recovery_fraction,
        pages_recovered=result.pages_recovered,
        defended=result.defended,
        detected=result.detected,
        detection_latency_us=result.detection_latency_us,
        write_amplification=result.write_amplification,
        host_commands=result.host_commands,
        oplog_hash=result.oplog_hash,
        background_records_pre=noise_counts["pre"],
        background_records_post=noise_counts["post"],
        post_noise_detected=post_noise_detected,
        post_noise_chain_trustworthy=post_noise_chain_trustworthy,
        events={name: count for name, count in session.bus.published_counts.items()},
    )
