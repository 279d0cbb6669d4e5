"""The ablation study runner and its versioned JSON artifact.

An :class:`AblationStudy` takes one base :class:`~repro.api.spec.ScenarioSpec`,
a set of toggleable features, and an attack axis, and runs every
(attack, ablation-config) cell through the shared sweep driver
:func:`~repro.campaign.sweep.run_sweep`.  Each cell is an
ordinary spec-and-session run -- the ablation rides inside the spec's
``ablation`` field -- so the per-cell rng streams derive from
``(seed, cell_key, purpose)`` through SHA-256 exactly like campaign
cells.  The spec's ``cell_key`` excludes the ablation, so every
config of a scenario sees bit-identical workload and attack streams and
result deltas are attributable purely to the toggled component.

Results reduce to picklable :class:`AblationCellResult` records inside
the worker, and the collected :class:`AblationArtifact` is canonical
JSON (sorted cells, stable key order) -- bit-identical across the
sequential, thread and process backends, pinned by the
``tests/golden/ablation_tiny.json`` golden.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.ablation.config import AblationConfig
from repro.ablation.registry import validate_features
from repro.campaign.sweep import SweepArtifact, SweepRecord, run_sweep

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.api.spec import ScenarioSpec
    from repro.campaign.cache import ResultCache
    from repro.campaign.checkpoint import CheckpointJournal

#: Bump when the ablation artifact schema changes; readers refuse newer.
ABLATION_ARTIFACT_VERSION = 1


@dataclass(frozen=True)
class AblationCellResult(SweepRecord):
    """Scored outcome of one (attack, ablation-config) cell."""

    #: the spec's ``cell_key + "/" + config label`` -- unique within a study.
    cell_key: str
    #: The :attr:`AblationConfig.label` of the cell's config.
    config: str
    #: Feature names disabled in this cell (sorted).
    disabled: List[str]
    attack: str
    # -- recovery ---------------------------------------------------------
    recovery_fraction: float
    defended: bool
    # -- detection --------------------------------------------------------
    detected: bool
    detection_latency_us: Optional[int]
    # -- I/O overhead -----------------------------------------------------
    write_amplification: float
    mean_write_latency_us: float
    mean_read_latency_us: float
    host_commands: int
    flash_pages_programmed: int
    # -- component-level accounting ---------------------------------------
    #: Retained pages destroyed before reaching the remote tier.
    data_loss_pages: int
    #: Pages the offload engine actually shipped to the remote tier.
    pages_offloaded_remote: int
    # -- provenance -------------------------------------------------------
    #: Hex head of the device's oplog hash chain; pins the exact command
    #: stream, which is how backend determinism is asserted.
    oplog_hash: Optional[str]


@dataclass
class AblationArtifact(SweepArtifact):
    """A completed ablation study: sweep description plus per-cell results."""

    record_type = AblationCellResult
    latest_version = ABLATION_ARTIFACT_VERSION

    #: The base spec every cell was derived from (its ``to_dict`` form).
    base_spec: Dict[str, object]
    #: The sweep parameters (features, mode, attack axis).
    sweep: Dict[str, object]
    cells: List[AblationCellResult] = field(default_factory=list)
    version: int = ABLATION_ARTIFACT_VERSION

    @property
    def config_labels(self) -> List[str]:
        """The distinct config labels present, sorted."""
        return sorted({result.config for result in self.cells})


def _ablation_cell_key(spec: "ScenarioSpec") -> str:
    """The journal/cache key of one ablation cell.

    Matches :attr:`AblationCellResult.cell_key`: the scenario key plus
    the config label (the ablation is deliberately not part of the
    scenario key, so the label disambiguates the variants).
    """
    config = AblationConfig(disabled=spec.ablation)
    return f"{spec.cell_key}/{config.label}"


def run_ablation_cell(spec: "ScenarioSpec") -> AblationCellResult:
    """Execute one ablation cell and reduce it to a picklable record.

    Module-level (and taking only a picklable
    :class:`~repro.api.spec.ScenarioSpec`) so the process backend can
    ship it to workers; the cell key appends the ablation label to the
    scenario key because the ablation is deliberately not part of the
    scenario key itself.
    """
    from repro.api import Session

    config = AblationConfig(disabled=spec.ablation)
    session = Session(spec)
    result = session.run()
    defense = result.defense
    rssd = getattr(defense, "rssd", None)
    if rssd is not None:
        data_loss_pages = int(rssd.retention.stats.data_loss_pages)
        pages_offloaded_remote = int(rssd.offload.stats.pages_offloaded)
    else:
        data_loss_pages = 0
        pages_offloaded_remote = 0
    return AblationCellResult(
        cell_key=_ablation_cell_key(spec),
        config=config.label,
        disabled=list(config.disabled),
        attack=spec.attack,
        recovery_fraction=result.recovery_fraction,
        defended=result.defended,
        detected=result.detected,
        detection_latency_us=result.detection_latency_us,
        write_amplification=result.write_amplification,
        mean_write_latency_us=result.mean_write_latency_us,
        mean_read_latency_us=result.mean_read_latency_us,
        host_commands=result.host_commands,
        flash_pages_programmed=result.flash_pages_programmed,
        data_loss_pages=data_loss_pages,
        pages_offloaded_remote=pages_offloaded_remote,
        oplog_hash=result.oplog_hash,
    )


@dataclass(frozen=True)
class AblationStudy:
    """A feature sweep over one base scenario.

    ``features`` are the components under study; ``mode`` selects the
    sweep shape (``drop-one`` or ``power-set``, see
    :meth:`AblationConfig.sweep`); ``attacks`` is the attack axis (each
    config runs once per attack).  The base spec's own ``ablation`` and
    explicit per-stream seeds are cleared so every cell derives its rng
    streams from ``(seed, cell_key)`` uniformly.
    """

    #: The scenario every cell is a variant of.
    base_spec: "ScenarioSpec"
    #: Feature names swept (sorted, unique, registry-validated).
    features: Tuple[str, ...]
    #: Sweep shape: ``"drop-one"`` or ``"power-set"``.
    mode: str = "drop-one"
    #: Attack names to run every config against (defaults to the base
    #: spec's attack).
    attacks: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        """Canonicalize features/attacks and normalize the base spec."""
        object.__setattr__(self, "features", validate_features(self.features))
        if not self.features:
            raise ValueError("an ablation study needs at least one feature")
        if self.mode not in ("drop-one", "power-set"):
            raise ValueError(
                "unknown sweep mode %r (expected 'drop-one' or 'power-set')"
                % (self.mode,)
            )
        base = replace(
            self.base_spec,
            ablation=(),
            env_seed=None,
            workload_seed=None,
            attack_seed=None,
        )
        object.__setattr__(self, "base_spec", base)
        attacks = tuple(self.attacks) if self.attacks else (base.attack,)
        repeated = sorted({name for name in attacks if attacks.count(name) > 1})
        if repeated:
            raise ValueError(f"repeated attack {repeated[0]!r} in the ablation study")
        object.__setattr__(self, "attacks", attacks)

    @classmethod
    def tiny(cls) -> "AblationStudy":
        """The pinned smoke-test study (golden ``ablation_tiny.json``).

        Three features in drop-one mode over two attacks -- 8 cells,
        small enough for CI, large enough to exercise every toggle the
        acceptance gate cares about.
        """
        from repro.api.spec import ScenarioSpec

        base = ScenarioSpec(
            defense="RSSD",
            attack="classic",
            workload="office-edit",
            device="tiny",
            victim_files=8,
            user_activity_hours=2.0,
            seed=107,
        )
        return cls(
            base_spec=base,
            features=("enhanced-trim", "local-detector", "remote-offload"),
            attacks=("classic", "trimming-attack"),
        )

    @property
    def configs(self) -> Tuple[AblationConfig, ...]:
        """The sweep's configs, in deterministic order."""
        return AblationConfig.sweep(self.features, mode=self.mode)

    def specs(self) -> List["ScenarioSpec"]:
        """One fully-specified :class:`ScenarioSpec` per (attack, config) cell."""
        out = []
        for attack in self.attacks:
            for config in self.configs:
                out.append(
                    replace(self.base_spec, attack=attack, ablation=config.disabled)
                )
        return out

    def run(
        self,
        backend: str = "sequential",
        jobs: int = 0,
        cache: Optional["ResultCache"] = None,
        journal: Optional["CheckpointJournal"] = None,
        resume: bool = False,
        after_cell: Optional[Callable] = None,
    ) -> AblationArtifact:
        """Execute every cell through :func:`~repro.campaign.sweep.run_sweep`.

        The artifact is bit-identical whichever backend runs it: specs
        are picklable, cells are scored in the worker, and the artifact
        sorts its cells by key.  The campaign persistence layer rides
        along unchanged: ``cache`` serves unchanged cells from the
        content-addressed store (each ablation variant hashes
        differently because ``ablation`` is part of the spec's
        canonical JSON), ``journal`` checkpoints each completed cell,
        ``resume=True`` re-runs only what the journal is missing, and
        ``after_cell`` fires after each executed cell becomes durable
        (the fault-injection harness's hook point).
        """
        sweep = {
            "features": list(self.features),
            "mode": self.mode,
            "attacks": list(self.attacks),
            "configs": [config.label for config in self.configs],
        }
        run = run_sweep(
            "ablation",
            ABLATION_ARTIFACT_VERSION,
            self.base_spec.seed,
            {"base_spec": self.base_spec.to_dict(), "sweep": sweep},
            self.specs(),
            run_ablation_cell,
            key_fn=_ablation_cell_key,
            encode=AblationCellResult.to_dict,
            decode=AblationCellResult.from_dict,
            backend=backend,
            jobs=jobs,
            cache=cache,
            journal=journal,
            resume=resume,
            after_cell=after_cell,
        )
        artifact = AblationArtifact(self.base_spec.to_dict(), sweep, run.results)
        return artifact.with_provenance(run)
