"""Declarative campaign grids.

A grid is the cartesian product of named defenses, attacks, workload
generators and device configs plus shared scenario parameters.  It
expands into :class:`~repro.api.spec.ScenarioSpec` cells -- names and
numbers only, so specs pickle cleanly and the process-pool backend
stays trivial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

from repro.campaign import registries

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.api.spec import ScenarioSpec


def filter_specs(
    specs: Iterable["ScenarioSpec"], patterns: Sequence[str]
) -> List["ScenarioSpec"]:
    """Keep specs whose cell key matches any shell-style pattern.

    A bare substring (no glob metacharacters) matches anywhere in the
    key, so ``--filter RSSD`` selects every RSSD cell.
    """
    if not patterns:
        return list(specs)
    globs = [
        pattern if any(ch in pattern for ch in "*?[") else f"*{pattern}*"
        for pattern in patterns
    ]
    return [
        spec
        for spec in specs
        if any(fnmatchcase(spec.cell_key, pattern) for pattern in globs)
    ]


@dataclass
class CampaignGrid:
    """The experiment grid a campaign executes.

    ``seed`` is the campaign seed every cell seed is derived from;
    change it and every cell changes, keep it and every cell reproduces
    bit-for-bit.
    """

    defenses: List[str] = field(
        default_factory=lambda: list(registries.DEFENSES)
    )
    attacks: List[str] = field(
        default_factory=lambda: list(registries.DEFAULT_ATTACKS)
    )
    workloads: List[str] = field(default_factory=lambda: ["office-edit"])
    device_configs: List[str] = field(default_factory=lambda: ["tiny"])
    victim_files: int = 24
    file_size_bytes: int = 8192
    user_activity_hours: float = 30.0
    recent_edit_fraction: float = 0.3
    seed: int = 23

    def __post_init__(self) -> None:
        registries.validate_names(
            self.defenses, self.attacks, self.workloads, self.device_configs
        )
        if self.victim_files < 1:
            raise ValueError("victim_files must be at least 1")
        if self.file_size_bytes < 1:
            raise ValueError("file_size_bytes must be at least 1")

    @classmethod
    def tiny(cls) -> "CampaignGrid":
        """The CI smoke / golden-run grid: small, fast, still cross-layer."""
        return cls(
            defenses=["LocalSSD", "FlashGuard", "RSSD"],
            attacks=["classic", "trimming-attack"],
            workloads=["office-edit"],
            device_configs=["tiny"],
            victim_files=12,
            file_size_bytes=8192,
            user_activity_hours=6.0,
            recent_edit_fraction=0.3,
            seed=71,
        )

    @classmethod
    def evasion_tiny(cls) -> "CampaignGrid":
        """The CI-sized detection-quality grid: adaptive attacks against
        an entropy-window defense, a firmware detector and RSSD."""
        return cls(
            defenses=["LocalSSD", "SSDInsider", "RSSD"],
            attacks=list(registries.EVASIVE_ATTACKS),
            workloads=["office-edit"],
            device_configs=["tiny"],
            victim_files=8,
            file_size_bytes=8192,
            user_activity_hours=4.0,
            recent_edit_fraction=0.3,
            seed=83,
        )

    @classmethod
    def evasion_full(cls) -> "CampaignGrid":
        """The nightly detection-quality sweep: every evasion-strength
        variant against every detection-capable defense row."""
        return cls(
            defenses=[
                "LocalSSD",
                "Unveil",
                "CryptoDrop",
                "ShieldFS",
                "SSDInsider",
                "RSSD",
            ],
            attacks=list(registries.EVASIVE_ATTACKS_FULL),
            workloads=["office-edit"],
            device_configs=["tiny"],
            victim_files=12,
            file_size_bytes=8192,
            user_activity_hours=8.0,
            recent_edit_fraction=0.3,
            seed=83,
        )

    def cells(self, filters: Optional[Sequence[str]] = None) -> List["ScenarioSpec"]:
        """Expand the grid (defense-major order) into seeded scenario specs.

        Every cell carries the grid's ``seed``, so its env, workload and
        attack seeds derive from ``(seed, cell_key)``.
        """
        from repro.api.spec import ScenarioSpec

        specs = [
            ScenarioSpec(
                defense=defense,
                attack=attack,
                workload=workload,
                device=device_config,
                victim_files=self.victim_files,
                file_size_bytes=self.file_size_bytes,
                user_activity_hours=self.user_activity_hours,
                recent_edit_fraction=self.recent_edit_fraction,
                seed=self.seed,
            )
            for defense in self.defenses
            for attack in self.attacks
            for workload in self.workloads
            for device_config in self.device_configs
        ]
        return filter_specs(specs, filters or [])

    def describe(self) -> Dict[str, object]:
        """JSON-ready description embedded in campaign artifacts."""
        return {
            "defenses": list(self.defenses),
            "attacks": list(self.attacks),
            "workloads": list(self.workloads),
            "device_configs": list(self.device_configs),
            "victim_files": self.victim_files,
            "file_size_bytes": self.file_size_bytes,
            "user_activity_hours": self.user_activity_hours,
            "recent_edit_fraction": self.recent_edit_fraction,
            "seed": self.seed,
        }
