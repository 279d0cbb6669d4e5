"""Capability matrix: the measured version of the paper's Table 1.

For every (defense, attack) pair one scenario builds a fresh victim
environment, lets a background user work on the files for a while,
optionally lets the attacker disable host-resident defenses (aggressive
attacks run with administrator privilege), executes the attack, and
then asks the defense to produce the pre-attack version of every victim
page.  The fraction it can produce is the measured recovery capability;
``✔`` / ``✗`` and ``●`` / ``◗`` / ``❍`` are derived from it.

This module holds the grading thresholds, the row and cell records and
the Table-1 layout.  The scenarios themselves are ordinary
:class:`~repro.api.spec.ScenarioSpec` runs with pinned seeds, built by
:func:`repro.analysis.experiments.run_capability_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

#: Recovery fraction at or above which an attack counts as "defended".
DEFENDED_THRESHOLD = 0.99
#: Recovery fraction at or above which CloudBackup-style partial recovery
#: still counts as a meaningful defense (the paper's half-filled circles).
PARTIAL_THRESHOLD = 0.50


def recovery_grade(fraction: float) -> str:
    """Map a recovery fraction to the paper's ● / ◗ / ❍ symbols."""
    if fraction >= DEFENDED_THRESHOLD:
        return "●"
    if fraction >= 0.05:
        return "◗"
    return "❍"


@dataclass
class CapabilityCell:
    """Outcome of one (defense, attack) scenario."""

    attack: str
    recovery_fraction: float
    defended: bool
    detected: bool
    compromised: bool
    victim_pages: int
    pages_recovered: int
    attack_duration_us: int

    @property
    def symbol(self) -> str:
        """✔ when the attack was defended (possibly partially for backups)."""
        if self.defended:
            return "✔"
        if self.recovery_fraction >= PARTIAL_THRESHOLD:
            return "✔"
        return "✗"


@dataclass
class MatrixRow:
    """One defense's row of the capability matrix."""

    defense: str
    hardware_isolated: bool
    supports_forensics: bool
    cells: Dict[str, CapabilityCell] = field(default_factory=dict)

    @property
    def recovery_symbol(self) -> str:
        """Overall recovery grade across every attack the row was scored on.

        ``●`` means every attack was fully recoverable, ``◗`` means at
        least one attack was (partially) recoverable, ``❍`` means the
        defense could not restore anything for any attack.
        """
        if not self.cells:
            return "❍"
        worst = min(cell.recovery_fraction for cell in self.cells.values())
        best = max(cell.recovery_fraction for cell in self.cells.values())
        if worst >= DEFENDED_THRESHOLD:
            return "●"
        if best >= 0.05:
            return "◗"
        return "❍"


def format_capability_table(rows: List[MatrixRow]) -> str:
    """Render the matrix the way the paper's Table 1 is laid out."""
    header = (
        f"{'Defense':<12} {'GC':>4} {'Timing':>7} {'Trimming':>9} "
        f"{'Recovery':>9} {'Forensics':>10}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        gc = row.cells.get("gc-attack")
        timing = row.cells.get("timing-attack")
        trimming = row.cells.get("trimming-attack")
        lines.append(
            f"{row.defense:<12} "
            f"{gc.symbol if gc else '-':>4} "
            f"{timing.symbol if timing else '-':>7} "
            f"{trimming.symbol if trimming else '-':>9} "
            f"{row.recovery_symbol:>9} "
            f"{'✔' if row.supports_forensics else '✗':>10}"
        )
    return "\n".join(lines)
