"""T1 — Table 1: comparison with state-of-the-art defenses.

Regenerates the paper's capability matrix by replaying the classic, GC,
timing and trimming attacks against every baseline defense and RSSD on
the same SSD substrate, then scoring how much victim data each defense
can still produce.
"""

from repro.analysis.experiments import run_capability_matrix
from repro.bench import scaled
from repro.defenses.matrix import format_capability_table


def test_table1_capability_matrix(once):
    rows = once(run_capability_matrix, victim_files=scaled(24, 12))
    table = format_capability_table(rows)
    print("\n[Table 1] Defense capability matrix (measured)\n" + table)

    by_name = {row.defense: row for row in rows}

    # RSSD: defends all three new attacks, full recovery, forensics support.
    rssd = by_name["RSSD"]
    for attack in ("gc-attack", "timing-attack", "trimming-attack"):
        assert rssd.cells[attack].defended, attack
    assert rssd.recovery_symbol == "●"
    assert rssd.supports_forensics

    # Hardware retention baselines survive the GC attack but not timing/trim.
    for name in ("FlashGuard", "TimeSSD"):
        row = by_name[name]
        assert row.cells["gc-attack"].defended
        assert not row.cells["timing-attack"].defended
        assert not row.cells["trimming-attack"].defended

    # Detection-centric and software baselines fail the new attacks.
    for name in ("Unveil", "CryptoDrop", "ShieldFS", "JFS", "SSDInsider", "RBlocker"):
        row = by_name[name]
        for attack in ("gc-attack", "timing-attack", "trimming-attack"):
            assert not row.cells[attack].defended, (name, attack)

    # CloudBackup only helps against the stealthy timing attack, partially.
    backup = by_name["CloudBackup"]
    assert backup.cells["timing-attack"].recovery_fraction >= 0.5
    assert backup.cells["gc-attack"].recovery_fraction < 0.05

    # Only RSSD provides trusted post-attack analysis.
    assert [row.defense for row in rows if row.supports_forensics] == ["RSSD"]
