"""Tests for the capability matrix (the measured Table 1)."""

import pytest

from repro.analysis.experiments import run_capability_matrix
from repro.campaign import registries
from repro.defenses.matrix import format_capability_table, recovery_grade


@pytest.fixture(scope="module")
def key_rows():
    """Run the matrix once for the defenses the shape assertions need."""
    wanted = ["LocalSSD", "CloudBackup", "FlashGuard", "TimeSSD", "SSDInsider", "RSSD"]
    rows = run_capability_matrix(defense_names=wanted, victim_files=12)
    return {row.defense: row for row in rows}


class TestRecoveryGrade:
    def test_grading_thresholds(self):
        assert recovery_grade(1.0) == "●"
        assert recovery_grade(0.995) == "●"
        assert recovery_grade(0.5) == "◗"
        assert recovery_grade(0.06) == "◗"
        assert recovery_grade(0.0) == "❍"


class TestFactories:
    def test_all_table1_rows_have_factories(self):
        names = set(registries.DEFENSES)
        for expected in (
            "Unveil",
            "CryptoDrop",
            "CloudBackup",
            "ShieldFS",
            "JFS",
            "FlashGuard",
            "TimeSSD",
            "SSDInsider",
            "RBlocker",
            "RSSD",
        ):
            assert expected in names

    def test_attack_columns(self):
        assert set(registries.DEFAULT_ATTACKS) == {
            "classic",
            "gc-attack",
            "timing-attack",
            "trimming-attack",
        }

    def test_unknown_defense_request_rejected(self):
        with pytest.raises(KeyError):
            run_capability_matrix(defense_names=["NotADefense"])


class TestMatrixShape:
    """The measured matrix must reproduce the shape of the paper's Table 1."""

    def test_rssd_defends_all_three_new_attacks(self, key_rows):
        rssd = key_rows["RSSD"]
        for attack in ("gc-attack", "timing-attack", "trimming-attack"):
            assert rssd.cells[attack].defended, attack
            assert rssd.cells[attack].recovery_fraction >= 0.99
        assert rssd.recovery_symbol == "●"
        assert rssd.supports_forensics

    def test_unprotected_ssd_loses_everything(self, key_rows):
        local = key_rows["LocalSSD"]
        for attack in ("gc-attack", "timing-attack", "trimming-attack"):
            assert not local.cells[attack].defended
        assert local.recovery_symbol == "❍"

    def test_flashguard_survives_gc_but_not_timing_or_trimming(self, key_rows):
        flashguard = key_rows["FlashGuard"]
        assert flashguard.cells["gc-attack"].defended
        assert not flashguard.cells["timing-attack"].defended
        assert not flashguard.cells["trimming-attack"].defended
        assert flashguard.recovery_symbol == "◗"

    def test_timessd_profile_matches_flashguard_shape(self, key_rows):
        timessd = key_rows["TimeSSD"]
        assert timessd.cells["gc-attack"].defended
        assert not timessd.cells["timing-attack"].defended
        assert not timessd.cells["trimming-attack"].defended

    def test_ssdinsider_fails_all_new_attacks(self, key_rows):
        ssdinsider = key_rows["SSDInsider"]
        for attack in ("gc-attack", "timing-attack", "trimming-attack"):
            assert not ssdinsider.cells[attack].defended, attack
        # But classic ransomware is within its reach.
        assert ssdinsider.cells["classic"].recovery_fraction > 0.5

    def test_cloud_backup_only_helps_against_the_stealthy_attack(self, key_rows):
        backup = key_rows["CloudBackup"]
        assert backup.cells["timing-attack"].recovery_fraction >= 0.5
        assert backup.cells["gc-attack"].recovery_fraction < 0.05
        assert backup.cells["trimming-attack"].recovery_fraction < 0.05
        assert backup.cells["gc-attack"].compromised
        assert not backup.cells["timing-attack"].compromised

    def test_only_rssd_supports_forensics(self, key_rows):
        for name, row in key_rows.items():
            if name == "RSSD":
                assert row.supports_forensics
            else:
                assert not row.supports_forensics

    def test_format_table_renders_every_row(self, key_rows):
        table = format_capability_table(list(key_rows.values()))
        for name in key_rows:
            assert name in table
        assert "Forensics" in table
