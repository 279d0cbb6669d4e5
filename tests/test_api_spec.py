"""ScenarioSpec: validation, serialization, hashing, campaign interop."""

from __future__ import annotations

import json

import pytest

from repro.api import SPEC_VERSION, ScenarioSpec
from repro.campaign.grid import CampaignGrid
from repro.campaign.seeding import derive_seed


class TestValidation:
    def test_default_spec_is_valid(self):
        spec = ScenarioSpec()
        assert spec.cell_key == "RSSD/classic/office-edit/tiny"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("defense", "NotADefense"),
            ("attack", "not-an-attack"),
            ("workload", "not-a-workload"),
            ("device", "mega"),
        ],
    )
    def test_unknown_registry_names_fail_fast(self, field, value):
        with pytest.raises(KeyError) as excinfo:
            ScenarioSpec(**{field: value})
        # The error names the full known list, so it is actionable.
        assert value in str(excinfo.value)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("victim_files", 0),
            ("victim_files", -3),
            ("file_size_bytes", 0),
            ("user_activity_hours", -1.0),
            ("recent_edit_fraction", 1.5),
            ("recent_edit_fraction", -0.1),
        ],
    )
    def test_bad_scenario_numbers_fail_fast(self, field, value):
        with pytest.raises(ValueError):
            ScenarioSpec(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("victim_files", float("nan")),
            ("victim_files", 2.5),
            ("victim_files", True),
            ("victim_files", "8"),
            ("file_size_bytes", float("nan")),
            ("file_size_bytes", -4096),
            ("file_size_bytes", True),
            ("user_activity_hours", float("nan")),
            ("user_activity_hours", float("inf")),
            ("user_activity_hours", "2.0"),
            ("user_activity_hours", True),
            ("recent_edit_fraction", float("nan")),
            ("recent_edit_fraction", float("-inf")),
            ("recent_edit_fraction", None),
        ],
    )
    def test_non_finite_and_wrong_type_numbers_fail_fast(self, field, value):
        """NaN slipped through plain comparisons; the structured check
        rejects non-finite, non-numeric and bool values at construction."""
        from repro.api import SpecValidationError

        with pytest.raises(SpecValidationError) as excinfo:
            ScenarioSpec(**{field: value})
        assert excinfo.value.field == field
        assert field in str(excinfo.value)


class TestSeeds:
    def test_seeds_derive_the_campaign_sha256_way(self):
        spec = ScenarioSpec(seed=71)
        key = spec.cell_key
        assert spec.resolved_env_seed == derive_seed(71, key, "env")
        assert spec.resolved_workload_seed == derive_seed(71, key, "workload")
        assert spec.resolved_attack_seed == derive_seed(71, key, "attack")

    def test_explicit_seeds_override_derivation(self):
        spec = ScenarioSpec(env_seed=1, workload_seed=2, attack_seed=3)
        assert (spec.resolved_env_seed, spec.resolved_workload_seed,
                spec.resolved_attack_seed) == (1, 2, 3)

    def test_resolve_seeds_materializes_every_stream(self):
        resolved = ScenarioSpec(seed=5).resolve_seeds()
        assert resolved.env_seed == resolved.resolved_env_seed
        assert resolved.workload_seed is not None
        assert resolved.attack_seed is not None


class TestSerialization:
    def test_json_round_trip_is_bit_identical(self):
        spec = ScenarioSpec(defense="FlashGuard", attack="gc-attack", seed=9)
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert rebuilt.to_json() == spec.to_json()

    def test_json_is_canonical_and_versioned(self):
        # A spec with no ablation serializes exactly as version 1 did, so
        # pre-existing spec files and hashes stay valid.
        payload = json.loads(ScenarioSpec().to_json())
        assert payload["version"] == 1
        assert "ablation" not in payload
        assert list(payload) == sorted(payload)
        # Only the new optional field opts a spec into the current version.
        ablated = json.loads(ScenarioSpec(ablation=("enhanced-trim",)).to_json())
        assert ablated["version"] == SPEC_VERSION
        assert ablated["ablation"] == ["enhanced-trim"]
        assert list(ablated) == sorted(ablated)

    def test_newer_versions_are_refused(self):
        payload = ScenarioSpec().to_dict()
        payload["version"] = SPEC_VERSION + 1
        with pytest.raises(ValueError, match="newer than supported"):
            ScenarioSpec.from_dict(payload)

    def test_unknown_fields_are_refused(self):
        payload = ScenarioSpec().to_dict()
        payload["gpu_count"] = 8
        with pytest.raises(ValueError, match="unknown scenario spec fields"):
            ScenarioSpec.from_dict(payload)

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        spec = ScenarioSpec(attack="timing-attack")
        spec.save(str(path))
        assert ScenarioSpec.load(str(path)).spec_hash() == spec.spec_hash()


class TestHashing:
    #: Pinned hash of the all-defaults spec.  If this changes, every
    #: shipped spec identity changes with it -- bump SPEC_VERSION and say
    #: why in the changelog.
    DEFAULT_SPEC_HASH = (
        "c440c3931bfb43fb5c3a3e98203c03a2c1d3d5d7b201bb60c70982330d768f88"
    )

    def test_hash_is_stable_across_construction_paths(self):
        assert ScenarioSpec().spec_hash() == self.DEFAULT_SPEC_HASH
        assert ScenarioSpec(seed=23).spec_hash() == self.DEFAULT_SPEC_HASH

    def test_derived_and_resolved_specs_hash_identically(self):
        spec = ScenarioSpec(seed=42)
        assert spec.spec_hash() == spec.resolve_seeds().spec_hash()

    def test_any_field_change_changes_the_hash(self):
        base = ScenarioSpec().spec_hash()
        assert ScenarioSpec(attack="gc-attack").spec_hash() != base
        assert ScenarioSpec(victim_files=25).spec_hash() != base
        assert ScenarioSpec(seed=24).spec_hash() != base

    def test_diff_is_field_precise(self):
        a = ScenarioSpec()
        b = ScenarioSpec(defense="FlashGuard", victim_files=12)
        differences = b.diff(a)
        assert any(d.startswith("defense:") for d in differences)
        # victim_files plus the three seeds that follow from the key change.
        assert any(d.startswith("victim_files:") for d in differences)
        assert a.diff(ScenarioSpec()) == []


class TestCliSpecPlumbing:
    def test_name_overrides_rederive_the_stored_seeds(self, tmp_path, capsys):
        """`repro run --spec X --attack Y` must not reuse X's seeds."""
        from repro.cli import main

        base, overridden = tmp_path / "a.json", tmp_path / "b.json"
        main(["run", "--emit-spec", str(base), "--no-run"])
        main(
            [
                "run",
                "--spec", str(base),
                "--attack", "trimming-attack",
                "--emit-spec", str(overridden),
                "--no-run",
            ]
        )
        capsys.readouterr()
        rebuilt = ScenarioSpec.load(str(overridden))
        assert rebuilt.attack == "trimming-attack"
        expected = ScenarioSpec(attack="trimming-attack")
        assert rebuilt.resolved_attack_seed == expected.resolved_attack_seed
        assert rebuilt.resolved_env_seed == expected.resolved_env_seed

    def test_same_value_flags_keep_a_spec_s_explicit_seeds(self, tmp_path, capsys):
        """A no-op flag must not reset explicit seeds that ``seed`` does not derive."""
        import dataclasses

        from repro.cli import main

        cell = dataclasses.replace(CampaignGrid.tiny().cells()[0].resolve_seeds(), seed=0)
        stored = tmp_path / "cell.json"
        cell.save(str(stored))
        out = tmp_path / "out.json"
        main(
            [
                "run",
                "--spec", str(stored),
                "--defense", cell.defense,
                "--emit-spec", str(out),
                "--no-run",
            ]
        )
        capsys.readouterr()
        rebuilt = ScenarioSpec.load(str(out))
        assert rebuilt.resolved_env_seed == cell.env_seed
        assert rebuilt.resolved_attack_seed == cell.attack_seed
        assert rebuilt.resolved_env_seed != derive_seed(0, cell.cell_key, "env")


class TestCampaignInterop:
    def test_grid_cells_carry_the_cell_identity(self):
        grid = CampaignGrid.tiny()
        cell = grid.cells()[0]
        assert cell.cell_key == "LocalSSD/classic/office-edit/tiny"
        assert cell.seed == grid.seed
        assert cell.resolved_env_seed == derive_seed(grid.seed, cell.cell_key, "env")
        assert cell.resolved_workload_seed == derive_seed(
            grid.seed, cell.cell_key, "workload"
        )
        assert cell.resolved_attack_seed == derive_seed(grid.seed, cell.cell_key, "attack")

    def test_spec_derivation_matches_grid_expansion(self):
        """A spec seeded like the grid derives the very same cell seeds."""
        grid = CampaignGrid.tiny()
        for cell in grid.cells():
            spec = ScenarioSpec(
                defense=cell.defense,
                attack=cell.attack,
                workload=cell.workload,
                device=cell.device,
                victim_files=cell.victim_files,
                file_size_bytes=cell.file_size_bytes,
                user_activity_hours=cell.user_activity_hours,
                recent_edit_fraction=cell.recent_edit_fraction,
                seed=grid.seed,
            )
            assert spec == cell
            assert spec.resolve_seeds().spec_hash() == cell.spec_hash()
