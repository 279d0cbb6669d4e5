"""Campaign engine tests: grids, seeding, backends, artifacts.

The determinism properties here are the contract the golden-run suite
relies on: the same ``(campaign_seed, grid)`` must produce identical
``CellResult`` records whatever backend executes the cells and whatever
order they run in.
"""

from __future__ import annotations

import random

import pytest

from repro.campaign import (
    CampaignArtifact,
    CampaignGrid,
    ExperimentRunner,
    derive_seed,
    run_campaign,
    run_cell,
)
from repro.campaign.grid import filter_specs
from repro.campaign.runner import BACKENDS


def small_grid(**overrides) -> CampaignGrid:
    """A 4-cell grid that keeps the multi-backend tests fast."""
    params = dict(
        defenses=["LocalSSD", "SSDInsider"],
        attacks=["classic", "timing-attack"],
        workloads=["office-edit"],
        device_configs=["tiny"],
        victim_files=4,
        file_size_bytes=4096,
        user_activity_hours=2.0,
        seed=13,
    )
    params.update(overrides)
    return CampaignGrid(**params)


class TestSeeding:
    def test_derivation_is_stable_across_platforms(self):
        # Pinned value: SHA-256 based, so it must never change. If this
        # fails, every golden artifact silently re-seeds.
        assert derive_seed(71, "a/b/c", "env") == derive_seed(71, "a/b/c", "env")
        assert derive_seed(1, "x") == 1684744602868703426

    def test_distinct_parts_give_distinct_streams(self):
        seeds = {
            derive_seed(7, key, purpose)
            for key in ("a", "b", "c")
            for purpose in ("env", "workload", "attack")
        }
        assert len(seeds) == 9

    def test_cells_embed_derived_seeds(self):
        grid = small_grid()
        specs = grid.cells()
        by_key = {spec.cell_key: spec for spec in specs}
        spec = by_key["LocalSSD/classic/office-edit/tiny"]
        assert spec.seed == 13
        assert spec.resolved_env_seed == derive_seed(13, spec.cell_key, "env")
        assert spec.resolved_attack_seed == derive_seed(13, spec.cell_key, "attack")
        # A different campaign seed re-seeds every cell.
        respec = small_grid(seed=14).cells()[0]
        assert respec.resolved_env_seed != specs[0].resolved_env_seed


class TestGrid:
    def test_expansion_is_the_cartesian_product(self):
        grid = small_grid(workloads=["office-edit", "idle"])
        specs = grid.cells()
        assert len(specs) == 2 * 2 * 2
        assert len({spec.cell_key for spec in specs}) == len(specs)

    def test_unknown_names_rejected_eagerly(self):
        with pytest.raises(KeyError, match="NotADefense"):
            small_grid(defenses=["NotADefense"])
        with pytest.raises(KeyError, match="attacks"):
            small_grid(attacks=["not-an-attack"])

    def test_filter_substring_and_glob(self):
        specs = small_grid().cells()
        assert len(filter_specs(specs, ["SSDInsider"])) == 2
        assert len(filter_specs(specs, ["*/classic/*"])) == 2
        assert len(filter_specs(specs, ["SSDInsider", "*/classic/*"])) == 3
        assert filter_specs(specs, []) == specs

    def test_grid_filter_passthrough(self):
        assert len(small_grid().cells(["timing-attack"])) == 2


class TestExperimentRunner:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            ExperimentRunner(backend="gpu")

    def test_map_preserves_input_order(self):
        runner = ExperimentRunner(backend="thread", jobs=4)
        items = list(range(20))
        assert runner.map(lambda x: x * x, items) == [x * x for x in items]

    def test_empty_input(self):
        assert ExperimentRunner(backend="process", jobs=2).map(abs, []) == []


class TestDeterminism:
    """Same (campaign_seed, grid) => identical results, any backend/order."""

    @pytest.fixture(scope="class")
    def sequential_artifact(self):
        return run_campaign(small_grid(), backend="sequential")

    @pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "sequential"])
    def test_backends_agree_bit_for_bit(self, sequential_artifact, backend):
        artifact = run_campaign(small_grid(), backend=backend, jobs=2)
        assert artifact.to_json() == sequential_artifact.to_json()
        assert artifact.diff(sequential_artifact) == []

    def test_execution_order_does_not_matter(self, sequential_artifact):
        grid = small_grid()
        shuffled = grid.cells()
        random.Random(99).shuffle(shuffled)
        artifact = run_campaign(grid, backend="sequential", specs=shuffled)
        assert artifact.to_json() == sequential_artifact.to_json()

    def test_repeated_run_in_same_process_is_identical(self, sequential_artifact):
        # Guards against leaked module-level random state between cells.
        again = run_campaign(small_grid(), backend="sequential")
        assert again.to_json() == sequential_artifact.to_json()

    def test_single_cell_rerun_matches_campaign(self, sequential_artifact):
        spec = small_grid().cells()[0]
        alone = run_cell(spec)
        assert alone == sequential_artifact.cell(spec.cell_key)


class TestArtifact:
    def test_round_trip(self):
        artifact = run_campaign(small_grid())
        clone = CampaignArtifact.from_json(artifact.to_json())
        assert clone.to_json() == artifact.to_json()
        assert clone.diff(artifact) == []

    def test_cells_sorted_by_key_regardless_of_insertion(self):
        artifact = run_campaign(small_grid())
        reversed_cells = list(reversed(artifact.cells))
        rebuilt = CampaignArtifact(
            campaign_seed=artifact.campaign_seed,
            grid=artifact.grid,
            cells=reversed_cells,
        )
        assert rebuilt.cell_keys == sorted(rebuilt.cell_keys)

    def test_newer_version_rejected(self):
        artifact = run_campaign(small_grid())
        data = artifact.to_dict()
        data["version"] = 999
        with pytest.raises(ValueError, match="newer"):
            CampaignArtifact.from_dict(data)

    def test_unknown_cell_lookup(self):
        artifact = run_campaign(small_grid())
        with pytest.raises(KeyError):
            artifact.cell("nope/nope/nope/nope")

    def test_diff_reports_missing_and_extra_cells(self):
        artifact = run_campaign(small_grid())
        truncated = CampaignArtifact(
            campaign_seed=artifact.campaign_seed,
            grid=artifact.grid,
            cells=artifact.cells[1:],
        )
        differences = truncated.diff(artifact)
        assert any(d.startswith("missing cell:") for d in differences)
        differences = artifact.diff(truncated)
        assert any(d.startswith("extra cell:") for d in differences)


class TestImportLayering:
    def test_low_level_packages_import_without_campaign(self):
        """repro.host / repro.attacks must import in a fresh process.

        Regression test for an import cycle: workloads.fleet importing
        the campaign runner at module level re-entered a partially
        initialized repro.attacks.base whenever the host layer was
        imported first.
        """
        import subprocess
        import sys

        for module in ("repro.host", "repro.attacks", "repro.workloads"):
            proc = subprocess.run(
                [sys.executable, "-c", f"import {module}"],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, f"import {module} failed:\n{proc.stderr}"


class TestCliGridValidation:
    def test_unknown_defense_fails_fast(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="error: unknown defenses.*NotADefense"):
            main(["campaign", "--defenses", "NotADefense"])

    def test_zero_victim_files_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="error: victim_files"):
            main(["campaign", "--victim-files", "0"])


class TestEnvironmentRngBinding:
    @pytest.mark.parametrize(
        "attack_name", ["classic", "gc-attack", "timing-attack", "trimming-attack"]
    )
    def test_seedless_attacks_bind_the_environment_rng(self, attack_name):
        """seed=None defers every random draw to env.rng (no module random)."""
        from repro.api import provision_environment
        from repro.campaign.registries import ATTACKS
        from repro.defenses.unprotected import UnprotectedSSD
        from repro.ssd.geometry import SSDGeometry

        def run_once():
            defense = UnprotectedSSD(geometry=SSDGeometry.tiny())
            env = provision_environment(
                defense.device, victim_files=4, file_size_bytes=4096, seed=5
            )
            attack = ATTACKS[attack_name](None)  # seed=None: defer to env.rng
            assert attack.rng is None
            return attack.execute(env)

        first, second = run_once(), run_once()
        assert first.victim_lbas == second.victim_lbas
        assert first.pages_encrypted == second.pages_encrypted
        assert first.junk_pages_written == second.junk_pages_written


class TestScenarioSemantics:
    def test_rng_is_threaded_not_module_level(self):
        """Cells must not consume (or depend on) module-level random state."""
        random.seed(1)
        first = run_cell(small_grid().cells()[0])
        state_after = random.getstate()
        random.seed(2)
        second = run_cell(small_grid().cells()[0])
        assert first == second
        random.seed(1)
        run_cell(small_grid().cells()[0])
        assert random.getstate() == state_after == random.getstate()

    def test_detection_latency_only_when_detected(self):
        artifact = run_campaign(small_grid(victim_files=12, file_size_bytes=8192))
        for cell in artifact.cells:
            if cell.detected:
                assert cell.detection_latency_us is not None
                assert 0 <= cell.detection_latency_us
            else:
                assert cell.detection_latency_us is None

    def test_oplog_hash_present_only_for_logging_devices(self):
        grid = small_grid(defenses=["LocalSSD", "RSSD"], attacks=["classic"])
        artifact = run_campaign(grid)
        assert artifact.cell("RSSD/classic/office-edit/tiny").oplog_hash
        assert artifact.cell("LocalSSD/classic/office-edit/tiny").oplog_hash is None

    def test_idle_workload_runs(self):
        grid = small_grid(defenses=["LocalSSD"], attacks=["classic"], workloads=["idle"])
        artifact = run_campaign(grid)
        (cell,) = artifact.cells
        assert cell.workload == "idle"
        assert cell.victim_pages > 0


@pytest.mark.slow
def test_full_default_grid_matches_matrix_shape():
    """The full Table-1 grid through the engine, in parallel.

    Nightly-scale check: the campaign engine's parallel run must agree
    with the capability matrix's qualitative shape (the same assertions
    the paper's Table 1 makes).
    """
    artifact = run_campaign(CampaignGrid(), backend="thread", jobs=2)
    assert len(artifact.cells) == 11 * 4

    def fraction(defense, attack):
        return artifact.cell(f"{defense}/{attack}/office-edit/tiny").recovery_fraction

    for attack in ("gc-attack", "timing-attack", "trimming-attack"):
        assert fraction("RSSD", attack) >= 0.99
        assert fraction("LocalSSD", attack) < 0.05
    for defense in ("FlashGuard", "TimeSSD"):
        assert fraction(defense, "gc-attack") >= 0.99
        assert fraction(defense, "timing-attack") < 0.99
        assert fraction(defense, "trimming-attack") < 0.99
    assert fraction("CloudBackup", "timing-attack") >= 0.5
