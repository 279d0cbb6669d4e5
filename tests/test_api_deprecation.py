"""The legacy entry points: still working, warning exactly once."""

from __future__ import annotations

import warnings

import pytest

from repro import _deprecation
from repro.api import RSSD, RSSDConfig
from repro.campaign.grid import CampaignGrid


@pytest.fixture(autouse=True)
def fresh_warning_state():
    """Each test sees a process that has not warned yet."""
    _deprecation.reset_warned()
    yield
    _deprecation.reset_warned()


def collect_deprecations(fn):
    """Run ``fn`` and return the DeprecationWarnings it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn()
    return result, [w for w in caught if issubclass(w.category, DeprecationWarning)]


class TestBuildEnvironmentShim:
    def test_still_works_and_names_the_replacement(self):
        from repro.attacks.base import build_environment

        rssd = RSSD(config=RSSDConfig.tiny())
        env, deprecations = collect_deprecations(
            lambda: build_environment(rssd, victim_files=3, file_size_bytes=4096)
        )
        assert env.fs.file_count == 3
        assert len(deprecations) == 1
        message = str(deprecations[0].message)
        assert "build_environment" in message
        assert "repro.api.provision_environment" in message

    def test_warns_exactly_once_per_process(self):
        from repro.attacks.base import build_environment

        rssd = RSSD(config=RSSDConfig.tiny())
        _, first = collect_deprecations(lambda: build_environment(rssd, victim_files=2))
        _, second = collect_deprecations(lambda: build_environment(rssd, victim_files=2))
        assert len(first) == 1 and second == []

    def test_provision_environment_never_warns(self):
        from repro.api import provision_environment

        rssd = RSSD(config=RSSDConfig.tiny())
        _, deprecations = collect_deprecations(
            lambda: provision_environment(rssd, victim_files=2)
        )
        assert deprecations == []


class TestFleetRunnerShim:
    def test_direct_construction_warns_once_and_works(self):
        from repro.workloads.fleet import FleetRunner

        runner, first = collect_deprecations(lambda: FleetRunner())
        assert runner.batched and runner.factories
        _, second = collect_deprecations(lambda: FleetRunner())
        assert len(first) == 1 and second == []
        message = str(first[0].message)
        assert "FleetRunner" in message and "repro.api.run_fleet" in message

    def test_run_fleet_never_warns(self):
        from repro.api import run_fleet
        from repro.workloads.synthetic import BurstyWorkload

        trace = BurstyWorkload(capacity_pages=64, seed=3).generate(50)
        report, deprecations = collect_deprecations(
            lambda: run_fleet(trace, factories=None, mode="mirror")
        )
        assert deprecations == []
        assert report.total_records == 50 * len(report.devices)

    def test_run_fleet_rejects_unknown_modes(self):
        from repro.api import run_fleet

        with pytest.raises(ValueError, match="unknown fleet mode"):
            run_fleet([], mode="broadcast")


class TestRunRocShim:
    def test_campaign_run_roc_is_the_api_driver(self):
        """The shim is gone: both names are the one ROC sweep driver."""
        from repro.api import run_roc as api_run_roc
        from repro.campaign.roc import run_roc

        assert run_roc is api_run_roc
        grid = CampaignGrid.evasion_tiny()
        artifact, deprecations = collect_deprecations(lambda: run_roc(grid, specs=[]))
        assert deprecations == [] and artifact.campaign_seed == grid.seed

    def test_api_run_roc_never_warns(self):
        from repro.api import run_roc

        grid = CampaignGrid.evasion_tiny()
        artifact, deprecations = collect_deprecations(lambda: run_roc(grid, specs=[]))
        assert deprecations == [] and artifact.curves == []


class TestWarnOncePlumbing:
    def test_distinct_pairs_warn_independently(self):
        def both():
            _deprecation.warn_once("old.a", "new.a")
            _deprecation.warn_once("old.b", "new.b")
            _deprecation.warn_once("old.a", "new.a")

        _, deprecations = collect_deprecations(both)
        assert len(deprecations) == 2

    def test_warn_once_reports_whether_it_warned(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert _deprecation.warn_once("x", "y") is True
            assert _deprecation.warn_once("x", "y") is False
