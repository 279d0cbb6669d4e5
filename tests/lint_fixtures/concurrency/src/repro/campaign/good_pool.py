"""Fixture: pickle-safe submissions and frozen module state (no findings)."""

from repro.campaign.runner import ExperimentRunner
from repro.campaign.sweep import run_sweep

KNOWN_BACKENDS = ("sequential", "thread", "process")  # frozen: fine
_SHARD_LIMIT = 64  # scalar: fine


def run_one(spec: object) -> object:
    """Module-level function: picklable under every backend."""
    return spec


def sweep(specs: list) -> list:
    runner = ExperimentRunner(backend="process")
    return runner.map(run_one, specs)  # module-level fn: fine


def sweep_threaded(specs: list, concurrent: bool) -> list:
    runner = ExperimentRunner(backend="thread" if concurrent else "sequential")
    return runner.map(lambda spec: spec, specs)  # never the process backend: fine


def sweep_cached(specs: list) -> object:
    # Only cell_fn crosses the process boundary; key_fn runs in the parent.
    return run_sweep("demo", 1, 0, {}, specs, run_one, key_fn=lambda spec: str(spec))
