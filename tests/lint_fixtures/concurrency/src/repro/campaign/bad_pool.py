"""Fixture: pickle-unsafe pool submissions and hidden state (REPRO-C4xx)."""

from repro.campaign.runner import ExperimentRunner
from repro.campaign.sweep import run_sweep

results_cache = {}  # REPRO-C402: module-level mutable in a sim layer
seen = set()  # REPRO-C402


def sweep(specs: list) -> list:
    runner = ExperimentRunner(backend="process")
    return runner.map(lambda spec: spec, specs)  # REPRO-C401: lambda


def sweep_nested(specs: list) -> list:
    def run_one(spec: object) -> object:  # local def: not picklable
        return spec

    runner = ExperimentRunner(backend="process")
    return runner.map(run_one, specs)  # REPRO-C401: locally defined function


def sweep_cached(cache: object, specs: list) -> object:
    return run_sweep(
        "demo", 1, 0, {}, specs, lambda spec: spec, cache=cache  # REPRO-C401: lambda
    )
