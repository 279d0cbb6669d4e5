"""Fixture: importing a deprecated entry point outside its shim (REPRO-L203)."""

from repro.workloads.fleet import FleetRunner  # REPRO-L203 (+L201: upward edge)


def use() -> object:
    return FleetRunner
