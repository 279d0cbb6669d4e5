#!/usr/bin/env python3
"""The scenario facade end to end: spec -> session -> events -> forensics.

Declares a scenario as a :class:`repro.api.ScenarioSpec`, round-trips it
through JSON (the form you would ship to a fleet), executes it through a
:class:`repro.api.Session` while watching the typed event bus, and then
interrogates the session's lazily-built views.  This is the programmatic
equivalent of ``python -m repro run --spec scenario.json``.

Run with::

    python examples/scenario_session.py
"""

import json

from repro.api import (
    DetectionEvent,
    GCEvent,
    HostOpEvent,
    OffloadEvent,
    RetentionEvictEvent,
    ScenarioSpec,
    Session,
    record_events,
)


def main() -> None:
    # -- declare the scenario ------------------------------------------------
    spec = ScenarioSpec(
        defense="RSSD",
        attack="trimming-attack",
        workload="office-edit",
        device="tiny",
        victim_files=12,
        user_activity_hours=6.0,
        seed=71,
    )
    print("scenario :", spec.cell_key)
    print("spec hash:", spec.spec_hash())

    # The JSON form is self-contained (seeds resolved) and rebuilds
    # bit-identically -- this is what gets shipped to workers and fleets.
    shipped = ScenarioSpec.from_json(spec.to_json())
    assert shipped.spec_hash() == spec.spec_hash()
    print("spec JSON round-trips bit-identically; fields:",
          ", ".join(sorted(json.loads(spec.to_json()))))

    # -- execute it, watching the event bus ----------------------------------
    session = Session(spec)
    events, _ = record_events(
        session.bus, HostOpEvent, GCEvent, OffloadEvent, RetentionEvictEvent,
        DetectionEvent,
    )
    result = session.run()

    print("\n== outcome ==")
    print(f"recovery fraction : {result.recovery_fraction:.3f} "
          f"({'DEFENDED' if result.defended else 'COMPROMISED'})")
    print(f"detected          : {result.detected} "
          f"(latency {result.detection_latency_us}us)")
    print(f"forensic pattern  : {result.forensic_pattern} "
          f"(exact recovery: {result.recovery_exact})")

    print("\n== event bus ==")
    for name, count in sorted(session.bus.published_counts.items()):
        print(f"{name:<20} {count:>6}")
    offloads = [e for e in events if isinstance(e, OffloadEvent)]
    print(f"NVMe-oE capsules shipped: {len(offloads)} "
          f"({sum(e.wire_bytes for e in offloads):,} wire bytes)")

    print("\n== lazily-built views ==")
    metrics = session.metrics()
    print(f"host commands     : {metrics.host_commands} "
          f"(WA {metrics.write_amplification:.2f})")
    detection = session.detection()
    print(f"detectors         : "
          + ", ".join(f"{e.detector}={'fired' if e.detected else 'quiet'}"
                      for e in detection.events))
    forensics = session.forensics()
    status = forensics.verify_chain()
    print(f"evidence chain    : verified={status.chain_verified}, "
          f"{status.total_entries} entries, "
          f"remote order ok={status.remote_time_order_ok}")


if __name__ == "__main__":
    main()
